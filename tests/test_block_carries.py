"""Block-by-block stages that carry state across block edges equal their whole-signal forms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbss.cepsmooth import SmoothingParams, smooth_frames, smooth_mask
from cbss.jointdiag import CovarianceSums, estimate_block_covariances
from cbss.masking import IsolatedUnitCount, SpectralMask, isolated_unit_fraction
from cbss.stft import Spectrogram, StftConfig


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.sampled_from([16, 32, 64]), n_frames=st.integers(2, 40))
def test_block_carries_equal_whole_signal_results_property(data, k, n_frames):
    half = k // 2
    l_env = data.draw(st.integers(1, half - 3), label="l_env")
    l_low = data.draw(st.integers(l_env + 1, half - 2), label="l_low")
    l_high = data.draw(st.integers(l_low + 1, half - 1), label="l_high")
    unit = st.floats(0.0, 1.0)
    params = SmoothingParams(
        dft_length=k, beta_env=data.draw(unit), beta_pitch=data.draw(unit),
        beta_peak=data.draw(unit), l_env=l_env, l_low=l_low, l_high=l_high,
    )
    block_count = data.draw(st.integers(2, n_frames), label="block_count")
    cuts = data.draw(st.sets(st.integers(1, n_frames - 1)), label="block edges")
    edges = [0, *sorted(cuts), n_frames]

    n_bins = half + 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cfg = StftConfig(k, 0.5)
    length = (n_frames - 1) * cfg.hop + k
    x0, x1 = (
        rng.standard_normal((n_frames, n_bins)) + 1j * rng.standard_normal((n_frames, n_bins))
        for _ in range(2)
    )
    mask = (rng.random((n_frames, n_bins)) < 0.5).astype(float)
    magnitudes = np.abs(x0)

    smoothed = []
    previous = None
    count = IsolatedUnitCount()
    sums = CovarianceSums(n_bins, n_frames, block_count)
    for a, b in zip(edges, edges[1:]):
        block, previous = smooth_frames(mask[a:b], magnitudes[a:b], params, previous)
        smoothed.append(block)
        count.add(mask[a:b])
        sums.add(x0[a:b], x1[a:b], a)

    spec0 = Spectrogram(x0.T, cfg, 8000, length)
    spec1 = Spectrogram(x1.T, cfg, 8000, length)
    whole = smooth_mask(SpectralMask(mask.T, "binary"), spec0, params)
    assert np.array_equal(np.concatenate(smoothed), whole.values.T)
    assert count.fraction() == isolated_unit_fraction(SpectralMask(mask.T, "binary"))
    covariances = estimate_block_covariances((spec0, spec1), block_count)
    assert np.array_equal(sums.covariance_set().matrices, covariances.matrices)
