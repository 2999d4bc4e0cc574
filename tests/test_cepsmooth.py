import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbss.cepsmooth import (
    SmoothingParams,
    _band_bases,
    _dct1,
    _first_near_max,
    estimate_pitch_quefrency,
    magnitude_cepstrum,
    smooth_frames,
    smooth_mask,
)
from cbss.masking import SpectralMask, isolated_unit_fraction
from cbss.stft import Spectrogram, StftConfig

from oracles import idft_direct, smooth_frames_dct, smooth_mask_direct

SMALL = SmoothingParams(dft_length=32, l_env=2, l_low=4, l_high=10)


def _spec(values, k=32):
    cfg = StftConfig(k, 0.5)
    values = np.asarray(values, dtype=complex)
    n = (values.shape[1] - 1) * cfg.hop + k
    return Spectrogram(values, cfg, 8000, n)


def test_params_validate_bands_and_betas():
    SmoothingParams()
    with pytest.raises(ValueError):
        SmoothingParams(dft_length=31)
    with pytest.raises(ValueError):
        SmoothingParams(beta_peak=1.5)
    with pytest.raises(ValueError):
        SmoothingParams(mask_floor=0.0)
    with pytest.raises(ValueError):
        SmoothingParams(dft_length=32, l_env=2, l_low=4, l_high=16)  # l_high = K/2
    with pytest.raises(ValueError):
        SmoothingParams(dft_length=32, l_env=5, l_low=4, l_high=10)  # bands out of order


def test_mask_cepstrum_known_columns():
    ones = np.ones(17)
    cep = magnitude_cepstrum(ones, 1e-3)
    assert cep.shape == (17,)
    assert np.max(np.abs(cep)) <= 1e-12

    const = np.full(17, 0.5)
    cep = magnitude_cepstrum(const, 1e-3)
    assert cep[0] == pytest.approx(np.log(0.5), abs=1e-12)
    assert np.max(np.abs(cep[1:])) <= 1e-12

    with pytest.raises(ValueError):
        magnitude_cepstrum(np.ones((17, 2)), 1e-3)


@pytest.mark.parametrize("k", [257, 513, 1025, 2049, 4097])
def test_even_extension_dct_keeps_the_bits_of_scipy(k):
    from scipy.fft import dct

    rng = np.random.default_rng(k)
    for shape in ((2, 128, k), (2, 1, k)):
        x = rng.standard_normal(shape)
        assert np.array_equal(_dct1(x), dct(x, type=1, axis=-1))


def test_mask_cepstrum_matches_direct_dft():
    rng = np.random.default_rng(0)
    for _ in range(5):
        column = rng.uniform(0.0, 1.0, 17)
        cep = magnitude_cepstrum(column, 1e-3)
        floored = np.maximum(column, 1e-3)
        full = np.concatenate([floored, floored[-2:0:-1]])
        ref = np.real(idft_direct(np.log(full)))
        assert np.max(np.abs(ref[17:] - ref[15:0:-1])) <= 1e-9  # even: 0..K/2 hold it all
        assert np.max(np.abs(cep - ref[:17])) <= 1e-9


def test_magnitude_cepstrum_rejects_negative():
    with pytest.raises(ValueError):
        magnitude_cepstrum(np.array([1.0, -0.1, 0.5]), 1e-3)


def test_pitch_estimate_argmax_and_ties():
    coeffs = np.zeros(17)  # quefrencies 0..K/2 for K = 32
    coeffs[7] = 1.0
    assert estimate_pitch_quefrency(coeffs, 4, 10) == 7

    tied = np.zeros(17)
    tied[5] = tied[9] = 2.0
    assert estimate_pitch_quefrency(tied, 4, 10) == 5

    # a stack of cepstra gives one index per row
    assert estimate_pitch_quefrency(np.stack([coeffs, tied]), 4, 10).tolist() == [7, 5]

    with pytest.raises(ValueError):
        estimate_pitch_quefrency(tied, 4, 16)


def test_pitch_ties_within_tolerance_of_the_log_peak_pick_the_lowest():
    band = np.zeros((2, 7))
    band[:, 1], band[:, 5] = 1.0, 1.0 + 4e-9
    # tau = 1e-9 * log_peak: 1 counts as tied with 5 at log_peak 5, not at 3.
    assert _first_near_max(band, np.array([5.0, 3.0])).tolist() == [1, 5]


@pytest.mark.parametrize(
    "params",
    [SmoothingParams(dft_length=k, l_env=2, l_low=4, l_high=k // 2 - 2) for k in (18, 20, 30, 32)]
    + [SmoothingParams(l_low=96, l_high=600), SmoothingParams(l_env=38, l_low=77, l_high=576)],
    ids=["18", "20", "30", "32", "48kHz-80-500Hz", "48kHz-default"],
)
def test_folded_bands_match_whole_dct_smoothing(params):
    # K/2 odd (18, 30) and even (20, 32) both exercise the DCT-I end weights
    # of bins 0 and K/2; K = 2048 with bins 96-600, an 80-500 Hz pitch range
    # at 48 kHz, puts 514 of 1025 quefrencies in the band, and the default
    # band times at 48 kHz, bins 38, 77 and 576, put 539 there.
    k = params.dft_length
    rng = np.random.default_rng(k)
    mask = rng.uniform(0.0, 1.0, (9, k // 2 + 1))
    mags = rng.uniform(0.0, 3.0, (9, k // 2 + 1))
    state = reference_state = None
    for frames in (slice(0, 4), slice(4, 9)):  # two blocks, so the carry too
        got, state = smooth_frames(mask[frames], mags[frames], params, state)
        want, reference_state = smooth_frames_dct(
            mask[frames], mags[frames], params, reference_state
        )
        assert np.max(np.abs(got - want)) <= 1e-12


def test_band_bases_are_read_only():
    # Every smoothing call, on both threads of a separation, shares the cached arrays.
    for params in (SMALL, SmoothingParams()):
        for basis in _band_bases(params):
            with pytest.raises(ValueError):
                basis[0, 0] = basis[0, 0]


def test_smooth_mask_limit_cases():
    rng = np.random.default_rng(1)
    n_frames = 6
    mask_vals = (rng.uniform(size=(17, n_frames)) > 0.5).astype(float)
    mask = SpectralMask(mask_vals, "binary")
    spec = _spec(rng.uniform(0.1, 2.0, (17, n_frames)))

    # with all betas one the recursion never leaves frame 0
    frozen = SmoothingParams(
        dft_length=32, l_env=2, l_low=4, l_high=10,
        beta_env=1.0, beta_pitch=1.0, beta_peak=1.0,
    )
    out = smooth_mask(mask, spec, frozen)
    first = np.maximum(mask_vals[:, :1], frozen.mask_floor)
    assert np.max(np.abs(out.values - first)) <= 1e-9


def test_smooth_mask_passthrough_cases():
    rng = np.random.default_rng(3)
    n_frames = 6
    mask_vals = np.tile((rng.uniform(size=17) > 0.5).astype(float), (n_frames, 1)).T
    mask = SpectralMask(mask_vals, "binary")
    mags = rng.uniform(0.1, 2.0, (17, n_frames))
    spec = _spec(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, (17, n_frames))))

    # a time-constant mask is a fixed point of the recursion
    out = smooth_mask(mask, spec, SMALL)
    expected = np.maximum(mask_vals, SMALL.mask_floor)
    assert np.max(np.abs(out.values - expected)) <= 1e-9
    assert out.kind == "smoothed"

    # with all betas zero the chain reduces to floor and clamp
    varying = SpectralMask((rng.uniform(size=(17, n_frames)) > 0.5).astype(float), "binary")
    zero_beta = SmoothingParams(
        dft_length=32, l_env=2, l_low=4, l_high=10,
        beta_env=0.0, beta_pitch=0.0, beta_peak=0.0,
    )
    out = smooth_mask(varying, spec, zero_beta)
    assert np.max(np.abs(out.values - np.maximum(varying.values, 1e-3))) <= 1e-9


def test_smooth_mask_never_leaves_bounds():
    rng = np.random.default_rng(4)
    mask = SpectralMask(np.zeros((17, 8)), "binary")
    spec = _spec(np.zeros((17, 8)))
    out = smooth_mask(mask, spec, SMALL)
    assert np.all(out.values >= SMALL.mask_floor)
    assert np.all(out.values <= 1.0)
    assert np.all(np.isfinite(out.values))


def test_smooth_frames_passes_an_empty_block_through():
    state = smooth_frames(np.ones((3, 17)), np.ones((3, 17)), SMALL)[1]
    for previous in (None, state):
        smoothed, carried = smooth_frames(np.zeros((0, 17)), np.zeros((0, 17)), SMALL, previous)
        assert smoothed.shape == (0, 17)
        assert carried is previous


def test_smooth_mask_matches_straight_line_reference():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mask_vals = (rng.uniform(size=(17, 10)) > 0.5).astype(float)
        mags = rng.uniform(0.0, 3.0, (17, 10))
        phases = rng.uniform(0, 2 * np.pi, (17, 10))
        mask = SpectralMask(mask_vals, "binary")
        spec = _spec(mags * np.exp(1j * phases))
        out = smooth_mask(mask, spec, SMALL)
        ref = smooth_mask_direct(
            mask_vals, mags, 32,
            SMALL.beta_env, SMALL.beta_pitch, SMALL.beta_peak,
            SMALL.l_env, SMALL.l_low, SMALL.l_high, SMALL.mask_floor,
        )
        assert np.max(np.abs(out.values - ref)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.sampled_from([16, 32, 64]), n_frames=st.integers(1, 12))
def test_smooth_mask_matches_direct_reference_property(data, k, n_frames):
    half = k // 2
    l_env = data.draw(st.integers(1, half - 3))
    l_low = data.draw(st.integers(l_env + 1, half - 2))
    l_high = data.draw(st.integers(l_low + 1, half - 1))
    unit = st.floats(0.0, 1.0)
    params = SmoothingParams(
        dft_length=k, beta_env=data.draw(unit), beta_pitch=data.draw(unit),
        beta_peak=data.draw(unit), l_env=l_env, l_low=l_low, l_high=l_high,
    )
    n_bins = half + 1
    bits = data.draw(st.lists(st.booleans(), min_size=n_bins * n_frames, max_size=n_bins * n_frames))
    mask_vals = np.array(bits, dtype=float).reshape(n_bins, n_frames)
    # Magnitudes come from a continuous distribution: where two cepstral
    # values tie, the pitch arg-max is decided by round-off alone.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mags = rng.uniform(0.0, 3.0, (n_bins, n_frames))
    spec = _spec(mags * np.exp(1j * rng.uniform(0, 2 * np.pi, (n_bins, n_frames))), k)

    out = smooth_mask(SpectralMask(mask_vals, "binary"), spec, params).values
    ref = smooth_mask_direct(
        mask_vals, mags, k,
        params.beta_env, params.beta_pitch, params.beta_peak,
        l_env, l_low, l_high, params.mask_floor,
    )
    assert np.max(np.abs(out - ref)) <= 1e-9
    assert np.all(out >= params.mask_floor) and np.all(out <= 1.0)
    assert np.max(np.abs(out[:, 0] - np.maximum(mask_vals[:, 0], params.mask_floor))) <= 1e-9


def test_smoothing_reduces_log_mask_total_variation():
    # alternating columns a, b must come out with smaller log-domain swings
    n_frames = 12
    a, b = 0.2, 0.9
    vals = np.where(np.arange(n_frames) % 2 == 0, a, b) * np.ones((17, n_frames))
    mask = SpectralMask(vals, "smoothed")
    rng = np.random.default_rng(6)
    spec = _spec(rng.uniform(0.1, 1.0, (17, n_frames)))
    positive = SmoothingParams(
        dft_length=32, l_env=2, l_low=4, l_high=10,
        beta_env=0.3, beta_pitch=0.4, beta_peak=0.9,
    )
    out = smooth_mask(mask, spec, positive)

    def total_variation(track):
        return np.sum(np.abs(np.diff(np.log(track))))

    bin_index = 8
    assert total_variation(out.values[bin_index]) < total_variation(vals[bin_index])


def test_smoothing_removes_isolated_checkerboard_peaks():
    n_frames = 16
    checker = (np.indices((17, n_frames)).sum(axis=0) % 2).astype(float)
    mask = SpectralMask(checker, "binary")
    rng = np.random.default_rng(7)
    spec = _spec(rng.uniform(0.1, 1.0, (17, n_frames)))
    out = smooth_mask(mask, spec, SMALL)
    before = isolated_unit_fraction(mask)
    after = isolated_unit_fraction(out)
    assert after < before


def test_smooth_mask_validates_shapes():
    mask = SpectralMask(np.zeros((17, 4)), "binary")
    spec = _spec(np.zeros((17, 5)))
    with pytest.raises(ValueError):
        smooth_mask(mask, spec, SMALL)
    wrong_k = SmoothingParams(dft_length=64, l_env=2, l_low=4, l_high=10)
    with pytest.raises(ValueError):
        smooth_mask(SpectralMask(np.zeros((17, 5)), "binary"), spec, wrong_k)
