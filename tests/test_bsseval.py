import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    components_fftconvolve,
    components_whole_signal,
    correlate_batch,
    gram_energies_direct,
    project_decompose_lu,
    segment_spectra_batch,
)
from scipy.linalg import toeplitz

from cbss.bsseval import (
    Decomposition,
    ReferenceProjector,
    SegmentAnnotation,
    _block_geometry,
    component_waveforms,
    project_decompose,
    sar_db,
    sdr_db,
    segment_sir,
    sir_db,
)
from cbss.signals import Waveform
from cbss.stft import next_fast_len


def _wave(samples, rate=10000):
    return Waveform(np.asarray(samples, dtype=np.float64), rate)


def _noise_pair(rng, n=20000):
    return _wave(rng.standard_normal(n)), _wave(rng.standard_normal(n))


def test_segment_annotation_validates():
    SegmentAnnotation((0, 100), (100, 200))
    with pytest.raises(ValueError):
        SegmentAnnotation((100, 100), (200, 300))
    with pytest.raises(ValueError):
        SegmentAnnotation((-1, 50), (60, 70))
    with pytest.raises(ValueError):
        SegmentAnnotation((0, 150), (100, 200))  # overlap


def test_decomposition_requires_consistent_components():
    w = _wave(np.zeros(10))
    Decomposition(w, w, w, 4)
    with pytest.raises(ValueError):
        Decomposition(w, _wave(np.zeros(9)), w, 4)
    with pytest.raises(ValueError):
        Decomposition(w, w, w, 0)


def test_perfect_estimate_hits_the_cap():
    rng = np.random.default_rng(0)
    r1, r2 = _noise_pair(rng)
    d = project_decompose(r1, (r1, r2), 64)
    assert sir_db(d) == 100.0
    assert np.linalg.norm(d.interference.samples) <= 1e-6 * np.linalg.norm(
        d.target.samples
    )
    assert np.linalg.norm(d.artifact.samples) <= 1e-6 * np.linalg.norm(
        d.target.samples
    )


def test_scaled_estimate_is_an_allowed_deformation():
    rng = np.random.default_rng(1)
    r1, r2 = _noise_pair(rng)
    d = project_decompose(_wave(0.5 * r1.samples), (r1, r2), 64)
    assert sir_db(d) == 100.0

    # common scaling never moves the ratio
    est = _wave(r1.samples + 0.3 * r2.samples)
    a = sir_db(project_decompose(est, (r1, r2), 64))
    b = sir_db(project_decompose(_wave(3.7 * est.samples), (r1, r2), 64))
    assert a == pytest.approx(b, abs=1e-9)


def test_decomposition_reconstructs_the_estimate():
    rng = np.random.default_rng(2)
    r1, r2 = _noise_pair(rng, n=5000)
    est = _wave(0.8 * r1.samples + 0.4 * r2.samples + 0.01 * rng.standard_normal(5000))
    taps = 32
    d = project_decompose(est, (r1, r2), taps)
    total = d.target.samples + d.interference.samples + d.artifact.samples
    padded = np.zeros(5000 + taps - 1)
    padded[:5000] = est.samples
    err = np.linalg.norm(total - padded) / np.linalg.norm(padded)
    assert err <= 1e-10


def test_orthogonal_equal_power_mixture_scores_near_zero():
    rng = np.random.default_rng(3)
    r1 = _wave(rng.standard_normal(100000))
    r2 = _wave(rng.standard_normal(100000))
    d = project_decompose(_wave(r1.samples + r2.samples), (r1, r2), 512)
    assert abs(sir_db(d)) <= 0.5


def test_single_tap_projection_matches_hand_computation():
    # orthonormal references with L = 1 reduce to inner products
    e1 = np.zeros(4)
    e1[0] = 1.0
    e2 = np.zeros(4)
    e2[1] = 1.0
    est = np.array([0.6, 0.8, 0.0, 0.0])
    d = project_decompose(_wave(est), (_wave(e1), _wave(e2)), 1)
    assert np.allclose(d.target.samples, 0.6 * e1, atol=1e-12)
    assert np.allclose(d.interference.samples, 0.8 * e2, atol=1e-12)
    assert np.allclose(d.artifact.samples, 0.0, atol=1e-12)
    assert sir_db(d) == pytest.approx(10 * np.log10(0.36 / 0.64), abs=1e-9)


@pytest.mark.parametrize(
    "second",
    [np.copy, lambda r: 2.5 * r, np.zeros_like],
    ids=["identical", "scaled", "zero"],
)
def test_degenerate_references_fall_back_to_loading(second):
    rng = np.random.default_rng(4)
    r1 = _wave(rng.standard_normal(2000))
    # the second reference's delays span no new direction: singular Gram
    d = project_decompose(r1, (r1, _wave(second(r1.samples))), 16)
    assert d.regularized
    assert np.all(np.isfinite(d.target.samples))


def test_ill_conditioned_definite_references_are_not_loaded():
    rng = np.random.default_rng(4)
    r1 = rng.standard_normal(2000)
    delayed = np.concatenate([[0.0], r1[:-1]])  # Gram condition number ~9e3
    projector = ReferenceProjector((_wave(r1), _wave(delayed)), 16)
    for target in (0, 1):
        assert not projector.decompose(_wave(r1), target).regularized


def test_project_decompose_validates_inputs():
    rng = np.random.default_rng(5)
    r1, r2 = _noise_pair(rng, n=100)
    short = _wave(np.zeros(99))
    with pytest.raises(ValueError):
        project_decompose(short, (r1, r2), 8)
    with pytest.raises(ValueError):
        project_decompose(_wave(r1.samples, rate=8000), (r1, r2), 8)
    with pytest.raises(ValueError):
        project_decompose(r1, (r1, r2), 0)
    with pytest.raises(ValueError):
        project_decompose(r1, (r1, r2), 101)
    with pytest.raises(ValueError):
        project_decompose(r1, (r1, short), 8)
    projector = ReferenceProjector((r1, r2), 8)
    for target in (-1, 2, 0.5, None):
        with pytest.raises(ValueError, match="target must be 0 or 1"):
            projector.decompose(r1, target)


def _metrics(d):
    return np.array([sir_db(d), sdr_db(d), sar_db(d)])


def _components(d):
    return d.target.samples, d.interference.samples, d.artifact.samples


def _delay_matrix(x, taps):
    """Columns are x delayed by 0..taps-1 samples, zero-extended to N + taps - 1."""
    return toeplitz(np.concatenate([x, np.zeros(taps - 1)]), np.r_[x[0], np.zeros(taps - 1)])


# A near-square system (N = 55, L = 53) whose cancelling artifact energy put
# SAR 3.4e-8 dB off the oracle's; the residual puts it within 4e-12 dB.
NEAR_SQUARE_DRAW = {
    "seed": 2960123334,
    "n": 55,
    "taps_fraction": 0.9884218284741341,
    "log_scales": (-2.523360229437907, 0.8977854704084178, 1.8234686476330726),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    taps_fraction=st.floats(0.0, 1.0),
    log_scales=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
@example(**NEAR_SQUARE_DRAW)
def test_projector_matches_lu_oracle_property(seed, n, taps_fraction, log_scales):
    taps = 1 + int(taps_fraction * (n - 2))
    rng = np.random.default_rng(seed)
    est_scale, *ref_scales = 10.0 ** np.array(log_scales)
    refs = [s * rng.standard_normal(n) for s in ref_scales]
    est = _wave(est_scale * rng.standard_normal(n))
    projector = ReferenceProjector((_wave(refs[0]), _wave(refs[1])), taps)
    single = [projector.decompose(est, target) for target in (0, 1)]
    both = projector.decompose_all(est)
    oracles = [project_decompose_lu(est.samples, refs[t], refs[1 - t], taps) for t in (0, 1)]
    assume(not any(d.regularized for d in both) and not any(o[-1] for o in oracles))
    # Both solvers err by about cond(Gram) * 1e-16 of the peak, so the 1e-9
    # comparison is meaningful only for Grams conditioned better than ~1e6
    # (taps = N - 1 is a square system, often worse).  The projections do
    # not depend on the references' scale, so the condition is taken with
    # unit-norm references.
    delays = np.hstack([_delay_matrix(r / np.linalg.norm(r), taps) for r in refs])
    assume(np.linalg.cond(delays) ** 2 <= 1e6)

    peak = np.max(np.abs(est.samples))
    for target, (*parts, _) in enumerate(oracles):
        oracle = Decomposition(*(_wave(p) for p in parts), taps)
        for d in (single[target], both[target]):
            assert not d.regularized
            for got, want in zip(_components(d), parts):
                assert np.max(np.abs(got - want)) <= 1e-9 * peak
            assert np.max(np.abs(_metrics(d) - _metrics(oracle))) <= 1e-9
        # decompose_all shares one joint projection between the targets
        for got, want in zip(_components(both[target]), _components(single[target])):
            assert np.max(np.abs(got - want)) <= 1e-12 * peak


def _direct_correlations(x, refs, taps):
    """c[r, t] = sum_m x[m + t] refs[r][m] for 0 <= t < taps, by np.correlate."""
    return np.array([np.correlate(np.pad(x, (0, taps - 1)), r, "valid") for r in refs])


# (N, L, K blocks): one block, many one-tap blocks, N = K B and N = K B + 1
# for B = 264 (L = 37) and B = 3585 (L = 512).
@pytest.mark.parametrize(
    "n, taps, blocks",
    [
        (1, 1, 1),
        (5, 5, 1),
        (300, 1, 38),
        (300, 37, 2),
        (20000, 512, 6),
        (528, 37, 2),
        (529, 37, 3),
        (7170, 512, 2),
        (7171, 512, 3),
    ],
)
def test_block_correlations_match_direct_sums(n, taps, blocks):
    rng = np.random.default_rng(n + taps)
    refs = rng.standard_normal((2, n))
    est = rng.standard_normal(n)
    projector = ReferenceProjector((_wave(refs[0]), _wave(refs[1])), taps)
    assert projector._blocks == blocks
    if blocks == 1:
        assert projector._nfft == next_fast_len(n + taps - 1)

    rhs = projector._correlate(est)
    want = _direct_correlations(est, refs, taps)
    assert np.max(np.abs(rhs - want)) <= 1e-12 * np.max(np.abs(want))

    # corr[a, b, t] = sum_m ref_a[m + t] ref_b[m]; Gram block (a, b) holds
    # c_ab at lags j - i >= 0 (above the diagonal) and c_ba below it.
    corr = np.stack([_direct_correlations(r, refs, taps) for r in refs])
    want = np.block([[toeplitz(corr[b, a], corr[a, b]) for b in (0, 1)] for a in (0, 1)])
    assert np.max(np.abs(projector._gram - want)) <= 1e-12 * np.max(np.abs(want))

    # The in-place build copies the projector's own correlations.
    corr = np.stack([projector._correlate(r) for r in refs])
    lag = np.subtract.outer(np.arange(taps), np.arange(taps))  # i - j
    gram_ab = np.where(lag <= 0, corr[0, 1, np.maximum(-lag, 0)], corr[1, 0, np.maximum(lag, 0)])
    fancy = np.block([[corr[0, 0, np.abs(lag)], gram_ab], [gram_ab.T, corr[1, 1, np.abs(lag)]]])
    assert np.array_equal(projector._gram, fancy)


def test_multi_block_projector_matches_lu_oracle():
    n, taps = 40000, 512
    rng = np.random.default_rng(14)
    refs = rng.standard_normal((2, n))
    est = sum(np.convolve(rng.standard_normal(8), r)[:n] for r in refs)
    est += 0.05 * rng.standard_normal(n)
    projector = ReferenceProjector((_wave(refs[0]), _wave(refs[1])), taps)
    assert projector._blocks > 1
    both = projector.decompose_all(_wave(est))

    peak = np.max(np.abs(est))
    for target in (0, 1):
        *parts, regularized = project_decompose_lu(est, refs[target], refs[1 - target], taps)
        assert not regularized and not both[target].regularized
        for got, want in zip(_components(both[target]), parts):
            assert np.max(np.abs(got - want)) <= 1e-9 * peak
        oracle = Decomposition(*(_wave(p) for p in parts), taps)
        assert np.max(np.abs(_metrics(both[target]) - _metrics(oracle))) <= 1e-9


@pytest.mark.parametrize("estimate", ["near-square", "mixture", "noisy"])
def test_cancelling_artifact_is_taken_from_the_residual(monkeypatch, estimate):
    """Only where the rounding bound says the cancelling form cannot be
    trusted: not for an estimate whose SAR is capped whatever the artifact
    (a mixture of the references), nor for an ordinary one."""
    residuals = []
    joint_waveform = ReferenceProjector._joint_waveform

    def counting(self, coef_joint):
        residuals.append(coef_joint)
        return joint_waveform(self, coef_joint)

    monkeypatch.setattr(ReferenceProjector, "_joint_waveform", counting)
    if estimate == "near-square":
        draw = NEAR_SQUARE_DRAW
        n, taps = draw["n"], 1 + int(draw["taps_fraction"] * (draw["n"] - 2))
        rng = np.random.default_rng(draw["seed"])
        est_scale, *ref_scales = 10.0 ** np.array(draw["log_scales"])
        refs = [s * rng.standard_normal(n) for s in ref_scales]
        est = est_scale * rng.standard_normal(n)
    else:
        n, taps = 4000, 64
        rng = np.random.default_rng(9)
        refs = list(rng.standard_normal((2, n)))
        est = refs[0] + refs[1]
        if estimate == "noisy":
            est = est + 0.1 * rng.standard_normal(n)
    both = ReferenceProjector((_wave(refs[0]), _wave(refs[1])), taps).decompose_all(_wave(est))
    assert len(residuals) == (estimate == "near-square")

    for target in (0, 1):
        *parts, _ = project_decompose_lu(est, refs[target], refs[1 - target], taps)
        oracle = Decomposition(*(_wave(p) for p in parts), taps)
        assert np.max(np.abs(_metrics(both[target]) - _metrics(oracle))) <= 1e-9
        if estimate == "mixture":
            assert sar_db(both[target]) == 100.0


# (N, L): one block; one chunk of several blocks and several chunks
# (CHUNK_BLOCKS = 16), one with a one-sample last block (N = 16 B + 1); and
# 30 s of the evaluate workload's 10,125 Hz references, 85 blocks of 3585.
@pytest.mark.parametrize(
    "n, taps", [(5, 5), (300, 1), (529, 37), (20000, 512), (57361, 512), (303750, 512)]
)
def test_chunked_projector_keeps_the_whole_batch_bits(n, taps):
    rng = np.random.default_rng(n + taps)
    refs = rng.standard_normal((2, n))
    est = rng.standard_normal(n)
    projector = ReferenceProjector((_wave(refs[0]), _wave(refs[1])), taps)
    nfft, hop, blocks = projector._nfft, projector._hop, projector._blocks
    spectra = segment_spectra_batch(refs, nfft, hop, blocks)
    assert np.array_equal(projector._spectra, spectra)
    # The Gram, its factors and every energy follow from these correlations.
    for samples in (est, *refs):
        want = correlate_batch(samples, spectra, nfft, hop, taps)
        assert np.array_equal(projector._correlate(samples), want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 700),
    taps_kind=st.sampled_from(["one", "all", "some"]),
    taps_fraction=st.floats(0.0, 1.0),
)
@example(seed=0, n=300, taps_kind="one", taps_fraction=0.0)  # 38 blocks of 8, the last of 4
@example(seed=1, n=529, taps_kind="some", taps_fraction=0.0682)  # L = 37: 3 blocks of 264
@example(seed=2, n=60, taps_kind="all", taps_fraction=0.0)  # L = N: one block
@example(seed=3, n=5, taps_kind="one", taps_fraction=0.0)  # L = 1: one block
def test_components_match_fftconvolve_property(seed, n, taps_kind, taps_fraction):
    taps = {"one": 1, "all": n, "some": 1 + int(taps_fraction * (n - 1))}[taps_kind]
    rng = np.random.default_rng(seed)
    refs = rng.standard_normal((2, n))
    est = rng.standard_normal(n)
    coef_joint, coef_target = rng.standard_normal((2, taps)), rng.standard_normal(taps)
    blocks = _block_geometry(n, taps)[2]
    for target in (0, 1):
        args = (coef_joint, coef_target, target)
        got = [w.samples for w in component_waveforms(_wave(est), tuple(map(_wave, refs)), *args)]
        want = components_fftconvolve(est, refs, *args)
        peak = max(np.max(np.abs(w)) for w in want)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (n + taps - 1,)
            assert np.max(np.abs(g - w)) <= 1e-12 * peak
        if blocks == 1:
            for g, w in zip(got, components_whole_signal(est, refs, *args)):
                assert np.array_equal(g, w)


def test_component_waveforms_hold_little_beyond_their_outputs():
    """One 60 s decomposition at L = 512: the whole-signal form's
    temporaries peaked at about 3.7 times the three outputs' bytes."""
    rate, taps = 10000, 512
    rng = np.random.default_rng(60)
    refs = tuple(_wave(rng.standard_normal(60 * rate), rate) for _ in (0, 1))
    est = _wave(refs[0].samples + 0.3 * refs[1].samples + 0.1 * rng.standard_normal(60 * rate))
    decomposition = ReferenceProjector(refs, taps).decompose(est, 0)
    tracemalloc.start()
    try:
        parts = decomposition.target, decomposition.interference, decomposition.artifact
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sum(p.samples.nbytes for p in parts)


def _energy(x):
    return float(np.sum(x**2))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    taps_fraction=st.floats(0.0, 1.0),
    second=st.sampled_from(["noise", "silent", "scaled"]),
    in_span=st.booleans(),
)
def test_energies_match_the_components_property(seed, n, taps_fraction, second, in_span):
    taps = 1 + int(taps_fraction * (n - 1))
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal(n)
    if in_span:
        # a zero tail keeps every delayed copy inside the estimate's N samples
        r1[n - taps + 1 :] = 0.0
    r2 = {"noise": rng.standard_normal(n), "silent": np.zeros(n), "scaled": -2.5 * r1}[second]
    if in_span:
        r2[n - taps + 1 :] = 0.0
        est = sum(np.convolve(rng.standard_normal(taps), r)[:n] for r in (r1, r2))
    else:
        est = rng.standard_normal(n)
    projector = ReferenceProjector((_wave(r1), _wave(r2)), taps)
    both = projector.decompose_all(_wave(est))
    single = [projector.decompose(_wave(est), target) for target in (0, 1)]
    if second == "silent":
        assert all(d.regularized for d in both)

    # Relative to the estimate's energy: the sums that cancel (artifact,
    # distortion) carry round-off of that size in either form.
    scale = _energy(est)
    for d in (*both, *single):
        assert min(d.energies) >= 0.0
        target, interference, artifact = _components(d)
        sums = (target, interference, artifact, target + interference, interference + artifact)
        assert np.max(np.abs(np.subtract(d.energies, [_energy(x) for x in sums]))) <= 1e-9 * scale
        if in_span and not d.regularized:
            assert sar_db(d) == 100.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    taps_fraction=st.floats(0.0, 1.0),
    second=st.sampled_from(["noise", "silent", "scaled"]),
)
@example(seed=0, n=2, taps_fraction=0.0, second="noise")
@example(seed=1, n=40, taps_fraction=0.0, second="scaled")
def test_energies_match_the_gram_quadratic_forms_property(seed, n, taps_fraction, second):
    # Sums of squares of triangular-solve vectors against c' G c in the
    # unloaded Gram: the loaded path (silent and, unless rounding leaves it
    # definite, scaled) and L = 1, where reference 1's block is one element.
    taps = 1 + int(taps_fraction * (n - 1))
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal(n)
    r2 = {"noise": rng.standard_normal(n), "silent": np.zeros(n), "scaled": -2.5 * r1}[second]
    est = rng.standard_normal(n)
    projector = ReferenceProjector((_wave(r1), _wave(r2)), taps)
    gram = projector._gram
    if second == "noise":
        # Both forms err by about cond(G) * 1e-16 of ||est||^2 (near-square
        # systems, taps close to N, reach 1e9); loaded Grams put almost no
        # coefficient weight on their small eigenvalues.
        eigenvalues = np.linalg.eigvalsh(gram)
        assume(eigenvalues[0] >= 1e-5 * eigenvalues[-1])
    want = gram_energies_direct(gram, est, np.stack([r1, r2]), taps)
    both = projector.decompose_all(_wave(est))
    if second == "silent":
        assert all(d.regularized for d in both)
    scale = _energy(est)
    for d, energies in zip(both, want):
        assert np.max(np.abs(np.subtract(d.energies, energies))) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_c=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    target=st.sampled_from([0, 1]),
)
def test_estimate_scaling_scales_components_and_keeps_ratios(seed, log_c, sign, target):
    rng = np.random.default_rng(seed)
    n, taps = 400, 24
    r1, r2 = _noise_pair(rng, n)
    est = rng.standard_normal(3) @ np.stack([r1.samples, r2.samples, rng.standard_normal(n)])
    c = sign * 10.0**log_c
    projector = ReferenceProjector((r1, r2), taps)
    base = projector.decompose(_wave(est), target)
    scaled = projector.decompose(_wave(c * est), target)

    peak = abs(c) * np.max(np.abs(est))
    for name in ("target", "interference", "artifact"):
        diff = getattr(scaled, name).samples - c * getattr(base, name).samples
        assert np.max(np.abs(diff)) <= 1e-9 * peak
    assert np.max(np.abs(_metrics(scaled) - _metrics(base))) <= 1e-9


def test_ratio_arithmetic_and_caps():
    ones = _wave(np.ones(100))
    tenth = _wave(0.1 * np.ones(100))
    zero = _wave(np.zeros(100))

    assert sir_db(Decomposition(ones, ones, zero, 4)) == pytest.approx(0.0, abs=1e-12)
    assert sir_db(Decomposition(ones, tenth, zero, 4)) == pytest.approx(20.0, abs=1e-9)
    assert sir_db(Decomposition(ones, zero, zero, 4)) == 100.0
    assert sir_db(Decomposition(zero, ones, zero, 4)) == -100.0
    assert sar_db(Decomposition(ones, zero, tenth, 4)) == pytest.approx(20.0, abs=1e-9)
    assert sdr_db(Decomposition(ones, tenth, zero, 4)) == pytest.approx(20.0, abs=1e-9)


def test_segment_sir_closed_forms():
    # output 1 mean-square power: 4 on the first segment, 1 on the second
    # output 2 mean-square power: 9 on the second segment, 1 on the first
    n = 400
    out1 = np.zeros(n)
    out2 = np.zeros(n)
    out1[:100] = 2.0
    out1[200:300] = 1.0
    out2[:100] = 1.0
    out2[200:300] = 3.0
    seg = SegmentAnnotation((0, 100), (200, 300))
    sir1, sir2 = segment_sir((_wave(out1), _wave(out2)), seg)
    assert sir1 == pytest.approx(10 * np.log10(4.0), abs=1e-9)  # 6.0206 dB
    assert sir2 == pytest.approx(10 * np.log10(9.0), abs=1e-9)  # 9.5424 dB


def test_segment_sir_rms_example_and_symmetry():
    n = 300
    out1 = np.zeros(n)
    out1[:100] = 1.0
    out1[100:200] = 0.1
    seg = SegmentAnnotation((0, 100), (100, 200))
    sir1, _ = segment_sir((_wave(out1), _wave(np.ones(n))), seg)
    assert sir1 == pytest.approx(20.0, abs=1e-9)

    same = _wave(out1)
    s1, s2 = segment_sir((same, same), seg)
    assert s1 == pytest.approx(-s2, abs=1e-12)


def test_segment_sir_caps_and_bounds():
    n = 200
    loud = np.zeros(n)
    loud[:50] = 1.0
    seg = SegmentAnnotation((0, 50), (50, 100))
    s1, _ = segment_sir((_wave(loud), _wave(np.ones(n))), seg)
    assert s1 == 100.0

    with pytest.raises(ValueError):
        segment_sir(
            (_wave(np.ones(60)), _wave(np.ones(60))),
            SegmentAnnotation((0, 30), (40, 70)),
        )
