import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import project_decompose_lu
from scipy.linalg import toeplitz

from cbss.bsseval import (
    Decomposition,
    ReferenceProjector,
    SegmentAnnotation,
    project_decompose,
    sar_db,
    sdr_db,
    segment_sir,
    sir_db,
)
from cbss.signals import Waveform


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    taps_fraction=st.floats(0.0, 1.0),
    log_scales=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
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
