import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbss import jointdiag
from cbss.jointdiag import (
    CovarianceSet,
    SolverParams,
    SolverState,
    UnmixingSystem,
    apply_unmixing,
    constrain_filter_support,
    cost,
    cost_gradient,
    diag_target,
    estimate_block_covariances,
    solve_unmixing,
)
from cbss.signals import Waveform, gen_am_source
from cbss.stft import StftConfig, analyze

from oracles import (
    apply_unmixing_direct,
    block_covariances_direct,
    cost_einsum,
    cost_gradient_einsum,
    diag_target_direct,
    diag_target_einsum,
    jd_cost_direct,
)


def _random_psd_stack(rng, n_bins, n_blocks, rank=2):
    a = rng.standard_normal((n_bins, n_blocks, 2, rank)) + 1j * rng.standard_normal(
        (n_bins, n_blocks, 2, rank)
    )
    return np.einsum("kbij,kblj->kbil", a, a.conj())


def _random_unmixing(rng, n_bins):
    w = np.eye(2, dtype=complex)[None].repeat(n_bins, axis=0)
    return w + 0.3 * (
        rng.standard_normal((n_bins, 2, 2)) + 1j * rng.standard_normal((n_bins, 2, 2))
    )


def _spectrogram_pair(rng, k=32, n_frames=20):
    cfg = StftConfig(k, 0.5)
    shape = (cfg.n_bins, n_frames)
    values1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    from cbss.stft import Spectrogram

    n = (n_frames - 1) * cfg.hop + k
    return (
        Spectrogram(values1, cfg, 8000, n),
        Spectrogram(values2, cfg, 8000, n),
    )


def test_covariance_set_validates():
    rng = np.random.default_rng(0)
    good = _random_psd_stack(rng, 2, 3)
    CovarianceSet(good, (5, 5, 5))

    skew = good.copy()
    skew[0, 0, 0, 1] += 1.0  # breaks Hermitian symmetry
    with pytest.raises(ValueError):
        CovarianceSet(skew, (5, 5, 5))

    indefinite = good.copy()
    indefinite[0, 0] = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        CovarianceSet(indefinite, (5, 5, 5))

    with pytest.raises(ValueError):
        CovarianceSet(good[..., :1], (5, 5, 5))


def test_block_covariances_match_direct_sum():
    rng = np.random.default_rng(1)
    specs = _spectrogram_pair(rng, n_frames=17)
    cov = estimate_block_covariances(specs, 4)
    ref = block_covariances_direct(specs[0].values, specs[1].values, 4)
    assert np.allclose(cov.matrices, ref, atol=1e-12)
    assert cov.frames_per_block == (5, 4, 4, 4)


def test_block_covariances_validate_inputs():
    rng = np.random.default_rng(2)
    specs = _spectrogram_pair(rng, n_frames=6)
    with pytest.raises(ValueError):
        estimate_block_covariances(specs, 1)
    with pytest.raises(ValueError):
        estimate_block_covariances(specs, 7)
    other = _spectrogram_pair(rng, k=64, n_frames=6)
    with pytest.raises(ValueError):
        estimate_block_covariances((specs[0], other[1]), 2)


def test_diag_target_matches_direct_and_floors():
    rng = np.random.default_rng(3)
    r = _random_psd_stack(rng, 3, 4)
    w = _random_unmixing(rng, 3)
    assert np.allclose(diag_target(w, r), diag_target_direct(w, r), atol=1e-12)

    indefinite = np.array(
        [[[[1.0 + 0j, 0.0], [0.0, -2.0]]]]
    )  # Hermitian but not PSD
    lam = diag_target(np.eye(2, dtype=complex)[None], indefinite)
    assert lam[0, 0, 0] == 1.0
    assert lam[0, 0, 1] == 0.0


def test_cost_matches_scalar_reference():
    rng = np.random.default_rng(4)
    for _ in range(5):
        r = _random_psd_stack(rng, 2, 3)
        w = _random_unmixing(rng, 2)
        lam = diag_target(w, r)
        assert cost(w, r, lam) == pytest.approx(jd_cost_direct(w, r, lam), rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(3):
        r = _random_psd_stack(rng, 2, 3)
        w = _random_unmixing(rng, 2)

        def total_cost(wm):
            return cost(wm, r, diag_target(wm, r))

        g = cost_gradient(w, r, diag_target(w, r))
        fd = np.zeros_like(g)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    for unit in (1.0, 1j):
                        wp = w.copy()
                        wp[k, i, j] += h * unit
                        wm_ = w.copy()
                        wm_[k, i, j] -= h * unit
                        d = (total_cost(wp) - total_cost(wm_)) / (2 * h)
                        fd[k, i, j] += d * unit
        # real-parameter derivatives equal twice the returned complex gradient
        assert np.linalg.norm(fd - 2.0 * g) / np.linalg.norm(fd) <= 1e-6


def _relative_error(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# Leading axes of `w` for covariances of shape (n_bins, n_blocks, 2, 2):
# one matrix per bin, one shared by all bins, a bare 2x2, and an extra
# outer batch axis.
W_BATCHES = {
    "per_bin": lambda n_bins: (n_bins,),
    "shared": lambda n_bins: (1,),
    "bare": lambda n_bins: (),
    "outer": lambda n_bins: (3, n_bins),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.integers(1, 5),
    n_blocks=st.integers(1, 6),
    rank=st.integers(1, 2),
    batch=st.sampled_from(sorted(W_BATCHES)),
    r_exponent=st.floats(-3.0, 3.0),
    lam_scale=st.floats(0.0, 10.0),
)
def test_closed_form_kernels_match_einsum_oracles(
    seed, n_bins, n_blocks, rank, batch, r_exponent, lam_scale
):
    rng = np.random.default_rng(seed)
    r = 10.0**r_exponent * _random_psd_stack(rng, n_bins, n_blocks, rank)
    w_shape = W_BATCHES[batch](n_bins) + (2, 2)
    w = np.eye(2) + rng.standard_normal(w_shape) + 1j * rng.standard_normal(w_shape)
    lam_ref = diag_target_einsum(w, r)
    # Lambda is not floored or tied to W here: any real values, negatives too.
    lam = lam_ref + lam_scale * 10.0**r_exponent * rng.standard_normal(lam_ref.shape)

    assert _relative_error(diag_target(w, r), lam_ref) <= 1e-12
    assert _relative_error(cost(w, r, lam), cost_einsum(w, r, lam)) <= 1e-12
    assert _relative_error(cost_gradient(w, r, lam), cost_gradient_einsum(w, r, lam)) <= 1e-12


def test_solver_trace_matches_einsum_kernels(monkeypatch):
    cov, params = _instantaneous_case()
    _, closed_form = solve_unmixing(cov, params)

    monkeypatch.setattr(jointdiag, "diag_target", diag_target_einsum)
    monkeypatch.setattr(jointdiag, "cost", cost_einsum)
    monkeypatch.setattr(jointdiag, "cost_gradient", cost_gradient_einsum)
    _, reference = solve_unmixing(cov, params)

    assert closed_form.iterations == reference.iterations
    assert closed_form.termination == reference.termination
    a, b = np.array(closed_form.cost_trace), np.array(reference.cost_trace)
    assert np.max(np.abs(a - b) / b) <= 1e-12


def test_unmixing_system_validates():
    rng = np.random.default_rng(6)
    k = 32
    n_bins = k // 2 + 1
    w = np.eye(2, dtype=complex)[None].repeat(n_bins, axis=0)
    UnmixingSystem(w, 8, k)

    bad_diag = w.copy()
    bad_diag[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        UnmixingSystem(bad_diag, 8, k)

    dense = w.copy()
    dense[:, 0, 1] = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    with pytest.raises(ValueError):
        UnmixingSystem(dense, 2, k)

    with pytest.raises(ValueError):
        UnmixingSystem(w[:-1], 8, k)


def test_constrain_filter_support_projects_and_is_idempotent():
    rng = np.random.default_rng(7)
    k, q = 64, 8
    n_bins = k // 2 + 1
    w = np.eye(2, dtype=complex)[None].repeat(n_bins, axis=0)
    w[:, 0, 1] = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    w[:, 1, 0] = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)

    loose = UnmixingSystem.__new__(UnmixingSystem)  # bypass validation on input
    object.__setattr__(loose, "matrices", w)
    object.__setattr__(loose, "filter_support", q)
    object.__setattr__(loose, "dft_length", k)

    once = constrain_filter_support(loose)
    assert np.all(once.matrices[:, 0, 0] == 1.0)
    assert np.all(once.matrices[:, 1, 1] == 1.0)
    taps = np.fft.irfft(once.matrices, n=k, axis=0)
    assert np.max(np.abs(taps[q + 1 :, 0, 1])) <= 1e-12
    assert np.max(np.abs(taps[q + 1 :, 1, 0])) <= 1e-12

    twice = constrain_filter_support(once)
    assert np.allclose(twice.matrices, once.matrices, atol=1e-12)


def test_apply_unmixing_cancels_and_matches_reference():
    rng = np.random.default_rng(8)
    specs = _spectrogram_pair(rng, k=32, n_frames=10)
    same = (specs[0], specs[0].with_values(specs[0].values))
    n_bins = specs[0].n_bins

    w = np.zeros((n_bins, 2, 2), dtype=complex)
    w[:, 0, 0] = 1.0
    w[:, 1, 1] = 1.0
    w[:, 0, 1] = -1.0
    system = UnmixingSystem(w, 31, 32)
    y1, _ = apply_unmixing(system, same)
    assert np.max(np.abs(y1.values)) == 0.0

    w2 = _random_unmixing(rng, n_bins)
    w2[:, 0, 0] = 1.0
    w2[:, 1, 1] = 1.0
    system2 = UnmixingSystem(w2, 31, 32)
    out1, out2 = apply_unmixing(system2, specs)
    ref1, ref2 = apply_unmixing_direct(w2, specs[0].values, specs[1].values)
    assert np.allclose(out1.values, ref1, atol=1e-12)
    assert np.allclose(out2.values, ref2, atol=1e-12)


def test_solver_params_validate():
    with pytest.raises(ValueError):
        SolverParams(filter_support=-1)
    with pytest.raises(ValueError):
        SolverParams(block_count=1)
    with pytest.raises(ValueError):
        SolverParams(max_iters=0)
    with pytest.raises(ValueError):
        SolverParams(step_size=0.0)
    with pytest.raises(ValueError):
        SolverParams(tolerance=-1e-9)


def _instantaneous_case(seed=0):
    s1 = gen_am_source(seed, 2.0, 8000, 1.0)
    s2 = gen_am_source(seed + 1, 2.0, 8000, 2.3)
    x1 = s1.samples + 0.5 * s2.samples
    x2 = 0.5 * s1.samples + s2.samples
    cfg = StftConfig(256, 0.75)
    specs = (
        analyze(Waveform(x1, 8000), cfg),
        analyze(Waveform(x2, 8000), cfg),
    )
    cov = estimate_block_covariances(specs, 4)
    params = SolverParams(filter_support=64, block_count=4, max_iters=100)
    return cov, params


def test_solve_unmixing_monotone_and_constrained():
    cov, params = _instantaneous_case()
    system, state = solve_unmixing(cov, params)

    trace = state.cost_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] < trace[0]

    assert np.all(system.matrices[:, 0, 0] == 1.0)
    assert np.all(system.matrices[:, 1, 1] == 1.0)
    taps = np.fft.irfft(system.matrices, n=system.dft_length, axis=0)
    for i, j in ((0, 1), (1, 0)):
        tail = np.sum(taps[params.filter_support + 1 :, i, j] ** 2)
        total = np.sum(taps[:, i, j] ** 2)
        assert tail <= 1e-10 * total


def test_solve_unmixing_deterministic():
    cov, params = _instantaneous_case()
    sys_a, state_a = solve_unmixing(cov, params)
    sys_b, state_b = solve_unmixing(cov, params)
    assert np.array_equal(sys_a.matrices, sys_b.matrices)
    assert state_a.cost_trace == state_b.cost_trace


def test_solve_unmixing_survives_silent_channel():
    rng = np.random.default_rng(9)
    cfg = StftConfig(64, 0.5)
    n_frames = 24
    shape = (cfg.n_bins, n_frames)
    from cbss.stft import Spectrogram

    n = (n_frames - 1) * cfg.hop + 64
    live = Spectrogram(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg, 8000, n
    )
    silent = live.with_values(np.zeros(shape, dtype=complex))
    cov = estimate_block_covariances((live, silent), 4)
    params = SolverParams(filter_support=16, block_count=4, max_iters=20)
    system, _ = solve_unmixing(cov, params)
    assert np.all(system.matrices[:, 0, 0] == 1.0)
    assert np.all(system.matrices[:, 1, 1] == 1.0)


def test_solver_stops_at_max_iters():
    cov, params = _instantaneous_case()
    capped = dataclasses.replace(params, max_iters=3, tolerance=0.0)
    _, state = solve_unmixing(cov, capped)
    assert state.termination == "max_iters"
    assert state.iterations == 3
    assert len(state.cost_trace) == 4


def test_solver_stops_at_tolerance():
    cov, params = _instantaneous_case()
    loose = dataclasses.replace(params, tolerance=1e-2)
    _, state = solve_unmixing(cov, loose)
    assert state.termination == "tolerance"
    assert state.iterations < loose.max_iters
    drops = [(a - b) / a for a, b in zip(state.cost_trace, state.cost_trace[1:])]
    assert drops[-1] < loose.tolerance
    assert all(d >= loose.tolerance for d in drops[:-1])


def test_solver_stops_at_zero_cost_and_validates_termination():
    rng = np.random.default_rng(10)
    n_bins, n_blocks = 9, 4
    r = np.zeros((n_bins, n_blocks, 2, 2), dtype=complex)
    r[..., 0, 0] = rng.uniform(0.5, 2.0, (n_bins, n_blocks))
    r[..., 1, 1] = rng.uniform(0.5, 2.0, (n_bins, n_blocks))
    cov = CovarianceSet(r, (3,) * n_blocks)
    _, state = solve_unmixing(cov, SolverParams(filter_support=4, block_count=n_blocks))
    assert state.termination == "zero_cost"
    assert state.cost_trace == [0.0, 0.0]

    fields = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    with pytest.raises(ValueError):
        SolverState(**{**fields, "termination": "diverged"})
