import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbss.config import PipelineConfig
from cbss.jointdiag import (
    TERMINATIONS,
    CovarianceSet,
    SolverParams,
    SolverState,
    UnmixingSystem,
    _cost_and_step,
    _moments,
    apply_unmixing,
    constrain_filter_support,
    cost,
    cost_gradient,
    diag_target,
    estimate_block_covariances,
    solve_unmixing,
)
from cbss.pipeline import simulate_scene
from cbss.signals import Waveform, gen_am_source
from cbss.stft import Spectrogram, StftConfig, analyze

from oracles import (
    accepts_as_psd_eigvalsh,
    apply_unmixing_direct,
    block_covariances_direct,
    cost_einsum,
    cost_gradient_einsum,
    dft_direct,
    diag_target_direct,
    diag_target_einsum,
    jd_cost_direct,
    solve_unmixing_projected,
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 4)),
    log_scale=st.floats(-6.0, 6.0),
    smallest=st.sampled_from(["positive", "zero", "just_above", "below"]),
)
def test_psd_check_decides_like_eigvalsh_property(seed, shape, log_scale, smallest):
    # Matrices Q diag(largest, lowest) Q^H; one of them gets an eigenvalue of
    # the drawn kind, far from the floor -1e-9 max(1, largest eigenvalue)
    # next to the round-off of either eigenvalue form.
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    largest = scale * rng.uniform(0.5, 1.0, shape)
    lowest = largest * rng.uniform(0.0, 1.0, shape)
    floor = 1e-9 * max(1.0, float(np.max(largest)))
    lowest[0, 0] = {
        "positive": lowest[0, 0],
        "zero": 0.0,
        "just_above": -0.5 * floor,
        "below": -floor * 10.0 ** rng.uniform(0.3, 6.0),
    }[smallest]
    z = rng.standard_normal((*shape, 2, 2)) + 1j * rng.standard_normal((*shape, 2, 2))
    q, _ = np.linalg.qr(z)
    r = np.einsum("...ij,...j,...kj->...ik", q, np.stack([largest, lowest], axis=-1), q.conj())
    r = 0.5 * (r + np.conj(np.swapaxes(r, -1, -2)))

    accepted = accepts_as_psd_eigvalsh(r)
    assert accepted == (smallest != "below")
    if accepted:
        CovarianceSet(r, (1,) * shape[1])
    else:
        with pytest.raises(ValueError, match="positive semidefinite"):
            CovarianceSet(r, (1,) * shape[1])


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


def _direct_unmixing(taps, dft_length):
    """Per-bin W = [[1, w0], [w1, 1]] from O(K^2) DFTs of the zero-padded taps."""
    n_bins = dft_length // 2 + 1
    w = np.ones((n_bins, 2, 2), dtype=complex)
    for (i, j), row in zip(((0, 1), (1, 0)), taps):
        w[:, i, j] = dft_direct(np.pad(row, (0, dft_length - len(row))))[:n_bins]
    return w


def test_unmixing_system_validates():
    k = 32
    system = UnmixingSystem(np.zeros((2, 9)), k)
    assert (system.filter_support, system.dft_length, system.n_bins) == (8, k, k // 2 + 1)
    assert not system.taps.flags.writeable and not system.cross.flags.writeable
    assert [f.name for f in dataclasses.fields(system)] == ["taps", "dft_length"]

    for bad in (np.zeros((3, 9)), np.zeros(9), np.zeros((2, 0)), np.zeros((2, 2, 9))):
        with pytest.raises(ValueError, match="shape"):
            UnmixingSystem(bad, k)
    # Complex taps are rejected, so no W01 or W10 is complex at DC or Nyquist.
    dc = np.zeros((2, 9), dtype=complex)
    dc[0, 0] = 0.5j
    with pytest.raises(ValueError, match="real"):
        UnmixingSystem(dc, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unmixing_system_rejects_non_finite_taps(bad):
    taps = np.zeros((2, 5))
    taps[1, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        UnmixingSystem(taps, 16)


def test_unmixing_system_rejects_support_beyond_the_dft():
    assert UnmixingSystem(np.zeros((2, 16)), 16).filter_support == 15
    for n_taps in (17, 40):
        with pytest.raises(ValueError, match="dft_length"):
            UnmixingSystem(np.zeros((2, n_taps)), 16)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    half=st.integers(1, 64),
    support_fraction=st.floats(0.0, 1.0, exclude_max=True),
    exponent=st.floats(-6.0, 6.0),
)
def test_unmixing_system_meets_its_constraints_by_construction(
    seed, half, support_fraction, exponent
):
    rng = np.random.default_rng(seed)
    k = 2 * half
    q = int(support_fraction * k)
    system = UnmixingSystem(10.0**exponent * rng.standard_normal((2, q + 1)), k)
    w = system.matrices

    assert w.shape == (half + 1, 2, 2)
    assert np.all(w[:, 0, 0] == 1.0) and np.all(w[:, 1, 1] == 1.0)
    assert np.all(w[[0, -1], 0, 1].imag == 0.0) and np.all(w[[0, -1], 1, 0].imag == 0.0)
    filters = np.fft.irfft(np.stack([w[:, 0, 1], w[:, 1, 0]]), n=k, axis=-1)
    tail = np.sum(filters[:, q + 1 :] ** 2, axis=-1)
    assert np.all(tail <= 1e-10 * np.sum(filters**2, axis=-1))
    assert np.array_equal(constrain_filter_support(system).taps, system.taps)


def test_constrain_filter_support_projects_and_is_idempotent():
    rng = np.random.default_rng(7)
    k, q = 64, 8
    system = UnmixingSystem(rng.standard_normal((2, q + 1)), k)

    once = constrain_filter_support(system)
    assert (once.filter_support, once.dft_length) == (q, k)
    assert np.all(once.matrices[:, 0, 0] == 1.0)
    assert np.all(once.matrices[:, 1, 1] == 1.0)
    taps = np.fft.irfft(once.matrices, n=k, axis=0)
    assert np.max(np.abs(taps[q + 1 :, 0, 1])) <= 1e-12
    assert np.max(np.abs(taps[q + 1 :, 1, 0])) <= 1e-12
    assert np.allclose(taps[: q + 1, 0, 1], system.taps[0], atol=1e-12)
    assert np.allclose(taps[: q + 1, 1, 0], system.taps[1], atol=1e-12)

    twice = constrain_filter_support(once)
    assert np.array_equal(twice.taps, once.taps)
    assert np.array_equal(twice.matrices, once.matrices)


def test_apply_unmixing_cancels_and_matches_reference():
    rng = np.random.default_rng(8)
    specs = _spectrogram_pair(rng, k=32, n_frames=10)
    same = (specs[0], specs[0].with_values(specs[0].values))

    # A tap-0 filter of -1 is W01 = -1 in every bin: y_0 = x_0 - x_1.
    cancel = np.zeros((2, 32))
    cancel[0, 0] = -1.0
    y1, _ = apply_unmixing(UnmixingSystem(cancel, 32), same)
    assert np.max(np.abs(y1.values)) == 0.0

    taps = 0.3 * rng.standard_normal((2, 32))
    out1, out2 = apply_unmixing(UnmixingSystem(taps, 32), specs)
    w = _direct_unmixing(taps, 32)
    ref1, ref2 = apply_unmixing_direct(w, specs[0].values, specs[1].values)
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
    system, _ = solve_unmixing(*_silent_channel_case())
    assert np.all(system.matrices[:, 0, 0] == 1.0)
    assert np.all(system.matrices[:, 1, 1] == 1.0)


def _random_spectrogram_case(seed):
    """The acceptance suite's random solves: white spectrograms, K = 64."""
    cfg = StftConfig(64, 0.5)
    params = SolverParams(filter_support=16, block_count=4, max_iters=60)
    gen = np.random.default_rng(seed)
    shape = (cfg.n_bins, 40)
    n = (shape[1] - 1) * cfg.hop + cfg.frame_length
    pair = tuple(
        Spectrogram(gen.standard_normal(shape) + 1j * gen.standard_normal(shape), cfg, 8000, n)
        for _ in range(2)
    )
    return estimate_block_covariances(pair, params.block_count), params


def _silent_channel_case():
    rng = np.random.default_rng(9)
    cfg = StftConfig(64, 0.5)
    n_frames = 24
    shape = (cfg.n_bins, n_frames)
    n = (n_frames - 1) * cfg.hop + 64
    live = Spectrogram(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg, 8000, n
    )
    silent = live.with_values(np.zeros(shape, dtype=complex))
    cov = estimate_block_covariances((live, silent), 4)
    return cov, SolverParams(filter_support=16, block_count=4, max_iters=20)


def _capped_instantaneous_case():
    cov, params = _instantaneous_case()
    return cov, dataclasses.replace(params, max_iters=3, tolerance=0.0)


def _room_case(seconds=2.0, **settings):
    """Block covariances of a simulated room scene at the default RT60."""
    config = PipelineConfig({"synth_duration_s": seconds, **settings})
    mixture = simulate_scene(config).mixture
    specs = tuple(analyze(ch, config.stft) for ch in mixture.channels)
    return estimate_block_covariances(specs, config.solver.block_count), config.solver


SOLVER_CASES = {
    "instantaneous": _instantaneous_case,
    "instantaneous_capped": _capped_instantaneous_case,
    "silent_channel": _silent_channel_case,
    "room_2s": lambda: _room_case(dft_length=512, filter_support=128, block_count=8),
    **{f"random_{seed}": (lambda seed=seed: _random_spectrogram_case(seed)) for seed in range(5)},
}


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_solver_matches_projected_descent_over_w(case):
    cov, params = SOLVER_CASES[case]()
    system, state = solve_unmixing(cov, params)
    w, trace, iterations, termination = solve_unmixing_projected(
        cov.matrices, params.filter_support, params.max_iters, params.tolerance
    )
    assert state.iterations == iterations
    assert state.termination == termination
    a, b = np.array(state.cost_trace), np.array(trace)
    assert np.all(np.abs(a - b) <= 1e-12 * b)
    assert _relative_error(system.matrices, w) <= 1e-10


def test_solver_stops_at_max_iters():
    _, state = solve_unmixing(*_capped_instantaneous_case())
    assert state.termination == "max_iters"
    assert state.iterations == 3
    assert len(state.cost_trace) == 4
    # The first cost, then at least one try per accepted step.
    assert state.evaluations >= state.iterations + 1


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


def test_solver_stops_when_no_step_lowers_the_cost(monkeypatch):
    # A cost of 1 at the identity and 2 at any other taps: every halved step raises it.
    def stub(taps, moments, dft_length):
        return (1.0 if not np.any(taps) else 2.0), np.ones_like(taps)

    monkeypatch.setattr("cbss.jointdiag._cost_and_step", stub)
    r = np.zeros((9, 4, 2, 2), dtype=complex)
    r[..., 0, 0] = r[..., 1, 1] = 1.0
    system, state = solve_unmixing(CovarianceSet(r, (3,) * 4), SolverParams(filter_support=4))
    assert state.termination == "line_search_stalled"
    assert state.iterations == 0
    assert state.evaluations == 61  # the start, then sixty halvings
    assert state.cost_trace == [1.0]
    assert not np.any(system.taps)


@pytest.mark.parametrize("seed", range(10))
def test_solver_survives_exactly_diagonalizable_sets(seed):
    # R_k = A D_k A^T with a unit-diagonal, bin-constant A: the tap-0 filters
    # [[1, -A01], [-A10, 1]] make every block diagonal, so near the optimum
    # each bin's cost is round-off, of either sign.
    rng = np.random.default_rng(seed)
    a = np.eye(2) + rng.uniform(-0.6, 0.6, (2, 2)) * (1.0 - np.eye(2))
    d = rng.uniform(0.0, 2.0, (17, 4, 2))
    r = np.einsum("ij,fkj,lj->fkil", a, d, a).astype(complex)
    params = SolverParams(filter_support=2, block_count=4, max_iters=100, tolerance=0.0)
    _, state = solve_unmixing(CovarianceSet(r, (3,) * 4), params)
    assert state.cost_trace[-1] <= 1e-6 * state.cost_trace[0]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dft_length=st.sampled_from([16, 32, 64]),
    support_fraction=st.floats(0.0, 1.0, exclude_max=True),
    n_blocks=st.integers(2, 8),
    rank=st.integers(1, 2),
    exponent=st.floats(-3.0, 3.0),
    max_iters=st.integers(1, 20),
)
def test_solver_invariants_on_random_psd_sets(
    seed, dft_length, support_fraction, n_blocks, rank, exponent, max_iters
):
    rng = np.random.default_rng(seed)
    n_bins = dft_length // 2 + 1
    q = int(support_fraction * dft_length / 2)
    r = 10.0**exponent * _random_psd_stack(rng, n_bins, n_blocks, rank)
    params = SolverParams(filter_support=q, block_count=n_blocks, max_iters=max_iters)
    system, state = solve_unmixing(CovarianceSet(r, (1,) * n_blocks), params)

    assert np.all(system.matrices[:, 0, 0] == 1.0)
    assert np.all(system.matrices[:, 1, 1] == 1.0)
    moved = np.max(np.abs(constrain_filter_support(system).matrices - system.matrices))
    assert moved <= 1e-10
    trace = np.array(state.cost_trace)
    assert np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) <= 0.0)
    assert state.termination in TERMINATIONS


def _per_block_cost_and_step(taps, r, dft_length):
    """The solver's evaluation from the public per-block kernels."""
    off = np.fft.rfft(taps, n=dft_length, axis=-1)
    w = np.ones((off.shape[-1], 2, 2), dtype=complex)
    w[:, 0, 1], w[:, 1, 0] = off
    lam = diag_target(w, r)
    g = cost_gradient(w, r, lam)
    step = np.fft.irfft(np.stack([g[:, 0, 1], g[:, 1, 0]]), n=dft_length, axis=-1)
    return cost(w, r, lam), step[:, : taps.shape[-1]]


def _assert_moment_form_matches(taps, r, dft_length):
    got_cost, got_step = _cost_and_step(taps, _moments(r), dft_length)
    want_cost, want_step = _per_block_cost_and_step(taps, r, dft_length)
    assert abs(got_cost - want_cost) <= 1e-12 * want_cost
    assert np.max(np.abs(got_step - want_step)) <= 1e-12 * np.max(np.abs(want_step))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dft_length=st.sampled_from([16, 32, 64]),
    support_fraction=st.floats(0.0, 1.0, exclude_max=True),
    n_blocks=st.integers(2, 8),
    rank=st.integers(1, 2),
    exponent=st.floats(-3.0, 3.0),
    tap_scale=st.floats(0.01, 3.0),
)
def test_moment_form_matches_per_block_kernels(
    seed, dft_length, support_fraction, n_blocks, rank, exponent, tap_scale
):
    # Rank-1 blocks let the per-block diagonal of W R W^H round below zero,
    # where `diag_target` floors it; the moment form drops that floor.
    rng = np.random.default_rng(seed)
    n_bins = dft_length // 2 + 1
    q = int(support_fraction * dft_length / 2)
    r = 10.0**exponent * _random_psd_stack(rng, n_bins, n_blocks, rank)
    taps = tap_scale * rng.standard_normal((2, q + 1))
    _assert_moment_form_matches(taps, r, dft_length)


def test_moment_form_matches_per_block_kernels_on_a_room_scene():
    cov, params = _room_case()
    rng = np.random.default_rng(11)
    taps = 0.1 * rng.standard_normal((2, params.filter_support + 1))
    _assert_moment_form_matches(taps, cov.matrices, 2 * (cov.n_bins - 1))


def test_moment_form_of_diagonal_covariances_costs_exactly_zero():
    rng = np.random.default_rng(12)
    r = np.zeros((17, 4, 2, 2), dtype=complex)
    r[..., 0, 0] = rng.uniform(0.5, 2.0, (17, 4))
    r[..., 1, 1] = rng.uniform(0.5, 2.0, (17, 4))
    value, step = _cost_and_step(np.zeros((2, 5)), _moments(r), 32)
    assert value == 0.0
    assert np.all(step == 0.0)
