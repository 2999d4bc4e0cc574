"""Frequency-domain separation by joint diagonalization of block covariances.

The STFT turns convolutive mixing into (approximately) one instantaneous
2x2 mixing matrix per frequency bin.  Non-stationary sources then make the
per-bin cross-power matrix, averaged over different time blocks, change
its eigenstructure from block to block while the mixing stays fixed.  The
solver looks for one unmixing matrix W per bin that makes every block
covariance simultaneously diagonal:

    J(W) = sum_{bins, blocks} || W R W^H - Lambda ||_F^2,  Lambda diagonal.

Two constraints tie the per-bin problems together and kill the scaling /
permutation ambiguities: W has unit diagonal in every bin, and every entry
of W, read across bins as the DFT of a real filter, must be supported on
taps [0, Q].  Minimization is projected gradient descent with step halving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = 1e-9
SUPPORT_TOL = 1e-10
TERMINATIONS = ("tolerance", "max_iters", "line_search_stalled", "zero_cost")


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Block-averaged cross-power matrices, complex (n_bins, n_blocks, 2, 2)."""

    matrices: np.ndarray
    frames_per_block: tuple[int, ...]

    def __post_init__(self) -> None:
        r = np.array(self.matrices, dtype=np.complex128)
        if r.ndim != 4 or r.shape[2:] != (2, 2):
            raise ValueError("covariance array must have shape (n_bins, n_blocks, 2, 2)")
        if not np.all(np.isfinite(r)):
            raise ValueError("covariance matrices must be finite")
        herm_err = np.max(np.abs(r - np.conj(np.swapaxes(r, -1, -2))))
        scale = max(1.0, float(np.max(np.abs(r))) if r.size else 1.0)
        if herm_err > HERMITIAN_TOL * scale:
            raise ValueError("covariance matrices must be Hermitian")
        eigs = np.linalg.eigvalsh(r)
        # Round-off in the outer-product averages grows with signal energy,
        # so the PSD tolerance is relative to the largest eigenvalue.
        floor = -PSD_EIG_TOL * max(1.0, float(np.max(eigs)) if eigs.size else 1.0)
        if np.min(eigs) < floor:
            raise ValueError("covariance matrices must be positive semidefinite")
        r.flags.writeable = False
        object.__setattr__(self, "matrices", r)
        object.__setattr__(self, "frames_per_block", tuple(int(c) for c in self.frames_per_block))

    @property
    def n_bins(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True, eq=False)
class UnmixingSystem:
    """Per-bin 2x2 unmixing matrices satisfying both solver constraints."""

    matrices: np.ndarray
    filter_support: int
    dft_length: int

    def __post_init__(self) -> None:
        w = np.array(self.matrices, dtype=np.complex128)
        k = int(self.dft_length)
        q = int(self.filter_support)
        if w.ndim != 3 or w.shape[1:] != (2, 2):
            raise ValueError("unmixing array must have shape (n_bins, 2, 2)")
        if w.shape[0] != k // 2 + 1:
            raise ValueError("bin count must equal dft_length // 2 + 1")
        if not 0 <= q < k:
            raise ValueError("filter_support must lie in [0, dft_length)")
        if not np.all(np.isfinite(w)):
            raise ValueError("unmixing matrices must be finite")
        if not (np.all(w[:, 0, 0] == 1.0) and np.all(w[:, 1, 1] == 1.0)):
            raise ValueError("diagonal entries must equal 1 exactly in every bin")
        taps = np.fft.irfft(w, n=k, axis=0)
        for i, j in ((0, 1), (1, 0)):
            tail = float(np.sum(taps[q + 1 :, i, j] ** 2))
            total = float(np.sum(taps[:, i, j] ** 2))
            if tail > SUPPORT_TOL * total:
                raise ValueError(f"entry ({i},{j}) has energy beyond tap {q}")
        w.flags.writeable = False
        object.__setattr__(self, "matrices", w)
        object.__setattr__(self, "filter_support", q)
        object.__setattr__(self, "dft_length", k)

    @property
    def n_bins(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class SolverParams:
    """Knobs for solve_unmixing; defaults follow the reference setup."""

    filter_support: int = 512
    block_count: int = 8
    max_iters: int = 200
    step_size: float = 0.5
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.filter_support < 0:
            raise ValueError("filter_support must be non-negative")
        if self.block_count < 2:
            raise ValueError("block_count must be at least 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")


@dataclass(eq=False)
class SolverState:
    """Final solver snapshot: unmixing, targets, residuals, cost history.

    `termination` says why the descent stopped: the relative cost drop fell
    below the tolerance, the iteration cap was reached, sixty line-search
    tries with halving step sizes all raised the cost, or the cost reached
    exactly zero.
    """

    unmixing: UnmixingSystem
    diagonal_targets: np.ndarray
    residuals: np.ndarray
    cost_trace: list[float]
    iterations: int
    termination: str

    def __post_init__(self) -> None:
        trace = [float(c) for c in self.cost_trace]
        if any(not np.isfinite(c) or c < 0 for c in trace):
            raise ValueError("cost trace must contain finite non-negative values")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"termination must be one of {TERMINATIONS}")
        self.cost_trace = trace


def estimate_block_covariances(
    spectrograms: tuple[Spectrogram, Spectrogram], block_count: int
) -> CovarianceSet:
    """Average per-bin outer products x x^H over `block_count` frame blocks.

    Frames are partitioned [0, n_frames) as evenly as possible; earlier
    blocks take the remainder.
    """
    s1, s2 = spectrograms
    if s1.values.shape != s2.values.shape:
        raise ValueError("channel spectrograms must have equal shape")
    if s1.config != s2.config:
        raise ValueError("channel spectrograms must share one STFT config")
    n_frames = s1.n_frames
    if block_count < 2:
        raise ValueError("block_count must be at least 2")
    if n_frames < block_count:
        raise ValueError(f"{n_frames} frames cannot fill {block_count} blocks")

    x = np.stack([s1.values, s2.values])  # (2, n_bins, n_frames)
    splits = np.array_split(np.arange(n_frames), block_count)
    n_bins = s1.n_bins
    r = np.empty((n_bins, block_count, 2, 2), dtype=np.complex128)
    for b, idx in enumerate(splits):
        xb = x[:, :, idx]
        r[:, b] = np.einsum("ikm,jkm->kij", xb, np.conj(xb)) / len(idx)
    r = 0.5 * (r + np.conj(np.swapaxes(r, -1, -2)))
    return CovarianceSet(r, tuple(len(idx) for idx in splits))


def _products(w: np.ndarray, r: np.ndarray):
    """Entries of P = W R and of W R W^H, as (..., k) arrays over blocks.

    `w` broadcasts as (..., 2, 2) against covariance blocks (..., k, 2, 2).
    Returns ((P00, P01, P10, P11), d0, d1, e) where d is the real diagonal
    of W R W^H and e its (0, 1) entry; R is Hermitian, so the (1, 0) entry
    is conj(e).
    """
    w00, w01, w10, w11 = (w[..., i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    r00, r01, r10, r11 = r[..., 0, 0], r[..., 0, 1], r[..., 1, 0], r[..., 1, 1]
    p00 = w00 * r00 + w01 * r10
    p01 = w00 * r01 + w01 * r11
    p10 = w10 * r00 + w11 * r10
    p11 = w10 * r01 + w11 * r11
    d0 = np.real(p00 * np.conj(w00) + p01 * np.conj(w01))
    d1 = np.real(p10 * np.conj(w10) + p11 * np.conj(w11))
    e = p00 * np.conj(w10) + p01 * np.conj(w11)
    return (p00, p01, p10, p11), d0, d1, e


def _stack2x2(a00, a01, a10, a11) -> np.ndarray:
    return np.stack([np.stack([a00, a01], axis=-1), np.stack([a10, a11], axis=-1)], axis=-2)


def diag_target(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Optimal diagonal model: real diagonal of W R W^H, floored at zero.

    `w` broadcasts as (..., 2, 2) against covariance blocks (..., k, 2, 2);
    the result drops the matrix axes to (..., k, 2).
    """
    _, d0, d1, _ = _products(w, r)
    return np.maximum(np.stack([d0, d1], axis=-1), 0.0)


def _residual(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """E = W R W^H - Lambda, shape (..., k, 2, 2)."""
    _, d0, d1, e = _products(w, r)
    return _stack2x2(d0 - lam[..., 0], e, np.conj(e), d1 - lam[..., 1])


def cost(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> float:
    """Squared Frobenius norm of W R W^H - Lambda, summed over bins and blocks."""
    _, d0, d1, e = _products(w, r)
    off = e.real**2 + e.imag**2
    return float(np.sum((d0 - lam[..., 0]) ** 2 + (d1 - lam[..., 1]) ** 2 + 2.0 * off))


def cost_gradient(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Wirtinger gradient 2 * sum_k E W R with Lambda held fixed.

    The returned G satisfies dJ/dRe(W) = 2 Re(G) and dJ/dIm(W) = 2 Im(G),
    which is what a central-finite-difference probe of `cost` measures.
    All four entries are returned, the diagonal included.
    """
    (p00, p01, p10, p11), d0, d1, e01 = _products(w, r)
    e00 = d0 - lam[..., 0]
    e11 = d1 - lam[..., 1]
    e10 = np.conj(e01)
    return 2.0 * _stack2x2(
        np.sum(e00 * p00 + e01 * p10, axis=-1),
        np.sum(e00 * p01 + e01 * p11, axis=-1),
        np.sum(e10 * p00 + e11 * p10, axis=-1),
        np.sum(e10 * p01 + e11 * p11, axis=-1),
    )


def _project_support(w: np.ndarray, filter_support: int, dft_length: int) -> np.ndarray:
    """Project per-bin matrices onto real filters with taps in [0, Q], unit diagonal.

    Only the off-diagonal entries are filtered; the diagonal is set to 1.
    """
    taps = np.fft.irfft(np.stack([w[:, 0, 1], w[:, 1, 0]], axis=-1), n=dft_length, axis=0)
    taps[filter_support + 1 :] = 0.0
    off = np.fft.rfft(taps, axis=0)
    out = np.ones_like(w)
    out[:, 0, 1] = off[:, 0]
    out[:, 1, 0] = off[:, 1]
    return out


def constrain_filter_support(system: UnmixingSystem) -> UnmixingSystem:
    """Re-apply the unit-diagonal and tap-support projection to a system.

    Idempotent up to round-off; a pure cross-channel delay longer than Q
    is removed entirely, while a bin-constant entry (a tap-0 filter)
    passes through unchanged.
    """
    w = _project_support(
        np.array(system.matrices), system.filter_support, system.dft_length
    )
    return UnmixingSystem(w, system.filter_support, system.dft_length)


def solve_unmixing(
    covariances: CovarianceSet, params: SolverParams
) -> tuple[UnmixingSystem, SolverState]:
    """Minimize the joint-diagonalization cost by projected gradient descent.

    Starts from identity, alternates the diagonal-target update with a
    gradient step, and projects back onto the constraint set after every
    step.  A step that increases the cost is retried with half the step
    size; after five accepted steps the step size resets to its base
    value.  Each bin's covariances are pre-scaled by their mean trace, so
    `params.step_size` acts on a normalized problem.
    """
    r_raw = covariances.matrices
    n_bins = covariances.n_bins
    dft_length = 2 * (n_bins - 1)
    q = params.filter_support
    if n_bins < 2:
        raise ValueError("need at least two frequency bins")
    if q >= dft_length:
        raise ValueError("filter_support must be smaller than the DFT length")

    trace_mean = np.real(r_raw[..., 0, 0] + r_raw[..., 1, 1]).mean(axis=1)
    scale = np.where(trace_mean > 0.0, trace_mean, 1.0)
    r = r_raw / scale[:, None, None, None]

    w = np.zeros((n_bins, 2, 2), dtype=np.complex128)
    w[:, 0, 0] = 1.0
    w[:, 1, 1] = 1.0

    current_cost = cost(w, r, diag_target(w, r))
    if not np.isfinite(current_cost):
        raise RuntimeError("initial cost is non-finite; covariances are unusable")
    trace = [current_cost]

    eta = params.step_size
    accepted_since_reset = 0
    iterations = 0
    termination = "max_iters"
    for _ in range(params.max_iters):
        lam = diag_target(w, r)
        grad = cost_gradient(w, r, lam)

        accepted = False
        eta_try = eta
        for _ in range(60):
            w_new = _project_support(w - eta_try * grad, q, dft_length)
            new_cost = cost(w_new, r, diag_target(w_new, r))
            if not np.isfinite(new_cost):
                raise RuntimeError(
                    f"cost became non-finite during descent (step size {eta_try})"
                )
            if new_cost <= current_cost:
                accepted = True
                break
            eta_try *= 0.5
        if not accepted:
            termination = "line_search_stalled"
            break

        if eta_try < eta:
            eta = eta_try
            accepted_since_reset = 0
        else:
            accepted_since_reset += 1
            if eta < params.step_size and accepted_since_reset >= 5:
                eta = params.step_size
                accepted_since_reset = 0

        drop = current_cost - new_cost
        relative = drop / current_cost if current_cost > 0 else 0.0
        w = w_new
        current_cost = new_cost
        trace.append(current_cost)
        iterations += 1
        if current_cost == 0.0:
            termination = "zero_cost"
            break
        if relative < params.tolerance:
            termination = "tolerance"
            break

    system = UnmixingSystem(w, q, dft_length)
    lam = diag_target(w, r)
    state = SolverState(
        unmixing=system,
        diagonal_targets=lam,
        residuals=_residual(w, r, lam),
        cost_trace=trace,
        iterations=iterations,
        termination=termination,
    )
    return system, state


def apply_unmixing(
    system: UnmixingSystem, spectrograms: tuple[Spectrogram, Spectrogram]
) -> tuple[Spectrogram, Spectrogram]:
    """Apply W(bin) to each frame's channel vector: one matmul per bin."""
    s1, s2 = spectrograms
    if s1.values.shape != s2.values.shape or s1.config != s2.config:
        raise ValueError("channel spectrograms must match in shape and config")
    if s1.n_bins != system.n_bins:
        raise ValueError(
            f"bin-count mismatch: spectrogram has {s1.n_bins}, system {system.n_bins}"
        )
    x = np.stack([s1.values, s2.values])  # (2, n_bins, n_frames)
    y = np.einsum("kij,jkm->ikm", system.matrices, x)
    return s1.with_values(y[0]), s2.with_values(y[1])
