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
taps [0, Q].  That leaves the 2(Q+1) real taps of the two cross filters
free, and the solver's gradient descent with step halving runs on them.
An `UnmixingSystem` is those taps: W = [[1, w0], [w1, 1]] with w0 and w1
the rffts of its two filters, so every system meets both constraints, and
has real cross responses at DC and Nyquist, by construction.

Each block covariance is PSD, so the diagonal of W R W^H is non-negative
and is itself the optimal Lambda: only the off-diagonal entries are left in
the cost.  With a unit diagonal those entries are bilinear in the two cross
entries of W, so the solver sums 4x4 moment matrices over each bin's blocks
once, and every evaluation of the cost and gradient then costs O(bins)
rather than O(bins x blocks).  `diag_target`, `cost` and `cost_gradient`
are the definitional per-block kernels, for any W and Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram

HERMITIAN_TOL = 1e-12
PSD_EIG_TOL = 1e-9
TERMINATIONS = ("tolerance", "max_iters", "line_search_stalled", "zero_cost")
# Base step of the descent; each bin's covariances are normalized by their
# mean trace, so one value fits every scene.
STEP_SIZE = 0.5


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
        # Eigenvalues of [[a, r01], [r10, d]]: (a + d)/2 +- hypot((a - d)/2, |r10|).
        a, d = r[..., 0, 0].real, r[..., 1, 1].real
        mean = 0.5 * (a + d)
        radius = np.hypot(0.5 * (a - d), np.abs(r[..., 1, 0]))
        largest = mean + radius
        # Round-off in the outer-product averages grows with signal energy,
        # so the PSD tolerance is relative to the largest eigenvalue.
        floor = -PSD_EIG_TOL * max(1.0, float(np.max(largest)) if largest.size else 1.0)
        if np.min(mean - radius) < floor:
            raise ValueError("covariance matrices must be positive semidefinite")
        r.flags.writeable = False
        object.__setattr__(self, "matrices", r)
        object.__setattr__(self, "frames_per_block", tuple(int(c) for c in self.frames_per_block))

    @property
    def n_bins(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True, eq=False)
class UnmixingSystem:
    """Per-bin W = [[1, w0], [w1, 1]] held as the real taps of its two cross filters.

    `taps` is (2, Q+1), Q < `dft_length`: row 0 is w0 = W01 and row 1 is
    w1 = W10.  `cross` holds their rffts, one row per filter and one column
    per bin, computed once and read-only: both separation threads read it.
    """

    taps: np.ndarray
    dft_length: int

    def __post_init__(self) -> None:
        k = int(self.dft_length)
        taps = np.asarray(self.taps)
        if taps.ndim != 2 or taps.shape[0] != 2 or not 1 <= taps.shape[1] <= k:
            raise ValueError("taps must have shape (2, Q + 1) with 0 <= Q < dft_length")
        if np.iscomplexobj(taps) or not np.all(np.isfinite(taps)):
            raise ValueError("cross-filter taps must be real and finite")
        taps = np.array(taps, dtype=np.float64)
        taps.flags.writeable = False
        cross = np.fft.rfft(taps, n=k, axis=-1)
        cross.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "dft_length", k)
        object.__setattr__(self, "cross", cross)

    @property
    def filter_support(self) -> int:
        return self.taps.shape[1] - 1

    @property
    def n_bins(self) -> int:
        return self.cross.shape[1]

    @property
    def matrices(self) -> np.ndarray:
        """The per-bin W, complex (n_bins, 2, 2), built anew on each call."""
        w = np.ones((self.n_bins, 2, 2), dtype=np.complex128)
        w[:, 0, 1], w[:, 1, 0] = self.cross
        return w


@dataclass(frozen=True)
class SolverParams:
    """Knobs for solve_unmixing; defaults follow the reference setup."""

    filter_support: int = 512
    block_count: int = 8
    max_iters: int = 200
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.filter_support < 0:
            raise ValueError("filter_support must be non-negative")
        if self.block_count < 2:
            raise ValueError("block_count must be at least 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")


@dataclass(eq=False)
class SolverState:
    """How the descent went: cost history, iteration count, stopping reason.

    `termination` says why the descent stopped: the relative cost drop fell
    below the tolerance, the iteration cap was reached, sixty line-search
    tries with halving step sizes all raised the cost, or the cost reached
    exactly zero.  `evaluations` counts every cost-and-gradient evaluation,
    rejected line-search tries included.
    """

    cost_trace: list[float]
    termination: str
    evaluations: int

    def __post_init__(self) -> None:
        trace = [float(c) for c in self.cost_trace]
        if any(not np.isfinite(c) or c < 0 for c in trace):
            raise ValueError("cost trace must contain finite non-negative values")
        if self.evaluations < len(trace):
            raise ValueError("every cost in the trace takes one evaluation")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"termination must be one of {TERMINATIONS}")
        self.cost_trace = trace

    @property
    def iterations(self) -> int:
        return len(self.cost_trace) - 1  # the trace holds the starting cost


class CovarianceSums:
    """Running per-bin sums of x x^H over the frames of each covariance block.

    Frames [0, n_frames) are partitioned into `block_count` blocks as
    evenly as possible, earlier blocks take the remainder.  `add` takes the
    two channels' spectra of each run of consecutive frames in turn;
    `covariance_set` averages the sums once every frame is in.  Each sum
    runs frame by frame in order, in real arithmetic, so any split of the
    frames into runs gives the same bits.
    """

    def __init__(self, n_bins: int, n_frames: int, block_count: int) -> None:
        if block_count < 2:
            raise ValueError("block_count must be at least 2")
        if n_frames < block_count:
            raise ValueError(f"{n_frames} frames cannot fill {block_count} blocks")
        sizes = [len(idx) for idx in np.array_split(np.arange(n_frames), block_count)]
        self.frames_per_block = tuple(sizes)
        self.edges = np.cumsum([0, *sizes])
        # Per block: |x0|^2, |x1|^2 and the real and imaginary parts of x0 x1*.
        self.sums = np.zeros((block_count, 4, n_bins))

    def add(self, x0: np.ndarray, x1: np.ndarray, first: int) -> None:
        """Add frames first, first + 1, ... of frames-major spectra x0, x1 into their blocks."""
        stop = first + len(x0)
        for b in range(len(self.frames_per_block)):
            lo, hi = max(first, self.edges[b]), min(stop, self.edges[b + 1])
            if lo >= hi:
                continue
            # Frames on the first axis: a sum over it adds them in order.
            y0, y1 = x0[lo - first : hi - first], x1[lo - first : hi - first]
            r0, i0, r1, i1 = y0.real, y0.imag, y1.real, y1.imag
            terms = np.stack(
                [r0 * r0 + i0 * i0, r1 * r1 + i1 * i1, r0 * r1 + i0 * i1, i0 * r1 - r0 * i1],
                axis=1,
            )
            terms[0] += self.sums[b]
            self.sums[b] = np.sum(terms, axis=0)

    def covariance_set(self) -> CovarianceSet:
        """Block averages of the sums, with every `CovarianceSet` check."""
        counts = np.array(self.frames_per_block, dtype=np.float64)[:, None]
        s00, s11, re01, im01 = (np.transpose(self.sums[:, i] / counts) for i in range(4))
        r = np.empty(s00.shape + (2, 2), dtype=np.complex128)
        r[..., 0, 0] = s00
        r[..., 1, 1] = s11
        r[..., 0, 1].real = re01
        r[..., 0, 1].imag = im01
        r[..., 1, 0] = np.conj(r[..., 0, 1])
        return CovarianceSet(r, self.frames_per_block)


def estimate_block_covariances(
    spectrograms: tuple[Spectrogram, Spectrogram], block_count: int
) -> CovarianceSet:
    """Average per-bin outer products x x^H over `block_count` frame blocks.

    Frames are partitioned [0, n_frames) as evenly as possible; earlier
    blocks take the remainder.  The whole-spectrogram case of
    `CovarianceSums`.
    """
    s1, s2 = spectrograms
    if s1.values.shape != s2.values.shape:
        raise ValueError("channel spectrograms must cover the same frames")
    if s1.config != s2.config:
        raise ValueError("channel spectrograms must share one STFT config")
    sums = CovarianceSums(s1.n_bins, s1.n_frames, block_count)
    sums.add(s1.values.T, s2.values.T, 0)
    return sums.covariance_set()


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


def diag_target(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Optimal diagonal model: real diagonal of W R W^H, floored at zero.

    `w` broadcasts as (..., 2, 2) against covariance blocks (..., k, 2, 2);
    the result drops the matrix axes to (..., k, 2).
    """
    _, d0, d1, _ = _products(w, r)
    return np.maximum(np.stack([d0, d1], axis=-1), 0.0)


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
    top = [np.sum(e00 * p00 + e01 * p10, axis=-1), np.sum(e00 * p01 + e01 * p11, axis=-1)]
    bottom = [np.sum(e10 * p00 + e11 * p10, axis=-1), np.sum(e10 * p01 + e11 * p11, axis=-1)]
    return 2.0 * np.stack([np.stack(top, axis=-1), np.stack(bottom, axis=-1)], axis=-2)


def _moments(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin block sums M = sum_k v v^H and N = sum_k v v^T, each (4, 4, n_bins).

    v = (R01, R00, R11, R10) per block.  With W = [[1, a], [b, 1]], the
    (0, 1) entry of W R W^H is e = v^T u, u = (1, conj(b), a, a conj(b)), so
    the sum of |e|^2 over a bin's blocks is u^T M conj(u).  Each R is
    Hermitian, so conj(v) is v with entries 0 and 3 swapped: N = M[:, (3, 1, 2, 0)].
    """
    v = np.stack([r[..., 0, 1], r[..., 0, 0], r[..., 1, 1], r[..., 1, 0]])
    m = np.einsum("ifk,jfk->ijf", v, v.conj())
    return m, m[:, [3, 1, 2, 0]]


def _cost_and_step(
    taps: np.ndarray, moments: tuple[np.ndarray, np.ndarray], dft_length: int
) -> tuple[float, np.ndarray]:
    """Cost at the optimal Lambda, and the gradient's cross entries as taps.

    Each block's R is PSD, so the diagonal d of W R W^H is non-negative, the
    optimal Lambda is d itself, and only the off-diagonal e is left:
    J = 2 sum_bins u^T M conj(u).  The gradient's cross entries are
    G01 = 2 sum_k e (b R01 + R11) = 2 (b (N u)_0 + (N u)_2) and
    G10 = 2 sum_k conj(e) (R00 + a R10) = 2 ((M conj(u))_1 + a (M conj(u))_3).
    Moving W by -eta G and projecting back onto the constraint set is the
    same as moving the taps by -eta times the returned step.
    """
    m, n = moments
    a, b = np.fft.rfft(taps, n=dft_length, axis=-1)
    b_conj = np.conj(b)
    u = np.stack([np.ones_like(a), b_conj, a, a * b_conj])
    m_u = np.sum(m * np.conj(u), axis=1)
    n_u = np.sum(n * u, axis=1)
    # Each bin's form is a sum of squares; round-off must not take it below zero.
    per_bin = np.maximum(np.real(np.sum(u * m_u, axis=0)), 0.0)
    cross = 2.0 * np.stack([b * n_u[0] + n_u[2], m_u[1] + a * m_u[3]])
    step = np.fft.irfft(cross, n=dft_length, axis=-1)[:, : taps.shape[-1]]
    return 2.0 * float(np.sum(per_bin)), step


def constrain_filter_support(system: UnmixingSystem) -> UnmixingSystem:
    """Project a system onto unit diagonal and tap support [0, Q]: rebuild it from its taps.

    Every W whose diagonal is 1 and whose cross entries are rffts of real
    taps on 0..Q is its own projection, and a system holds only such taps.
    """
    return UnmixingSystem(system.taps, system.dft_length)


def solve_unmixing(
    covariances: CovarianceSet, params: SolverParams
) -> tuple[UnmixingSystem, SolverState]:
    """Minimize the joint-diagonalization cost by gradient descent over the taps.

    Starts from identity (all cross taps zero) and takes gradient steps,
    with Lambda at its optimum for every candidate.  A step that increases
    the cost is retried with half the step size; after five accepted steps
    the step size resets to STEP_SIZE.  Each bin's covariances are
    pre-scaled by their mean trace, so STEP_SIZE acts on a normalized
    problem.  The scaled covariances are then summed into per-bin moment
    matrices (`_moments`), and every evaluation reads only those: one
    `rfft` of the taps, two 4x4 matrix-vector products per bin and one
    `irfft` of the step.  The floor of Lambda at zero drops out because
    each R is PSD; `CovarianceSet` admits eigenvalues down to -1e-9 of
    the largest, so what it drops is round-off.
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
    moments = _moments(r_raw / scale[:, None, None, None])

    taps = np.zeros((2, q + 1))
    current_cost, step = _cost_and_step(taps, moments, dft_length)
    evaluations = 1
    if not np.isfinite(current_cost):
        raise RuntimeError("initial cost is non-finite; covariances are unusable")
    trace = [current_cost]

    eta = STEP_SIZE
    accepted_since_reset = 0
    termination = "max_iters"
    for _ in range(params.max_iters):
        eta_try = eta
        for _ in range(60):
            candidate = taps - eta_try * step
            new_cost, new_step = _cost_and_step(candidate, moments, dft_length)
            evaluations += 1
            if not np.isfinite(new_cost):
                raise RuntimeError(
                    f"cost became non-finite during descent (step size {eta_try})"
                )
            if new_cost <= current_cost:
                break
            eta_try *= 0.5
        else:
            termination = "line_search_stalled"
            break

        if eta_try < eta:
            eta = eta_try
            accepted_since_reset = 0
        else:
            accepted_since_reset += 1
            if eta < STEP_SIZE and accepted_since_reset >= 5:
                eta = STEP_SIZE
                accepted_since_reset = 0

        drop = current_cost - new_cost
        relative = drop / current_cost if current_cost > 0 else 0.0
        taps, step = candidate, new_step
        current_cost = new_cost
        trace.append(current_cost)
        if current_cost == 0.0:
            termination = "zero_cost"
            break
        if relative < params.tolerance:
            termination = "tolerance"
            break

    state = SolverState(cost_trace=trace, termination=termination, evaluations=evaluations)
    return UnmixingSystem(taps, dft_length), state


def unmix_output(
    system: UnmixingSystem,
    i: int,
    own: np.ndarray,
    other: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Output i of frames-major spectra: y_i = x_i + w_i x_(1-i) in every bin.

    `own` is channel i and `other` channel 1 - i; w_i is row i of the
    system's cross spectra, the rfft of its cross filter i (w_0 = W01 and
    w_1 = W10).  W's diagonal is 1, so each output needs only that one
    filter.  The result goes into `out` when given.
    """
    out = np.multiply(system.cross[i], other, out=out)
    out += own
    return out


def apply_unmixing(
    system: UnmixingSystem, spectrograms: tuple[Spectrogram, Spectrogram]
) -> tuple[Spectrogram, Spectrogram]:
    """Unmix two whole channel spectrograms with `unmix_output`."""
    s1, s2 = spectrograms
    if s1.values.shape != s2.values.shape or s1.config != s2.config:
        raise ValueError("channel spectrograms must match in shape and config")
    if s1.n_bins != system.n_bins:
        raise ValueError(
            f"bin-count mismatch: spectrogram has {s1.n_bins}, system {system.n_bins}"
        )
    x0, x1 = s1.values.T, s2.values.T
    y0, y1 = unmix_output(system, 0, x0, x1), unmix_output(system, 1, x1, x0)
    return s1.with_values(y0.T), s2.with_values(y1.T)
