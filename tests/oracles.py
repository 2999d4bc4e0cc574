"""Independent reference implementations used to cross-check the package.

Everything here is written as plainly as possible: direct-summation
transforms, scalar loops, no calls into the code under test and no
numpy.fft.  Slow is fine; these only ever run on small instances.
"""

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import fftconvolve


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(N^2) forward DFT, X[k] = sum_n x[n] e^{-2 pi i k n / N}."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        for t in range(n):
            out[k] += x[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def idft_direct(x: np.ndarray) -> np.ndarray:
    """O(N^2) inverse DFT with the 1/N factor."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for t in range(n):
        for k in range(n):
            out[t] += x[k] * np.exp(2j * np.pi * k * t / n)
    return out / n


def convolve_direct(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Full linear convolution by double loop, length len(h)+len(x)-1."""
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(len(h) + len(x) - 1)
    for i, hi in enumerate(h):
        for j, xj in enumerate(x):
            out[i + j] += hi * xj
    return out


def jd_cost_direct(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> float:
    """Joint-diagonalization cost by scalar loops over bins and blocks.

    `lam` holds diagonal values with shape (n_bins, n_blocks, 2).
    """
    total = 0.0
    n_bins, n_blocks = r.shape[0], r.shape[1]
    for k in range(n_bins):
        for b in range(n_blocks):
            e = w[k] @ r[k, b] @ w[k].conj().T
            e[0, 0] -= lam[k, b, 0]
            e[1, 1] -= lam[k, b, 1]
            for i in range(2):
                for j in range(2):
                    total += abs(e[i, j]) ** 2
    return total


def diag_target_direct(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-block diagonal values: real diagonal of W R W^H floored at 0."""
    n_bins, n_blocks = r.shape[0], r.shape[1]
    lam = np.zeros((n_bins, n_blocks, 2))
    for k in range(n_bins):
        for b in range(n_blocks):
            y = w[k] @ r[k, b] @ w[k].conj().T
            for i in range(2):
                lam[k, b, i] = max(y[i, i].real, 0.0)
    return lam


# The solver kernels as generic 4-index einsums over full 2x2 matrices: the
# package's first implementation, kept as the reference for its closed-form
# 2x2 kernels.  Same broadcasting: `w` (..., 2, 2) against `r` (..., k, 2, 2).


def diag_target_einsum(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Real diagonal of W R W^H floored at 0, shape (..., k, 2)."""
    wrw = np.einsum("...ij,...kjl,...ml->...kim", w, r, np.conj(w))
    diag = np.real(np.einsum("...ii->...i", wrw))
    return np.maximum(diag, 0.0)


def _residual_einsum(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    e = np.einsum("...ij,...kjl,...ml->...kim", w, r, np.conj(w))
    e[..., 0, 0] -= lam[..., 0]
    e[..., 1, 1] -= lam[..., 1]
    return e


def cost_einsum(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> float:
    """Squared Frobenius norm of W R W^H - Lambda over bins and blocks."""
    return float(np.sum(np.abs(_residual_einsum(w, r, lam)) ** 2))


def cost_gradient_einsum(w: np.ndarray, r: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Wirtinger gradient 2 * sum_k E W R with Lambda held fixed."""
    e = _residual_einsum(w, r, lam)
    return 2.0 * np.einsum("...kim,...mj,...kjl->...il", e, w, r)


def _project_support_direct(w: np.ndarray, filter_support: int, dft_length: int) -> np.ndarray:
    """Unit diagonal, and each cross entry replaced by the DFT of taps [0, Q]
    of the real filter whose half spectrum it is.

    The inverse of a half spectrum X is x[t] = Re(sum_k c_k X[k] e^{2 pi i k t / K}) / K
    with c_k = 1 at DC and Nyquist and 2 elsewhere, so the imaginary parts
    of the DC and Nyquist bins do not reach the taps.
    """
    n_bins = w.shape[0]
    bins = np.arange(n_bins)
    taps = np.arange(filter_support + 1)
    weights = np.full(n_bins, 2.0)
    weights[0] = weights[-1] = 1.0
    inverse = weights * np.exp(2j * np.pi * np.outer(taps, bins) / dft_length) / dft_length
    forward = np.exp(-2j * np.pi * np.outer(bins, taps) / dft_length)
    out = np.zeros_like(w)
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    for i, j in ((0, 1), (1, 0)):
        out[:, i, j] = forward @ np.real(inverse @ w[:, i, j])
    return out


def solve_unmixing_projected(
    r_raw: np.ndarray,
    filter_support: int,
    max_iters: int,
    tolerance: float,
    step_size: float = 0.5,
):
    """The solver's descent written over the full per-bin W: a gradient step
    on W, then projection back onto the constraint set, every step.

    Same normalization, step halving, five-step reset and termination rules
    as `cbss.jointdiag.solve_unmixing`; returns (w, cost_trace, iterations,
    termination).
    """
    n_bins = r_raw.shape[0]
    dft_length = 2 * (n_bins - 1)
    trace_mean = np.real(r_raw[..., 0, 0] + r_raw[..., 1, 1]).mean(axis=1)
    r = r_raw / np.where(trace_mean > 0.0, trace_mean, 1.0)[:, None, None, None]

    w = np.eye(2, dtype=np.complex128)[None].repeat(n_bins, axis=0)
    current = cost_einsum(w, r, diag_target_einsum(w, r))
    trace = [current]
    eta = step_size
    accepted_since_reset = 0
    termination = "max_iters"
    for _ in range(max_iters):
        grad = cost_gradient_einsum(w, r, diag_target_einsum(w, r))
        eta_try = eta
        for _ in range(60):
            w_new = _project_support_direct(w - eta_try * grad, filter_support, dft_length)
            new = cost_einsum(w_new, r, diag_target_einsum(w_new, r))
            if new <= current:
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
            if eta < step_size and accepted_since_reset >= 5:
                eta = step_size
                accepted_since_reset = 0
        relative = (current - new) / current if current > 0 else 0.0
        w, current = w_new, new
        trace.append(current)
        if current == 0.0:
            termination = "zero_cost"
            break
        if relative < tolerance:
            termination = "tolerance"
            break
    return w, trace, len(trace) - 1, termination


def apply_unmixing_direct(w: np.ndarray, x1: np.ndarray, x2: np.ndarray):
    """Per-bin 2x2 matrix application by scalar loops."""
    n_bins, n_frames = x1.shape
    y1 = np.zeros_like(x1)
    y2 = np.zeros_like(x2)
    for k in range(n_bins):
        for m in range(n_frames):
            y1[k, m] = w[k, 0, 0] * x1[k, m] + w[k, 0, 1] * x2[k, m]
            y2[k, m] = w[k, 1, 0] * x1[k, m] + w[k, 1, 1] * x2[k, m]
    return y1, y2


def block_covariances_direct(x1: np.ndarray, x2: np.ndarray, block_count: int) -> np.ndarray:
    """Blockwise average of x x^H, splitting frames like numpy.array_split."""
    n_bins, n_frames = x1.shape
    base, extra = divmod(n_frames, block_count)
    sizes = [base + 1 if b < extra else base for b in range(block_count)]
    r = np.zeros((n_bins, block_count, 2, 2), dtype=np.complex128)
    start = 0
    for b, size in enumerate(sizes):
        for m in range(start, start + size):
            for k in range(n_bins):
                v = np.array([x1[k, m], x2[k, m]])
                r[k, b] += np.outer(v, v.conj())
        r[:, b] /= size
        start += size
    return r


def isolated_fraction_direct(mask: np.ndarray) -> float:
    """Share of active units with no active 4-neighbour, binarizing at 0.5."""
    m = (np.asarray(mask, dtype=np.float64) > 0.5).astype(int)
    rows, cols = m.shape
    active = 0
    isolated = 0
    for i in range(rows):
        for j in range(cols):
            if not m[i, j]:
                continue
            active += 1
            neighbours = 0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < rows and 0 <= nj < cols:
                    neighbours += m[ni, nj]
            if neighbours == 0:
                isolated += 1
    return isolated / active if active else 0.0


def _even_expand(half: np.ndarray, dft_length: int) -> np.ndarray:
    full = np.zeros(dft_length)
    full[: len(half)] = half
    for l in range(1, dft_length // 2):
        full[dft_length - l] = half[l]
    return full


def smooth_mask_direct(
    mask: np.ndarray,
    magnitudes: np.ndarray,
    dft_length: int,
    beta_env: float,
    beta_pitch: float,
    beta_peak: float,
    l_env: int,
    l_low: int,
    l_high: int,
    floor: float,
) -> np.ndarray:
    """Straight-line cepstral mask smoothing on (K/2+1, frames) arrays.

    Per frame: floor, even-expand, log, inverse DFT for both the mask and
    the separated magnitudes; pick the pitch quefrency by arg-max of the
    signal cepstrum over [l_low, l_high]; first-order recursion with a
    per-quefrency beta (env band, pitch bin and its mirror, peak rest);
    forward DFT, exponentiate, clamp to [floor, 1].
    """
    n_bins, n_frames = mask.shape
    out = np.zeros((n_bins, n_frames))
    state = None
    for m in range(n_frames):
        sig = _even_expand(np.maximum(magnitudes[:, m], floor), dft_length)
        sig_cep = np.real(idft_direct(np.log(sig)))
        l_pitch = l_low
        best = sig_cep[l_low]
        for l in range(l_low, l_high + 1):
            if sig_cep[l] > best:
                best = sig_cep[l]
                l_pitch = l
        cep = np.real(
            idft_direct(np.log(_even_expand(np.maximum(mask[:, m], floor), dft_length)))
        )
        if state is None:
            state = cep.copy()
        else:
            mixed = np.zeros(dft_length)
            for l in range(dft_length):
                folded = min(l, dft_length - l)
                if folded <= l_env:
                    beta = beta_env
                elif folded == l_pitch:
                    beta = beta_pitch
                else:
                    beta = beta_peak
                mixed[l] = beta * state[l] + (1.0 - beta) * cep[l]
            state = mixed
        column = np.exp(np.real(dft_direct(state)))
        out[:, m] = np.clip(column[:n_bins], floor, 1.0)
    return out


def schroeder_decay_time(rir: np.ndarray, sample_rate: int, drop_db: float = 60.0) -> float:
    """Seconds until the backward-integrated energy falls `drop_db` below total."""
    energy = np.asarray(rir, dtype=np.float64) ** 2
    tail = np.cumsum(energy[::-1])[::-1]
    total = tail[0]
    if total <= 0:
        raise ValueError("impulse response has no energy")
    level = 10.0 * np.log10(tail / total + 1e-300)
    below = np.nonzero(level <= -drop_db)[0]
    if len(below) == 0:
        raise ValueError("decay never reaches the requested drop")
    return float(below[0]) / sample_rate


# The package's first projection scorer: every call builds the 2L x 2L Gram
# from full-length FFT correlations and LU-solves it, the joint and the
# target-only system separately.  Kept as the reference for
# `bsseval.ReferenceProjector`, which factors the Gram once per reference pair.

DIAGONAL_LOADING = 1e-9


def _correlation_fft(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c[N - 1 + t] = sum_n x[n + t] y[n] for t in [-(N-1), N-1], zero-extended."""
    return fftconvolve(x, y[::-1])


def _solve_lu(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    try:
        return np.linalg.solve(gram, rhs), False
    except np.linalg.LinAlgError:
        n = gram.shape[0]
        loading = DIAGONAL_LOADING * max(1.0, float(np.trace(gram).real) / n)
        return np.linalg.solve(gram + loading * np.eye(n), rhs), True


def project_decompose_lu(est: np.ndarray, ref_t: np.ndarray, ref_i: np.ndarray, taps: int):
    """(target, interference, artifact, regularized) of `est` against
    (target, interferer) references, components of length N + taps - 1."""
    n = len(est)
    refs = [np.asarray(ref_t, dtype=np.float64), np.asarray(ref_i, dtype=np.float64)]
    lags = np.arange(taps)

    # Gram blocks: <delay_i ref_a, delay_j ref_b> = corr(ref_b, ref_a)[i - j].
    blocks = [[None, None], [None, None]]
    for a in (0, 1):
        for b in (0, 1):
            col = _correlation_fft(refs[b], refs[a])[n - 1 + lags]
            row = _correlation_fft(refs[a], refs[b])[n - 1 + lags]
            blocks[a][b] = toeplitz(col, row)
    gram = np.block(blocks)

    rhs = np.empty(2 * taps)
    for a in (0, 1):
        rhs[a * taps : (a + 1) * taps] = _correlation_fft(est, refs[a])[n - 1 + lags]

    coef_joint, reg_joint = _solve_lu(gram, rhs)
    coef_target, reg_target = _solve_lu(blocks[0][0], rhs[:taps])

    padded = n + taps - 1
    target = fftconvolve(refs[0], coef_target)[:padded]
    joint = (
        fftconvolve(refs[0], coef_joint[:taps]) + fftconvolve(refs[1], coef_joint[taps:])
    )[:padded]
    est_padded = np.pad(est, (0, taps - 1))
    return target, joint - target, est_padded - joint, reg_joint or reg_target
