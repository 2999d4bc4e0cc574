"""Independent reference implementations used to cross-check the package.

Everything here is written as plainly as possible: direct-summation
transforms, scalar loops, no calls into the code under test and no
numpy.fft.  Slow is fine; these only ever run on small instances.  The
exceptions are earlier forms of package code, kept as references for what
replaced them: `separate_recording_batch`, the whole-array separation flow
behind the block-by-block pipeline, `generate_rir_per_pair`, the
per-pair image lattice behind the shared, culled one,
`smooth_frames_dct`, the whole-spectrum DCT smoother behind the banded one,
and the projector's whole-batch block transforms and whole-signal component
waveforms behind its chunked block loops.
"""

from types import SimpleNamespace

import numpy as np
from scipy.fft import dct, next_fast_len
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


def accepts_as_psd_eigvalsh(r: np.ndarray, tolerance: float = 1e-9) -> bool:
    """`CovarianceSet`'s semidefiniteness check through `np.linalg.eigvalsh`, the
    package's first form of it: every eigenvalue of every (2, 2) matrix at
    least -tolerance times the largest eigenvalue, or times 1 if that is
    smaller."""
    eigs = np.linalg.eigvalsh(r)
    return bool(np.min(eigs) >= -tolerance * max(1.0, float(np.max(eigs))))


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


def smooth_frames_dct(mask, magnitudes, params, previous=None):
    """Cepstral smoothing of a frames x bins block by whole type-I DCTs.

    The package's earlier `smooth_frames`: one DCT each takes the floored
    log mask and log magnitudes to cepstra on quefrencies 0..K/2, the
    recursion runs on the whole cepstrum, and one DCT takes it back.  Pitch
    picks follow the package's tie rule: the smallest quefrency within
    1e-9 of the frame's largest |floored log magnitude| of the band
    maximum.  Returns the smoothed block and its last smoothed cepstrum.
    """
    floor, k = params.mask_floor, params.dft_length
    log_magnitudes = np.log(np.maximum(magnitudes, floor))
    band = (dct(log_magnitudes, type=1, axis=-1) / k)[:, params.l_low : params.l_high + 1]
    tolerance = 1e-9 * np.max(np.abs(log_magnitudes), axis=1, keepdims=True)
    l_pitch = params.l_low + np.argmax(band >= band.max(axis=1, keepdims=True) - tolerance, axis=1)

    cep = dct(np.log(np.maximum(mask, floor)), type=1, axis=-1) / k
    betas = np.full(cep.shape, params.beta_peak)
    betas[np.arange(len(cep)), l_pitch] = params.beta_pitch
    betas[:, : params.l_env + 1] = params.beta_env
    for m in range(len(cep)):
        if previous is not None:
            cep[m] = betas[m] * previous + (1.0 - betas[m]) * cep[m]
        previous = cep[m]
    return np.clip(np.exp(dct(cep, type=1, axis=-1)), floor, 1.0), previous


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


# The package's first image-method simulator: each (source, mic) pair builds
# its own full image lattice and weights every image before dropping those
# past the RIR length.  Kept as the reference for `roomsim`'s shared, culled
# lattice, which must reproduce it bit for bit; the absorption is Sabine's,
# capped at 1, written out here rather than taken from the package.


def generate_rir_per_pair(room, source_index: int, mic_index: int) -> np.ndarray:
    """Image-method RIR from one source to one mic of a `roomsim.RoomSpec`."""
    src = np.asarray(room.source_positions[source_index], dtype=np.float64)
    mic = np.asarray(room.mic_positions[mic_index], dtype=np.float64)
    dims = np.asarray(room.dimensions, dtype=np.float64)
    fs = room.sample_rate
    c = room.speed_of_sound

    lx, ly, lz = room.dimensions
    alpha = 1.0
    if room.rt60_ms > 0:
        area = 2.0 * (lx * ly + lx * lz + ly * lz)
        alpha = min(1.0, 0.161 * (lx * ly * lz) / ((room.rt60_ms / 1000.0) * area))
    beta = float(np.sqrt(1.0 - alpha))
    length = room.rir_length
    h = np.zeros(length)
    direct = float(np.linalg.norm(src - mic))

    if beta == 0.0:
        tap = int(np.round(direct * fs / c))
        if tap < length:
            h[tap] = 1.0 / (4.0 * np.pi * direct)
        return h

    max_distance = (length - 1) * c / fs
    limits = [int(np.ceil(max_distance / (2.0 * d))) + 1 for d in dims]
    grids = np.meshgrid(
        *[np.arange(-lim, lim + 1) for lim in limits], indexing="ij", sparse=True
    )
    for qx in (0, 1):
        for qy in (0, 1):
            for qz in (0, 1):
                q = (qx, qy, qz)
                image = [
                    (1 - 2 * q[axis]) * src[axis] + 2.0 * grids[axis] * dims[axis]
                    for axis in range(3)
                ]
                dist = np.sqrt(
                    (image[0] - mic[0]) ** 2
                    + (image[1] - mic[1]) ** 2
                    + (image[2] - mic[2]) ** 2
                )
                reflections = (
                    np.abs(grids[0] - q[0])
                    + np.abs(grids[0])
                    + np.abs(grids[1] - q[1])
                    + np.abs(grids[1])
                    + np.abs(grids[2] - q[2])
                    + np.abs(grids[2])
                )
                amplitude = beta ** reflections / (4.0 * np.pi * dist)
                taps = np.round(dist * fs / c).astype(np.int64)
                keep = taps < length
                np.add.at(h, taps[keep], amplitude[keep])
    return h


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

    parts = components_fftconvolve(est, refs, coef_joint.reshape(2, taps), coef_target, 0)
    return (*parts, reg_joint or reg_target)


def components_fftconvolve(est, refs, coef_joint, coef_target, target):
    """(target, interference, artifact) on N + L - 1 samples: coef_joint[r]
    convolved with refs[r] and summed is the joint part, coef_target
    convolved with refs[target] the target part."""
    padded = len(est) + len(coef_target) - 1
    part = fftconvolve(refs[target], coef_target)[:padded]
    joint = (fftconvolve(refs[0], coef_joint[0]) + fftconvolve(refs[1], coef_joint[1]))[:padded]
    return part, joint - part, np.pad(est, (0, len(coef_target) - 1)) - joint


# The projector's whole-signal forms: every block transformed in one batch,
# and the component waveforms convolved by FFTs of the whole signal.  Kept as
# the references for `bsseval`'s chunked block loops, which must keep their
# bits (and, for one block, those of the whole-signal components).


def segment_spectra_batch(refs: np.ndarray, nfft: int, hop: int, blocks: int) -> np.ndarray:
    """Conjugated spectra at nfft of the hop-sample segments of both references."""
    segments = np.zeros((2, blocks * hop))
    segments[:, : refs.shape[1]] = refs
    spectra = np.fft.rfft(segments.reshape(2, blocks, hop), nfft)
    return np.conjugate(spectra, out=spectra)


def correlate_batch(samples, spectra, nfft: int, hop: int, taps: int) -> np.ndarray:
    """(2, taps) correlations of `samples` with the segments behind `spectra`."""
    blocks = spectra.shape[1]
    padded = np.zeros((blocks - 1) * hop + nfft)
    padded[: len(samples)] = samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, nfft)[::hop]
    window_spectra = np.fft.rfft(windows)
    cross = window_spectra[0] * spectra[:, 0]
    for k in range(1, blocks):
        cross += window_spectra[k] * spectra[:, k]
    return np.fft.irfft(cross, nfft)[:, :taps]


def components_whole_signal(est, refs, coef_joint, coef_target, target):
    """`components_fftconvolve` with one rfft of each whole signal at
    next_fast_len(N + L - 1), as `bsseval.component_waveforms` once ran."""
    taps = len(coef_target)
    padded = len(est) + taps - 1
    nfft = next_fast_len(padded, real=True)
    spectra = np.fft.rfft(np.stack(refs), nfft)
    coef_spectra = np.fft.rfft(np.vstack([coef_joint, coef_target]), nfft)
    joint = np.fft.irfft((coef_spectra[:2] * spectra).sum(axis=0), nfft)[:padded]
    part = np.fft.irfft(coef_spectra[2] * spectra[target], nfft)[:padded]
    return part, joint - part, np.pad(est, (0, taps - 1)) - joint


def gram_energies_direct(gram: np.ndarray, est: np.ndarray, refs: np.ndarray, taps: int):
    """(target, interference, artifact, joint, distortion) energies of `est`
    for targets 0 and 1, as quadratic forms in the unloaded 2L x 2L Gram of
    `refs` (rows: the two references).

    This is how `bsseval.ReferenceProjector` first took its energies: rhs
    by direct correlation; coefficients from Cholesky solves of G, of G's
    leading block with G's loading (its factor is the leading block of
    G's) and of G_11, each loaded only if G or G_11 is not positive
    definite; then c' G c, d' G d and the two differences that cancel.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    def loading_of(matrix):
        try:
            cho_factor(matrix)
            return 0.0
        except LinAlgError:
            return DIAGONAL_LOADING * max(1.0, float(np.trace(matrix)) / matrix.shape[0])

    def solve(matrix, loading, rhs):
        return cho_solve(cho_factor(matrix + loading * np.eye(len(matrix))), rhs)

    padded = np.pad(est, (0, taps - 1))
    rhs = np.concatenate([np.correlate(padded, r, "valid") for r in refs])
    loading = loading_of(gram)
    coef_joint = solve(gram, loading, rhs)
    est_energy = float(est @ est)
    joint = float(coef_joint @ gram @ coef_joint)
    artifact = est_energy - 2.0 * float(coef_joint @ rhs) + joint
    energies = []
    for t in (0, 1):
        block = slice(t * taps, (t + 1) * taps)
        target_gram = gram[block, block]
        target_loading = loading if t == 0 else loading_of(target_gram)
        coef = solve(target_gram, target_loading, rhs[block])
        target = float(coef @ target_gram @ coef)
        diff = coef_joint.copy()
        diff[block] -= coef
        distortion = est_energy - 2.0 * float(coef @ rhs[block]) + target
        energies.append((target, float(diff @ gram @ diff), artifact, joint, distortion))
    return energies


def separate_recording_batch(recording, config) -> SimpleNamespace:
    """Both separation stages on whole-input arrays, as the package first did them.

    Whole spectrograms are analyzed once; each covariance block is one sum
    over its frames; the masks, the cepstral recursion and the occupancy
    count see every frame at once; each output is overlap-added in one
    pass.  The solve is the package's `solve_unmixing`.  The covariance
    sums run frame by frame in real arithmetic and the unmixing is written
    as 2x2 algebra, the order of operations the package uses, so the block
    pipeline should reproduce this flow to the last bit: a round-off
    difference could flip a frame's pitch pick where the cepstral peak is
    tied (a frame with one or two bins above the mask floor).  Returns
    stage1 and final sample arrays, the solver state and both pairs of
    isolated-unit fractions.
    """
    from cbss.jointdiag import CovarianceSet, solve_unmixing

    stft = config.stft
    k, hop = stft.frame_length, stft.hop
    window = stft.analysis_window()
    pad = k - hop
    n = recording.n_samples
    if n < k:
        raise ValueError(f"signal of {n} samples is shorter than one frame ({k})")
    n_frames = int(np.ceil((pad + n + pad - k) / hop)) + 1
    total = (n_frames - 1) * hop + k

    def analyze(samples):
        buf = np.zeros(total)
        buf[pad : pad + n] = samples
        frames = np.lib.stride_tricks.sliding_window_view(buf, k)[::hop]
        return np.fft.rfft(frames * window, axis=1).T

    def synthesize(values):
        frames = np.fft.irfft(values.T, n=k, axis=1)
        acc = np.zeros(total)
        norm = np.zeros(total)
        for m in range(n_frames):
            acc[m * hop : m * hop + k] += frames[m] * window
            norm[m * hop : m * hop + k] += window * window
        out = np.where(norm > 1e-12, acc / np.where(norm > 1e-12, norm, 1.0), 0.0)
        return out[pad : pad + n]

    x = np.stack([analyze(ch.samples) for ch in recording.channels])
    block_count = config.solver.block_count
    if n_frames < block_count:
        raise ValueError(f"{n_frames} frames cannot fill {block_count} blocks")
    splits = np.array_split(np.arange(n_frames), block_count)
    r = np.empty((x.shape[1], block_count, 2, 2), dtype=np.complex128)
    for b, idx in enumerate(splits):
        # Frames on the (C-order) first axis, so each sum adds them in order.
        x0, x1 = np.ascontiguousarray(x[0][:, idx].T), np.ascontiguousarray(x[1][:, idx].T)
        r0, i0, r1, i1 = x0.real, x0.imag, x1.real, x1.imag
        r[:, b, 0, 0] = np.sum(r0 * r0 + i0 * i0, axis=0) / len(idx)
        r[:, b, 1, 1] = np.sum(r1 * r1 + i1 * i1, axis=0) / len(idx)
        r[:, b, 0, 1].real = np.sum(r0 * r1 + i0 * i1, axis=0) / len(idx)
        r[:, b, 0, 1].imag = np.sum(i0 * r1 - r0 * i1, axis=0) / len(idx)
        r[:, b, 1, 0] = np.conj(r[:, b, 0, 1])
    system, state = solve_unmixing(CovarianceSet(r, [len(i) for i in splits]), config.solver)
    w01, w10 = system.matrices[:, 0, 1, None], system.matrices[:, 1, 0, None]
    y = np.stack([x[0] + w01 * x[1], w10 * x[0] + x[1]])

    tau = config.mask_threshold.value
    a0, a1 = np.abs(y[0]), np.abs(y[1])
    binary = ((a0 > tau * a1).astype(np.float64), (a1 > tau * a0).astype(np.float64))
    params = config.smoothing_params(recording.sample_rate)
    floor = params.mask_floor

    def cepstra(half):
        return dct(np.log(np.maximum(half, floor)), type=1, axis=-1) / (2 * (half.shape[-1] - 1))

    def smooth(mask, separated):
        sig = cepstra(np.abs(separated.T))
        l_pitch = params.l_low + np.argmax(sig[:, params.l_low : params.l_high + 1], axis=1)
        cep = cepstra(mask.T)
        betas = np.full(cep.shape, params.beta_peak)
        betas[np.arange(n_frames), l_pitch] = params.beta_pitch
        betas[:, : params.l_env + 1] = params.beta_env
        for m in range(1, n_frames):
            cep[m] = betas[m] * cep[m - 1] + (1.0 - betas[m]) * cep[m]
        return np.clip(np.exp(dct(cep, type=1, axis=-1)), floor, 1.0).T

    def isolated_fraction(mask):
        active = mask > 0.5
        padded = np.pad(active, 1)
        neighbors = (
            padded[:-2, 1:-1].astype(np.int64)
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
        )
        total_active = int(np.sum(active))
        return float(np.sum(active & (neighbors == 0)) / total_active) if total_active else 0.0

    smoothed = tuple(smooth(binary[i], y[i]) for i in (0, 1))
    return SimpleNamespace(
        stage1=tuple(synthesize(y[i]) for i in (0, 1)),
        final=tuple(synthesize(smoothed[i] * y[i]) for i in (0, 1)),
        solver_state=state,
        isolated_fraction_binary=tuple(isolated_fraction(m) for m in binary),
        isolated_fraction_smoothed=tuple(isolated_fraction(m) for m in smoothed),
    )
