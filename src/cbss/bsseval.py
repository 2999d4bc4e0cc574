"""Projection-based separation metrics for two-source estimates.

An estimate is split into target, interference, and artifact components by
least-squares projection onto the spans of delayed references (a bank of L
allowed deformation taps per reference).  SIR is the energy ratio between
the first two components in dB; SDR and SAR fall out of the same split.

Every energy those ratios need comes from the Cholesky factor U of the
Gram G = U'U of the delayed references (the Gram form of the BSS Eval
projections, Vincent, Gribonval & Fevotte 2006).  With z = U'^-1 rhs,
where rhs holds the estimate's correlations with the delayed references,
the joint projection's energy is ||z||^2 and each target's and
interference's energy is a sum of squares of a triangular-solve vector,
so none of them cancels.  The artifact and the distortion are differences
of energies as large as the estimate's and do cancel; where a rounding
bound says the artifact's difference could move its SAR, it is taken from
the residual waveform instead.  A degenerate reference pair's Gram is
diagonally loaded, U'U = G + lam I, and each energy then subtracts lam
times the squared norm of its coefficients, so it is still that of the
unloaded G.  The projector keeps only the factors, never G.  The metrics
therefore never need the component waveforms, which are built only when a
caller reads them.

No whole-signal transform is left.  Every correlation is taken by
overlap-save and every waveform built by overlap-add over one block
geometry (`_block_geometry`).  One helper transforms blocks a fixed chunk
at a time (`_block_spectra`) for the projector's segments, its
correlation windows and the components' segments, and one function
(`component_waveforms`) convolves coefficients with the references, for
the components and for the residual alike, so the working set beyond a
function's outputs is one chunk's.
The factorizations, triangular solves and products come from
`scipy.linalg`'s LAPACK and BLAS wrappers, imported by the functions that
call them, so importing the package loads no SciPy.

The dB convention throughout is 10*log10 of an energy ratio.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .signals import Waveform
from .stft import next_fast_len

SIR_CAP_DB = 100.0
ENERGY_RATIO_FLOOR = 1e-12
DIAGONAL_LOADING = 1e-9
# Default L: deformation taps allowed per reference.
FILTER_TAPS = 512
# Blocks the block loops transform at once: their working set, whatever
# the signal's length.
CHUNK_BLOCKS = 16
# SAR reads its cap wherever artifact <= SAR_CAP_RATIO * joint.
SAR_CAP_RATIO = 10.0 ** (-SIR_CAP_DB / 10.0)
# Relative rounding bound past which the cancelling artifact energy is
# recomputed from the residual waveform; 1e-10 is 4.3e-10 dB of SAR.
ARTIFACT_ROUNDING_LIMIT = 1e-10


class Energies(NamedTuple):
    """Squared norms of a decomposition's components and of two of their sums."""

    target: float
    interference: float
    artifact: float
    joint: float  # target + interference, the joint projection
    distortion: float  # interference + artifact


class Decomposition:
    """estimate = target + interference + artifact, all on a padded domain.

    `energies` is what the metrics read.  Built from three component
    waveforms, a decomposition sums their squares.  `ReferenceProjector`
    builds it with `from_energies` from its Cholesky factors instead, and
    the waveforms are made only when `target`, `interference` or `artifact`
    is first read.
    """

    def __init__(
        self,
        target: Waveform,
        interference: Waveform,
        artifact: Waveform,
        filter_taps: int,
        regularized: bool = False,
    ) -> None:
        if not len(target) == len(interference) == len(artifact):
            raise ValueError("decomposition components must share one length")
        t, i, a = target.samples, interference.samples, artifact.samples
        energies = Energies(*(float(np.sum(x**2)) for x in (t, i, a, t + i, i + a)))
        parts = (target, interference, artifact)
        self._setup(energies, filter_taps, regularized, lambda: parts)

    @classmethod
    def from_energies(
        cls,
        energies: Energies,
        filter_taps: int,
        regularized: bool,
        components: Callable[[], tuple[Waveform, Waveform, Waveform]],
    ) -> Decomposition:
        """A decomposition whose waveforms `components()` builds on first access."""
        decomposition = cls.__new__(cls)
        decomposition._setup(energies, filter_taps, regularized, components)
        return decomposition

    def _setup(
        self,
        energies: Energies,
        filter_taps: int,
        regularized: bool,
        components: Callable[[], tuple[Waveform, Waveform, Waveform]],
    ) -> None:
        if filter_taps < 1:
            raise ValueError("filter_taps must be positive")
        # An energy found by cancellation can round to just below zero.
        self.energies = Energies(*(max(0.0, float(e)) for e in energies))
        self.filter_taps = int(filter_taps)
        self.regularized = bool(regularized)
        self._components = components

    @cached_property
    def _parts(self) -> tuple[Waveform, Waveform, Waveform]:
        parts = self._components()
        self._components = None  # release the estimate and coefficients
        return parts

    @property
    def target(self) -> Waveform:
        return self._parts[0]

    @property
    def interference(self) -> Waveform:
        return self._parts[1]

    @property
    def artifact(self) -> Waveform:
        return self._parts[2]


@dataclass(frozen=True)
class SegmentAnnotation:
    """Two disjoint [start, end) sample intervals, one per speaker."""

    first: tuple[int, int]
    second: tuple[int, int]

    def __post_init__(self) -> None:
        for start, end in (self.first, self.second):
            if start < 0 or end <= start:
                raise ValueError("segments must satisfy 0 <= start < end")
        a, b = sorted((self.first, self.second))
        if a[1] > b[0]:
            raise ValueError("segments must not overlap")
        object.__setattr__(self, "first", (int(self.first[0]), int(self.first[1])))
        object.__setattr__(self, "second", (int(self.second[0]), int(self.second[1])))


def _cholesky(
    matrix: np.ndarray, rebuild: Callable[[], np.ndarray]
) -> tuple[np.ndarray, float]:
    """Upper Cholesky factor U of a Fortran-ordered symmetric matrix, in its own memory.

    Returns U, whose strict lower triangle keeps the matrix's entries, and
    the loading lam with U'U = matrix + lam I.  lam is 0 for a positive
    definite matrix.  A matrix that is not has been overwritten by the
    failed factorization, so `rebuild()` makes it again before it is
    diagonally loaded and factored.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dpotrf

    factor, info = dpotrf(matrix, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        return factor, 0.0
    matrix = rebuild()
    n = matrix.shape[0]
    loading = DIAGONAL_LOADING * max(1.0, float(np.trace(matrix)) / n)
    diagonal = np.arange(n)
    matrix[diagonal, diagonal] += loading
    factor, info = dpotrf(matrix, lower=0, clean=0, overwrite_a=1)
    if info != 0:
        raise LinAlgError("the loaded Gram matrix is not positive definite")
    return factor, loading


def _block_geometry(length: int, taps: int) -> tuple[int, int, int]:
    """(M, B, K): transform length, block length B = M - L + 1 and block count.

    M is the smaller of the 5-smooth lengths that hold N + L - 1 and 8 L
    points, so a signal with N + L - 1 <= 8 L is one block.  Past 8 L
    points a longer block saves little: a block of M = 8 L spends 7/8 of
    its transform on new samples.
    """
    nfft = min(next_fast_len(length + taps - 1), next_fast_len(8 * taps))
    hop = nfft - taps + 1
    return nfft, hop, -(-length // hop)


def _block_spectra(
    rows: tuple[np.ndarray, ...], blocks: int, hop: int, width: int, nfft: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Spectra at length nfft of the `width`-sample blocks of each row, block k from k hop.

    Rows share one length and are zero-extended past it.  Yields (k0,
    spectra), spectra[r, i] being row r's block k0 + i, for CHUNK_BLOCKS
    blocks at a time, so neither a copy nor a transform spans the whole
    signal.  A row's transform does not depend on the batch it is taken
    in, so the spectra keep the bits of one whole-signal batch.
    """
    length = len(rows[0])
    for first in range(0, blocks, CHUNK_BLOCKS):
        count = min(CHUNK_BLOCKS, blocks - first)
        start = first * hop
        chunk = np.zeros((len(rows), (count - 1) * hop + width))
        stop = min(length, start + chunk.shape[1])
        for row, samples in zip(chunk, rows):
            row[: stop - start] = samples[start:stop]
        windows = np.lib.stride_tricks.sliding_window_view(chunk, width, axis=1)[:, ::hop]
        yield first, np.fft.rfft(windows, nfft)


def _overlap_add(
    chunks: Iterable[tuple[int, np.ndarray]],
    filters: np.ndarray,
    hop: int,
    nfft: int,
    length: int,
) -> np.ndarray:
    """(outputs, length) sums over rows r of row r convolved with filter (o, r).

    `chunks` yields (k0, spectra) as `_block_spectra` does, spectra[r, i]
    being the spectrum at length nfft of row r's hop-sample block k0 + i;
    `filters` holds the filters' spectra at the same length, (outputs,
    rows, nfft // 2 + 1).  A block convolved with a filter of at most
    nfft - hop + 1 taps fits nfft samples, so each block's products,
    summed over the rows, take one inverse transform per output and are
    added in at k hop.  The working set is one chunk's.
    """
    out = np.zeros((len(filters), length))
    for first, spectra in chunks:
        blocks = np.fft.irfft((filters[:, :, None] * spectra).sum(axis=1), nfft)
        for k in range(spectra.shape[1]):
            start = (first + k) * hop
            stop = min(length, start + nfft)
            out[:, start:stop] += blocks[:, k, : stop - start]
    return out


class ReferenceProjector:
    """Projections onto the delayed copies of one reference pair, factored once.

    The 2L x 2L Gram G of the L delayed copies of both references depends
    on the references alone, so it is built and Cholesky-factored here,
    G = U'U with U upper triangular.  G is exactly symmetric, so G.T is
    the same matrix in Fortran order, and U is written over G's own memory.
    The target-only Gram of reference 0 is the leading block of G, so its
    factor U_a is the leading block of U, never copied out.  Reference 1's
    block is copied before the joint factorization and factored on its
    own, U_b.  A Gram that is not positive definite (degenerate
    references) is diagonally loaded, U'U = G + lam I, and every
    decomposition from it is flagged `regularized`.  The projector keeps
    U, U_b, the references' segment spectra and correlations, never G.

    Every correlation, in G and in an estimate's rhs, is needed at lags 0
    to L - 1 only, so it is taken by overlap-save over short blocks, not
    by transforms of the whole signal.  Each reference is cut into K =
    ceil(N / B) segments of B = M - L + 1 samples, block k starting at k B,
    and the conjugated spectra of the segments, zero-padded to M, are kept.
    The M-long window of a signal from k B holds every sample that segment
    k meets at lags below L, so window and segment spectra multiplied,
    summed over k and inverted once give the correlations without
    wrap-around.  M is the smaller of the 5-smooth lengths that hold
    N + L - 1 and 8 L points: 4096 at L = 512, and a single block for a
    short signal.

    Segments and windows are transformed CHUNK_BLOCKS blocks at a time
    (`_block_spectra`).  An estimate then costs the FFTs of its K windows
    and one 2-row inverse FFT of length M for its correlations rhs with
    the delayed references, and triangular solves: z = U'^-1 rhs and the joint
    coefficients c_j = U^-1 z; z_a = z[:L] (U_a' z_a = rhs_a, as U' is
    lower block triangular) and c_a = U_a^-1 z_a, the first half of
    U^-1 (z_a, 0), whose second half is zero; z_b = U_b'^-1 rhs_b and
    c_b = U_b^-1 z_b.  Since c' (G + lam I) c = ||U c||^2 and U c_j = z,
    every energy is a sum of squares, less the loading's share (lam = 0
    unless the Gram was loaded):

        ||joint||^2          = ||z||^2 - lam ||c_j||^2
        ||target_t||^2       = ||z_t||^2 - lam_t ||c_t||^2
        ||interference_t||^2 = ||U d||^2 - lam ||d||^2,  d = c_j - c_t in t's block
        ||artifact||^2       = ||est||^2 - 2 ||z||^2 + ||joint||^2
        ||interf + artif||^2 = ||est||^2 - 2 ||z_t||^2 + ||target_t||^2

    For t = 0, U d = (0, z[L:]), so its interference needs no product; for
    t = 1, U d is one triangular product.  These sums of squares do not
    cancel.  The artifact and distortion do, as differences of energies as
    large as the estimate's: they keep about 16 - SAR/10 and 16 - SDR/10
    significant digits.  Where a rounding bound says that may move an
    uncapped SAR (`_artifact_cancels`; near-square systems, L close to N),
    the artifact is ||pad(est) - joint||^2 instead, the artifact waveform
    that `component_waveforms` builds, and the distortion is
    interference + artifact.  The lam terms make every energy that of the
    unloaded G, which the waveforms, made from the true delayed
    references, match.
    """

    def __init__(
        self, references: tuple[Waveform, Waveform], filter_taps: int = FILTER_TAPS
    ) -> None:
        ref_a, ref_b = references
        n = len(ref_a)
        if len(ref_b) != n:
            raise ValueError("references must share one length")
        if ref_a.sample_rate != ref_b.sample_rate:
            raise ValueError("references must share one sample rate")
        taps = int(filter_taps)
        if not 1 <= taps <= n:
            raise ValueError("filter_taps must lie in [1, signal length]")
        self.length = n
        self.sample_rate = ref_a.sample_rate
        self.filter_taps = taps
        self._references = (ref_a, ref_b)
        self._nfft, self._hop, self._blocks = _block_geometry(n, taps)
        rows = (ref_a.samples, ref_b.samples)
        self._spectra = np.empty((2, self._blocks, self._nfft // 2 + 1), dtype=complex)
        for first, spectra in _block_spectra(rows, self._blocks, self._hop, self._hop, self._nfft):
            np.conjugate(spectra, out=self._spectra[:, first : first + spectra.shape[1]])

        # corr[a, b, t] = c_ab[t] = sum_m ref_a[m + t] ref_b[m] for 0 <= t < L.
        self._corr = np.stack([self._correlate(ref_a.samples), self._correlate(ref_b.samples)])
        gram = self._gram
        # `.copy`, not np.asfortranarray: at L = 1 the block is already
        # Fortran-contiguous, and a view would be overwritten by U.
        gram_b = gram[taps:, taps:].copy(order="F")
        self._factor, self._loading = _cholesky(gram.T, lambda: self._gram.T)
        self._factor_b, self._loading_b = _cholesky(
            gram_b, lambda: self._gram[taps:, taps:].copy(order="F")
        )
        joint_loaded = self._loading > 0.0
        self._regularized = (joint_loaded, joint_loaded or self._loading_b > 0.0)

    @property
    def _gram(self) -> np.ndarray:
        """The unloaded Gram G, C-ordered, built from the kept correlations.

        Block (a, b): <delay_i ref_a, delay_j ref_b> = c_ab[j - i], so row
        i of the block is the window from L - 1 - i of `_block_lags`'s
        c_ab.
        """
        taps = self.filter_taps
        gram = np.empty((2 * taps, 2 * taps))
        for a, b, lags in self._block_lags():
            block = np.lib.stride_tricks.sliding_window_view(lags, taps)[::-1]
            gram[a * taps : (a + 1) * taps, b * taps : (b + 1) * taps] = block
        gram[taps:, :taps] = gram[:taps, taps:].T
        return gram

    def _block_lags(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(a, b, c_ab at lags -(L - 1) ... L - 1) for blocks (0, 0), (0, 1), (1, 1) of G.

        The block sums hold lags 0 ... L - 1 only (their other points mix
        wrapped samples), so c_ab at negative lags is read from
        c_ba[t] = c_ab[-t], mirrored ahead of c_ab.
        """
        corr = self._corr
        for a, b in ((0, 0), (0, 1), (1, 1)):
            yield a, b, np.concatenate([corr[b, a, :0:-1], corr[a, b]])

    def _correlate(self, samples: np.ndarray) -> np.ndarray:
        """(2, L) correlations sum_m samples[m + t] references[r][m], lags t < L.

        Window k of `samples` (zero-extended past N) meets segment k of each
        reference; the products are summed over k, in block order, before
        one inverse FFT.
        """
        nfft, hop = self._nfft, self._hop
        cross = np.zeros((2, nfft // 2 + 1), dtype=complex)
        for first, (window_spectra,) in _block_spectra((samples,), self._blocks, hop, nfft, nfft):
            for k, window in enumerate(window_spectra, first):
                cross += window * self._spectra[:, k]
        return np.fft.irfft(cross, nfft)[:, : self.filter_taps]

    def _artifact_cancels(
        self,
        est_energy: float,
        rhs: np.ndarray,
        coef_joint: np.ndarray,
        artifact_energy: float,
        joint_energy: float,
    ) -> bool:
        """Whether the cancelling artifact energy may move an uncapped SAR.

        ||est||^2 - 2 ||z||^2 + ||joint||^2 rounds to within about
        eps (||est||^2 + 2 |c|'|rhs| + |c|'|G||c|) of the artifact energy
        (Higham 2002, on inner products), with c the joint coefficients.
        |G| is taken block by block as Toeplitz products of |c_ab| from
        `_block_lags`, as `_gram` lays them out, so G is never formed.  The
        artifact is taken from the residual where that bound exceeds
        ARTIFACT_ROUNDING_LIMIT of it, unless the SAR is capped whatever
        the artifact: the joint energy is not positive, or even the
        artifact plus the bound lies below the cap's ratio.
        """
        magnitude = np.abs(coef_joint)
        gram_form = 0.0
        for a, b, lags in self._block_lags():
            # (|G_ab| |c_b|)[i] = sum_j |lags|[L - 1 - i + j] |c_b|[j]
            block_product = np.correlate(np.abs(lags), magnitude[b], "valid")[::-1]
            gram_form += (1.0 if a == b else 2.0) * float(magnitude[a] @ block_product)
        rhs_form = float(magnitude.ravel() @ np.abs(rhs).ravel())
        bound = np.finfo(float).eps * (est_energy + 2.0 * rhs_form + gram_form)
        capped = joint_energy <= 0.0 or artifact_energy + bound <= SAR_CAP_RATIO * joint_energy
        return not capped and bound > ARTIFACT_ROUNDING_LIMIT * artifact_energy

    def decompose_all(self, estimate: Waveform) -> tuple[Decomposition, Decomposition]:
        """Split an estimate with each reference as the target, indexed by target.

        Decomposition t takes references[t] as the target: its target
        component is the projection onto that reference's L delayed copies,
        interference is what the joint projection adds on top, and the
        artifact is the remainder, all on N + L - 1 samples.  The joint
        projection and the artifact do not depend on the target, so both
        decompositions share them.
        """
        if len(estimate) != self.length:
            raise ValueError("estimate and references must share one length")
        if estimate.sample_rate != self.sample_rate:
            raise ValueError("estimate and references must share one sample rate")
        from scipy.linalg.blas import dtrmv, dtrsv

        taps = self.filter_taps
        est = estimate.samples
        factor, loading = self._factor, self._loading

        # rhs[r, i] = <estimate, delay_i ref_r> = sum_m est[m + i] ref_r[m]
        rhs = self._correlate(est)
        z = dtrsv(factor, rhs.ravel(), trans=1)
        coef_joint = dtrsv(factor, z)
        z_targets = (z[:taps], dtrsv(self._factor_b, rhs[1], trans=1))
        # Solved with all of U: a strided U_a would be copied on every call.
        c_a = dtrsv(factor, np.concatenate([z_targets[0], np.zeros(taps)]))[:taps]
        coefs = (c_a, dtrsv(self._factor_b, z_targets[1]))
        loadings = (loading, self._loading_b)
        est_energy = float(est @ est)
        projected_energy = float(z @ z)
        joint_energy = projected_energy - loading * float(coef_joint @ coef_joint)
        artifact_energy = est_energy - 2.0 * projected_energy + joint_energy
        coef_pair = coef_joint.reshape(2, taps)
        residual = self._artifact_cancels(est_energy, rhs, coef_pair, artifact_energy, joint_energy)
        if residual:
            artifact = component_waveforms(estimate, self._references, coef_pair, coefs[0], 0)[2]
            artifact_energy = float(artifact.samples @ artifact.samples)

        decompositions = []
        for t in (0, 1):
            coef, z_target = coefs[t], z_targets[t]
            diff = coef_joint.copy()
            diff[t * taps : (t + 1) * taps] -= coef
            u_diff = z[taps:] if t == 0 else dtrmv(factor, diff)  # U d, zeros dropped
            target_projected = float(z_target @ z_target)
            target_energy = target_projected - loadings[t] * float(coef @ coef)
            interference_energy = float(u_diff @ u_diff) - loading * float(diff @ diff)
            if residual:
                # The interference lies in the delayed references' span, to
                # which the artifact is orthogonal.
                distortion_energy = interference_energy + artifact_energy
            else:
                distortion_energy = est_energy - 2.0 * target_projected + target_energy
            energies = Energies(
                target=target_energy,
                interference=interference_energy,
                artifact=artifact_energy,
                joint=joint_energy,
                distortion=distortion_energy,
            )
            components = partial(
                component_waveforms, estimate, self._references, coef_pair, coef, t
            )
            decompositions.append(
                Decomposition.from_energies(energies, taps, self._regularized[t], components)
            )
        return tuple(decompositions)


def component_waveforms(
    estimate: Waveform,
    references: tuple[Waveform, Waveform],
    coef_joint: np.ndarray,
    coef_target: np.ndarray,
    target: int,
) -> tuple[Waveform, Waveform, Waveform]:
    """(target, interference, artifact) of one decomposition, on N + L - 1 samples.

    The joint part is coef_joint[r] convolved with references[r], summed
    over r; the target part is coef_target convolved with
    references[target].  Both convolutions run by overlap-add over the
    projector's blocks, with the helpers the projector itself uses: the
    references' segment spectra, CHUNK_BLOCKS blocks at a time
    (`_block_spectra`), times the coefficients' spectra, summed over the
    references, one inverse transform per block and part
    (`_overlap_add`).  No transform spans the whole signal, and beyond the
    three outputs the working set is one chunk's.  A signal that fits one
    block takes one transform of each reference, as a whole-signal FFT
    convolution does, and keeps its bits.
    """
    n, taps = len(estimate), len(coef_target)
    nfft, hop, blocks = _block_geometry(n, taps)
    filters = np.zeros((2, 2, taps))
    filters[0] = coef_joint
    filters[1, target] = coef_target
    rows = tuple(r.samples for r in references)
    chunks = _block_spectra(rows, blocks, hop, hop, nfft)
    joint, part = _overlap_add(chunks, np.fft.rfft(filters, nfft), hop, nfft, n + taps - 1)
    rate = estimate.sample_rate
    artifact = Waveform(np.pad(estimate.samples, (0, taps - 1)) - joint, rate)
    joint -= part
    return Waveform(part, rate), Waveform(joint, rate), artifact


def project_decompose(
    estimate: Waveform,
    references: tuple[Waveform, Waveform],
    filter_taps: int = FILTER_TAPS,
) -> Decomposition:
    """Least-squares split of an estimate against (target, interferer) references.

    references[0] is the target.  One-off form of
    `ReferenceProjector(references, filter_taps).decompose_all(estimate)[0]`;
    build the projector directly to score several estimates against one
    reference pair.
    """
    return ReferenceProjector(references, filter_taps).decompose_all(estimate)[0]


def _ratio_db(numerator: float, denominator: float) -> float:
    if numerator <= 0.0:
        return -SIR_CAP_DB
    if denominator < ENERGY_RATIO_FLOOR * numerator:
        return SIR_CAP_DB
    return min(SIR_CAP_DB, max(-SIR_CAP_DB, 10.0 * np.log10(numerator / denominator)))


def sir_db(decomposition: Decomposition) -> float:
    """Signal-to-interference ratio in dB, capped at +/-100."""
    energies = decomposition.energies
    return _ratio_db(energies.target, energies.interference)


def sdr_db(decomposition: Decomposition) -> float:
    """Signal-to-distortion ratio: target vs interference + artifact."""
    energies = decomposition.energies
    return _ratio_db(energies.target, energies.distortion)


def sar_db(decomposition: Decomposition) -> float:
    """Signal-to-artifact ratio: projected part vs the projection residual."""
    energies = decomposition.energies
    return _ratio_db(energies.joint, energies.artifact)


def segment_sir(
    outputs: tuple[Waveform, Waveform], segments: SegmentAnnotation
) -> tuple[float, float]:
    """Reference-free SIR from single-speaker segments.

    Output 1 should carry speaker 1, so its mean power over the first
    segment is signal and over the second segment is leakage; output 2
    mirrors that.  Ratios are capped at +/-100 dB.
    """
    w1, w2 = outputs
    if len(w1) != len(w2):
        raise ValueError(f"outputs must share one length, got {len(w1)} and {len(w2)} samples")
    for start, end in (segments.first, segments.second):
        if end > len(w1):
            raise ValueError(f"segment {start}:{end} extends past the signal's {len(w1)} samples")

    def mean_power(w: Waveform, bounds: tuple[int, int]) -> float:
        start, end = bounds
        return float(np.mean(w.samples[start:end] ** 2))

    sir1 = _ratio_db(mean_power(w1, segments.first), mean_power(w1, segments.second))
    sir2 = _ratio_db(mean_power(w2, segments.second), mean_power(w2, segments.first))
    return sir1, sir2
