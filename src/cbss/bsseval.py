"""Projection-based separation metrics for two-source estimates.

An estimate is split into target, interference, and artifact components by
least-squares projection onto the spans of delayed references (a bank of L
allowed deformation taps per reference).  SIR is the energy ratio between
the first two components in dB; SDR and SAR fall out of the same split.

Every energy those ratios need is a quadratic form in the projection
coefficients: with G the Gram of the delayed references and rhs the
estimate's correlations with them, ||target||^2 = c_t' G_tt c_t and so on
(the Gram form of the BSS Eval projections, Vincent, Gribonval & Fevotte
2006).  The metrics therefore never need the component waveforms, which
are built by FFT convolution only when a caller reads them.  The
Cholesky factorizations and solves come from `scipy.linalg`, imported by
the functions that call them, so importing the package loads no SciPy.

The dB convention throughout is 10*log10 of an energy ratio.
"""

from __future__ import annotations

from collections.abc import Callable
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
    builds it with `from_energies` from Gram quadratic forms instead, and
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


def _factor(gram: np.ndarray) -> tuple[tuple[np.ndarray, bool], bool]:
    """Cholesky factor of a Gram matrix, diagonally loaded if it is not positive definite."""
    from scipy.linalg import LinAlgError, cho_factor

    try:
        return cho_factor(gram), False
    except LinAlgError:
        n = gram.shape[0]
        loading = DIAGONAL_LOADING * max(1.0, float(np.trace(gram)) / n)
        return cho_factor(gram + loading * np.eye(n)), True


class ReferenceProjector:
    """Projections onto the delayed copies of one reference pair, factored once.

    The 2L x 2L Gram G of the L delayed copies of both references depends
    on the references alone, so it is built and Cholesky-factored here.
    The target-only Gram of reference 0 is the leading block of the joint
    one, so its factor is the leading block of the joint factor; reference
    1's block is factored on its own.  A Gram that is not positive definite
    (degenerate references) is diagonally loaded, and every decomposition
    from it is flagged `regularized`.

    Every correlation, in G and in an estimate's rhs, is needed at lags 0
    to L - 1 only, so it is taken by overlap-save over short blocks, not
    by transforms of the whole signal.  Each reference is cut into K =
    ceil(N / B) segments of B = M - L + 1 samples, block k starting at k B,
    and the spectra of the segments, zero-padded to M, are kept.  The
    M-long window of a signal from k B holds every sample that segment k
    meets at lags below L, so window and segment spectra multiplied, summed
    over k and inverted once give the correlations without wrap-around.  M
    is the smaller of the 5-smooth lengths that hold N + L - 1 and 8 L
    points: 4096 at L = 512, and a single block for a short signal.

    An estimate then costs one batched FFT of its K windows and one 2-row
    inverse FFT of length M for its correlations rhs with the delayed
    references, triangular solves for the joint coefficients c_j and the
    target coefficients c_t, and O(L^2) quadratic forms in the unloaded G,
    which is kept beside its factors:

        ||target||^2       = c_t' G_tt c_t
        ||interference||^2 = d' G d,  d = c_j - c_t in t's block
        ||joint||^2        = c_j' G c_j
        ||artifact||^2     = ||est||^2 - 2 c_j' rhs + ||joint||^2
        ||interf + artif||^2 = ||est||^2 - 2 c_t' rhs_t + ||target||^2

    The interference uses d rather than ||joint||^2 - ||target||^2, which
    would cancel when the SIR is high.  The artifact and distortion forms
    do cancel: they keep about 16 - SAR/10 and 16 - SDR/10 significant
    digits.  The unloaded G matches the waveforms, which are made from the
    true delayed references.
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
        # Past 8 L points a longer block saves little: a block of M = 8 L
        # spends 7/8 of its transform on new samples.
        self._nfft = min(next_fast_len(n + taps - 1), next_fast_len(8 * taps))
        self._hop = self._nfft - taps + 1
        self._blocks = -(-n // self._hop)
        segments = np.zeros((2, self._blocks * self._hop))
        segments[:, :n] = ref_a.samples, ref_b.samples
        segments = segments.reshape(2, self._blocks, self._hop)
        self._spectra = np.fft.rfft(segments, self._nfft).conj()

        # corr[a, b, t] = c_ab[t] = sum_m ref_a[m + t] ref_b[m] for 0 <= t < L.
        # Block (a, b) of the Gram: <delay_i ref_a, delay_j ref_b> = c_ab[j - i].
        # The block sums hold lags 0 ... L - 1 only (their other points mix
        # wrapped samples), so c_ab at negative lags is read from c_ba[t] =
        # c_ab[-t]: row i of the block is the window from L - 1 - i of c_ba
        # mirrored ahead of c_ab.
        corr = np.stack([self._correlate(ref_a.samples), self._correlate(ref_b.samples)])
        self._gram = np.empty((2 * taps, 2 * taps))
        for a, b in ((0, 0), (0, 1), (1, 1)):
            mirrored = np.concatenate([corr[b, a, :0:-1], corr[a, b]])
            block = np.lib.stride_tricks.sliding_window_view(mirrored, taps)[::-1]
            self._gram[a * taps : (a + 1) * taps, b * taps : (b + 1) * taps] = block
        self._gram[taps:, :taps] = self._gram[:taps, taps:].T
        joint, reg_joint = _factor(self._gram)
        factor_b, reg_b = _factor(self._gram[taps:, taps:])
        self._joint_factor = joint
        self._target_factors = ((joint[0][:taps, :taps], joint[1]), factor_b)
        self._regularized = (reg_joint, reg_joint or reg_b)

    def _correlate(self, samples: np.ndarray) -> np.ndarray:
        """(2, L) correlations sum_m samples[m + t] references[r][m], lags t < L.

        Window k of `samples` (zero-extended past N) meets segment k of each
        reference; the products are summed over k before one inverse FFT.
        """
        nfft, hop = self._nfft, self._hop
        padded = np.zeros((self._blocks - 1) * hop + nfft)
        padded[: self.length] = samples
        windows = np.lib.stride_tricks.sliding_window_view(padded, nfft)[::hop]
        cross = (np.fft.rfft(windows) * self._spectra).sum(axis=1)
        return np.fft.irfft(cross, nfft)[:, : self.filter_taps]

    def decompose(self, estimate: Waveform, target: int) -> Decomposition:
        """Split an estimate with references[target] as the target, the other as interferer.

        The target component is the projection onto the target's L delayed
        copies alone; interference is what the joint two-reference
        projection adds on top; the artifact is the remainder.  Components
        live on a zero-extended domain of length N + L - 1.
        """
        if target not in (0, 1):
            raise ValueError(f"target must be 0 or 1, got {target!r}")
        return self.decompose_all(estimate)[int(target)]

    def decompose_all(self, estimate: Waveform) -> tuple[Decomposition, Decomposition]:
        """`decompose(estimate, t)` for t = 0 and 1, indexed by target.

        The joint projection and the artifact do not depend on the target,
        so they are computed once and shared by both decompositions.
        """
        if len(estimate) != self.length:
            raise ValueError("estimate and references must share one length")
        if estimate.sample_rate != self.sample_rate:
            raise ValueError("estimate and references must share one sample rate")
        from scipy.linalg import cho_solve

        taps = self.filter_taps
        est = estimate.samples
        gram = self._gram

        # rhs[r, i] = <estimate, delay_i ref_r> = sum_m est[m + i] ref_r[m]
        rhs = self._correlate(est)
        rhs_joint = rhs.ravel()
        coef_joint = cho_solve(self._joint_factor, rhs_joint)
        est_energy = float(est @ est)
        joint_energy = float(coef_joint @ gram @ coef_joint)
        artifact_energy = est_energy - 2.0 * float(coef_joint @ rhs_joint) + joint_energy

        decompositions = []
        for t in (0, 1):
            block = slice(t * taps, (t + 1) * taps)
            coef = cho_solve(self._target_factors[t], rhs[t])
            target_energy = float(coef @ gram[block, block] @ coef)
            diff = coef_joint.copy()
            diff[block] -= coef
            energies = Energies(
                target=target_energy,
                interference=float(diff @ gram @ diff),
                artifact=artifact_energy,
                joint=joint_energy,
                distortion=est_energy - 2.0 * float(coef @ rhs[t]) + target_energy,
            )
            components = partial(
                component_waveforms, estimate, self._references, coef_joint.reshape(2, taps), coef, t
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
    references[target].  Both convolutions run by FFT.
    """
    taps = len(coef_target)
    padded = len(estimate) + taps - 1
    nfft = next_fast_len(padded)
    spectra = np.fft.rfft(np.stack([r.samples for r in references]), nfft)
    coef_spectra = np.fft.rfft(np.vstack([coef_joint, coef_target]), nfft)
    joint = np.fft.irfft((coef_spectra[:2] * spectra).sum(axis=0), nfft)[:padded]
    part = np.fft.irfft(coef_spectra[2] * spectra[target], nfft)[:padded]
    rate = estimate.sample_rate
    artifact = np.pad(estimate.samples, (0, taps - 1)) - joint
    return Waveform(part, rate), Waveform(joint - part, rate), Waveform(artifact, rate)


def project_decompose(
    estimate: Waveform,
    references: tuple[Waveform, Waveform],
    filter_taps: int = FILTER_TAPS,
) -> Decomposition:
    """Least-squares split of an estimate against (target, interferer) references.

    references[0] is the target.  One-off form of
    `ReferenceProjector(references, filter_taps).decompose(estimate, 0)`;
    build the projector directly to score several estimates against one
    reference pair.
    """
    return ReferenceProjector(references, filter_taps).decompose(estimate, 0)


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
        raise ValueError("outputs must share one length")
    for start, end in (segments.first, segments.second):
        if end > len(w1):
            raise ValueError("segment extends past the signal end")

    def mean_power(w: Waveform, bounds: tuple[int, int]) -> float:
        start, end = bounds
        return float(np.mean(w.samples[start:end] ** 2))

    sir1 = _ratio_db(mean_power(w1, segments.first), mean_power(w1, segments.second))
    sir2 = _ratio_db(mean_power(w2, segments.second), mean_power(w2, segments.first))
    return sir1, sir2
