"""Cepstral-domain temporal smoothing of spectral masks.

Binary masks win on interference suppression but leave randomly isolated
units that resynthesize as musical noise.  Smoothing the mask over time
fixes that, but doing it directly per frequency bin also blurs exactly the
structure worth keeping: the spectral envelope and the pitch harmonics.
Working in the cepstrum separates those concerns by quefrency:

  * low quefrencies [0, l_env] carry the envelope,
  * one bin l_pitch (found from the separated signal itself) carries the
    harmonic comb,
  * everything else is presumed mask noise.

Each region gets its own first-order recursive smoothing factor, usually
none for the envelope, mild for the pitch bin, and strong elsewhere.

`smooth_frames` smooths a plain frames x bins mask, all frames of a signal
or one block of them, and returns its recursion state for the next block
to continue from; `smooth_mask` is its whole-mask form on a validated
`SpectralMask` and `Spectrogram`.

A floored log half-spectrum (bins 0..K/2) stands for an even length-K
spectrum, so its real cepstrum is even too and quefrencies 0..K/2 hold all
of it.  Between those halves the length-K DFT is a type-I DCT, which is
its own inverse up to 1/K.  The recursion is linear and uses one factor,
beta_peak, on every quefrency outside S = [0, l_env] u [l_low, l_high], so
beta_peak smoothing of the cepstrum is beta_peak smoothing of the log mask
itself, bin by bin.  `smooth_frames` therefore never transforms a whole
spectrum: it smooths the log mask with beta_peak and, on S alone, keeps
two cepstral tracks, one with the true factors and one with beta_peak.
Their difference, taken back through the S columns of the DCT, corrects
the log mask, which is exponentiated and clamped to [floor, 1].  Cosine
products with those columns give the cepstra on S of the mask and, on
[l_low, l_high], of the separated magnitudes, from which each frame's
pitch is picked by a tie rule: the lowest quefrency within
`PITCH_TIE_TOLERANCE` times the frame's largest |floored log magnitude|
of the band maximum.  All three products use one pair of DCT-I bases on
S over bins 0..K/2, built once per parameter set: about 1.9 MB at the
defaults (|S| = 114) and 8.4 MB at K = 2048 with l_low = 96 and
l_high = 600 (|S| = 514).  The recursion across frames is the only loop.
`magnitude_cepstrum` gives a whole cepstrum by the DCT, as the `rfft` of
the even extension, and `estimate_pitch_quefrency` a plain arg-max over a
band of cepstra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .masking import SpectralMask
from .stft import Spectrogram, StftConfig


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing factors and band edges in quefrency bins for one DFT length; bands checked last."""

    dft_length: int = StftConfig.frame_length
    beta_env: float = 0.0
    beta_pitch: float = 0.4
    beta_peak: float = 0.9
    l_env: int = 8
    l_low: int = 16
    l_high: int = 120
    mask_floor: float = 1e-3

    def __post_init__(self) -> None:
        k = self.dft_length
        if k <= 0 or k % 2 != 0:
            raise ValueError("dft_length must be a positive even number")
        for name in ("beta_env", "beta_pitch", "beta_peak"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.mask_floor < 1.0:
            raise ValueError("mask_floor must lie in (0, 1)")
        if not 0 < self.l_env < self.l_low < self.l_high < k // 2:
            raise ValueError(
                f"quefrency bands l_env = {self.l_env}, l_low = {self.l_low}, "
                f"l_high = {self.l_high} must satisfy 0 < l_env < l_low < l_high < K/2 = {k // 2}"
            )


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized type-I DCT on the last axis, bit-equal to SciPy's `dct(type=1)`."""
    return np.fft.rfft(np.concatenate((x, x[..., -2:0:-1]), axis=-1)).real


def magnitude_cepstrum(magnitudes: np.ndarray, floor: float) -> np.ndarray:
    """Real cepstrum (quefrencies 0..K/2) of non-negative magnitudes at bins 0..K/2."""
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    if magnitudes.ndim != 1 or magnitudes.shape[0] < 2:
        raise ValueError("magnitudes must be 1-D with at least two bins")
    if np.any(magnitudes < 0.0):
        raise ValueError("magnitudes must be non-negative")
    return _dct1(np.log(np.maximum(magnitudes, floor))) / (2 * (magnitudes.shape[0] - 1))


def estimate_pitch_quefrency(
    cepstrum: np.ndarray, l_low: int, l_high: int
) -> int | np.ndarray:
    """Arg-max over [l_low, l_high] of cepstra (quefrencies 0..K/2) on the last axis.

    Ties pick the smallest l.  A single cepstrum gives one index, a stack
    of them one index per cepstrum.  `smooth_frames` does not pick by exact
    ties but by the tolerance of `PITCH_TIE_TOLERANCE`.
    """
    if not 0 <= l_low <= l_high < np.shape(cepstrum)[-1] - 1:
        raise ValueError("need 0 <= l_low <= l_high < K/2")
    return l_low + np.argmax(cepstrum[..., l_low : l_high + 1], axis=-1)


# Pitch candidates within this share of the frame's largest |floored log
# magnitude| of the best one count as tied.  That magnitude bounds every
# cepstral coefficient, so round-off in a transform cannot decide a pick
# between near-equal peaks, and a frame at the floor everywhere picks l_low.
PITCH_TIE_TOLERANCE = 1e-9


def _first_near_max(band: np.ndarray, log_peak: np.ndarray) -> np.ndarray:
    """Index of the first value within PITCH_TIE_TOLERANCE * log_peak of its row's maximum."""
    tolerance = PITCH_TIE_TOLERANCE * log_peak[:, None]
    return np.argmax(band >= band.max(axis=1, keepdims=True) - tolerance, axis=1)


@lru_cache(maxsize=8)
def _band_bases(params: SmoothingParams) -> tuple[np.ndarray, np.ndarray]:
    """The DCT-I columns and rows of the quefrencies S = [0, l_env] u [l_low, l_high].

    `forward` (bins 0..K/2 x |S|) takes log half-spectra to their cepstra
    on S, DCT-I divided by K, so bins 0 and K/2 weigh 1 and the others 2.
    `inverse` (|S| x bins 0..K/2) takes cepstra on S back to log
    half-spectra, quefrency 0 weighing 1 and the others 2 (l_high < K/2).
    Both are read-only, since every caller shares them, the separation's
    two threads included: about 1.9 MB at the defaults (|S| = 114) and
    8.4 MB at K = 2048 with l_low = 96 and l_high = 600 (|S| = 514).
    """
    k = params.dft_length
    bins = np.arange(k // 2 + 1)
    quefrencies = np.r_[0 : params.l_env + 1, params.l_low : params.l_high + 1]
    # cos(2 pi q n / K), its argument reduced modulo 2 pi in integers first.
    cosines = np.cos((2 * np.pi / k) * (np.outer(bins, quefrencies) % k))
    end_bins = (bins == 0) | (bins == k // 2)
    # Fortran order keeps the pitch columns [l_low, l_high] one contiguous block.
    forward = np.asfortranarray(cosines * (np.where(end_bins, 1.0, 2.0)[:, None] / k))
    inverse = np.ascontiguousarray((cosines * np.where(quefrencies == 0, 1.0, 2.0)).T)
    for basis in (forward, inverse):
        basis.flags.writeable = False
    return forward, inverse


def _pitch_quefrencies(magnitudes: np.ndarray, params: SmoothingParams) -> np.ndarray:
    """Pitch quefrency of each row of frames x bins magnitudes, by the tie rule.

    The pick is the smallest l in [l_low, l_high] whose cepstral value lies
    within PITCH_TIE_TOLERANCE times the row's largest |floored log
    magnitude| of the band maximum.
    """
    forward, _ = _band_bases(params)
    # Logged in place: one block-sized array per call, not two.
    log_magnitudes = np.maximum(magnitudes, params.mask_floor)
    np.log(log_magnitudes, out=log_magnitudes)
    log_peak = np.maximum(-log_magnitudes.min(axis=1), log_magnitudes.max(axis=1))
    band = log_magnitudes @ forward[:, params.l_env + 1 :]
    return params.l_low + _first_near_max(band, log_peak)


def smooth_frames(
    mask: np.ndarray,
    magnitudes: np.ndarray,
    params: SmoothingParams,
    previous: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Smooth a frames x bins mask across frames in the cepstral domain.

    The pitch quefrency is re-estimated every frame from `magnitudes`, the
    separated signal the mask belongs to, so the pitch-adaptive band tracks
    that speaker: the smallest l in [l_low, l_high] whose cepstral value
    lies within PITCH_TIE_TOLERANCE times the frame's largest |floored log
    magnitude| of the band maximum.  Three tracks run across frames: the
    floored log mask smoothed with beta_peak in every bin, its cepstrum on
    S smoothed with beta_peak, and its cepstrum on S smoothed with the true
    factors.  The smoothed log mask is the first plus the DCT-I rows of S applied to the
    third minus the second.  The first frame continues the tracks from
    `previous`, the state an earlier call returned, or without one passes
    through (floored and clamped) unchanged.  The last frame's state (for
    an empty block, `previous`) is returned with the mask, so feeding a
    mask block by block gives the whole-mask result up to round-off: the
    cosine products round as the BLAS kernel that the thread count and the
    block shape select does.
    """
    floor = params.mask_floor
    forward, inverse = _band_bases(params)
    n_frames, n_bins = mask.shape
    if n_frames == 0:
        return np.empty(mask.shape), previous
    n_env = params.l_env + 1
    l_pitch = _pitch_quefrencies(magnitudes, params)

    log_mask = np.maximum(mask, floor)
    np.log(log_mask, out=log_mask)
    # One row per frame: the cepstrum on S to smooth with the true factors,
    # and the log mask and that cepstrum to smooth with beta_peak.
    true_track = log_mask @ forward
    peak_tracks = np.concatenate((log_mask, true_track), axis=1)
    betas = np.full(true_track.shape, params.beta_peak)
    betas[:, :n_env] = params.beta_env
    betas[np.arange(n_frames), n_env - params.l_low + l_pitch] = params.beta_pitch

    if previous is None:  # the first frame passes through
        previous_peak, previous_true, first = peak_tracks[0], true_track[0], 1
    else:
        (previous_peak, previous_true), first = np.split(previous, [peak_tracks.shape[1]]), 0
    # Each row becomes (1 - beta) * row + beta * previous row: the first
    # term for all frames at once, the second frame by frame.
    peak_tracks[first:] *= 1.0 - params.beta_peak
    true_track[first:] *= 1.0 - betas[first:]
    peak_term, true_term = np.empty(peak_tracks.shape[1]), np.empty(true_track.shape[1])
    for m in range(first, n_frames):
        peak_tracks[m] += np.multiply(params.beta_peak, previous_peak, out=peak_term)
        true_track[m] += np.multiply(betas[m], previous_true, out=true_term)
        previous_peak, previous_true = peak_tracks[m], true_track[m]

    mask_values = (true_track - peak_tracks[:, n_bins:]) @ inverse
    mask_values += peak_tracks[:, :n_bins]
    np.exp(mask_values, out=mask_values)
    np.clip(mask_values, floor, 1.0, out=mask_values)
    return mask_values, np.concatenate((peak_tracks[-1], true_track[-1]))


def smooth_mask(
    mask: SpectralMask, separated: Spectrogram, params: SmoothingParams
) -> SpectralMask:
    """Smooth a whole mask with `smooth_frames`, its pitch tracked on `separated`."""
    if mask.values.shape != separated.values.shape:
        raise ValueError("mask and spectrogram shapes differ")
    if separated.config.frame_length != params.dft_length:
        raise ValueError("params.dft_length must match the spectrogram frame length")
    smoothed, _ = smooth_frames(mask.values.T, np.abs(separated.values.T), params)
    return SpectralMask(smoothed.T, "smoothed")
