"""End-to-end separation and simulation flows shared by the CLI and tests.

Stage 1 unmixes the STFT-domain mixture with the joint-diagonalization
solver.  The final outputs are always produced from the stage-1
spectrograms: binary masks are estimated from the stage-1 magnitude pair,
smoothed in the cepstral domain, applied back onto the stage-1
spectrograms, and resynthesized.  Raw mixtures never feed the masks.

Separation makes two passes over blocks of FRAMES_PER_BLOCK STFT frames,
so no spectrogram or mask of the whole input is ever held.  Each block is
a plain frames x bins array that no stage checks again: the input was
checked as a `MultichannelRecording`.  The first pass sums each block's
outer products into the covariances the solver needs.  The second analyzes
each block again, unmixes it, takes |Y| once for the binary masks and the
smoothing's pitch track, smooths with one frame of state carried across
block edges, and overlap-adds stage 1 and the final outputs into waveform
buffers, from which the outputs need only the padding cut off.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# project_decompose is unused here but stays importable as
# pipeline.project_decompose: bench/tracer.py wraps it by that name.
from .bsseval import (  # noqa: F401
    Decomposition,
    ReferenceProjector,
    project_decompose,
    sar_db,
    sdr_db,
    sir_db,
)
# The whole-signal analyze, synthesize, estimate_block_covariances, apply_unmixing,
# estimate_binary_masks, apply_mask, isolated_unit_fraction and smooth_mask are
# unused here but stay importable from pipeline: bench/tracer.py wraps them by name.
from .cepsmooth import smooth_frames, smooth_mask  # noqa: F401
from .config import PipelineConfig
from .jointdiag import (  # noqa: F401
    CovarianceSums,
    SolverState,
    apply_unmixing,
    estimate_block_covariances,
    solve_unmixing,
    unmix,
)
from .masking import (  # noqa: F401
    IsolatedUnitCount,
    apply_mask,
    dominance_masks,
    estimate_binary_masks,
    isolated_unit_fraction,
)
from .roomsim import ImpulseResponseBank, RoomSpec, mix_images, source_images
# convolve_mix is unused here but stays importable as pipeline.convolve_mix:
# bench/tracer.py wraps it by that name.
from .roomsim import convolve_mix  # noqa: F401
from .signals import MultichannelRecording, Waveform, gen_am_source
from .stft import (  # noqa: F401
    analyze,
    frame_blocks,
    frame_count,
    frame_spectra,
    overlap_add,
    padded_length,
    strip_padding,
    synthesize,
)

# STFT frames analyzed, unmixed, masked and resynthesized together.
FRAMES_PER_BLOCK = 128


@dataclass(eq=False)
class SeparationResult:
    """Everything the two-stage pipeline produced for one mixture."""

    stage1: tuple[Waveform, Waveform]
    final: tuple[Waveform, Waveform]
    solver_state: SolverState
    isolated_fraction_binary: tuple[float, float]
    isolated_fraction_smoothed: tuple[float, float]


def separate_recording(recording: MultichannelRecording, config: PipelineConfig) -> SeparationResult:
    """Run both separation stages on a two-channel mixture, block by block."""
    if recording.n_channels != 2:
        raise ValueError(f"expected a 2-channel mixture, got {recording.n_channels} channel(s)")
    stft = config.stft
    n_frames = frame_count(recording.n_samples, stft)
    blocks = frame_blocks(n_frames, FRAMES_PER_BLOCK)

    def spectra(frames: range) -> list[np.ndarray]:
        return [frame_spectra(ch.samples, stft, frames) for ch in recording.channels]

    sums = CovarianceSums(stft.n_bins, n_frames, config.solver.block_count)
    for frames in blocks:
        sums.add(*spectra(frames), frames.start)
    system, state = solve_unmixing(sums.covariance_set(), config.solver)

    params = config.smoothing_params(recording.sample_rate)
    stage1 = [np.zeros(padded_length(n_frames, stft)) for _ in range(2)]
    final = [np.zeros(padded_length(n_frames, stft)) for _ in range(2)]
    cepstra = [None, None]
    binary_counts = (IsolatedUnitCount(), IsolatedUnitCount())
    smoothed_counts = (IsolatedUnitCount(), IsolatedUnitCount())
    for frames in blocks:
        separated = unmix(system, *spectra(frames))
        magnitudes = [np.abs(y) for y in separated]
        masks = dominance_masks(*magnitudes, config.mask_threshold.value)
        for i in (0, 1):
            overlap_add(separated[i], frames.start, stft, stage1[i])
            smoothed, cepstra[i] = smooth_frames(masks[i], magnitudes[i], params, cepstra[i])
            overlap_add(smoothed * separated[i], frames.start, stft, final[i])
            binary_counts[i].add(masks[i])
            smoothed_counts[i].add(smoothed)

    waves = strip_padding(stage1 + final, stft, recording.n_samples, recording.sample_rate)
    return SeparationResult(
        stage1=tuple(waves[:2]),
        final=tuple(waves[2:]),
        solver_state=state,
        isolated_fraction_binary=tuple(c.fraction() for c in binary_counts),
        isolated_fraction_smoothed=tuple(c.fraction() for c in smoothed_counts),
    )


@dataclass(eq=False)
class SimulatedScene:
    """A synthetic or file-driven room mixture with its ground truth."""

    mixture: MultichannelRecording
    sources: tuple[Waveform, Waveform]
    images: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]]
    bank: ImpulseResponseBank
    room: RoomSpec
    seed: int | None


def simulate_scene(
    config: PipelineConfig,
    rt60_ms: float | None = None,
    sources: tuple[Waveform, Waveform] | None = None,
    seed: int | None = None,
) -> SimulatedScene:
    """Convolve two sources (given or synthetic) through an image-method room."""
    used_seed: int | None
    if sources is None:
        used_seed = config.seed if seed is None else seed
        s = config.settings
        sources = (
            gen_am_source(
                used_seed,
                float(s["synth_duration_s"]),
                int(s["synth_sample_rate"]),
                float(s["synth_mod_rate_1"]),
            ),
            gen_am_source(
                used_seed + 1,
                float(s["synth_duration_s"]),
                int(s["synth_sample_rate"]),
                float(s["synth_mod_rate_2"]),
            ),
        )
    else:
        used_seed = seed
        if sources[0].sample_rate != sources[1].sample_rate:
            raise ValueError("source files must share one sample rate")

    rate = sources[0].sample_rate
    room = config.room_spec(rate, rt60_ms)
    bank = ImpulseResponseBank.from_room(room)
    images = source_images(sources, bank)
    mixture = mix_images(images)
    return SimulatedScene(
        mixture=mixture,
        sources=sources,
        images=images,
        bank=bank,
        room=room,
        seed=used_seed,
    )


@dataclass(eq=False)
class PairEvaluation:
    """Reference-based metrics for a pair of outputs, permutation resolved."""

    permutation: tuple[int, int]
    decompositions: tuple[Decomposition, Decomposition]
    sir: tuple[float, float]
    sdr: tuple[float, float]
    sar: tuple[float, float]

    @property
    def average_sir(self) -> float:
        return 0.5 * (self.sir[0] + self.sir[1])


PERMUTATIONS = ((0, 1), (1, 0))

# table[mic][source]: output `mic` of an estimate pair decomposed against the
# images at that mic, with `source` as its target.
DecompositionTable = tuple[tuple[Decomposition, Decomposition], tuple[Decomposition, Decomposition]]


def _candidates(permutation: tuple[int, int] | None) -> tuple[tuple[int, int], ...]:
    if permutation is None:
        return PERMUTATIONS
    candidates = tuple(p for p in PERMUTATIONS if p == tuple(permutation))
    if not candidates:
        raise ValueError(f"permutation must be (0, 1) or (1, 0), got {permutation!r}")
    return candidates


def decompose_pairs(
    estimate_pairs: Sequence[tuple[Waveform, Waveform]],
    images: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]],
    taps: int,
) -> list[DecompositionTable]:
    """Decompose several output pairs against one scene's per-mic source images.

    Output j of every pair is decomposed against the images at mic j, once
    for both sources as the target.  Each mic's image pair is factored once
    for all pairs (once for both mics if they get the same two `Waveform`s),
    and released before the next is built.  Returns one table per pair,
    indexed [mic][source].
    """
    shared = all(a is b for a, b in zip(*images))
    by_mic = []
    for mics in ((0, 1),) if shared else ((0,), (1,)):
        projector = ReferenceProjector(images[mics[0]], taps)
        by_mic += [[projector.decompose_all(pair[mic]) for pair in estimate_pairs] for mic in mics]
        # Free these Gram factors before the next mic's are built.
        del projector
    return list(zip(*by_mic))


def resolve_permutation(
    table: DecompositionTable, permutation: tuple[int, int] | None = None
) -> PairEvaluation:
    """Score a decomposed pair under the pinned source assignment, or the best one.

    Output j takes source permutation[j] as its target.  When no
    permutation is pinned, the assignment with the higher average SIR wins.
    """
    candidates = _candidates(permutation)

    def pair(perm: tuple[int, int]) -> tuple[Decomposition, Decomposition]:
        return table[0][perm[0]], table[1][perm[1]]

    permutation = max(candidates, key=lambda perm: sum(sir_db(d) for d in pair(perm)))
    decomps = pair(permutation)

    return PairEvaluation(
        permutation=permutation,
        decompositions=decomps,
        sir=tuple(sir_db(d) for d in decomps),
        sdr=tuple(sdr_db(d) for d in decomps),
        sar=tuple(sar_db(d) for d in decomps),
    )


def evaluate_outputs(
    estimates: tuple[Waveform, Waveform],
    images: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]],
    taps: int,
    permutation: tuple[int, int] | None = None,
) -> PairEvaluation:
    """Score outputs against per-mic source images.

    Output j is decomposed against the images at mic j, with source
    permutation[j] as its target.  When no permutation is pinned, both
    source assignments are tried and the one with the higher average SIR
    wins; pinning exists so stage-1 and final outputs of one run are
    scored under the same assignment.  To score several pairs of one
    scene, call `decompose_pairs` once and `resolve_permutation` per pair.
    """
    _candidates(permutation)  # reject a bad permutation before any work
    (table,) = decompose_pairs([estimates], images, taps)
    return resolve_permutation(table, permutation)
