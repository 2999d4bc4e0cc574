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

Both passes work in two halves, channel i and then output i, on two
threads.  For each block, the calling thread runs half 0 and one helper
thread runs half 1 of three steps, and the halves join after each:
  * the analysis of channel i (in both passes);
  * the unmixing of output i, y_i = x_i + w_i x_(1-i), and |y_i|;
  * output i's dominance mask, stage-1 overlap-add, smoothing, occupancy
    counts and final overlap-add.
The covariance sums and the solve run on the calling thread alone.
`separate_recording` allocates each half's scratch buffers (frames,
channel and output spectra, magnitudes) once per call, and the kernels
write into them; a half writes only its own buffers and reads the other's
only after a join.  numpy's transforms and ufuncs and the BLAS release the
interpreter lock, so on two cores the halves overlap.  Each half runs the
operations one thread would run, in the same order, so the outputs keep
their bits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
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
    unmix_output,
)
from .masking import (  # noqa: F401
    IsolatedUnitCount,
    apply_mask,
    dominance_mask,
    estimate_binary_masks,
    isolated_unit_fraction,
)
from .roomsim import ImpulseResponseBank, RoomSpec, mix_images, source_images
# convolve_mix is unused here but stays importable as pipeline.convolve_mix:
# bench/tracer.py wraps it by that name.
from .roomsim import convolve_mix  # noqa: F401
from .signals import MultichannelRecording, Waveform, gen_am_source
from .stft import (  # noqa: F401
    StftConfig,
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


class _Half:
    """Channel i, then output i, of one separation: scratch buffers, carries, results.

    The buffers hold `rows` frames; a block of n frames uses their first n.
    They are kept for memory, not speed: with the kernels allocating fresh
    arrays instead, a 60 s separation on two cores took as long and peaked
    about 7.5 MB (one half's buffers) higher, in the helper thread's arena.
    """

    def __init__(self, rows: int, n_frames: int, stft: StftConfig) -> None:
        self.frames = np.empty((rows, stft.frame_length))  # windowed or inverse-transformed
        self.channel = np.empty((rows, stft.n_bins), dtype=np.complex128)
        self.output = np.empty((rows, stft.n_bins), dtype=np.complex128)  # then masked
        self.magnitudes = np.empty((rows, stft.n_bins))
        self.stage1 = np.zeros(padded_length(n_frames, stft))
        self.final = np.zeros(padded_length(n_frames, stft))
        self.cepstrum: np.ndarray | None = None
        self.binary_count = IsolatedUnitCount()
        self.smoothed_count = IsolatedUnitCount()


@contextmanager
def _two_halves() -> Iterator[Callable[..., None]]:
    """Yield `both(step, *args)`, which runs step(1, *args) on a helper thread
    and step(0, *args) on this one, and returns once both are done.

    An error in either half is raised by `both` after both have stopped;
    this thread's error wins.  The helper is joined on exit.
    """
    # Imported here: at module level it would add its logging import to
    # every start of the package.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:

        def both(step: Callable[..., None], *args) -> None:
            second = helper.submit(step, 1, *args)
            try:
                step(0, *args)
            except BaseException:
                second.exception()  # wait for the helper's half
                raise
            second.result()

        yield both


def separate_recording(recording: MultichannelRecording, config: PipelineConfig) -> SeparationResult:
    """Run both separation stages on a two-channel mixture, block by block.

    Channel and output 1 run on a helper thread, started for this call and
    joined before it returns, and channel and output 0 on the calling
    thread; the halves join after each block's analysis, unmixing and
    masking step (see the module docstring).  The covariance sums and the
    solve run on the calling thread.  This call owns both halves' scratch
    buffers.  The outputs are bit for bit those of one thread running the
    halves in turn.  An error in either half is raised here.
    """
    if recording.n_channels != 2:
        raise ValueError(f"expected a 2-channel mixture, got {recording.n_channels} channel(s)")
    stft = config.stft
    block_count = config.solver.block_count
    # One frame needs K samples of input and B frames B hop - K + 1.
    n, k = recording.n_samples, stft.frame_length
    minimum = max(k, block_count * stft.hop - k + 1)
    if n < minimum:
        if n < k:
            reason = f"shorter than one frame ({k})"
        else:
            reason = f"{frame_count(n, stft)} frames cannot fill {block_count} blocks"
        raise ValueError(
            f"input of {n} samples is too short: {reason}; "
            f"separation needs at least {minimum} samples"
        )
    n_frames = frame_count(n, stft)
    blocks = frame_blocks(n_frames, FRAMES_PER_BLOCK)
    sums = CovarianceSums(stft.n_bins, n_frames, block_count)
    params = config.smoothing_params(recording.sample_rate)
    tau = config.mask_threshold.value
    halves = [_Half(len(blocks[0]), n_frames, stft) for _ in range(2)]

    def analysis(i: int, frames: range) -> None:
        half, n = halves[i], len(frames)
        samples = recording.channels[i].samples
        frame_spectra(samples, stft, frames, out=half.channel[:n], work=half.frames[:n])

    def unmixing(i: int, frames: range) -> None:  # runs after the solve has set `system`
        half, n = halves[i], len(frames)
        other = halves[1 - i].channel[:n]
        unmix_output(system, i, half.channel[:n], other, out=half.output[:n])
        np.abs(half.output[:n], out=half.magnitudes[:n])

    def masking(i: int, frames: range) -> None:
        half, n = halves[i], len(frames)
        output, magnitudes, work = half.output[:n], half.magnitudes[:n], half.frames[:n]
        mask = dominance_mask(magnitudes, halves[1 - i].magnitudes[:n], tau)
        overlap_add(output, frames.start, stft, half.stage1, work)
        smoothed, half.cepstrum = smooth_frames(mask, magnitudes, params, half.cepstrum)
        overlap_add(np.multiply(smoothed, output, out=output), frames.start, stft, half.final, work)
        half.binary_count.add(mask)
        half.smoothed_count.add(smoothed)

    with _two_halves() as both:
        for frames in blocks:
            both(analysis, frames)
            sums.add(*(h.channel[: len(frames)] for h in halves), frames.start)
        system, state = solve_unmixing(sums.covariance_set(), config.solver)
        for frames in blocks:
            for step in (analysis, unmixing, masking):
                both(step, frames)

    binary = tuple(h.binary_count.fraction() for h in halves)
    smoothed = tuple(h.smoothed_count.fraction() for h in halves)
    buffers = [h.stage1 for h in halves] + [h.final for h in halves]
    del halves  # free the scratch and carries, then each buffer once its output is cut
    waves = [strip_padding(buffers.pop(0), stft, n, recording.sample_rate) for _ in range(4)]
    return SeparationResult(tuple(waves[:2]), tuple(waves[2:]), state, binary, smoothed)


@dataclass(eq=False)
class SimulatedScene:
    """A synthetic or file-driven room mixture with its ground truth."""

    mixture: MultichannelRecording
    sources: tuple[Waveform, Waveform]
    images: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]]
    bank: ImpulseResponseBank
    room: RoomSpec
    seed: int


def simulate_scene(
    config: PipelineConfig,
    rt60_ms: float | None = None,
    sources: tuple[Waveform, Waveform] | None = None,
    seed: int | None = None,
) -> SimulatedScene:
    """Convolve two sources (given, or synthetic from the seed) through an image-method room."""
    used_seed = config.seed if seed is None else seed
    if sources is None:
        s = config.settings
        sources = tuple(
            gen_am_source(used_seed + offset, s["synth_duration_s"], s["synth_sample_rate"], mod)
            for offset, mod in ((0, s["synth_mod_rate_1"]), (1, s["synth_mod_rate_2"]))
        )
    elif sources[0].sample_rate != sources[1].sample_rate:
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
