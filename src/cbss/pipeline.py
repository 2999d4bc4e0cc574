"""End-to-end separation, simulation and scoring, and what every report holds.

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
only after a join.  They take 56 KiB per frame at K = 2048, so 3.5 MiB per
half at 64 frames a block.  The block size sets those buffers and every
block-sized temporary of masking and smoothing, in both threads' arenas.
Against 128 frames, 64 cost about 6 % of a 60 s separation's time,
measured in process, and 32 about 10 % more again.  numpy's transforms
and ufuncs and the BLAS release the interpreter lock, so on two cores the
halves overlap.  Each half runs the operations one thread would run, in
the same order, so the outputs keep their bits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bsseval import (
    Decomposition,
    ReferenceProjector,
    SegmentAnnotation,
    sar_db,
    sdr_db,
    segment_sir,
    sir_db,
)
from .cepsmooth import SmoothingParams, smooth_frames
from .config import SEPARATION_KEYS, PipelineConfig
from .jointdiag import CovarianceSums, SolverState, solve_unmixing, unmix_output
from .masking import IsolatedUnitCount, dominance_mask
from .roomsim import ImpulseResponseBank, RoomSpec, mix_images, source_images
from .signals import MultichannelRecording, Waveform, gen_am_source
from .stft import (
    StftConfig,
    frame_blocks,
    frame_count,
    frame_spectra,
    overlap_add,
    padded_length,
    strip_padding,
)

# Unused here, but bench/tracer.py wraps each of these by its name in this
# module's namespace, so they stay importable from pipeline.
from .bsseval import project_decompose  # noqa: F401
from .cepsmooth import smooth_mask  # noqa: F401
from .jointdiag import apply_unmixing, estimate_block_covariances  # noqa: F401
from .masking import apply_mask, estimate_binary_masks, isolated_unit_fraction  # noqa: F401
from .roomsim import convolve_mix  # noqa: F401
from .stft import analyze, synthesize  # noqa: F401

# STFT frames analyzed, unmixed, masked and resynthesized together.
FRAMES_PER_BLOCK = 64


@dataclass(eq=False)
class SeparationResult:
    """Everything the two-stage pipeline produced for one mixture."""

    stage1: tuple[Waveform, Waveform]
    final: tuple[Waveform, Waveform]
    solver_state: SolverState
    isolated_fraction_binary: tuple[float, float]
    isolated_fraction_smoothed: tuple[float, float]
    smoothing: SmoothingParams  # at the mixture's rate


class _Half:
    """Channel i, then output i, of one separation: scratch buffers, carries, results.

    The buffers hold `rows` frames; a block of n frames uses their first n:
    3.5 MiB at K = 2048 and FRAMES_PER_BLOCK = 64, at which they and the
    kernels' block temporaries no longer set a 10 s sweep row's peak.
    They are kept for memory, not speed: with the kernels allocating fresh
    arrays instead, a 60 s separation on two cores at 128-frame blocks took
    as long and peaked about 7.5 MB (one half's buffers) higher, in the
    helper thread's arena.
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
    return SeparationResult(tuple(waves[:2]), tuple(waves[2:]), state, binary, smoothed, params)


@dataclass(eq=False)
class SimulatedScene:
    """A synthetic or file-driven room mixture with its ground truth."""

    mixture: MultichannelRecording
    sources: tuple[Waveform, Waveform]
    images: tuple[tuple[Waveform, Waveform], tuple[Waveform, Waveform]]
    bank: ImpulseResponseBank
    room: RoomSpec
    seed: int


def synthetic_sources(config: PipelineConfig) -> tuple[Waveform, Waveform]:
    """The two amplitude-modulated sources of the config's seed and synth settings."""
    s = config.settings
    return tuple(
        gen_am_source(config.seed + offset, s["synth_duration_s"], s["synth_sample_rate"], mod)
        for offset, mod in ((0, s["synth_mod_rate_1"]), (1, s["synth_mod_rate_2"]))
    )


def simulate_scene(
    config: PipelineConfig,
    rt60_ms: float | None = None,
    sources: tuple[Waveform, Waveform] | None = None,
) -> SimulatedScene:
    """Convolve two sources (given, or else `synthetic_sources(config)`) through an
    image-method room at `rt60_ms`, or else at the config's RT60."""
    if sources is None:
        sources = synthetic_sources(config)
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
        seed=config.seed,
    )


@dataclass(eq=False)
class PairEvaluation:
    """A pair of outputs decomposed under its resolved permutation.

    Each metric is a pair of floats read from the two decompositions.
    """

    permutation: tuple[int, int]
    decompositions: tuple[Decomposition, Decomposition]

    sir = property(lambda self: tuple(map(sir_db, self.decompositions)))
    sdr = property(lambda self: tuple(map(sdr_db, self.decompositions)))
    sar = property(lambda self: tuple(map(sar_db, self.decompositions)))
    average_sir = property(lambda self: 0.5 * sum(self.sir))


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
    pairs = (PairEvaluation(p, (table[0][p[0]], table[1][p[1]])) for p in _candidates(permutation))
    return max(pairs, key=lambda evaluation: sum(evaluation.sir))


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
    scored under the same assignment, as `score_separation` scores them.
    """
    _candidates(permutation)  # reject a bad permutation before any work
    (table,) = decompose_pairs([estimates], images, taps)
    return resolve_permutation(table, permutation)


def score_separation(
    result: SeparationResult, scene: SimulatedScene, taps: int
) -> tuple[PairEvaluation, PairEvaluation, PairEvaluation]:
    """Score a scene's input as given, stage 1 under its better assignment and the
    final outputs under stage 1's, from one `decompose_pairs` call."""
    pairs = (result.stage1, result.final, tuple(scene.mixture.channels))
    stage1, final, given = decompose_pairs(pairs, scene.images, taps)
    stage1_eval = resolve_permutation(stage1)
    final_eval = resolve_permutation(final, stage1_eval.permutation)
    return resolve_permutation(given, (0, 1)), stage1_eval, final_eval


# What the reports hold; each is written with sorted keys.
REPORT_FORMAT_VERSION = 7
FINAL_OUTPUTS_FROM = "stage1_masked"
SIR_CONVENTION = "10*log10 of an energy ratio"


def base_report(kind: str, config: PipelineConfig, keys: tuple[str, ...] | None = None) -> dict:
    """The fields every report starts with; `parameters` echoes the settings of `keys`, or all."""
    return {
        "report_format_version": REPORT_FORMAT_VERSION,
        "kind": kind,
        "parameters": config.flat(keys),
    }


def output_waves(result: SeparationResult) -> dict[str, Waveform]:
    """Each separation output by file name: stage 1's pair, then the final pair."""
    waves = {f"stage1_{i}.wav": wave for i, wave in enumerate(result.stage1, start=1)}
    waves.update((f"final_{i}.wav", wave) for i, wave in enumerate(result.final, start=1))
    return waves


def _separation_block(result: SeparationResult) -> dict:
    state, names = result.solver_state, list(output_waves(result))
    return {
        "solver": {
            "initial_cost": state.cost_trace[0],
            "final_cost": state.cost_trace[-1],
            "iterations": state.iterations,
            "evaluations": state.evaluations,
            "termination": state.termination,
        },
        "isolated_fraction_binary": list(result.isolated_fraction_binary),
        "isolated_fraction_smoothed": list(result.isolated_fraction_smoothed),
        "smoothing_bins": {n: getattr(result.smoothing, n) for n in ("l_env", "l_low", "l_high")},
        "final_outputs_from": FINAL_OUTPUTS_FROM,
        "outputs": {"stage1": names[:2], "final": names[2:]},
    }


def separation_report(config: PipelineConfig, result: SeparationResult, mixture: str) -> dict:
    """The report of separating the file `mixture`: only the settings a separation reads."""
    report = base_report("separation", config, SEPARATION_KEYS)
    report.update(_separation_block(result), input=mixture)
    return report


def scene_waves(scene: SimulatedScene) -> dict[str, Waveform]:
    """A written scene's mono files by name: the dry sources, then each mic's images."""
    waves = {f"source_{i}.wav": source for i, source in enumerate(scene.sources, start=1)}
    for m, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
        waves[f"image_m{m + 1}_s{s + 1}.wav"] = scene.images[m][s]
    return waves


def _manifest_line(key: str, value: object) -> str:
    """`key = value`, a tuple's items space-separated and a boolean lowercase."""
    if isinstance(value, tuple):
        value = " ".join(map(str, value))
    return f"{key} = {str(value).lower() if isinstance(value, bool) else value}\n"


def scene_manifest(scene: SimulatedScene) -> str:
    """A written scene's manifest.txt."""
    room = scene.room
    entries = [
        ("rt60_ms", room.rt60_ms),
        ("sample_rate", scene.mixture.sample_rate),
        ("seed", scene.seed),
        ("room_dimensions", room.dimensions),
        *((f"source_{i}_position", p) for i, p in enumerate(room.source_positions, start=1)),
        *((f"mic_{i}_position", p) for i, p in enumerate(room.mic_positions, start=1)),
        *room.absorption.items(),
        ("rir_length", scene.bank.rir_length),
        ("mixture", "mixture.wav"),
        *((name.removesuffix(".wav"), name) for name in scene_waves(scene)),
    ]
    return "".join(_manifest_line(key, value) for key, value in entries)


def _sir_block(pair: tuple[float, float]) -> dict:
    return {"signal_1": pair[0], "signal_2": pair[1], "average": 0.5 * (pair[0] + pair[1])}


def sweep_row(
    config: PipelineConfig, scene: SimulatedScene, result: SeparationResult
) -> tuple[dict, dict]:
    """Score the separation of a scene simulated under `config`, the config of one
    RT60; returns its sweep report row and its own report, which is the base report
    plus the row but for the row's sweep-only fields."""
    given, stage1, final = score_separation(result, scene, config.decomp_filter_taps)
    fields = {
        "rt60_ms": config.rt60_ms,
        "stage1_sir_db": _sir_block(stage1.sir),
        "final_sir_db": _sir_block(final.sir),
        **scene.room.absorption,
        **_separation_block(result),
    }
    row = {
        **fields,
        "permutation": list(stage1.permutation),
        "input_sir_db": _sir_block(given.sir),
        "final_sdr_db": _sir_block(final.sdr),
        "final_sar_db": _sir_block(final.sar),
    }
    return row, {**base_report("separation", config), **fields}


def sweep_report(config: PipelineConfig, rows: list[dict]) -> dict:
    """The sweep's rows; `parameters` echoes every setting but the RT60, which each row carries."""
    keys = tuple(key for key in config.settings if key != "rt60_ms")
    return {**base_report("sweep", config, keys), "sir_convention": SIR_CONVENTION, "rows": rows}


def evaluation_report(
    config: PipelineConfig,
    estimates: tuple[Waveform, Waveform],
    evaluation: PairEvaluation | None,
    segments: SegmentAnnotation | None,
) -> dict:
    """Reference mode's report from `evaluation`, or else segment mode's over `segments`."""
    report = {**base_report("evaluation", config), "sir_convention": SIR_CONVENTION}
    if evaluation is None:
        report.update(mode="segment", sir_db=list(segment_sir(estimates, segments)))
        report["segments"] = {"first": list(segments.first), "second": list(segments.second)}
        return report
    report.update((f"{name}_db", list(getattr(evaluation, name))) for name in ("sir", "sdr", "sar"))
    report.update(mode="reference", filter_taps=config.decomp_filter_taps)
    report["regularized"] = [d.regularized for d in evaluation.decompositions]
    return report
