"""Command-line front end: separate, simulate, evaluate, sweep.

Commands parse arguments, read files, leave the work to `pipeline` and
`bsseval`, then write WAV artifacts plus a versioned JSON report and print.
Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# project_decompose is unused here but stays importable as cli.project_decompose:
# bench/tracer.py wraps it by that name.
from .bsseval import SegmentAnnotation, project_decompose, segment_sir  # noqa: F401
from .config import SEPARATION_KEYS, PipelineConfig, default_config, load_config
from .pipeline import (
    SeparationResult,
    SimulatedScene,
    decompose_pairs,
    evaluate_outputs,
    resolve_permutation,
    separate_recording,
    simulate_scene,
)
from .roomsim import RoomSpec, sabine_absorption
from .signals import MultichannelRecording, Waveform, read_wav, write_wav

REPORT_FORMAT_VERSION = 5
FINAL_OUTPUTS_FROM = "stage1_masked"
SIR_CONVENTION = "10*log10 of an energy ratio"


def _write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _base_report(kind: str, config: PipelineConfig) -> dict:
    return {
        "report_format_version": REPORT_FORMAT_VERSION,
        "kind": kind,
        "parameters": config.flat(),
    }


def _separation_block(result: SeparationResult) -> dict:
    trace = result.solver_state.cost_trace
    return {
        "solver": {
            "initial_cost": trace[0],
            "final_cost": trace[-1],
            "iterations": result.solver_state.iterations,
            "evaluations": result.solver_state.evaluations,
            "termination": result.solver_state.termination,
        },
        "isolated_fraction_binary": list(result.isolated_fraction_binary),
        "isolated_fraction_smoothed": list(result.isolated_fraction_smoothed),
        "final_outputs_from": FINAL_OUTPUTS_FROM,
    }


def _separation_report(
    config: PipelineConfig, result: SeparationResult, outputs: dict, **fields
) -> dict:
    report = _base_report("separation", config)
    report.update(_separation_block(result), outputs=outputs, **fields)
    return report


def _room_block(room: RoomSpec) -> dict:
    """The Sabine absorption asked for and used, and whether the room became anechoic."""
    asked, used = sabine_absorption(room.dimensions, room.rt60_ms)
    return {
        "absorption_requested": asked,
        "absorption_used": used,
        "anechoic_clamped": asked > used,
    }


def _write_outputs(result: SeparationResult, out_dir: Path) -> dict:
    paths = {}
    for stage, pair in (("stage1", result.stage1), ("final", result.final)):
        names = []
        for i, wave in enumerate(pair, start=1):
            name = f"{stage}_{i}.wav"
            write_wav(MultichannelRecording((wave,)), out_dir / name)
            names.append(name)
        paths[stage] = names
    return paths


def _load_config_arg(path: str | None) -> PipelineConfig:
    return default_config() if path is None else load_config(path)


def _read_mono(path: str, role: str) -> Waveform:
    recording = read_wav(path)
    if recording.n_channels != 1:
        raise ValueError(f"{role} {path} must be mono")
    return recording.channels[0]


def cmd_separate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    recording = read_wav(args.mixture)
    if recording.n_channels != 2:
        raise ValueError(
            f"separation needs a 2-channel mixture; {args.mixture} has "
            f"{recording.n_channels}"
        )
    result = separate_recording(recording, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _write_outputs(result, out_dir)
    report = _separation_report(config, result, outputs, input=str(args.mixture))
    # A recording that was never simulated echoes only the settings its separation read.
    report["parameters"] = config.flat(SEPARATION_KEYS)
    _write_report(report, out_dir / "report.json")
    print(f"wrote separation outputs and report.json to {out_dir}")
    return 0


def _scene_from_args(args: argparse.Namespace, config: PipelineConfig) -> SimulatedScene:
    if args.synthetic:
        if args.sources:
            raise ValueError("give either --synthetic or two source files, not both")
        return simulate_scene(config, rt60_ms=args.rt60, seed=args.seed)
    if len(args.sources) != 2:
        raise ValueError("simulation needs two source WAV files (or --synthetic)")
    sources = tuple(_read_mono(path, "source") for path in args.sources)
    return simulate_scene(config, rt60_ms=args.rt60, sources=sources, seed=args.seed)


def _write_scene(scene: SimulatedScene, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(scene.mixture, out_dir / "mixture.wav")
    for i, src in enumerate(scene.sources, start=1):
        write_wav(MultichannelRecording((src,)), out_dir / f"source_{i}.wav")
    for mic in (0, 1):
        for src in (0, 1):
            write_wav(
                MultichannelRecording((scene.images[mic][src],)),
                out_dir / f"image_m{mic + 1}_s{src + 1}.wav",
            )
    room = scene.room
    lines = [
        f"rt60_ms = {room.rt60_ms}",
        f"sample_rate = {scene.mixture.sample_rate}",
        f"seed = {scene.seed}",
        f"room_dimensions = {room.dimensions[0]} {room.dimensions[1]} {room.dimensions[2]}",
    ]
    for i, p in enumerate(room.source_positions, start=1):
        lines.append(f"source_{i}_position = {p[0]} {p[1]} {p[2]}")
    for i, p in enumerate(room.mic_positions, start=1):
        lines.append(f"mic_{i}_position = {p[0]} {p[1]} {p[2]}")
    lines.extend(
        f"{key} = {str(value).lower()}" for key, value in _room_block(room).items()
    )
    lines.append(f"rir_length = {scene.bank.rir_length}")
    lines.append("mixture = mixture.wav")
    lines.extend(f"source_{i} = source_{i}.wav" for i in (1, 2))
    lines.extend(
        f"image_m{m}_s{s} = image_m{m}_s{s}.wav" for m in (1, 2) for s in (1, 2)
    )
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    scene = _scene_from_args(args, config)
    _write_scene(scene, Path(args.out))
    print(f"wrote mixture, images, and manifest.txt to {args.out}")
    return 0


def _parse_segments(raw: str) -> SegmentAnnotation:
    try:
        parts = raw.split(",")
        if len(parts) != 2:
            raise ValueError
        bounds = []
        for part in parts:
            start, _, end = part.partition(":")
            bounds.append((int(start), int(end)))
        return SegmentAnnotation(bounds[0], bounds[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad segments {raw!r}; expected start1:end1,start2:end2"
        ) from exc


def _rt_dir_name(rt60: float) -> str:
    return f"rt{int(round(rt60)):03d}"


def _parse_rt60_list(raw: str) -> list[float]:
    parts = [part.strip() for part in raw.split(",")]
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rt60 list {raw!r}") from exc
    # Each row writes into its own rtNNN directory, so two values that round
    # alike would overwrite one another's files.
    seen: dict[str, float] = {}
    for value in values:
        if not math.isfinite(value) or value < 0:
            raise argparse.ArgumentTypeError(
                f"bad rt60 {value!r} in {raw!r}; each must be a finite, non-negative ms value"
            )
        name = _rt_dir_name(value)
        if name in seen:
            raise argparse.ArgumentTypeError(
                f"rt60 values {seen[name]:g} and {value:g} in {raw!r} would both write {name}/"
            )
        seen[name] = value
    return values


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    estimates = [_read_mono(path, "estimate") for path in args.estimates]
    if estimates[0].sample_rate != estimates[1].sample_rate:
        raise ValueError("estimates must share one sample rate")
    if len(estimates[0]) != len(estimates[1]):
        raise ValueError("estimates must share one length")

    report = _base_report("evaluation", config)
    report["sir_convention"] = SIR_CONVENTION

    if args.references is not None:
        refs = tuple(_read_mono(path, "reference") for path in args.references)
        taps = config.decomp_filter_taps
        if not 1 <= taps <= len(refs[0]):
            raise ValueError(
                f"decomp_filter_taps = {taps} must lie in [1, {len(refs[0])}], "
                "the length of the references in samples"
            )
        # Estimate i is scored against the references with reference i as its target.
        evaluation = evaluate_outputs(tuple(estimates), (refs, refs), taps, permutation=(0, 1))
        regularized = [d.regularized for d in evaluation.decompositions]
        if any(regularized):
            print(
                "warning: the references are degenerate (one is silent or a scaled copy of "
                "the other); the metrics are not meaningful",
                file=sys.stderr,
            )
        report["mode"] = "reference"
        report["filter_taps"] = taps
        report["sir_db"] = list(evaluation.sir)
        report["sdr_db"] = list(evaluation.sdr)
        report["sar_db"] = list(evaluation.sar)
        report["regularized"] = regularized
    else:
        segments = args.segments
        sir1, sir2 = segment_sir(tuple(estimates), segments)
        report["mode"] = "segment"
        report["segments"] = {
            "first": list(segments.first),
            "second": list(segments.second),
        }
        report["sir_db"] = [sir1, sir2]

    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(report, out_dir / "report.json")
    return 0


def _sir_block(pair: tuple[float, float]) -> dict:
    return {
        "signal_1": pair[0],
        "signal_2": pair[1],
        "average": 0.5 * (pair[0] + pair[1]),
    }


def _sweep_row(config: PipelineConfig, rt60: float, rt_dir: Path, seed: int | None) -> dict:
    """Simulate, separate, score and write one RT60's scene; returns its report row.

    Its own function so that the row's scene, outputs and decompositions are
    released before the next row is simulated.
    """
    scene = simulate_scene(config, rt60_ms=rt60, seed=seed)
    _write_scene(scene, rt_dir)
    room_fields = _room_block(scene.room)
    result = separate_recording(scene.mixture, config)
    outputs = _write_outputs(result, rt_dir)

    stage1_table, final_table, input_table = decompose_pairs(
        (result.stage1, result.final, tuple(scene.mixture.channels)),
        scene.images,
        config.decomp_filter_taps,
    )
    stage1_eval = resolve_permutation(stage1_table)
    final_eval = resolve_permutation(final_table, stage1_eval.permutation)
    input_eval = resolve_permutation(input_table, (0, 1))

    row = {
        "rt60_ms": rt60,
        "permutation": list(stage1_eval.permutation),
        "input_sir_db": _sir_block(input_eval.sir),
        "stage1_sir_db": _sir_block(stage1_eval.sir),
        "final_sir_db": _sir_block(final_eval.sir),
        "final_sdr_db": _sir_block(final_eval.sdr),
        "final_sar_db": _sir_block(final_eval.sar),
        "outputs": outputs,
        **room_fields,
    }
    row.update(_separation_block(result))

    sirs = {key: row[key] for key in ("stage1_sir_db", "final_sir_db")}
    report = _separation_report(config, result, outputs, rt60_ms=rt60, **sirs, **room_fields)
    _write_report(report, rt_dir / "report.json")
    return row


def run_sweep(
    config: PipelineConfig,
    rt60_values: list[float],
    out_dir: Path,
    seed: int | None = None,
) -> dict:
    """Simulate, separate, and evaluate one synthetic scene per RT60 value."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [_sweep_row(config, rt60, out_dir / _rt_dir_name(rt60), seed) for rt60 in rt60_values]
    sweep_report = _base_report("sweep", config)
    sweep_report["sir_convention"] = SIR_CONVENTION
    sweep_report["rows"] = rows
    _write_report(sweep_report, out_dir / "sweep_report.json")
    return sweep_report


def _print_sweep_table(report: dict) -> None:
    print(f"{'rt60 ms':>8} {'signal':>8} {'stage1 SIR':>12} {'final SIR':>12}")
    for row in report["rows"]:
        for label, key in (("1", "signal_1"), ("2", "signal_2"), ("avg", "average")):
            print(
                f"{row['rt60_ms']:>8g} {label:>8} "
                f"{row['stage1_sir_db'][key]:>12.2f} {row['final_sir_db'][key]:>12.2f}"
            )


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    report = run_sweep(config, args.rt60, Path(args.out), seed=args.seed)
    _print_sweep_table(report)
    print(f"wrote per-RT artifacts and sweep_report.json to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbss",
        description="Two-microphone convolutive blind speech separation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sep = sub.add_parser("separate", help="separate a 2-channel mixture WAV")
    p_sep.add_argument("mixture", help="2-channel mixture WAV file")
    p_sep.add_argument("--config", default=None, help="flat key=value config file")
    p_sep.add_argument("--out", required=True, help="output directory")
    p_sep.set_defaults(func=cmd_separate)

    p_sim = sub.add_parser("simulate", help="render a room mixture with ground truth")
    p_sim.add_argument("sources", nargs="*", help="two mono source WAV files")
    p_sim.add_argument("--synthetic", action="store_true", help="generate AM-noise sources")
    p_sim.add_argument("--rt60", type=float, default=None, help="reverberation time in ms")
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="score two estimates")
    p_eval.add_argument("estimates", nargs=2, help="two mono estimate WAV files")
    mode = p_eval.add_mutually_exclusive_group(required=True)
    mode.add_argument("--references", nargs=2, default=None, help="two mono reference WAVs")
    mode.add_argument(
        "--segments",
        type=_parse_segments,
        default=None,
        help="start1:end1,start2:end2 sample indices",
    )
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="synthetic RT60 sweep with evaluation")
    p_sweep.add_argument(
        "--rt60",
        type=_parse_rt60_list,
        required=True,
        help="comma-separated RT60 list in ms",
    )
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
