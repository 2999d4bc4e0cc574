"""Command-line front end: separate, simulate, evaluate, sweep.

Commands parse arguments, read files, leave the work and every report's
contents to `pipeline`, then write WAV artifacts plus a versioned JSON
report and print.  Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bsseval import SegmentAnnotation
from .config import ConfigError, PipelineConfig, default_config, load_config
from .pipeline import (
    SimulatedScene,
    evaluate_outputs,
    evaluation_report,
    output_waves,
    scene_manifest,
    scene_waves,
    separate_recording,
    separation_report,
    simulate_scene,
    sweep_report,
    sweep_row,
    synthetic_sources,
)
from .signals import MultichannelRecording, Waveform, read_wav, write_wav

# Unused here, but bench/tracer.py wraps it by its name in this module's
# namespace, so it stays importable from cli.
from .bsseval import project_decompose  # noqa: F401


def _write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_mono(waves: dict[str, Waveform], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, wave in waves.items():
        write_wav(MultichannelRecording((wave,)), out_dir / name)


def _read_mono(path: str, role: str) -> Waveform:
    recording = read_wav(path)
    if recording.n_channels != 1:
        raise ValueError(f"{role} {path} must be mono")
    return recording.channels[0]


def cmd_separate(args: argparse.Namespace, config: PipelineConfig) -> int:
    result = separate_recording(read_wav(args.mixture), config)
    out_dir = Path(args.out)
    _write_mono(output_waves(result), out_dir)
    _write_report(separation_report(config, result, str(args.mixture)), out_dir / "report.json")
    print(f"wrote separation outputs and report.json to {out_dir}")
    return 0


def _write_scene(scene: SimulatedScene, out_dir: Path) -> None:
    _write_mono(scene_waves(scene), out_dir)
    write_wav(scene.mixture, out_dir / "mixture.wav")
    (out_dir / "manifest.txt").write_text(scene_manifest(scene), encoding="utf-8")


def cmd_simulate(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.synthetic and args.sources:
        raise ValueError("give either --synthetic or two source files, not both")
    if not args.synthetic and len(args.sources) != 2:
        raise ValueError("simulation needs two source WAV files (or --synthetic)")
    sources = None if args.synthetic else tuple(_read_mono(path, "source") for path in args.sources)
    if args.seed is not None:
        config = config.with_settings(seed=args.seed)
    scene = simulate_scene(config, rt60_ms=args.rt60, sources=sources)
    _write_scene(scene, Path(args.out))
    print(f"wrote mixture, images, and manifest.txt to {args.out}")
    return 0


def _parse_segments(raw: str) -> SegmentAnnotation:
    parts = [part.partition(":") for part in raw.split(",")]
    try:  # unpacking fails on any count of parts but two
        first, second = [(int(start), int(end)) for start, _, end in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad segments {raw!r}; expected start1:end1,start2:end2"
        ) from exc
    try:
        return SegmentAnnotation(first, second)
    except ValueError as exc:  # well formed, but empty or overlapping
        raise argparse.ArgumentTypeError(f"bad segments {raw!r}: {exc}") from exc


def _parse_seed(raw: str) -> int:
    try:  # the config file's own rule for its seed key
        return PipelineConfig({"seed": raw}).seed
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rt_dir_name(rt60: float) -> str:
    return f"rt{int(round(rt60)):03d}"


def _parse_rt60(raw: str) -> float:
    try:  # float() takes surrounding whitespace itself
        value = float(raw)
        if math.isfinite(value) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad rt60 {raw!r}: not a finite, non-negative number of ms")


def _parse_rt60_list(raw: str) -> list[float]:
    values = [_parse_rt60(part) for part in raw.split(",")]
    # Each row writes into its own rtNNN directory, so two values that round
    # alike would overwrite one another's files.
    seen: dict[str, float] = {}
    for value in values:
        name = _rt_dir_name(value)
        if name in seen:
            raise argparse.ArgumentTypeError(
                f"rt60 values {seen[name]:g} and {value:g} in {raw!r} would both write {name}/"
            )
        seen[name] = value
    return values


def _check_taps(config: PipelineConfig, length: int, signals: str) -> int:
    """The config's evaluation filter taps, refused if longer than the `length` samples
    of the scored `signals`."""
    taps = config.decomp_filter_taps
    if taps > length:  # the config's load refused taps below 1
        raise ValueError(
            f"decomp_filter_taps = {taps} must lie in [1, {length}], "
            f"the length of {signals} in samples"
        )
    return taps


def cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    estimates = tuple(_read_mono(path, "estimate") for path in args.estimates)
    if estimates[0].sample_rate != estimates[1].sample_rate:  # the scorers check lengths
        raise ValueError("estimates must share one sample rate")

    evaluation = None
    if args.references is not None:
        refs = tuple(_read_mono(path, "reference") for path in args.references)
        taps = _check_taps(config, len(refs[0]), "the references")
        # Estimate i is scored against the references with reference i as its target.
        evaluation = evaluate_outputs(estimates, (refs, refs), taps, permutation=(0, 1))
        if any(d.regularized for d in evaluation.decompositions):
            print(
                "warning: the references are degenerate (one is silent or a scaled copy of "
                "the other); the metrics are not meaningful",
                file=sys.stderr,
            )
    report = evaluation_report(config, estimates, evaluation, args.segments)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out is not None:
        _write_report(report, Path(args.out) / "report.json")
    return 0


def _sweep_row(config: PipelineConfig, sources: tuple[Waveform, Waveform], rt_dir: Path) -> dict:
    """Simulate the scene of a row's config from `sources`, separate, score and write
    it; returns its row.

    Its own function so that the row's scene, outputs and decompositions are
    released before the next row is simulated.
    """
    scene = simulate_scene(config, sources=sources)
    _write_scene(scene, rt_dir)
    result = separate_recording(scene.mixture, config)
    _write_mono(output_waves(result), rt_dir)
    row, report = sweep_row(config, scene, result)
    _write_report(report, rt_dir / "report.json")
    return row


def run_sweep(
    config: PipelineConfig,
    rt60_values: list[float],
    out_dir: Path,
    seed: int | None = None,
) -> dict:
    """Simulate, separate, and evaluate one synthetic scene per RT60 value, each
    under the config with that RT60 and with `seed`, when given, as its seed.
    Every row convolves the same synthetic source pair, made once.  Smoothing bands
    that do not fit at `synth_sample_rate`, and filter taps longer than a row's
    scored signals, are refused before anything is written."""
    if seed is not None:
        config = config.with_settings(seed=seed)
    config.smoothing_params(config.settings["synth_sample_rate"])
    sources = synthetic_sources(config)
    row_configs = [config.with_settings(rt60_ms=rt60) for rt60 in rt60_values]
    for c in row_configs:  # a row scores its images: the sources through the row's RIRs
        length = len(sources[0]) + c.room_spec(sources[0].sample_rate).rir_length - 1
        _check_taps(config, length, f"the scored signals at rt60 {c.rt60_ms:g} ms")
    rows = [_sweep_row(c, sources, out_dir / _rt_dir_name(c.rt60_ms)) for c in row_configs]
    report = sweep_report(config, rows)
    _write_report(report, out_dir / "sweep_report.json")
    return report


def _print_sweep_table(report: dict) -> None:
    print(f"{'rt60 ms':>8} {'signal':>8} {'stage1 SIR':>12} {'final SIR':>12}")
    for row in report["rows"]:
        for label, key in (("1", "signal_1"), ("2", "signal_2"), ("avg", "average")):
            print(
                f"{row['rt60_ms']:>8g} {label:>8} "
                f"{row['stage1_sir_db'][key]:>12.2f} {row['final_sir_db'][key]:>12.2f}"
            )


def cmd_sweep(args: argparse.Namespace, config: PipelineConfig) -> int:
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
    p_sim.add_argument("--rt60", type=_parse_rt60, default=None, help="reverberation time in ms")
    p_sim.add_argument("--config", default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=_parse_seed, default=None)
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
    p_sweep.add_argument("--seed", type=_parse_seed, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = default_config() if args.config is None else load_config(args.config)
        return args.func(args, config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
