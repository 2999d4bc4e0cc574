"""Spans and counts around the public calls of the cbss modules.

Tracing is done from outside the package: `Tracer.installed()` replaces
each name listed in `WRAPPED` in the namespace of the module that calls
it (``cbss.cli``, ``cbss.pipeline``, ``cbss.jointdiag``, ``cbss.roomsim``
or the benchmark's own ``workloads``) with a timing wrapper, and puts the
originals back on exit.  Spans are kept in memory with their parent link,
the phase they ran in (a set-up repeat or a timed round) and the rise of
the process high-water mark (``getrusage``) across the call;
`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import time
import types
from collections import defaultdict
from dataclasses import asdict, dataclass


def max_rss_kb() -> int:
    """High-water mark of this process's resident set, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    rss_rise_kb: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_frames(tracer, args, result):
    tracer.add("stft.frames", result.n_frames)


def _count_iterations(tracer, args, result):
    tracer.add("jointdiag.solves", 1)
    tracer.add("jointdiag.iterations", result[1].iterations)


def _count_regularized(tracer, args, result):
    tracer.add("bsseval.regularized", int(result.regularized))


def _count_bytes(tracer, args, result):
    tracer.add("signals.bytes_written", os.path.getsize(args[1]))


def _count_source_images(tracer, args, result):
    tracer.add("roomsim.source_image_calls", 1)


# (calling module, name in its namespace, span name, hook run on the result).
# A span name of None counts calls under the hook's counter without a span.
WRAPPED = (
    ("workloads", "cli_main", "cli.main", None),
    ("workloads", "evaluate_outputs", "pipeline.evaluate_outputs", None),
    ("workloads", "simulate_scene", "pipeline.simulate_scene", None),
    ("cli", "load_config", "config.load_config", None),
    ("cli", "read_wav", "signals.read_wav", None),
    ("cli", "write_wav", "signals.write_wav", _count_bytes),
    ("cli", "separate_recording", "pipeline.separate_recording", None),
    ("cli", "simulate_scene", "pipeline.simulate_scene", None),
    ("cli", "evaluate_outputs", "pipeline.evaluate_outputs", None),
    ("cli", "project_decompose", "bsseval.project_decompose", _count_regularized),
    ("pipeline", "analyze", "stft.analyze", _count_frames),
    ("pipeline", "synthesize", "stft.synthesize", None),
    ("pipeline", "estimate_block_covariances", "jointdiag.estimate_block_covariances", None),
    ("pipeline", "solve_unmixing", "jointdiag.solve_unmixing", _count_iterations),
    ("pipeline", "apply_unmixing", "jointdiag.apply_unmixing", None),
    ("pipeline", "estimate_binary_masks", "masking.estimate_binary_masks", None),
    ("pipeline", "apply_mask", "masking.apply_mask", None),
    ("pipeline", "isolated_unit_fraction", "masking.isolated_unit_fraction", None),
    ("pipeline", "smooth_mask", "cepsmooth.smooth_mask", None),
    ("pipeline", "project_decompose", "bsseval.project_decompose", _count_regularized),
    ("pipeline", "gen_am_source", "signals.gen_am_source", None),
    ("pipeline", "source_images", "roomsim.source_images", _count_source_images),
    ("pipeline", "convolve_mix", "roomsim.convolve_mix", None),
    ("roomsim", "source_images", None, _count_source_images),
    ("jointdiag", "cost", None, lambda tracer, args, result: tracer.add("jointdiag.cost_evals", 1)),
)


class Tracer:
    """Records spans and counters; `phase` tags everything recorded next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup0"
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, name: str | None, fn, hook=None):
        """A stand-in for `fn` that records a span (or only runs `hook`)."""
        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(self, args, result)
                self.add("trace.counted_calls", 1)
                return result

            return counted

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.phase, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss = max_rss_kb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_kb = max_rss_kb() - rss
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict[str, types.ModuleType]):
        """Swap every `WRAPPED` name for its wrapper while the block runs."""
        originals = []
        try:
            for module_name, attr, span_name, hook in WRAPPED:
                module = modules[module_name]
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, hook))
            bank = modules["pipeline"].ImpulseResponseBank
            originals.append((modules["pipeline"], "ImpulseResponseBank", bank))
            # pipeline only calls ImpulseResponseBank.from_room.
            modules["pipeline"].ImpulseResponseBank = types.SimpleNamespace(
                from_room=self.wrap("roomsim.from_room", bank.from_room)
            )
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        payload = {
            "spans": [asdict(s) for s in self.spans],
            "counts": [
                {"phase": phase, "name": name, "value": value}
                for (phase, name), value in sorted(self.counts.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


# Per-layer metric -> (unit, the spans it is measured from).  A metric whose
# spans never run in a timed round is read from the set-up repeats (the
# simulator on separate_long and evaluate); one whose spans run in neither
# reads 0.
SOLVE = ("jointdiag.solve_unmixing",)
DECOMPOSE = ("bsseval.project_decompose",)
PER_LAYER = {
    "jointdiag.covariances_ms": ("ms", ("jointdiag.estimate_block_covariances",)),
    "jointdiag.solve_ms": ("ms", SOLVE),
    "jointdiag.iterations": ("count", SOLVE),
    "jointdiag.ms_per_iter": ("ms", SOLVE),
    "jointdiag.cost_evals": ("count", SOLVE),
    "jointdiag.accept_ratio": ("ratio", SOLVE),
    "jointdiag.unmix_ms": ("ms", ("jointdiag.apply_unmixing",)),
    "bsseval.decompose_ms": ("ms", DECOMPOSE),
    "bsseval.decompositions": ("count", DECOMPOSE),
    "bsseval.ms_per_decomposition": ("ms", DECOMPOSE),
    "bsseval.regularized": ("count", DECOMPOSE),
    "stft.analyze_ms": ("ms", ("stft.analyze",)),
    "stft.synthesize_ms": ("ms", ("stft.synthesize",)),
    "stft.frames": ("count", ("stft.analyze",)),
    "cepsmooth.smooth_ms": ("ms", ("cepsmooth.smooth_mask",)),
    "masking.masks_ms": (
        "ms",
        ("masking.estimate_binary_masks", "masking.apply_mask", "masking.isolated_unit_fraction"),
    ),
    "roomsim.rir_ms": ("ms", ("roomsim.from_room",)),
    "roomsim.convolve_ms": ("ms", ("roomsim.source_images", "roomsim.convolve_mix")),
    "roomsim.source_image_calls": ("count", ("roomsim.source_images",)),
    "signals.read_wav_ms": ("ms", ("signals.read_wav",)),
    "signals.write_wav_ms": ("ms", ("signals.write_wav",)),
    "signals.bytes_written": ("B", ("signals.write_wav",)),
    "pipeline.separate_self_ms": ("ms", ("pipeline.separate_recording",)),
    "pipeline.evaluate_self_ms": ("ms", ("pipeline.evaluate_outputs",)),
    "pipeline.simulate_self_ms": ("ms", ("pipeline.simulate_scene",)),
    "cli.self_ms": ("ms", ("cli.main",)),
    "config.load_ms": ("ms", ("config.load_config",)),
}
SELF_TIMED = {
    "pipeline.separate_self_ms",
    "pipeline.evaluate_self_ms",
    "pipeline.simulate_self_ms",
    "cli.self_ms",
}
COUNTED = {"jointdiag.iterations", "jointdiag.cost_evals", "bsseval.regularized",
           "stft.frames", "roomsim.source_image_calls", "signals.bytes_written"}
DERIVED = {"jointdiag.ms_per_iter", "jointdiag.accept_ratio",
           "bsseval.decompositions", "bsseval.ms_per_decomposition"}
RSS_LAYERS = ("stft", "jointdiag", "cepsmooth", "bsseval", "roomsim")
RUN_METRICS = {
    "trace.overhead_ms": "ms",
    "trace.self_share": "ratio",
    **{f"{layer}.rss_rise_mb": "MB" for layer in RSS_LAYERS},
}
UNITS = {**{name: unit for name, (unit, _) in PER_LAYER.items()}, **RUN_METRICS}


def _phase_metrics(tracer: Tracer, own: list[float], phase: str) -> tuple[dict, dict]:
    """Metric values from one phase, and the calls per span name in it."""
    total: dict[str, float] = defaultdict(float)
    own_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own_s in zip(tracer.spans, own):
        if span.phase == phase:
            total[span.name] += span.seconds
            own_total[span.name] += own_s
            calls[span.name] += 1
    count = defaultdict(float, {name: v for (p, name), v in tracer.counts.items() if p == phase})

    out = {}
    for name, (_, spans) in PER_LAYER.items():
        if name in DERIVED:
            continue
        if name in COUNTED:
            out[name] = count[name]
        elif name in SELF_TIMED:
            out[name] = 1e3 * own_total[spans[0]]
        else:
            out[name] = 1e3 * sum(total[s] for s in spans)
    iterations = out["jointdiag.iterations"]
    # Each solve costs its start point once, then once per line-search attempt.
    attempts = out["jointdiag.cost_evals"] - count["jointdiag.solves"]
    out["jointdiag.ms_per_iter"] = out["jointdiag.solve_ms"] / iterations if iterations else 0.0
    out["jointdiag.accept_ratio"] = iterations / attempts if attempts else 0.0
    out["bsseval.decompositions"] = float(calls["bsseval.project_decompose"])
    n_dec = out["bsseval.decompositions"]
    out["bsseval.ms_per_decomposition"] = out["bsseval.decompose_ms"] / n_dec if n_dec else 0.0
    out["trace.self_seconds"] = sum(own_total.values())
    return out, calls


def wrapper_cost_s(calls: int = 5000, repeats: int = 5) -> tuple[float, float]:
    """Cost in seconds of one span-recording and one counting wrapper call
    around a function that does nothing (medians over `repeats`)."""
    tracer = Tracer()

    def noop():
        return None

    def per_call(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - t0) / calls)
        return statistics.median(times)

    base = per_call(noop)
    span = per_call(tracer.wrap("noop", noop))
    counted = per_call(tracer.wrap(None, noop, lambda t, args, result: t.add("noop", 1)))
    return span - base, counted - base


def layer_metrics(
    tracer: Tracer,
    setup_phases: list[str],
    round_phases: list[str],
    round_s: list[float],
) -> dict[str, float]:
    """Per-layer metrics: medians over traced rounds (or set-up repeats)."""
    own = tracer.self_seconds()
    rounds = [_phase_metrics(tracer, own, phase) for phase in round_phases]
    setups = [_phase_metrics(tracer, own, phase) for phase in setup_phases]

    out: dict[str, float] = {}
    for name, (_, spans) in PER_LAYER.items():
        in_rounds = any(calls[s] for _, calls in rounds for s in spans)
        in_setup = any(calls[s] for _, calls in setups for s in spans)
        phases = setups if in_setup and not in_rounds else rounds
        out[name] = statistics.median(values[name] for values, _ in phases)

    out["trace.self_share"] = statistics.median(
        values["trace.self_seconds"] / wall for (values, _), wall in zip(rounds, round_s)
    )
    # The difference of a traced and an untraced round is host noise many
    # times the tracing cost, so the cost is counted instead: wrapper calls
    # in a round times the measured cost of one empty wrapper call.
    span_s, counted_s = wrapper_cost_s()
    overheads = []
    for phase, (_, calls) in zip(round_phases, rounds):
        counted = tracer.counts.get((phase, "trace.counted_calls"), 0.0)
        overheads.append(sum(calls.values()) * span_s + counted * counted_s)
    out["trace.overhead_ms"] = 1e3 * statistics.median(overheads)
    for layer in RSS_LAYERS:
        rise = sum(s.rss_rise_kb for s in tracer.spans if s.name.startswith(layer + "."))
        out[f"{layer}.rss_rise_mb"] = rise / 1024.0
    return out
