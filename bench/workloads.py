"""The benchmark's workloads: generated inputs, timed operations, checks.

Each workload makes its inputs from the seed in `setup`, runs one round of
operations in `run` (the only timed part) and checks a round's outputs in
`check`, which returns one failure message (or None) per operation.  The
checks are computed here, apart from the program, or test a property the
method must have; none compares against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from cbss.cli import main as cli_main
from cbss.config import PipelineConfig
from cbss.pipeline import evaluate_outputs, simulate_scene
from cbss.signals import MultichannelRecording, Waveform, write_wav

# The acceptance suite's SWEEP_CONFIG; the solver keeps its default tolerance.
SWEEP_SETTINGS = {
    "dft_length": 2048,
    "overlap_factor": 0.75,
    "filter_support": 512,
    "block_count": 8,
    "max_iters": 200,
    "room_height": 3.0,
    "room_width": 3.0,
    "room_depth": 3.0,
    "synth_duration_s": 10.0,
    "synth_sample_rate": 10000,
}
SWEEP_RT60S = (100, 200, 400)
# Every round sweeps one fixed scene over SWEEP_RT60S, whatever the seed.
# Its 400 ms row fails the masking-gain check (final SIR 0.16 dB against
# stage-1 1.28 dB), a fault of the masking stage.  The scene made from the
# seed is swept over 100 and 150 ms only: at 400 ms the check fails on some
# scenes and passes on others, and at 200 ms the solver stops anywhere from
# 34 to 200 iterations with the scene, which alone spread the round time
# across ten seeds by a quarter of its median.
FIXED_SCENE_SEED = 1
FIXED_FAULT_RT60 = 400
SEEDED_RT60S = (100, 150)
# The default settings, except that every solve runs the full 200
# iterations (tolerance 0): with the default tolerance the 60 s solve stops
# at 65-74 iterations on some seeds and at 170-200 on the rest.
SEPARATE_SETTINGS = {
    "dft_length": 2048,
    "overlap_factor": 0.75,
    "filter_support": 512,
    "block_count": 8,
    "max_iters": 200,
    "tolerance": 0.0,
}
LONG_DURATION_S = 60.0
LONG_RT60_MS = 200.0
EVAL_DURATION_S = 30.0
EVAL_TAPS = 512
# (mic, known permutation, interferer gain per estimate); the second pair
# is handed over in swapped order.
EVAL_PAIRS = ((0, (0, 1), (0.1, 0.3)), (1, (1, 0), (0.3, 0.1)))
EVAL_NOISE = 0.01  # white-noise rms relative to the target image's rms
EVAL_SIR_TOL_DB = 0.1
EVAL_SUM_TOL = 1e-9
EVAL_ORTHO_TOL = 1e-6
ENVELOPE_FRAME = 1000  # samples, 100 ms at 10 kHz


def _write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; returns its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _read_mono(path: Path) -> np.ndarray:
    _, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path.name} has {data.shape[1]} channels, expected mono")
    return data.astype(np.float64)


def _frame_power_db(x: np.ndarray, n_frames: int) -> np.ndarray:
    frames = x[: n_frames * ENVELOPE_FRAME].reshape(n_frames, ENVELOPE_FRAME)
    return 10.0 * np.log10(np.mean(frames**2, axis=1) + 1e-20)


class KnownFault(str):
    """A check failure caused by a fault of the program that shows in every
    round on inputs that do not depend on the seed: it counts as a failed
    operation but does not make the run incorrect."""


class Sweep:
    """`cbss sweep` in the acceptance suite's room: a fixed scene over 100,
    200 and 400 ms and a scene made from the seed over 100 and 150 ms."""

    name = "sweep"
    ops_per_round = len(SWEEP_RT60S) + len(SEEDED_RT60S)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        # gen_am_source draws a scene's two sources from seeds s and s + 1,
        # so seeded scenes (odd s >= 3) share no source with the fixed one.
        self.scenes = ((FIXED_SCENE_SEED, SWEEP_RT60S), (2 * seed + 3, SEEDED_RT60S))
        self.rows: list[dict] = []

    def _config_path(self, scene_seed: int) -> Path:
        return self.workdir / f"sweep-{scene_seed}.cfg"

    def setup(self) -> None:
        for scene_seed, _ in self.scenes:
            _write_config(self._config_path(scene_seed), {**SWEEP_SETTINGS, "seed": scene_seed})

    def run(self, k: int):
        results = []
        for scene_seed, rt60s in self.scenes:
            out = self.workdir / f"sweep{k}-{scene_seed}"
            config = str(self._config_path(scene_seed))
            argv = ["sweep", "--rt60", ",".join(map(str, rt60s)), "--config", config, "--out", str(out)]
            code, _ = _cli(argv)
            results.append((code, out))
        return results

    def check(self, results) -> list[str | None]:
        failures = []
        self.rows = []
        for (code, out), (scene_seed, rt60s) in zip(results, self.scenes):
            failures.extend(self._check_scene(code, out, scene_seed, rt60s))
        return failures

    def _check_scene(self, code: int, out: Path, scene_seed: int, rt60s) -> list[str | None]:
        try:
            if code != 0:
                return [f"cbss sweep exited {code}"] * len(rt60s)
            report = json.loads((out / "sweep_report.json").read_text(encoding="utf-8"))
            rows = report["rows"]
            if [row["rt60_ms"] for row in rows] != [float(rt) for rt in rt60s]:
                return ["sweep report rows do not match the RT60 list"] * len(rt60s)
            self.rows.extend(rows)
            fixed = scene_seed == FIXED_SCENE_SEED
            return [self._check_row(out, rows, i, fixed) for i in range(len(rows))]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _check_row(out: Path, rows: list[dict], i: int, fixed: bool) -> str | None:
        row = rows[i]
        rt = int(round(row["rt60_ms"]))
        sir_in = row["input_sir_db"]["average"]
        stage1 = row["stage1_sir_db"]["average"]
        final = row["final_sir_db"]["average"]
        if not stage1 > sir_in:
            return f"rt60 {rt}: stage-1 SIR {stage1:.2f} <= input SIR {sir_in:.2f}"
        if i > 0:
            prev = rows[i - 1]
            if not stage1 < prev["stage1_sir_db"]["average"]:
                return f"rt60 {rt}: stage-1 SIR does not fall from the shorter RT60"
            if not final < prev["final_sir_db"]["average"]:
                return f"rt60 {rt}: final SIR does not fall from the shorter RT60"
        if not row["solver"]["final_cost"] <= row["solver"]["initial_cost"]:
            return f"rt60 {rt}: solver cost rose"
        wavs = sorted((out / f"rt{rt:03d}").glob("*.wav"))
        if len(wavs) != 11:
            return f"rt60 {rt}: {len(wavs)} WAV files written, expected 11"
        if not final >= stage1 + 1.0:
            message = f"rt60 {rt}: final SIR {final:.2f} < stage-1 {stage1:.2f} + 1 dB"
            return KnownFault(message) if fixed and rt == FIXED_FAULT_RT60 else message
        return None

    def quality(self) -> tuple[float, float]:
        return (
            float(np.mean([row["stage1_sir_db"]["average"] for row in self.rows])),
            float(np.mean([row["final_sir_db"]["average"] for row in self.rows])),
        )


class SeparateLong:
    """`cbss separate` on a 60 s two-channel mixture written in set-up."""

    name = "separate_long"
    ops_per_round = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.mixture_path = workdir / "mixture.wav"
        self.config_path = workdir / "separate.cfg"
        self.out = workdir / "separated"
        self.scene = None

    def setup(self) -> None:
        config = PipelineConfig({"synth_duration_s": LONG_DURATION_S, "seed": self.seed})
        self.scene = simulate_scene(config, rt60_ms=LONG_RT60_MS)
        write_wav(self.scene.mixture, self.mixture_path)
        _write_config(self.config_path, SEPARATE_SETTINGS)

    def run(self, k: int):
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["separate", str(self.mixture_path), "--config", str(self.config_path), "--out", str(self.out)]
        code, _ = _cli(argv)
        return code

    def _outputs(self) -> dict[str, np.ndarray]:
        return {
            name: _read_mono(self.out / f"{name}.wav")
            for name in ("stage1_1", "stage1_2", "final_1", "final_2")
        }

    def check(self, code) -> list[str | None]:
        if code != 0:
            return [f"cbss separate exited {code}"]
        n = self.scene.mixture.n_samples
        outputs = self._outputs()
        for name, x in outputs.items():
            if len(x) != n:
                return [f"{name}.wav has {len(x)} samples, the input {n}"]
            if not np.all(np.isfinite(x)):
                return [f"{name}.wav holds non-finite samples"]
        n_frames = len(self.scene.sources[0]) // ENVELOPE_FRAME
        sources = [_frame_power_db(s.samples, n_frames) for s in self.scene.sources]
        follows = []
        for name in ("final_1", "final_2"):
            env = _frame_power_db(outputs[name], n_frames)
            corr = [np.corrcoef(env, src)[0, 1] for src in sources]
            follows.append(int(np.argmax(corr)))
        if follows[0] == follows[1]:
            return [f"both final outputs follow source {follows[0] + 1}'s envelope"]
        return [None]

    def quality(self) -> tuple[float, float]:
        """Average SIR of the last round's outputs, scored untimed."""
        outputs = self._outputs()
        rate = self.scene.mixture.sample_rate
        stage1 = tuple(Waveform(outputs[f"stage1_{i}"], rate) for i in (1, 2))
        final = tuple(Waveform(outputs[f"final_{i}"], rate) for i in (1, 2))
        first = evaluate_outputs(stage1, self.scene.images, EVAL_TAPS)
        last = evaluate_outputs(final, self.scene.images, EVAL_TAPS, permutation=first.permutation)
        return first.average_sir, last.average_sir


class Evaluate:
    """Scores known estimate pairs through both reference-based entry points."""

    name = "evaluate"
    ops_per_round = 2 * len(EVAL_PAIRS)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "evaluate.cfg"
        self.pairs: list[dict] = []
        self.sirs: tuple[list[float], list[float]] = ([], [])

    def setup(self) -> None:
        config = PipelineConfig(
            {"synth_duration_s": EVAL_DURATION_S, "decomp_filter_taps": EVAL_TAPS, "seed": self.seed}
        )
        scene = simulate_scene(config)
        rng = np.random.default_rng([self.seed, 1])
        rate = scene.mixture.sample_rate
        _write_config(self.config_path, {"decomp_filter_taps": EVAL_TAPS})
        self.pairs = []
        for p, (mic, perm, gains) in enumerate(EVAL_PAIRS):
            images = scene.images[mic]
            estimates, refs, expected = [], [], []
            for out, gain in enumerate(gains):
                target = images[perm[out]].samples
                interferer = images[1 - perm[out]].samples
                noise = EVAL_NOISE * np.sqrt(np.mean(target**2)) * rng.standard_normal(len(target))
                estimates.append(Waveform(target + gain * interferer + noise, rate))
                refs.append(images[perm[out]])
                expected.append(10.0 * math.log10(np.sum(target**2) / (gain**2 * np.sum(interferer**2))))
            paths = []
            for kind, waves in (("est", estimates), ("ref", refs)):
                for i, wave in enumerate(waves, start=1):
                    paths.append(str(self.workdir / f"pair{p}_{kind}{i}.wav"))
                    write_wav(MultichannelRecording((wave,)), paths[-1])
            self.pairs.append(
                {
                    "estimates": tuple(estimates),
                    "images": (images, images),
                    "permutation": perm,
                    "expected_sir": expected,
                    "argv": ["evaluate", *paths[:2], "--references", *paths[2:], "--config", str(self.config_path)],
                }
            )

    def run(self, k: int):
        results = []
        for pair in self.pairs:
            results.append(_attempt(evaluate_outputs, pair["estimates"], pair["images"], EVAL_TAPS))
            results.append(_attempt(_cli, pair["argv"]))
        return results

    def check(self, results) -> list[str | None]:
        failures = []
        self.sirs = ([], [])
        for p, pair in enumerate(self.pairs):
            free, cli = results[2 * p], results[2 * p + 1]
            failures.append(_guard(self._check_free, p, pair, free))
            failures.append(_guard(self._check_cli, p, pair, cli))
        return failures

    def _check_free(self, p: int, pair: dict, evaluation) -> str | None:
        if tuple(evaluation.permutation) != pair["permutation"]:
            return f"pair {p}: permutation {evaluation.permutation}, known {pair['permutation']}"
        for out, decomp in enumerate(evaluation.decompositions):
            est = pair["estimates"][out].samples
            refs = (
                pair["images"][out][pair["permutation"][out]].samples,
                pair["images"][out][1 - pair["permutation"][out]].samples,
            )
            message = _check_decomposition(decomp, est, refs)
            if message:
                return f"pair {p} output {out + 1}: {message}"
        message = _check_sirs(evaluation.sir, pair["expected_sir"])
        if message:
            return f"pair {p}: {message}"
        self.sirs[0].extend(evaluation.sir)
        return None

    def _check_cli(self, p: int, pair: dict, raw) -> str | None:
        code, stdout = raw
        if code != 0:
            return f"pair {p}: cbss evaluate exited {code}"
        report = json.loads(stdout)
        if report["mode"] != "reference" or any(report["regularized"]):
            return f"pair {p}: unexpected report mode or regularized projection"
        message = _check_sirs(report["sir_db"], pair["expected_sir"])
        if message:
            return f"pair {p} (cli): {message}"
        self.sirs[1].extend(report["sir_db"])
        return None

    def quality(self) -> tuple[float, float]:
        return float(np.mean(self.sirs[0])), float(np.mean(self.sirs[1]))


def _attempt(fn, *args):
    """Call fn; an exception becomes the result so the round goes on."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        return exc


def _guard(check, p: int, pair: dict, result) -> str | None:
    if isinstance(result, Exception):
        return f"pair {p}: {type(result).__name__}: {result}"
    try:
        return check(p, pair, result)
    except (KeyError, ValueError) as exc:
        return f"pair {p}: unreadable result: {exc}"


def _check_sirs(measured, expected) -> str | None:
    for got, want in zip(measured, expected):
        if not abs(got - want) <= EVAL_SIR_TOL_DB:
            return f"SIR {got:.3f} dB, closed form {want:.3f} dB"
    return None


def _check_decomposition(decomp, est: np.ndarray, refs) -> str | None:
    """Components sum to the padded estimate; the artifact is orthogonal
    to the delayed references (direct correlation at a sample of lags)."""
    taps = decomp.filter_taps
    padded = np.pad(est, (0, taps - 1))
    parts = decomp.target.samples + decomp.interference.samples + decomp.artifact.samples
    if len(parts) != len(padded):
        return f"components have {len(parts)} samples, expected {len(padded)}"
    if not np.max(np.abs(parts - padded)) <= EVAL_SUM_TOL * np.max(np.abs(est)):
        return "target + interference + artifact differs from the estimate"
    artifact = decomp.artifact.samples
    n = len(est)
    for ref in refs:
        scale = np.linalg.norm(artifact) * np.linalg.norm(ref)
        for lag in (0, 1, 2, 37, taps // 2, taps - 2, taps - 1):
            corr = float(np.dot(artifact[lag : lag + n], ref))
            if not abs(corr) <= EVAL_ORTHO_TOL * scale:
                return f"artifact correlates with a reference at lag {lag}: {corr / scale:.2e}"
    return None


WORKLOADS = {cls.name: cls for cls in (Sweep, SeparateLong, Evaluate)}
