import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import cbss
from cbss import cli, pipeline
from cbss.cli import main, run_sweep
from cbss.config import DEFAULTS, SEPARATION_KEYS, ConfigError, load_config
from cbss.jointdiag import TERMINATIONS
from cbss.pipeline import simulate_scene
from cbss.signals import MultichannelRecording, Waveform, gen_am_source, read_wav, write_wav

FAST_CONFIG = """
dft_length = 512
overlap_factor = 0.75
filter_support = 128
block_count = 4
max_iters = 40
room_height = 3.0
room_width = 3.0
room_depth = 3.0
synth_duration_s = 2.0
synth_sample_rate = 8000
seed = 0
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def _run(argv):
    return main(argv)


def _modules_after(code: str, prefixes: tuple[str, ...] = ("scipy",)) -> list[str]:
    """The `prefixes` modules that a fresh interpreter has loaded once `code` has run."""
    listing = f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))"
    src = str(Path(cbss.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{listing}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_imports_without_scipy():
    # Nor logging or concurrent.futures (see pipeline._two_halves): every cold
    # start of the command line would pay for them.
    prefixes = ("scipy", "logging", "concurrent")
    assert _modules_after("import cbss, cbss.cli", prefixes) == []


def test_simulate_and_separate_load_no_scipy(tmp_path, fast_cfg):
    scene, out = tmp_path / "scene", tmp_path / "out"
    argvs = [
        ["simulate", "--synthetic", "--config", fast_cfg, "--out", str(scene)],
        ["separate", str(scene / "mixture.wav"), "--config", fast_cfg, "--out", str(out)],
    ]
    run = f"from cbss.cli import main\nif any(main(a) for a in {argvs!r}):\n    sys.exit(1)"
    assert _modules_after(run) == []
    assert (out / "final_2.wav").exists()


def test_simulate_writes_scene_files(tmp_path, fast_cfg):
    out = tmp_path / "scene"
    code = _run(
        ["simulate", "--synthetic", "--rt60", "150", "--config", fast_cfg, "--out", str(out)]
    )
    assert code == 0
    mixture = read_wav(out / "mixture.wav")
    assert mixture.n_channels == 2
    assert mixture.sample_rate == 8000
    for name in ("source_1.wav", "source_2.wav"):
        assert read_wav(out / name).n_channels == 1
    for mic in (1, 2):
        for src in (1, 2):
            assert (out / f"image_m{mic}_s{src}.wav").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "rt60_ms = 150.0" in manifest
    assert "mixture = mixture.wav" in manifest


def test_simulate_rejects_source_file_conflicts(tmp_path, fast_cfg):
    out = tmp_path / "scene"
    code = _run(
        [
            "simulate",
            "a.wav",
            "b.wav",
            "--synthetic",
            "--config",
            fast_cfg,
            "--out",
            str(out),
        ]
    )
    assert code == 1
    code = _run(["simulate", "only_one.wav", "--config", fast_cfg, "--out", str(out)])
    assert code == 1


def test_simulate_rejects_oversized_rir(tmp_path, capsys):
    tracemalloc.start()
    try:
        code = _run(["simulate", "--synthetic", "--rt60", "1e9", "--out", str(tmp_path / "s")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "rt60 1e+09 ms" in err[0] and "cap" in err[0]
    # only the two 5 s synthetic sources exist, no part of the 1.5e10-sample RIR
    assert peak < 16e6


def test_separate_happy_path_is_deterministic(tmp_path, fast_cfg):
    scene = tmp_path / "scene"
    assert (
        _run(
            [
                "simulate",
                "--synthetic",
                "--rt60",
                "150",
                "--config",
                fast_cfg,
                "--out",
                str(scene),
            ]
        )
        == 0
    )

    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = _run(
            [
                "separate",
                str(scene / "mixture.wav"),
                "--config",
                fast_cfg,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)

    report = json.loads((outs[0] / "report.json").read_text())
    assert report["kind"] == "separation"
    assert report["solver"]["final_cost"] <= report["solver"]["initial_cost"]
    assert report["report_format_version"] == 7
    assert set(report["parameters"]) == set(SEPARATION_KEYS)
    # FAST_CONFIG's 8 kHz: the default 0.8, 1.6 and 12 ms in bins
    assert report["smoothing_bins"] == {"l_env": 6, "l_low": 13, "l_high": 96}
    assert not {"rt60_ms", "room_height", "seed", "decomp_filter_taps"} & set(report["parameters"])
    assert report["solver"]["termination"] in TERMINATIONS
    assert report["solver"]["evaluations"] >= report["solver"]["iterations"] + 1
    assert report["outputs"]["stage1"] == ["stage1_1.wav", "stage1_2.wav"]
    assert report["outputs"]["final"] == ["final_1.wav", "final_2.wav"]

    for name in ("stage1_1.wav", "stage1_2.wav", "final_1.wav", "final_2.wav"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b


def test_separate_rejects_mono_input(tmp_path, fast_cfg):
    mono = tmp_path / "mono.wav"
    wave = Waveform(np.zeros(4000) + 0.1, 8000)
    write_wav(MultichannelRecording((wave,)), mono)
    out = tmp_path / "out"
    assert _run(["separate", str(mono), "--config", fast_cfg, "--out", str(out)]) == 1


def test_separate_missing_file_is_runtime_error(tmp_path, fast_cfg):
    out = tmp_path / "out"
    code = _run(["separate", str(tmp_path / "nope.wav"), "--config", fast_cfg, "--out", str(out)])
    assert code == 1


def _write_mono(path, samples, rate=8000):
    write_wav(MultichannelRecording((Waveform(np.asarray(samples, dtype=float), rate),)), path)


def test_evaluate_needs_exactly_one_scoring_mode(tmp_path):
    est1 = tmp_path / "e1.wav"
    est2 = tmp_path / "e2.wav"
    _write_mono(est1, 0.1 * np.ones(400))
    _write_mono(est2, 0.1 * np.ones(400))
    with pytest.raises(SystemExit) as info:
        _run(["evaluate", str(est1), str(est2)])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        _run(
            [
                "evaluate",
                str(est1),
                str(est2),
                "--references",
                str(est1),
                str(est2),
                "--segments",
                "0:10,10:20",
            ]
        )
    assert info.value.code == 2


def test_evaluate_reference_mode_caps_perfect_estimates(tmp_path, capsys):
    rng = np.random.default_rng(3)
    r1 = tmp_path / "r1.wav"
    r2 = tmp_path / "r2.wav"
    s1 = (0.5 * rng.standard_normal(4000)).clip(-0.99, 0.99)
    s2 = (0.5 * rng.standard_normal(4000)).clip(-0.99, 0.99)
    _write_mono(r1, s1)
    _write_mono(r2, s2)
    code = _run(
        ["evaluate", str(r1), str(r2), "--references", str(r1), str(r2)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "reference"
    assert report["sir_db"] == [100.0, 100.0]
    assert all(v >= 90.0 for v in report["sdr_db"])


def test_evaluate_segment_mode_matches_rms_ratio(tmp_path, capsys):
    est1 = tmp_path / "e1.wav"
    est2 = tmp_path / "e2.wav"
    a = np.zeros(200)
    a[:100] = 0.5
    a[100:] = 0.05
    b = np.zeros(200)
    b[:100] = 0.05
    b[100:] = 0.5
    _write_mono(est1, a)
    _write_mono(est2, b)
    code = _run(["evaluate", str(est1), str(est2), "--segments", "0:100,100:200"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "segment"
    assert report["sir_db"][0] == pytest.approx(20.0, abs=1e-5)
    assert report["sir_db"][1] == pytest.approx(20.0, abs=1e-5)
    assert report["segments"]["first"] == [0, 100]


def test_evaluate_malformed_segments_is_usage_error(tmp_path, capsys):
    est = tmp_path / "e.wav"
    _write_mono(est, 0.1 * np.ones(100))
    form = "expected start1:end1,start2:end2"
    for bad, reason in (
        ("0:100", form),
        ("a:b,c:d", form),
        ("0:100,100:200,200:300", form),
        ("", form),
        ("0:100,50:200", "segments must not overlap"),
        ("5:5,10:20", "segments must satisfy 0 <= start < end"),
    ):
        with pytest.raises(SystemExit) as info:
            _run(["evaluate", str(est), str(est), "--segments", bad])
        assert info.value.code == 2
        assert reason in capsys.readouterr().err


def test_evaluate_segment_past_the_end_names_it(tmp_path, capsys):
    est = tmp_path / "e.wav"
    _write_mono(est, 0.1 * np.ones(100))
    assert _run(["evaluate", str(est), str(est), "--segments", "0:50,60:120"]) == 1
    assert "segment 60:120 extends past the signal's 100 samples" in capsys.readouterr().err


def test_negative_seed_is_usage_error(tmp_path, fast_cfg, capsys):
    for argv in (
        ["simulate", "--synthetic", "--seed", "-1", "--config", fast_cfg],
        ["sweep", "--rt60", "100", "--seed", "-1", "--config", fast_cfg],
    ):
        with pytest.raises(SystemExit) as info:
            _run(argv + ["--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "bad value for 'seed': '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, True, 2.5], ids=["negative", "bool", "float"])
def test_run_sweep_checks_its_seed_as_a_config_seed(tmp_path, fast_cfg, monkeypatch, seed):
    def no_scene(*args, **kwargs):
        raise AssertionError("a scene was simulated")

    monkeypatch.setattr(cli, "simulate_scene", no_scene)
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError, match="'seed'"):
        run_sweep(load_config(fast_cfg), [100.0], out, seed=seed)
    assert not out.exists()


def test_sweep_makes_one_source_pair_for_all_rows(tmp_path, fast_cfg, monkeypatch):
    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return gen_am_source(*args, **kwargs)

    monkeypatch.setattr(pipeline, "gen_am_source", counted)
    report = run_sweep(load_config(fast_cfg), [100.0, 150.0], tmp_path / "sweep")
    assert len(report["rows"]) == 2
    assert len(made) == 2


def test_sweep_reports_echo_the_seed_and_rt60_each_scene_was_built_with(tmp_path, fast_cfg):
    out = tmp_path / "sweep"
    argv = ["sweep", "--rt60", "100,150", "--seed", "5", "--config", fast_cfg, "--out", str(out)]
    assert _run(argv) == 0
    sweep = json.loads((out / "sweep_report.json").read_text())
    assert sweep["parameters"]["seed"] == 5
    # No row ran at the config's RT60, so only the rows name one.
    assert "rt60_ms" not in sweep["parameters"]
    assert [row["rt60_ms"] for row in sweep["rows"]] == [100.0, 150.0]
    for row in sweep["rows"]:
        rt_dir = out / f"rt{int(row['rt60_ms']):03d}"
        parameters = json.loads((rt_dir / "report.json").read_text())["parameters"]
        assert "seed = 5" in (rt_dir / "manifest.txt").read_text().splitlines()
        assert parameters["seed"] == 5
        assert parameters["rt60_ms"] == row["rt60_ms"]


def test_stereo_file_where_mono_is_required_names_its_role(tmp_path, fast_cfg, capsys):
    stereo = tmp_path / "stereo.wav"
    wave = Waveform(0.1 * np.ones(4000), 8000)
    write_wav(MultichannelRecording((wave, wave)), stereo)
    mono = tmp_path / "mono.wav"
    _write_mono(mono, 0.1 * np.ones(4000))
    cases = (
        ("source", ["simulate", str(stereo), str(mono), "--config", fast_cfg]),
        ("estimate", ["evaluate", str(stereo), str(mono), "--segments", "0:10,10:20"]),
        ("reference", ["evaluate", str(mono), str(mono), "--references", str(mono), str(stereo)]),
    )
    for role, argv in cases:
        assert _run(argv + ["--out", str(tmp_path / "out")]) == 1
        assert f"error: {role} {stereo} must be mono" in capsys.readouterr().err


def test_evaluate_mismatched_estimates_fail(tmp_path, capsys):
    est1 = tmp_path / "e1.wav"
    est2 = tmp_path / "e2.wav"
    _write_mono(est1, 0.1 * np.ones(100))
    _write_mono(est2, 0.1 * np.ones(150))
    assert _run(["evaluate", str(est1), str(est2), "--segments", "0:10,10:20"]) == 1
    assert "outputs must share one length, got 100 and 150 samples" in capsys.readouterr().err


def test_sweep_empty_rt60_is_usage_error(tmp_path, fast_cfg):
    for bad in ("", "abc", "100,,200"):
        with pytest.raises(SystemExit) as info:
            _run(["sweep", "--rt60", bad, "--config", fast_cfg, "--out", str(tmp_path / "s")])
        assert info.value.code == 2


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ("nan", "finite"),
        ("150,inf", "finite"),
        ("150,-20", "non-negative"),
        ("100,100.2", "would both write rt100/"),
    ],
    ids=["nan", "inf", "negative", "same-directory"],
)
def test_sweep_rejects_bad_rt60_values(tmp_path, fast_cfg, capsys, bad, message):
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as info:
        _run(["sweep", "--rt60", bad, "--config", fast_cfg, "--out", str(out)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["-5", "nan", "inf"])
def test_simulate_rejects_bad_rt60_values(tmp_path, fast_cfg, capsys, bad):
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as info:
        _run(["simulate", "--synthetic", "--rt60", bad, "--config", fast_cfg, "--out", str(out)])
    assert info.value.code == 2
    assert f"bad rt60 {bad!r}: not a finite, non-negative number of ms" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_report_and_outputs(tmp_path, fast_cfg):
    out = tmp_path / "sweep"
    code = _run(["sweep", "--rt60", "150", "--config", fast_cfg, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["kind"] == "sweep"
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert row["rt60_ms"] == 150.0
    assert set(row["stage1_sir_db"]) == {"signal_1", "signal_2", "average"}
    rt_dir = out / "rt150"
    for name in ("mixture.wav", "stage1_1.wav", "final_2.wav", "report.json"):
        assert (rt_dir / name).exists()
    # A simulated scene's reports keep the settings that made it; the sweep's
    # leaves the RT60 to its rows.
    rt_report = json.loads((rt_dir / "report.json").read_text())
    assert set(rt_report["parameters"]) == set(DEFAULTS)
    assert set(report["parameters"]) == set(DEFAULTS) - {"rt60_ms"}


@pytest.mark.parametrize(
    ("room", "clamped"),
    [("", True), ("room_height = 3.0\nroom_width = 3.0\nroom_depth = 3.0\n", False)],
    ids=["default-room", "3m-room"],
)
def test_sweep_reports_whether_the_room_was_clamped(tmp_path, room, clamped):
    # Sabine asks for absorption 1.07 at 100 ms in the default 3.4 x 3.8 x 5.2 m
    # room, which the simulator renders anechoic, and for 0.81 in a 3 m cube.
    settings = [line for line in FAST_CONFIG.splitlines() if not line.startswith("room_")]
    path = tmp_path / "room.cfg"
    path.write_text("\n".join(settings) + "\n" + room)
    out = tmp_path / "sweep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["sweep", "--rt60", "100", "--config", str(path), "--out", str(out)]) == 0
    assert any("treating the room as anechoic" in str(w.message) for w in caught) == clamped

    (row,) = json.loads((out / "sweep_report.json").read_text())["rows"]
    report = json.loads((out / "rt100" / "report.json").read_text())
    manifest = (out / "rt100" / "manifest.txt").read_text().splitlines()
    asked = 0.161 * 27.0 / (0.1 * 54.0) if not clamped else 0.161 * 67.184 / (0.1 * 100.72)
    for fields in (row, report):
        assert fields["anechoic_clamped"] is clamped
        assert fields["absorption_requested"] == pytest.approx(asked, rel=1e-12)
        assert fields["absorption_used"] == (1.0 if clamped else fields["absorption_requested"])
    assert f"anechoic_clamped = {str(clamped).lower()}" in manifest
    assert f"absorption_used = {row['absorption_used']}" in manifest


def test_each_rt_report_is_the_base_report_plus_its_row(tmp_path, fast_cfg):
    out = tmp_path / "sweep"
    assert _run(["sweep", "--rt60", "150,250", "--config", fast_cfg, "--out", str(out)]) == 0
    sweep = json.loads((out / "sweep_report.json").read_text())
    base = {"report_format_version": sweep["report_format_version"], "kind": "separation"}
    sweep_only = {"permutation", "input_sir_db", "final_sdr_db", "final_sar_db"}
    assert len(sweep["rows"]) == 2
    for row in sweep["rows"]:
        assert sweep_only <= set(row)
        # the default band times at FAST_CONFIG's synth_sample_rate, 8 kHz
        assert row["smoothing_bins"] == {"l_env": 6, "l_low": 13, "l_high": 96}
        expected = {
            **base,
            # Each row's scene was built at the row's RT60, and its report says so.
            "parameters": {**sweep["parameters"], "rt60_ms": row["rt60_ms"]},
            **{key: value for key, value in row.items() if key not in sweep_only},
        }
        rt_dir = out / f"rt{int(row['rt60_ms']):03d}"
        assert json.loads((rt_dir / "report.json").read_text()) == expected


def _two_talkers(n=16000, rate=8000):
    """A delayed instantaneous mixture of two AM-noise sources."""
    a = gen_am_source(1, n / rate, rate, 0.8).samples
    b = gen_am_source(2, n / rate, rate, 1.7).samples
    return 0.5 * (a + 0.6 * np.roll(b, 3)), 0.5 * (0.5 * np.roll(a, 2) + b)


def _write_stereo(path, left, right, rate=8000):
    write_wav(MultichannelRecording((Waveform(left, rate), Waveform(right, rate))), path)


@pytest.mark.parametrize(
    ("n_samples", "block_count", "message"),
    [
        (300, 4, "shorter than one frame"),
        (600, 16, "8 frames cannot fill 16 blocks"),
        (300, 16, "1537"),
    ],
    ids=["shorter-than-a-frame", "fewer-frames-than-blocks", "shorter-than-a-frame-names-minimum"],
)
def test_separate_rejects_too_short_input(tmp_path, capsys, n_samples, block_count, message):
    cfg = tmp_path / "cfg"
    cfg.write_text(FAST_CONFIG.replace("block_count = 4", f"block_count = {block_count}"))
    left, right = _two_talkers()
    mixture = tmp_path / "short.wav"
    _write_stereo(mixture, left[:n_samples], right[:n_samples])
    out = tmp_path / "out"
    assert _run(["separate", str(mixture), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


def test_separate_needs_the_minimum_length_it_names(tmp_path, capsys):
    # 16 frames of K = 512 at hop 128 span 16 * 128 - 512 + 1 = 1537 samples.
    cfg = tmp_path / "cfg"
    cfg.write_text(FAST_CONFIG.replace("block_count = 4", "block_count = 16"))
    left, right = _two_talkers()
    for n_samples, code in ((1537, 0), (1536, 1)):
        mixture = tmp_path / f"{n_samples}.wav"
        _write_stereo(mixture, left[:n_samples], right[:n_samples])
        out = tmp_path / f"out{n_samples}"
        assert _run(["separate", str(mixture), "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "error: input of 1536 samples is too short: 15 frames cannot fill 16 blocks; "
        "separation needs at least 1537 samples"
    ]
    assert len(read_wav(tmp_path / "out1537" / "final_1.wav").channels[0]) == 1537


@pytest.mark.parametrize("command", ["separate", "evaluate"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_samples_fail_naming_the_file(tmp_path, fast_cfg, capsys, command, bad):
    left, right = _two_talkers()
    samples = np.stack([left, right], axis=1).astype(np.float32)
    samples[1234, 1] = bad
    path = tmp_path / "bad.wav"
    if command == "separate":
        wavfile.write(path, 8000, samples)
        argv = ["separate", str(path), "--config", fast_cfg, "--out", str(tmp_path / "out")]
    else:
        wavfile.write(path, 8000, samples[:, 1:])
        good = tmp_path / "good.wav"
        _write_mono(good, left)
        argv = ["evaluate", str(good), str(good), "--references", str(good), str(path)]
    assert _run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    channel = 2 if command == "separate" else 1
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    assert f"sample 1234 of channel {channel} is {bad}" in err[0]


@pytest.mark.parametrize(
    ("case", "rate"),
    [("silent-channel", 8000), ("identical-channels", 8000), ("two-talkers", 16000)],
)
def test_separate_survives_degenerate_and_other_rate_input(tmp_path, fast_cfg, case, rate):
    left, right = _two_talkers()
    if case == "silent-channel":
        right = np.zeros_like(right)
    elif case == "identical-channels":
        right = left
    mixture = tmp_path / "mixture.wav"
    _write_stereo(mixture, left, right, rate)
    out = tmp_path / "out"
    assert _run(["separate", str(mixture), "--config", fast_cfg, "--out", str(out)]) == 0
    for name in ("stage1_1.wav", "stage1_2.wav", "final_1.wav", "final_2.wav"):
        wave = read_wav(out / name)
        assert wave.sample_rate == rate
        assert len(wave.channels[0]) == len(left)
        assert np.all(np.isfinite(wave.channels[0].samples))



@pytest.mark.parametrize(
    ("case", "termination"),
    [("dc-offset", "max_iters"), ("clipped-pcm16", "tolerance"), ("silent-source", "max_iters")],
)
def test_separate_survives_offset_clipped_and_one_talker_input(
    tmp_path, fast_cfg, case, termination
):
    left, right = _two_talkers()
    mixture = tmp_path / "mixture.wav"
    if case == "dc-offset":
        _write_stereo(mixture, left + 0.3, right + 0.3)
    elif case == "clipped-pcm16":
        clipped = np.clip(8.0 * np.stack([left, right], axis=1), -1.0, 32767 / 32768)
        assert np.mean(np.abs(clipped) >= 32767 / 32768) > 0.1
        wavfile.write(mixture, 8000, np.round(clipped * 32768).astype(np.int16))
    else:
        talker = gen_am_source(1, 2.0, 8000, 0.8)
        silent = Waveform(np.zeros(len(talker)), 8000)
        scene = simulate_scene(load_config(fast_cfg), 150.0, sources=(talker, silent))
        write_wav(scene.mixture, mixture)
    n_samples = len(read_wav(mixture).channels[0])
    out = tmp_path / "out"
    assert _run(["separate", str(mixture), "--config", fast_cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["termination"] == termination
    for name in ("stage1_1.wav", "stage1_2.wav", "final_1.wav", "final_2.wav"):
        wave = read_wav(out / name)
        assert len(wave.channels[0]) == n_samples
        assert np.all(np.isfinite(wave.channels[0].samples))


def _hostile_evaluate_inputs(case):
    """(estimates, references, reference rate, taps) for one hostile `evaluate` case."""
    rng = np.random.default_rng(11)
    n = 4000
    r1, r2 = 0.3 * rng.standard_normal(n), 0.3 * rng.standard_normal(n)
    e1 = r1 + 0.2 * r2 + 0.01 * rng.standard_normal(n)
    e2 = r2 + 0.3 * r1 + 0.01 * rng.standard_normal(n)
    return {
        "silent-estimate": ((np.zeros(n), np.zeros(n)), (r1, r2), 8000, 64),
        "silent-reference": ((e1, e2), (r1, np.zeros(n)), 8000, 64),
        "identical-references": ((e1, e2), (r1, r1), 8000, 64),
        "scaled-reference": ((e1, e2), (r1, 0.5 * r1), 8000, 64),
        "dc-offset-reference": ((e1 + 0.2, e2), (r1 + 0.2, r2), 8000, 64),
        "length-mismatch": ((e1, e2), (r1[:-10], r2[:-10]), 8000, 64),
        "rate-mismatch": ((e1, e2), (r1, r2), 16000, 64),
        "short-references": ((e1[:50], e2[:50]), (r1[:50], r2[:50]), 8000, 64),
    }[case]


def _evaluate_files(tmp_path, case):
    estimates, references, ref_rate, taps = _hostile_evaluate_inputs(case)
    paths = []
    for kind, waves, rate in (("e", estimates, 8000), ("r", references, ref_rate)):
        for i, samples in enumerate(waves, start=1):
            paths.append(str(tmp_path / f"{kind}{i}.wav"))
            _write_mono(paths[-1], samples, rate)
    config = tmp_path / "eval.cfg"
    config.write_text(f"decomp_filter_taps = {taps}\n")
    return ["evaluate", *paths[:2], "--references", *paths[2:], "--config", str(config)]


@pytest.mark.parametrize(
    "case",
    ["silent-estimate", "silent-reference", "identical-references", "scaled-reference",
     "dc-offset-reference"],
)
def test_evaluate_scores_degenerate_inputs(tmp_path, capsys, case):
    assert _run(_evaluate_files(tmp_path, case)) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    values = np.array([report[key] for key in ("sir_db", "sdr_db", "sar_db")])
    assert np.all(np.isfinite(values))
    # one warning line on stderr for exactly the cases scored from a regularized Gram
    warnings = captured.err.splitlines()
    if case in ("silent-reference", "identical-references", "scaled-reference"):
        assert len(warnings) == 1 and warnings[0].startswith("warning: ")
        assert "degenerate" in warnings[0] and "not meaningful" in warnings[0]
    else:
        assert warnings == []
    if case == "silent-estimate":
        assert np.all(values == -100.0) and report["regularized"] == [False, False]
    elif case == "dc-offset-reference":
        assert report["regularized"] == [False, False]
        # estimate 1 is its DC-offset reference plus 0.2 of reference 2 and noise
        _, (ref1, ref2), _, _ = _hostile_evaluate_inputs(case)
        closed_form = 10 * np.log10(np.sum(ref1**2) / np.sum((0.2 * ref2) ** 2))
        assert report["sir_db"][0] == pytest.approx(closed_form, abs=0.1)
    else:
        # the second reference's delays span no new direction: singular Gram
        assert report["regularized"] == [True, True]
        if case == "silent-reference":
            assert report["sir_db"] == [100.0, -100.0] and report["sdr_db"][1] == -100.0
        else:
            assert report["sir_db"] == [100.0, 100.0]


@pytest.mark.parametrize(
    ("case", "message"),
    [
        ("length-mismatch", "estimate and references must share one length"),
        ("rate-mismatch", "estimate and references must share one sample rate"),
        ("short-references", "decomp_filter_taps = 64 must lie in [1, 50]"),
    ],
)
def test_evaluate_rejects_mismatched_or_short_references(tmp_path, capsys, case, message):
    assert _run(_evaluate_files(tmp_path, case)) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize(
    ("rate", "settings", "fragments"),
    [
        (48000, "pitch_period_max_ms = 25\n",
         ["48000 Hz", "l_high = 1200 (from pitch_period_max_ms 25)", "K/2 = 1024"]),
        (4000, "synth_sample_rate = 48000\nenvelope_ms = 0.7\npitch_period_min_ms = 0.8\n",
         ["4000 Hz", "l_env = 3 (from envelope_ms 0.7)", "l_low = 3 (from pitch_period_min_ms 0.8)"]),
    ],
    ids=["pitch-floor-past-half-the-dft-at-48k", "pitch-ceiling-below-the-envelope-at-4k"],
)
def test_separate_names_the_rate_and_bins_of_smoothing_bands_that_do_not_fit(
    tmp_path, capsys, rate, settings, fragments
):
    # Both configs are valid at their synthesis rate; only the file's rate breaks them.
    cfg = tmp_path / "cfg"
    cfg.write_text(settings)
    left, right = _two_talkers(n=rate, rate=rate)
    mixture = tmp_path / "mixture.wav"
    _write_stereo(mixture, left, right, rate)
    out = tmp_path / "out"
    assert _run(["separate", str(mixture), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: smoothing bands at ")
    for fragment in fragments:
        assert fragment in err[0]
    assert not out.exists()


# Bins 5 and 6 at 48 kHz, under l_high = 576; at 8 or 10 kHz both round to bin 1.
BANDS_FOR_HIGH_RATES = "envelope_ms = 0.1\npitch_period_min_ms = 0.12\n"


def test_simulate_and_evaluate_take_a_pitch_range_that_fits_no_rate_they_use(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(FAST_CONFIG + BANDS_FOR_HIGH_RATES)
    scene = tmp_path / "scene"
    assert _run(["simulate", "--synthetic", "--config", str(cfg), "--out", str(scene)]) == 0
    capsys.readouterr()
    sources = [str(scene / f"source_{i}.wav") for i in (1, 2)]
    argv = ["evaluate", *sources, "--segments", "0:100,100:200", "--config", str(cfg)]
    assert _run(argv) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "segment"


def test_separate_takes_a_pitch_range_that_fits_the_file_but_not_the_synthesis_rate(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("dft_length = 2048\nmax_iters = 40\n" + BANDS_FOR_HIGH_RATES)
    rate = 48000
    left, right = _two_talkers(n=rate, rate=rate)
    mixture = tmp_path / "mixture.wav"
    _write_stereo(mixture, left, right, rate)
    out = tmp_path / "out"
    assert _run(["separate", str(mixture), "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "final_2.wav").exists()


def test_sweep_refuses_bands_that_do_not_fit_the_synthesis_rate_before_writing(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(FAST_CONFIG + BANDS_FOR_HIGH_RATES)
    out = tmp_path / "sweep"
    assert _run(["sweep", "--rt60", "100", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: smoothing bands at 8000 Hz do not fit")
    assert not out.exists()


def test_simulate_rejects_a_duration_of_zero_samples(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(FAST_CONFIG.replace("synth_duration_s = 2.0", "synth_duration_s = 0.00001"))
    out = tmp_path / "scene"
    code = _run(["simulate", "--synthetic", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "duration_s = 1e-05" in err[0] and "8000 Hz" in err[0]
    assert not out.exists()


def test_separate_keeps_literal_quefrency_bins_at_44k(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    # 8, 16 and 120 bins at this rate, the bins of the defaults at 10 kHz
    cfg.write_text(FAST_CONFIG + "envelope_ms = 0.18\npitch_period_min_ms = 0.36\n"
                   "pitch_period_max_ms = 2.72\n")
    rate = 44100
    left, right = _two_talkers(n=2 * rate, rate=rate)
    mixture = tmp_path / "mixture.wav"
    _write_stereo(mixture, left, right, rate)
    out = tmp_path / "out"
    assert _run(["separate", str(mixture), "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["termination"] == "tolerance"
    assert report["smoothing_bins"] == {"l_env": 8, "l_low": 16, "l_high": 120}
    # bins 16..120 search pitches of 368-2756 Hz at this rate; smoothing still
    # thins the isolated mask units
    for binary, smoothed in zip(
        report["isolated_fraction_binary"], report["isolated_fraction_smoothed"]
    ):
        assert smoothed < binary
    for name in ("stage1_1.wav", "stage1_2.wav", "final_1.wav", "final_2.wav"):
        wave = read_wav(out / name)
        assert wave.sample_rate == rate
        assert len(wave.channels[0]) == len(left)
        assert np.all(np.isfinite(wave.channels[0].samples))


def test_separate_sixty_seconds_stays_within_block_memory(tmp_path, fast_cfg):
    rate, n = 8000, 60 * 8000
    left, right = _two_talkers(n=n, rate=rate)
    mixture = tmp_path / "mixture.wav"
    _write_stereo(mixture, left, right, rate)
    del left, right
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = _run(["separate", str(mixture), "--config", fast_cfg, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # The input, four overlap-add buffers and the trimmed outputs come to
    # about 40 MB; one whole-input spectrogram (257 bins x 3750 frames) would
    # add 15 MB.
    assert peak < 50e6
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["termination"] == "max_iters"
    for name in ("stage1_1.wav", "stage1_2.wav", "final_1.wav", "final_2.wav"):
        wave = read_wav(out / name)
        assert len(wave.channels[0]) == n
        assert np.all(np.isfinite(wave.channels[0].samples))
