import json
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from cbss.cli import main
from cbss.config import load_config
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
    assert report["report_format_version"] == 3
    assert report["solver"]["termination"] in TERMINATIONS
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


def test_evaluate_malformed_segments_is_usage_error(tmp_path):
    est = tmp_path / "e.wav"
    _write_mono(est, 0.1 * np.ones(100))
    for bad in ("0:100", "a:b,c:d", "0:100,100:200,200:300", ""):
        with pytest.raises(SystemExit) as info:
            _run(["evaluate", str(est), str(est), "--segments", bad])
        assert info.value.code == 2


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


def test_evaluate_mismatched_estimates_fail(tmp_path):
    est1 = tmp_path / "e1.wav"
    est2 = tmp_path / "e2.wav"
    _write_mono(est1, 0.1 * np.ones(100))
    _write_mono(est2, 0.1 * np.ones(150))
    assert _run(["evaluate", str(est1), str(est2), "--segments", "0:10,10:20"]) == 1


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


def _two_talkers(n=16000, rate=8000):
    """A delayed instantaneous mixture of two AM-noise sources."""
    a = gen_am_source(1, n / rate, rate, 0.8).samples
    b = gen_am_source(2, n / rate, rate, 1.7).samples
    return 0.5 * (a + 0.6 * np.roll(b, 3)), 0.5 * (0.5 * np.roll(a, 2) + b)


def _write_stereo(path, left, right, rate=8000):
    write_wav(MultichannelRecording((Waveform(left, rate), Waveform(right, rate))), path)


@pytest.mark.parametrize(
    ("n_samples", "block_count", "message"),
    [(300, 4, "shorter than one frame"), (600, 16, "8 frames cannot fill 16 blocks")],
    ids=["shorter-than-a-frame", "fewer-frames-than-blocks"],
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
