"""The reference-based scoring entry points: one Gram factorization per
reference pair, results equal to the per-call LU oracle."""

import json
import re

import numpy as np
import pytest
from oracles import project_decompose_lu

from cbss import cli, pipeline
from cbss.bsseval import Decomposition, ReferenceProjector, sar_db, sdr_db, sir_db
from cbss.config import load_config
from cbss.signals import MultichannelRecording, Waveform, read_wav, write_wav

RATE = 8000
TAPS = 32


@pytest.fixture()
def built_projectors(monkeypatch):
    """Reference pairs of every projector the entry points build."""
    built = []

    class CountingProjector(ReferenceProjector):
        def __init__(self, references, filter_taps):
            built.append(references)
            super().__init__(references, filter_taps)

    monkeypatch.setattr(pipeline, "ReferenceProjector", CountingProjector)
    monkeypatch.setattr(cli, "ReferenceProjector", CountingProjector)
    return built


def _scene(n=3000, seed=0):
    """images[mic][source] noise, and outputs carrying source 2 then source 1."""
    rng = np.random.default_rng(seed)
    images = tuple(
        tuple(Waveform(0.1 * rng.standard_normal(n), RATE) for _ in (0, 1)) for _ in (0, 1)
    )
    estimates = tuple(
        Waveform(
            images[mic][1 - mic].samples
            + 0.3 * images[mic][mic].samples
            + 0.01 * rng.standard_normal(n),
            RATE,
        )
        for mic in (0, 1)
    )
    return estimates, images


def _oracle_metrics(estimate, target, interferer, taps=TAPS):
    *parts, regularized = project_decompose_lu(
        estimate.samples, target.samples, interferer.samples, taps
    )
    d = Decomposition(*(Waveform(p, RATE) for p in parts), taps, regularized)
    return np.array([sir_db(d), sdr_db(d), sar_db(d)])


@pytest.mark.parametrize("permutation", [None, (0, 1), (1, 0)], ids=["free", "0-1", "1-0"])
def test_evaluate_outputs_factors_each_mic_once(built_projectors, permutation):
    estimates, images = _scene()
    result = pipeline.evaluate_outputs(estimates, images, TAPS, permutation)

    assert built_projectors == [images[0], images[1]]
    oracle = {
        perm: [
            _oracle_metrics(estimates[mic], images[mic][perm[mic]], images[mic][1 - perm[mic]])
            for mic in (0, 1)
        ]
        for perm in ((0, 1), (1, 0))
    }
    if permutation is None:
        permutation = max(oracle, key=lambda perm: oracle[perm][0][0] + oracle[perm][1][0])
        assert permutation == (1, 0)
    assert result.permutation == permutation
    for mic in (0, 1):
        got = np.array([result.sir[mic], result.sdr[mic], result.sar[mic]])
        assert np.max(np.abs(got - oracle[permutation][mic])) <= 1e-9
        assert not result.decompositions[mic].regularized


@pytest.mark.parametrize(
    "bad", [(0, 0), (1, 1), (2, -1), (0,)], ids=["0-0", "1-1", "2-minus1", "one-entry"]
)
def test_evaluate_outputs_rejects_bad_permutation(bad):
    estimates, images = _scene(n=200)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        pipeline.evaluate_outputs(estimates, images, 8, permutation=bad)


def test_cli_evaluate_factors_the_reference_pair_once(built_projectors, tmp_path, capsys):
    estimates, images = _scene()
    refs = images[0]
    # estimate i is scored with reference i as its target
    estimates = (estimates[0], Waveform(refs[1].samples + 0.5 * refs[0].samples, RATE))
    paths = [str(tmp_path / f"{name}.wav") for name in ("e1", "e2", "r1", "r2")]
    for path, wave in zip(paths, (*estimates, *refs)):
        write_wav(MultichannelRecording((wave,)), path)
    config = tmp_path / "eval.cfg"
    config.write_text(f"decomp_filter_taps = {TAPS}\n")

    argv = ["evaluate", *paths[:2], "--references", *paths[2:], "--config", str(config)]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)

    assert len(built_projectors) == 1
    est, ref = [[read_wav(p).channels[0] for p in group] for group in (paths[:2], paths[2:])]
    for i in (0, 1):
        want = _oracle_metrics(est[i], ref[i], ref[1 - i])
        got = np.array([report["sir_db"][i], report["sdr_db"][i], report["sar_db"][i]])
        assert np.max(np.abs(got - want)) <= 1e-9
    assert report["regularized"] == [False, False]


# the configuration of tests/test_acceptance.py::test_sweep_command_is_bit_identical_across_runs
SWEEP_FAST_CONFIG = """
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
seed = 7
"""


def test_sweep_factors_each_mic_once_per_row(built_projectors, tmp_path, monkeypatch):
    """A sweep row scores its input, stage-1 and final pairs with one projector
    per mic, and reports what separate `evaluate_outputs` calls would."""
    scenes, results = [], []

    def recording(fn, into):
        def wrapper(*args, **kwargs):
            into.append(fn(*args, **kwargs))
            return into[-1]

        return wrapper

    monkeypatch.setattr(cli, "simulate_scene", recording(cli.simulate_scene, scenes))
    monkeypatch.setattr(cli, "separate_recording", recording(cli.separate_recording, results))
    config = tmp_path / "fast.cfg"
    config.write_text(SWEEP_FAST_CONFIG)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--rt60", "150,250", "--config", str(config), "--out", str(out)]) == 0
    rows = json.loads((out / "sweep_report.json").read_text())["rows"]

    assert len(rows) == len(scenes) == len(results) == 2
    # one projector per mic and row, for the input, stage-1 and final pairs together
    assert built_projectors == [images for scene in scenes for images in scene.images]

    taps = load_config(str(config)).decomp_filter_taps
    for row, scene, result in zip(rows, scenes, results):
        stage1 = pipeline.evaluate_outputs(result.stage1, scene.images, taps)
        final = pipeline.evaluate_outputs(result.final, scene.images, taps, stage1.permutation)
        mixture = tuple(scene.mixture.channels)
        given = pipeline.evaluate_outputs(mixture, scene.images, taps, permutation=(0, 1))
        assert row["permutation"] == list(stage1.permutation)
        for key, values in (
            ("input_sir_db", given.sir),
            ("stage1_sir_db", stage1.sir),
            ("final_sir_db", final.sir),
            ("final_sdr_db", final.sdr),
            ("final_sar_db", final.sar),
        ):
            got = [row[key]["signal_1"], row[key]["signal_2"]]
            assert np.max(np.abs(np.subtract(got, values))) <= 1e-9, key
