import numpy as np
import pytest

from cbss import pipeline, roomsim
from cbss.config import default_config
from cbss.roomsim import (
    ImpulseResponseBank,
    RoomSpec,
    convolve_mix,
    generate_rir,
    rt60_to_absorption,
    source_images,
)
from cbss.signals import Waveform

from oracles import convolve_direct, schroeder_decay_time

DIMS = (3.4, 3.8, 5.2)


def _room(rt60_ms, sample_rate=10000, dims=DIMS, sources=None, mics=None, **kw):
    center = tuple(d / 2 for d in dims)
    if sources is None:
        sources = (
            (center[0], center[1] - 0.7, center[2] + 0.7),
            (center[0], center[1] + 0.7, center[2] + 0.7),
        )
    if mics is None:
        mics = (
            (center[0], center[1] - 0.1, center[2]),
            (center[0], center[1] + 0.1, center[2]),
        )
    return RoomSpec(dims, sources, mics, rt60_ms, sample_rate, **kw)


def test_room_spec_validates_geometry():
    with pytest.raises(ValueError):
        _room(100.0, dims=(0.0, 3.8, 5.2))
    with pytest.raises(ValueError):
        _room(-1.0)
    with pytest.raises(ValueError):
        _room(100.0, sources=((0.0, 1.0, 1.0), (1.0, 1.0, 1.0)))  # on a wall
    with pytest.raises(ValueError):
        _room(100.0, mics=((1.0, 1.0, 1.0),))


def test_absorption_from_sabine():
    # V = 67.184 m^3, A = 100.72 m^2 for the 3.4 x 3.8 x 5.2 box
    v = 3.4 * 3.8 * 5.2
    a = 2 * (3.4 * 3.8 + 3.4 * 5.2 + 3.8 * 5.2)
    expected = 0.161 * v / (0.200 * a)
    assert rt60_to_absorption(DIMS, 200.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5369650516, abs=1e-9)

    assert rt60_to_absorption(DIMS, 0.0) == 1.0
    # inverse proportionality below the cap
    assert rt60_to_absorption(DIMS, 400.0) == pytest.approx(expected / 2, rel=1e-12)


def test_absorption_caps_with_warning():
    with pytest.warns(UserWarning):
        alpha = rt60_to_absorption(DIMS, 30.0)
    assert alpha == 1.0


def test_anechoic_rir_is_single_scaled_tap():
    room = _room(0.0)
    rir = generate_rir(room, 0, 0)
    src = np.array(room.source_positions[0])
    mic = np.array(room.mic_positions[0])
    d = np.linalg.norm(src - mic)
    tap = int(round(d * room.sample_rate / room.speed_of_sound))
    nonzero = np.nonzero(rir.samples)[0]
    assert list(nonzero) == [tap]
    assert rir.samples[tap] == pytest.approx(1.0 / (4.0 * np.pi * d), rel=1e-12)


def test_anechoic_inverse_distance_law():
    center = tuple(d / 2 for d in DIMS)
    # distances of exactly 20 and 40 samples at 10 kHz and c = 343
    d1 = 343.0 * 20 / 10000
    src = (center[0], center[1], 1.0)
    near = (center[0], center[1], 1.0 + d1)
    far = (center[0], center[1], 1.0 + 2 * d1)
    room = _room(0.0, sources=(src, src), mics=(near, far))
    rir_near = generate_rir(room, 0, 0)
    rir_far = generate_rir(room, 0, 1)
    tap_near = int(np.argmax(np.abs(rir_near.samples)))
    tap_far = int(np.argmax(np.abs(rir_far.samples)))
    assert tap_far == 2 * tap_near
    assert rir_far.samples[tap_far] == pytest.approx(
        rir_near.samples[tap_near] / 2.0, rel=1e-12
    )


def test_rir_is_deterministic():
    room = _room(150.0)
    a = generate_rir(room, 0, 1)
    b = generate_rir(room, 0, 1)
    assert np.array_equal(a.samples, b.samples)


def test_rir_rejects_coincident_source_and_mic():
    p = (1.7, 1.9, 2.6)
    room = _room(100.0, sources=(p, (1.7, 2.5, 2.6)), mics=(p, (1.7, 1.3, 2.6)))
    with pytest.raises(ValueError):
        generate_rir(room, 0, 0)


def test_rir_decay_matches_requested_rt60():
    room = _room(200.0)
    rir = generate_rir(room, 0, 0)
    t60 = schroeder_decay_time(rir.samples, room.sample_rate)
    assert 0.140 <= t60 <= 0.260  # 200 ms +/- 30%


def test_rir_length_override_and_default():
    room = _room(200.0, max_rir_length=300)
    assert room.rir_length == 300
    assert len(generate_rir(room, 0, 0)) == 300
    auto = _room(200.0)
    diagonal = np.linalg.norm(DIMS)
    direct = int(np.ceil(10000 * diagonal / 343.0)) + 1
    tail = int(np.ceil(10000 * 1.5 * 200.0 / 1000.0))
    assert auto.rir_length == max(256, direct + tail)


def _delta_bank(rate=8000, length=16, delays=((0, None), (None, 0))):
    rows = []
    for mic in (0, 1):
        row = []
        for src in (0, 1):
            h = np.zeros(length)
            delay = delays[mic][src]
            if delay is not None:
                h[delay] = 1.0
            row.append(Waveform(h, rate))
        rows.append(tuple(row))
    return ImpulseResponseBank(tuple(rows))


def test_convolve_mix_identity_and_delay():
    rng = np.random.default_rng(0)
    s1 = Waveform(rng.standard_normal(100), 8000)
    s2 = Waveform(rng.standard_normal(100), 8000)

    mix = convolve_mix((s1, s2), _delta_bank())
    assert np.allclose(mix.channels[0].samples[:100], s1.samples, atol=1e-12)
    assert np.allclose(mix.channels[1].samples[:100], s2.samples, atol=1e-12)
    assert mix.n_samples == 100 + 16 - 1

    delayed = convolve_mix((s1, s2), _delta_bank(delays=((5, None), (None, 0))))
    assert np.allclose(delayed.channels[0].samples[5:105], s1.samples, atol=1e-12)
    assert np.allclose(delayed.channels[0].samples[:5], 0.0, atol=1e-12)


def test_convolve_mix_matches_triple_loop():
    rng = np.random.default_rng(1)
    sources = (
        Waveform(rng.standard_normal(30), 8000),
        Waveform(rng.standard_normal(30), 8000),
    )
    rows = []
    for _ in (0, 1):
        row = []
        for _ in (0, 1):
            row.append(Waveform(rng.standard_normal(8), 8000))
        rows.append(tuple(row))
    bank = ImpulseResponseBank(tuple(rows))

    mix = convolve_mix(sources, bank)
    for mic in (0, 1):
        ref = convolve_direct(
            bank.responses[mic][0].samples, sources[0].samples
        ) + convolve_direct(bank.responses[mic][1].samples, sources[1].samples)
        err = np.linalg.norm(mix.channels[mic].samples - ref) / np.linalg.norm(ref)
        assert err <= 1e-9


def test_convolve_mix_linear_in_each_source():
    rng = np.random.default_rng(2)
    bank = _delta_bank(delays=((0, 3), (2, 0)))
    rate = 8000
    a = Waveform(rng.standard_normal(50), rate)
    b = Waveform(rng.standard_normal(50), rate)
    c = Waveform(rng.standard_normal(50), rate)
    zero = Waveform(np.zeros(50), rate)

    combined = convolve_mix((Waveform(a.samples + b.samples, rate), c), bank)
    split = (
        convolve_mix((a, c), bank).to_array() + convolve_mix((b, zero), bank).to_array()
    )
    assert np.allclose(combined.to_array(), split, atol=1e-9)


def test_convolve_mix_rejects_rate_mismatch():
    rng = np.random.default_rng(3)
    bank = _delta_bank(rate=8000)
    s1 = Waveform(rng.standard_normal(40), 16000)
    s2 = Waveform(rng.standard_normal(40), 16000)
    with pytest.raises(ValueError):
        convolve_mix((s1, s2), bank)


def test_convolve_mix_is_sum_of_source_images():
    rng = np.random.default_rng(4)
    room = _room(200.0, max_rir_length=400)
    bank = ImpulseResponseBank.from_room(room)
    sources = (
        Waveform(rng.standard_normal(500), 10000),
        Waveform(rng.standard_normal(500), 10000),
    )
    images = source_images(sources, bank)
    mix = convolve_mix(sources, bank)
    for mic in (0, 1):
        total = images[mic][0].samples + images[mic][1].samples
        assert np.array_equal(mix.channels[mic].samples, total)


def test_simulate_scene_convolves_each_source_once(monkeypatch):
    calls = []
    for module in (pipeline, roomsim):
        original = module.source_images

        def counted(*args, _original=original):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(module, "source_images", counted)

    rng = np.random.default_rng(5)
    sources = (
        Waveform(rng.standard_normal(2000), 10000),
        Waveform(rng.standard_normal(1500), 10000),
    )
    scene = pipeline.simulate_scene(default_config(), 200.0, sources=sources)
    assert len(calls) == 1

    monkeypatch.undo()
    mix = convolve_mix(sources, scene.bank)
    for mic in (0, 1):
        assert np.array_equal(scene.mixture.channels[mic].samples, mix.channels[mic].samples)


def test_bank_from_room_shapes():
    room = _room(150.0, max_rir_length=256)
    bank = ImpulseResponseBank.from_room(room)
    assert bank.sample_rate == 10000
    assert bank.rir_length == 256
    for mic in (0, 1):
        for src in (0, 1):
            assert len(bank.responses[mic][src]) == 256
