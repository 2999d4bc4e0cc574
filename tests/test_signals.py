import struct

import numpy as np
import pytest

from cbss.signals import (
    EmptyWavError,
    MultichannelRecording,
    UnsupportedWavError,
    Waveform,
    gen_am_source,
    read_wav,
    write_wav,
)


def test_waveform_rejects_bad_input():
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError):
        Waveform(np.zeros((4, 2)), 8000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)


def test_waveform_is_read_only():
    w = Waveform(np.zeros(16), 8000)
    with pytest.raises(ValueError):
        w.samples[0] = 1.0


def test_waveform_length_and_duration():
    w = Waveform(np.zeros(4000), 8000)
    assert len(w) == 4000


def test_recording_requires_consistent_channels():
    a = Waveform(np.zeros(100), 8000)
    b = Waveform(np.zeros(100), 16000)
    with pytest.raises(ValueError):
        MultichannelRecording((a, b))
    c = Waveform(np.zeros(99), 8000)
    with pytest.raises(ValueError):
        MultichannelRecording((a, c))
    with pytest.raises(ValueError):
        MultichannelRecording(())


def test_recording_to_array_shape():
    a = Waveform(np.ones(10), 8000)
    b = Waveform(np.zeros(10), 8000)
    rec = MultichannelRecording((a, b))
    arr = rec.to_array()
    assert arr.shape == (2, 10)
    assert rec.n_channels == 2
    assert rec.n_samples == 10


def test_wav_float32_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(500).astype(np.float32).astype(np.float64)
    rec = MultichannelRecording(
        (Waveform(samples, 16000), Waveform(samples[::-1].copy(), 16000))
    )
    path = tmp_path / "f32.wav"
    write_wav(rec, path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    for ch_in, ch_out in zip(rec.channels, back.channels):
        assert np.array_equal(ch_in.samples, ch_out.samples)


def test_read_wav_rejects_empty_file(tmp_path):
    import scipy.io.wavfile

    path = tmp_path / "empty.wav"
    scipy.io.wavfile.write(path, 8000, np.zeros(0, dtype=np.int16))
    with pytest.raises(EmptyWavError):
        read_wav(path)


def test_read_wav_rejects_non_wav_and_odd_formats(tmp_path):
    import scipy.io.wavfile

    garbage = tmp_path / "not.wav"
    garbage.write_text("definitely not audio")
    with pytest.raises(UnsupportedWavError):
        read_wav(garbage)

    int32 = tmp_path / "i32.wav"
    scipy.io.wavfile.write(int32, 8000, np.zeros(10, dtype=np.int32))
    with pytest.raises(UnsupportedWavError):
        read_wav(int32)

    many = tmp_path / "many.wav"
    scipy.io.wavfile.write(many, 8000, np.zeros((10, 3), dtype=np.int16))
    with pytest.raises(UnsupportedWavError):
        read_wav(many)


def _scipy_array(rec: MultichannelRecording, encoding: str) -> np.ndarray:
    """`rec` as the array scipy.io.wavfile.write takes: float32, or PCM16 codes clipped to
    [-1, 1] and scaled by 32768."""
    data = rec.to_array().T
    if encoding == "pcm16":
        data = np.clip(np.round(np.clip(data, -1.0, 1.0) * 32768.0), -32768, 32767)
    out = data.astype(np.int16 if encoding == "pcm16" else np.float32)
    return out[:, 0] if out.shape[1] == 1 else out


def _recording(n_channels: int, n: int = 301, rate: int = 11025) -> MultichannelRecording:
    rng = np.random.default_rng(n_channels)
    return MultichannelRecording(
        tuple(Waveform(rng.uniform(-1.2, 1.2, n), rate) for _ in range(n_channels))
    )


# write_wav writes float32 only; the parameter keeps the ids that name the encoding.
@pytest.mark.parametrize("encoding", ["float32"])
@pytest.mark.parametrize("n_channels", [1, 2])
def test_write_wav_is_byte_equal_to_scipy(tmp_path, encoding, n_channels):
    import scipy.io.wavfile

    rec = _recording(n_channels)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(rec, ours)
    scipy.io.wavfile.write(theirs, rec.sample_rate, _scipy_array(rec, encoding))
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
@pytest.mark.parametrize("n_channels", [1, 2])
def test_read_wav_reads_scipy_files(tmp_path, encoding, n_channels):
    import scipy.io.wavfile

    rec = _recording(n_channels)
    path = tmp_path / "scipy.wav"
    stored = _scipy_array(rec, encoding)
    scipy.io.wavfile.write(path, rec.sample_rate, stored)
    back = read_wav(path)
    assert back.sample_rate == rec.sample_rate
    expected = stored.reshape(len(stored), -1) / (32768.0 if encoding == "pcm16" else 1.0)
    assert np.array_equal(back.to_array(), expected.T)


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pcm16_fmt(n_channels: int, rate: int) -> bytes:
    return struct.pack("<HHIIHH", 1, n_channels, rate, rate * 2 * n_channels, 2 * n_channels, 16)


def test_read_wav_skips_list_and_odd_sized_chunks(tmp_path):
    codes = np.array([[1, -2], [300, -32768], [32767, 0]], dtype="<i2")
    path = tmp_path / "chunks.wav"
    path.write_bytes(
        _riff(
            _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00cbss\x00\x00"),
            _chunk(b"fmt ", _pcm16_fmt(2, 8000)),
            _chunk(b"odd ", b"abc"),  # 3 bytes and a pad byte
            _chunk(b"data", codes.tobytes()),
        )
    )
    back = read_wav(path)
    assert back.sample_rate == 8000
    assert np.array_equal(back.to_array(), codes.T / 32768.0)


def test_read_wav_reads_extensible_pcm16(tmp_path):
    codes = np.array([5, -7, 1000], dtype="<i2")
    subformat = struct.pack("<I", 1) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 8000, 16000, 2, 16, 22, 16, 4) + subformat
    path = tmp_path / "extensible.wav"
    path.write_bytes(_riff(_chunk(b"fmt ", fmt), _chunk(b"data", codes.tobytes())))
    assert np.array_equal(read_wav(path).channels[0].samples, codes / 32768.0)


def test_read_wav_rejects_truncated_data_chunk(tmp_path):
    import scipy.io.wavfile

    path = tmp_path / "cut.wav"
    rec = _recording(2)
    scipy.io.wavfile.write(path, rec.sample_rate, _scipy_array(rec, "pcm16"))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(UnsupportedWavError, match="truncated") as info:
        read_wav(path)
    assert str(path) in str(info.value)


def test_read_wav_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_wav(tmp_path / "absent.wav")


def test_gen_am_source_deterministic():
    a = gen_am_source(3, 1.0, 10000, 2.0)
    b = gen_am_source(3, 1.0, 10000, 2.0)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate == 10000
    assert len(a) == 10000


def test_gen_am_source_seeds_decorrelated():
    a = gen_am_source(1, 5.0, 10000, 0.8)
    b = gen_am_source(2, 5.0, 10000, 0.8)
    rho = np.corrcoef(a.samples, b.samples)[0, 1]
    assert abs(rho) < 0.1


def test_gen_am_source_is_nonstationary():
    # Short-time power must swing enough for blockwise covariances to differ.
    w = gen_am_source(0, 5.0, 10000, 0.8)
    win = 640  # 64 ms at 10 kHz
    n = len(w) // win * win
    var = w.samples[:n].reshape(-1, win).var(axis=1)
    spread_db = 10.0 * np.log10(var.max() / var.min())
    assert spread_db >= 6.0


def test_gen_am_source_peak_normalized():
    w = gen_am_source(7, 0.5, 8000, 4.0)
    assert np.max(np.abs(w.samples)) == pytest.approx(0.9)


def test_gen_am_source_validates_arguments():
    with pytest.raises(ValueError):
        gen_am_source(0, 0.0, 8000, 2.0)
    with pytest.raises(ValueError):
        gen_am_source(0, 1.0, 8000, 0.1)
    with pytest.raises(ValueError):
        gen_am_source(0, 1.0, 8000, 40.0)
