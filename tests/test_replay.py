"""Binary replay format: round trips, header layout, and corruption checks."""

import math
import struct

import numpy as np
import pytest

from binsense.model import Linear, Logistic, MeasurementVector, OneBit, gen_sensing_matrix, measure, random_signal
from binsense.numerics import RngStream
from binsense.replay import REPLAY_MAGIC, load_replay, save_replay


@pytest.fixture
def instance():
    x = random_signal(12, 3, RngStream(1, 0))
    A = gen_sensing_matrix(7, 12, RngStream(1, 1))
    y = measure(A, x, Linear(0.5), RngStream(1, 2))
    return A, y


def test_roundtrip_exact(tmp_path, instance):
    A, y = instance
    path = tmp_path / "dump.bin"
    save_replay(path, A, y)
    A2, y2 = load_replay(path)
    assert np.array_equal(A2.entries, A.entries)
    assert np.array_equal(y2.values, y.values)
    assert y2.model == y.model
    assert A2.stream == A.stream  # seed provenance preserved


@pytest.mark.parametrize("model_ctor", [lambda: OneBit(2.0), lambda: Logistic(0.7), lambda: Logistic(math.inf)])
def test_channel_tags(tmp_path, model_ctor, instance):
    A, _ = instance
    model = model_ctor()
    x = random_signal(12, 3, RngStream(2, 0))
    y = measure(A, x, model, RngStream(2, 1))
    path = tmp_path / "dump.bin"
    save_replay(path, A, y)
    _, y2 = load_replay(path)
    assert y2.model == model
    assert np.array_equal(y2.values, y.values)


def test_header_layout(tmp_path, instance):
    A, y = instance
    path = tmp_path / "dump.bin"
    save_replay(path, A, y)
    raw = path.read_bytes()
    magic, version, tag, flags, m, n, noise, seed, sid = struct.unpack_from("<8sHHIQQdQQ", raw)
    assert magic == REPLAY_MAGIC
    assert (version, tag, flags) == (1, 0, 1)
    assert (m, n) == (7, 12)
    assert noise == 0.5
    assert (seed, sid) == (1, 1)
    assert len(raw) == 56 + 8 * m * n + 8 * m


def test_length_mismatch_rejected(tmp_path, instance):
    A, y = instance
    short = MeasurementVector(y.model, y.values[:-1])
    with pytest.raises(ValueError):
        save_replay(tmp_path / "bad.bin", A, short)


def test_corruption_detected(tmp_path, instance):
    A, y = instance
    path = tmp_path / "dump.bin"
    save_replay(path, A, y)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(ValueError):
        load_replay(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError):
        load_replay(truncated)

    bad_tag = tmp_path / "tag.bin"
    bad_tag.write_bytes(bytes(raw[:10]) + (3).to_bytes(2, "little") + bytes(raw[12:]))
    with pytest.raises(ValueError, match="unknown channel tag 3"):
        load_replay(bad_tag)


def test_no_provenance_for_manual_matrix(tmp_path):
    from binsense.model import SensingMatrix

    A = SensingMatrix(np.arange(6, dtype=float).reshape(2, 3))
    y = MeasurementVector(Linear(0.0), np.array([1.0, 2.0]))
    path = tmp_path / "dump.bin"
    save_replay(path, A, y)
    A2, _ = load_replay(path)
    assert A2.stream is None
