"""Binary dump of a sensing matrix plus its measurement vector, for replay.

Byte layout (all little-endian), 56-byte header followed by raw floats:

    offset  size  field
    0       8     magic, the ASCII bytes "BSREPLAY"
    8       2     format version (u16), currently 1
    10      2     channel tag (u16): index in model.CHANNELS, so 0 linear,
                  1 one-bit, 2 logistic; that order is part of the format
    12      4     flags (u32): bit 0 set when seed provenance is recorded
    16      8     m, number of rows (u64)
    24      8     n, number of columns (u64)
    32      8     channel noise parameter (f64): sigma2, or beta for logistic
    40      8     master_seed of the matrix stream (u64, 0 if no provenance)
    48      8     stream_id of the matrix stream (u64, 0 if no provenance)
    56      8mn   matrix entries, row-major f64
    56+8mn  8m    measurement values, f64

One-bit and logistic measurements are stored as +/-1.0 floats.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import CHANNELS, MeasurementVector, SensingMatrix, noise_param
from .numerics import RngStream

__all__ = ["save_replay", "load_replay", "REPLAY_MAGIC"]

REPLAY_MAGIC = b"BSREPLAY"
_VERSION = 1
_HEADER = struct.Struct("<8sHHIQQdQQ")
_FLAG_HAS_PROVENANCE = 1


def save_replay(path, matrix: SensingMatrix, measurements: MeasurementVector) -> None:
    """Write matrix and measurements to ``path`` in the documented layout."""
    if measurements.m != matrix.m:
        raise ValueError(
            f"measurement length {measurements.m} does not match matrix rows {matrix.m}"
        )
    model = measurements.model
    tag = CHANNELS.index(type(model))
    noise = noise_param(model)
    flags = 0
    seed = sid = 0
    if matrix.stream is not None:
        flags |= _FLAG_HAS_PROVENANCE
        seed, sid = matrix.stream.master_seed, matrix.stream.stream_id
    header = _HEADER.pack(
        REPLAY_MAGIC, _VERSION, tag, flags, matrix.m, matrix.n, noise, seed, sid
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(matrix.entries.astype("<f8").tobytes())
        fh.write(measurements.values.astype("<f8").tobytes())


def load_replay(path) -> tuple[SensingMatrix, MeasurementVector]:
    """Read a dump written by :func:`save_replay`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError("replay file truncated: header incomplete")
    magic, version, tag, flags, m, n, noise, seed, sid = _HEADER.unpack_from(raw)
    if magic != REPLAY_MAGIC:
        raise ValueError(f"not a replay file (magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"unsupported replay version {version}")
    expected = _HEADER.size + 8 * m * n + 8 * m
    if len(raw) != expected:
        raise ValueError(f"replay file has {len(raw)} bytes, expected {expected}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    entries = body[: m * n].reshape(m, n).copy()
    values = body[m * n :].copy()
    stream = RngStream(seed, sid) if flags & _FLAG_HAS_PROVENANCE else None
    if tag >= len(CHANNELS):
        raise ValueError(f"unknown channel tag {tag}")
    return SensingMatrix(entries, stream), MeasurementVector(CHANNELS[tag](noise), values)
