"""Scalar math and seeded randomness shared by every other module.

All logarithms and entropies in this library are base 2; the few bound
formulas that are ratios of same-base logarithms are documented as
base-free where they appear.

Randomness contract: every random quantity is drawn from an
:class:`RngStream`, a (master_seed, stream_id) pair that keys the
Philox 4x64 counter-based generator.  The pair maps bijectively onto
Philox's 128-bit key, so distinct stream ids give independent sequences
and the same pair replays the same sequence on any platform.  Gaussian
variates are the inverse normal CDF (scipy's ``ndtri``) of the stream's
53-bit uniform doubles, each moved into the open interval (0, 1); numpy's
own normal sampler is never used, so the pipeline from seed to sample is
pinned down here.

Every draw is prefix-stable: sample i depends on uniform i alone, so the
first c samples of a stream are the same whether c or more are drawn,
and one matrix drawn at m rows serves every smaller m.  A draw may also
start anywhere in its stream (``start``): Philox is counter-based, so
every draw sets the counter to the step that holds uniform s and drops
the uniforms of that step before s.  Reading samples [s, s + c) thus
costs c samples whatever s is, and no stream object holds a generator,
so the Monte Carlo harness can give each node of a trial's Brownian
skeleton a fixed range of one stream, draw only the nodes it needs, in
any order, and draw a node for a block of trials in one pass, each row
at its own stream and counter (``_gaussian_rows``).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc as _erfc
from scipy.special import ndtri

__all__ = [
    "RngStream",
    "derive_trial_stream",
    "binary_entropy",
    "std_normal_cdf",
    "sample_gaussian",
    "sample_indices",
    "TRIAL_STREAM_SLOTS",
]

_U64_MAX = 0xFFFFFFFFFFFFFFFF
_SQRT2 = math.sqrt(2.0)

# stream-id slots reserved per trial; substream tags must stay below this
TRIAL_STREAM_SLOTS = 8


def _check_int(name: str, value, low: int, high: int | None = None) -> int:
    """The library's one rule for an integer argument: ``value`` as a Python
    int if it is a Python or numpy integer in [low, high] (no upper limit
    when high is None), else ValueError.  A bool or a float, even 10.0, fails."""
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        number = int(value)
        if low <= number and (high is None or number <= high):
            return number
    if low == 1 and high is None:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    span = f"[{low}, inf)" if high is None else f"[{low}, {high}]"
    raise ValueError(f"{name} must be an integer in {span}, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (master_seed, stream_id).

    Both fields are unsigned 64-bit integers.  Every draw of the library
    reads a stream through :func:`_uniforms`, never ``generator()``, which
    gives callers and tests a fresh numpy Generator of the same uniforms.
    Independent sources take distinct ids.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 0, _U64_MAX))

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, tag: int) -> "RngStream":
        """Derived stream for one role (signal/matrix/noise) within a trial.

        Valid only one level deep: tags occupy the slots that
        :func:`derive_trial_stream` reserves, so nested calls would collide.
        """
        tag = _check_int("substream tag", tag, 0, TRIAL_STREAM_SLOTS - 1)
        return RngStream(self.master_seed, (self.stream_id + tag) & _U64_MAX)


def derive_trial_stream(master_seed: int, trial_index: int) -> RngStream:
    """Stream for one Monte Carlo trial.

    Trial index ``i`` owns stream ids ``[8i, 8i+8)`` so each trial can
    split into up to eight role substreams without colliding with any
    other trial.  The map is injective for trial indices below 2**61,
    far beyond any desk-scale sweep.
    """
    trial_index = _check_int("trial_index", trial_index, 0)
    return RngStream(master_seed, (trial_index * TRIAL_STREAM_SLOTS) & _U64_MAX)


def binary_entropy(p):
    """Binary entropy h2(p) in bits, with 0*log2(0) taken as 0.

    Accepts a scalar or ndarray in [0, 1]; returns the same shape.
    """
    arr = np.asarray(p, dtype=np.float64)
    if np.any((arr < 0.0) | (arr > 1.0)) or np.any(np.isnan(arr)):
        raise ValueError("binary_entropy requires probabilities in [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    q = arr[inner]
    out[inner] = -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))
    if arr.ndim == 0:
        return float(out)
    return out


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Phi(x) = erfc(-x / sqrt(2)) / 2, absolute error well below 1e-10
    over the whole real line; saturates cleanly to 0 and 1.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * _erfc(-arr / _SQRT2)
    if arr.ndim == 0:
        return float(out)
    return out


def _open_interval(u: np.ndarray) -> np.ndarray:
    """Move 53-bit uniforms from [0, 1) into (0, 1), in place.

    Keeps the top 52 bits j of each uniform and returns (j + 0.5) * 2**-52,
    exactly: the 2**52 values lie symmetrically about 1/2, from 2**-53 to
    1 - 2**-53, so their normal quantiles are finite and come in pairs of
    opposite sign.
    """
    u *= 2.0 ** 52
    np.floor(u, out=u)
    u += 0.5
    u *= 2.0 ** -52
    return u


# One generator per thread, re-keyed for every draw: setting a Philox state
# (held in lists, which the setter reads ~3x faster than arrays) costs about a
# tenth of building one, whose unseeded constructor reads OS entropy.
_scratch = threading.local()


def _uniforms(stream: RngStream, count: int, start: int = 0, out=None) -> np.ndarray:
    """Uniforms [start, start + count) of the stream, into ``out`` if given:
    ``stream.generator().random(start + count)[start:]``.  Philox makes 4
    uniforms per counter step and steps the counter before making them, so
    the draw sets the counter to ``start // 4`` with nothing buffered and
    drops the first ``start % 4`` uniforms of that step.
    """
    if not hasattr(_scratch, "generator"):
        _scratch.generator = np.random.Generator(np.random.Philox(key=0))
        _scratch.fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
                          "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    state = _scratch.fresh["state"]
    state["key"] = [stream.master_seed, stream.stream_id]
    state["counter"][0] = start // 4
    _scratch.generator.bit_generator.state = _scratch.fresh  # buffer_pos 4: nothing buffered
    if start % 4:
        _scratch.generator.random(start % 4)
    return _scratch.generator.random(out=np.empty(count) if out is None else out)


def _gaussian_rows(streams, count: int, start: int, out: np.ndarray) -> np.ndarray:
    """Fill row r of ``out`` with ``sample_gaussian(streams[r], count, start=start)``."""
    for row, stream in zip(out, streams):
        _uniforms(stream, count, start, row)
    return ndtri(_open_interval(out), out=out)


def sample_gaussian(stream: RngStream, count: int, *, start: int = 0) -> np.ndarray:
    """``count`` i.i.d. N(0, 1) variates, fully determined by the stream.

    Inverse CDF: sample i is ``ndtri`` of the stream's uniform start + i,
    moved into the open interval (0, 1).  Sample i depends on uniform i
    alone, so a shorter draw is always a prefix of a longer one, and a
    draw at ``start`` is that slice of one draw from the beginning.  The
    uniforms are read straight from ``start``, so reading a slice costs
    no more than its own samples.  A block of rows: :func:`_gaussian_rows`.
    """
    count = _check_int("count", count, 1)
    start = _check_int("start", start, 0, 2**66 - 1)  # start // 4 fills one counter word
    return _gaussian_rows((stream,), count, start, np.empty((1, count)))[0]


def sample_indices(stream: RngStream, n: int, k: int) -> np.ndarray:
    """Uniformly random k-subset of range(n), sorted ascending.

    Partial Fisher-Yates over k uniform doubles.  The floor map from a
    53-bit uniform to a bounded integer carries an O(2**-53) bias,
    negligible at any feasible n.
    """
    n = _check_int("n", n, 0)
    k = _check_int("k", k, 0, n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    u = _uniforms(stream, k)
    idx = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = i + int(u[i] * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:k])
