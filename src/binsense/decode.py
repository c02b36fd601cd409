"""Decoders: top-k correlation, exhaustive maximum likelihood, and the
single-measurement dyadic construction for the noiseless linear channel.

Tie rules are deterministic everywhere: equal correlation scores resolve
toward the smaller column index, and equal MLE residuals toward the
lexicographically smaller support.  Gaussian inputs make exact ties a
measure-zero event, but tests need reproducible answers.

Both statistics are sums over rows, added one row at a time in row
order by ``np.add.reduce(axis=0)`` over rows x columns (or candidates).
The score or residual of the first m rows is thus a function of those
rows alone, so one pass over a tall matrix yields the exact MLE of every
row prefix (:func:`mle_prefix_decode`), equal bit for bit to decoding
the prefix on its own.  The MLE oracle enumerates its candidates in
lexicographic order and chains their column sums up from the single
columns: an l-subset's sum is its (l-1)-prefix's plus its last column,
the same additions in the same order as summing its columns.

The Monte Carlo harness judges top-k trials from the scores' sufficient
statistics without drawing a matrix; the decoders here are the library
API and the reference its tests hold it to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import MeasurementVector, OneBit, SensingMatrix, SparseSignal, sign_pm1
from .numerics import _check_int

__all__ = [
    "BudgetExceededError",
    "DecodeResult",
    "topk_correlation_decode",
    "mle_decode_linear",
    "mle_prefix_decode",
    "quantize",
    "quantize_then_decode",
    "decimal_row",
    "decimal_encode",
    "decimal_decode",
    "decimal_roundtrip",
    "DECIMAL_MAX_N",
]

# float64 carries 53 significant bits, so a single dyadic measurement can
# hold at most 53 signal coordinates without rounding
DECIMAL_MAX_N = 53

# the supports exhaustive MLE enumerates at most, unless its caller says more
MLE_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """Raised when exhaustive MLE would enumerate more supports than allowed."""


def _check_budget(n: int, k: int, max_candidates: int) -> None:
    """Refuse an MLE whose C(n, k) supports exceed ``max_candidates``."""
    if math.comb(n, k) > _check_int("max_candidates", max_candidates, 1):
        raise BudgetExceededError(
            f"C({n}, {k}) = {math.comb(n, k)} supports exceeds the budget of "
            f"{max_candidates}; shrink the instance or raise max_candidates (CLI: --mle-budget)"
        )


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decoded support plus optional per-column scores.

    ``support`` is sorted ascending; ``scores`` is the full length-n
    correlation vector for decoders that compute one, else None.
    """

    support: np.ndarray
    decoder: str
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.int64))

    def support_set(self) -> frozenset:
        return frozenset(int(i) for i in self.support)


def _top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties go to the smaller index.

    Partial selection (no full sort): find the k-th largest value, keep
    everything strictly above it, and fill the remaining slots with the
    smallest-indexed entries equal to it.
    """
    n = scores.size
    if k == n:
        return np.arange(n, dtype=np.int64)
    kth = np.partition(scores, n - k)[n - k]
    above = np.flatnonzero(scores > kth)
    ties = np.flatnonzero(scores == kth)
    chosen = np.concatenate([above, ties[: k - above.size]])
    return np.sort(chosen).astype(np.int64)


def _check_prefixes(ms, m: int | None = None) -> tuple:
    """The measurement counts ``ms`` as a tuple of Python ints, if each lies
    in [1, m] (no upper limit when m is None) and they strictly ascend."""
    rows = tuple(_check_int("m", row, 1, m) for row in ms)
    if not rows or any(a >= b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"m values must be a nonempty, strictly ascending sequence, got {ms!r}")
    return rows


def topk_correlation_decode(A: SensingMatrix, y: MeasurementVector, k: int) -> DecodeResult:
    """Support estimate from the k columns most correlated with the output.

    Scores are l_i = sum_j y_j A_{j,i}, added one row at a time in row
    order; the estimate is the index set of the k largest scores.  Works
    for every channel.
    """
    if y.m != A.m:
        raise ValueError(f"dimension mismatch: matrix has m={A.m}, measurements have m={y.m}")
    k = _check_int("k", k, 1, A.n)
    terms = A.entries * y.values[:, None]
    # numpy reduces axis 0 of a 2-D array row by row, but a single column
    # is contiguous and would be summed pairwise; accumulate keeps it in order
    if A.n > 1:
        scores = np.add.reduce(terms, axis=0)
    else:
        scores = np.add.accumulate(terms, axis=0)[-1]
    return DecodeResult(_top_k_indices(scores, k), "topk", scores)


# squared residuals the MLE oracle holds at once (rows x its two widest levels)
_MLE_BLOCK = 1 << 16


def _levels(n: int, k: int) -> list:
    """Sizes of the MLE oracle's levels 1..k: level l holds the
    C(n - k + l, l) l-subsets of range(n) that begin some k-subset."""
    return [math.comb(n - k + l, l) for l in range(1, k + 1)]


def _index(count: int) -> np.dtype:
    """The smallest unsigned type that indexes ``count`` items."""
    return np.min_scalar_type(max(count - 1, 0))


@functools.lru_cache(maxsize=1)  # every trial of a call asks for the same
def _mle_footprint(m: int, n: int, k: int) -> int:
    """Bytes :func:`mle_prefix_decode` holds for an m x n matrix and k: the
    matrix; its room for a piece, two levels and a gathered column, each
    at most ``_MLE_BLOCK`` residuals or one row of supports; the running
    sums and an index numpy widens to gather with; :func:`_plan`'s tables;
    and 64 KiB for the trial's signal, outputs and bookkeeping."""
    sizes = _levels(n, k)
    column = _index(n).itemsize
    tables = column * k * sizes[-1]
    for below, size in zip(sizes, sizes[1:]):
        tables += size * (_index(below).itemsize + column)
    return (m * n + 3 * max(_MLE_BLOCK, sizes[-1]) + 2 * sizes[-1]) * 8 + tables + 2**16


@functools.lru_cache(maxsize=1)
def _plan(n: int, k: int) -> tuple:
    """How :func:`mle_prefix_decode` builds the sums of all C(n, k) supports.

    Returns (chain, supports, width): for each level l = 2..k a (parent,
    last) pair, so that a subset's sum is its parent's in level l - 1
    plus its last column, where a level-1 subset's index is its column;
    every support in lexicographic order, one a row; and the widest two
    adjacent levels held at once (level 1 is the matrix itself).  In
    lexicographic order a prefix's children are contiguous, their last
    elements running from the prefix's last + 1 to the highest that
    leaves room for the rest, so each level follows from the one below
    by ``np.repeat``.

    Read-only, and kept for the last (n, k) asked, so the trials of a
    sweep build it once.  Indices take the smallest unsigned type that
    holds them: one byte a column up to n = 256.
    """
    sizes = _levels(n, k)
    column = _index(n)
    table = np.arange(sizes[0], dtype=column)[:, None]
    chain = []
    for level in range(2, k + 1):
        top = n - k + level - 1  # the highest last element at this level
        children = top - table[:, -1].astype(np.intp)
        ends = np.cumsum(children)
        parent = np.repeat(np.arange(len(table), dtype=_index(len(table))), children)
        last = (np.arange(top + 1, top + 1 + ends[-1]) - np.repeat(ends, children)).astype(column)
        table = np.column_stack((table[parent], last))
        chain.append((parent, last))
    for array in [table] + [array for pair in chain for array in pair]:
        array.flags.writeable = False
    return tuple(chain), table, sizes[-1] + (sizes[-2] if k > 2 else 0)


def mle_prefix_decode(
    A: SensingMatrix,
    y: MeasurementVector,
    k: int,
    ms,
    max_candidates: int = MLE_BUDGET,
) -> np.ndarray:
    """Exhaustive MLE support of the first m rows, for each m in the ascending ``ms``.

    One pass over the rows, a few at a time, with the squared residuals
    of all C(n, k) supports in lexicographic order across each row.  The
    fits are chained up from the single columns (:func:`_plan`): an
    l-subset's sum is its (l-1)-prefix's plus its last column, so each
    support's fit is ((a_i1 + a_i2) + ...) + a_ik, in index order.  The
    sums so far are added onto the first row of a piece, which is reduced
    row by row, so every sum is the running sum ((s + r_lo) + r_lo+1) +
    ....  At each m the first minimum wins: equal residuals keep the
    lexicographically smallest support.  Returns a (len(ms), k) array.
    """
    if y.model.binary:
        raise ValueError("maximum-likelihood decoding is implemented for the linear channel only")
    if y.m != A.m:
        raise ValueError(f"dimension mismatch: matrix has m={A.m}, measurements have m={y.m}")
    k = _check_int("k", k, 1, A.n)
    _check_budget(A.n, k, max_candidates)
    marks = _check_prefixes(ms, A.m)
    chain, supports, width = _plan(A.n, k)
    step = max(1, _MLE_BLOCK // width)  # rows held at once
    pieces = sorted(set(marks).union(range(step, marks[-1], step)))
    rows = max(hi - lo for lo, hi in zip([0] + pieces, pieces))
    room = np.empty((3, rows * len(supports)))  # two levels and a column, reused by every piece

    def gather(source, index, into):
        out = room[into, : len(source) * len(index)].reshape(len(source), len(index))
        # "clip" fills out in place, where "raise" would buffer; no index is out of range
        return source.take(index, 1, out, "clip")

    best = np.empty((len(marks), k), dtype=np.int64)
    sums = np.zeros(len(supports))  # each candidate's squared residuals so far
    lo = j = 0
    for hi in pieces:
        a = A.entries[lo:hi]
        # a level-1 sum is its column; k = 1 copies its columns for the residuals
        fit = a if chain else gather(a, supports[:, 0], 0)  # C order; a[:, idx] would be F order
        for level, (parent, last) in enumerate(chain):
            fit = gather(fit, parent, level % 2)
            fit += gather(a, last, 2)
        np.subtract(y.values[lo:hi, None], fit, out=fit)  # residuals
        fit *= fit
        fit[0] += sums  # sums + r_lo, bit for bit: float addition commutes
        # rows in order; a lone column would be summed pairwise, but then
        # the one candidate wins whatever its sum
        np.add.reduce(fit, axis=0, out=sums)
        if hi == marks[j]:
            best[j] = supports[sums.argmin()]  # the first minimum: lexicographically smallest
            j += 1
        lo = hi
    return best


def mle_decode_linear(
    A: SensingMatrix,
    y: MeasurementVector,
    k: int,
    max_candidates: int = MLE_BUDGET,
) -> DecodeResult:
    """Exhaustive maximum-likelihood decoding for the linear channel.

    With Gaussian noise the likelihood maximizer over k-sparse binary
    candidates is the support minimizing ||y - A x'||^2, found here by
    enumerating all C(n, k) supports in lexicographic order (so equal
    residuals keep the first, lexicographically smallest, support); it
    is :func:`mle_prefix_decode` at the full m.  Intended as a slow,
    auditable oracle; ``max_candidates`` guards the runtime.
    """
    support = mle_prefix_decode(A, y, k, [A.m], max_candidates)[0]
    return DecodeResult(support, "mle")


def quantize(y: MeasurementVector) -> MeasurementVector:
    """Keep only the sign of each measurement, carrying the noise variance.

    A linear vector becomes a one-bit vector over the same channel noise;
    a one-bit vector is returned unchanged (sign is idempotent).
    """
    if y.model.noise_name != "sigma2":  # no Gaussian noise to carry
        raise ValueError("quantization applies to linear (or already one-bit) measurements")
    return MeasurementVector(OneBit(y.model.sigma2), sign_pm1(y.values))


def quantize_then_decode(A: SensingMatrix, y: MeasurementVector, k: int) -> DecodeResult:
    """Sign the measurements, then run the top-k correlation decoder."""
    inner = topk_correlation_decode(A, quantize(y), k)
    return DecodeResult(inner.support, "quantize_then_topk", inner.scores)


def decimal_row(n: int) -> SensingMatrix:
    """The 1 x n design [1, 2, 4, ..., 2^(n-1)] / 2^n.

    One noiseless linear measurement through this row encodes the whole
    signal: 2^n * y is the integer whose binary digits are the signal.
    """
    n = _check_int("n", n, 1, DECIMAL_MAX_N)
    entries = np.ldexp(1.0, np.arange(n, dtype=np.int64) - n)
    return SensingMatrix(entries.reshape(1, n))


def decimal_encode(x: SparseSignal) -> float:
    """The single measurement produced by :func:`decimal_row` on x, exactly."""
    _check_int("n", x.n, 1, DECIMAL_MAX_N)
    total = 0
    for i in x.support:
        total += 1 << i
    return math.ldexp(float(total), -x.n)


def decimal_decode(y: float, n: int) -> np.ndarray:
    """Recover the support from one dyadic measurement.

    Computes 2^n * y, requires it to be an exact integer (any channel
    noise breaks this and is refused -- the construction only covers the
    noiseless linear channel), and reads the support off its binary
    digits.
    """
    n = _check_int("n", n, 1, DECIMAL_MAX_N)
    scaled = math.ldexp(y, n)
    total = round(scaled)
    if scaled != total:
        raise ValueError(
            "measurement is not an exact multiple of 2**-n; the single-measurement "
            "decoder requires the noiseless linear channel"
        )
    if not 0 <= total < (1 << n):
        raise ValueError(f"measurement decodes to {total}, outside [0, 2**{n})")
    return np.array([i for i in range(n) if (total >> i) & 1], dtype=np.int64)


def decimal_roundtrip(x: SparseSignal) -> np.ndarray:
    """Encode x into one measurement and decode it back; exact by construction."""
    return decimal_decode(decimal_encode(x), x.n)
