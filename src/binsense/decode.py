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
the prefix on its own.  The MLE oracle enumerates its candidates from a
cached lexicographic table of supports.

The Monte Carlo harness judges top-k trials from the scores' sufficient
statistics without drawing a matrix; the decoders here are the library
API and the reference its tests hold it to.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import MeasurementVector, OneBit, SensingMatrix, SparseSignal, sign_pm1

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


class BudgetExceededError(RuntimeError):
    """Raised when exhaustive MLE would enumerate more supports than allowed."""


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


def _check_prefixes(ms, m: int) -> np.ndarray:
    rows = np.asarray(ms, dtype=np.int64)
    ok = rows.ndim == 1 and rows.size > 0 and 1 <= rows[0] and rows[-1] <= m
    if not (ok and np.all(np.diff(rows) > 0)):
        raise ValueError(f"prefix lengths must be strictly ascending within [1, {m}], got {ms!r}")
    return rows


def topk_correlation_decode(A: SensingMatrix, y: MeasurementVector, k: int) -> DecodeResult:
    """Support estimate from the k columns most correlated with the output.

    Scores are l_i = sum_j y_j A_{j,i}, added one row at a time in row
    order; the estimate is the index set of the k largest scores.  Works
    for every channel.
    """
    if y.m != A.m:
        raise ValueError(f"dimension mismatch: matrix has m={A.m}, measurements have m={y.m}")
    if not 1 <= k <= A.n:
        raise ValueError(f"need 1 <= k <= n={A.n}, got k={k}")
    terms = A.entries * y.values[:, None]
    # numpy reduces axis 0 of a 2-D array row by row, but a single column
    # is contiguous and would be summed pairwise; accumulate keeps it in order
    if A.n > 1:
        scores = np.add.reduce(terms, axis=0)
    else:
        scores = np.add.accumulate(terms, axis=0)[-1]
    return DecodeResult(_top_k_indices(scores, k), "topk", scores)


# squared residuals the MLE oracle holds at once (rows x candidates)
_MLE_BLOCK = 1 << 15


def _mle_footprint(m: int, n: int) -> int:
    """Bytes :func:`mle_prefix_decode` holds for an m x n matrix: the matrix
    and a block of squared residuals (for more supports than the block
    holds, one row of them and their sums instead)."""
    return (m * n + _MLE_BLOCK) * 8


@functools.lru_cache(maxsize=1)
def _supports(n: int, k: int) -> np.ndarray:
    """All C(n, k) supports of range(n) in lexicographic order, one per row.

    Read-only, and kept for the last (n, k) asked, so the trials of a
    sweep enumerate their candidates once.  Indices take the smallest
    unsigned type that holds them: one byte each up to n = 256.
    """
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    table = np.fromiter(flat, dtype=np.min_scalar_type(n - 1), count=count * k).reshape(count, k)
    table.flags.writeable = False
    return table


def mle_prefix_decode(
    A: SensingMatrix,
    y: MeasurementVector,
    k: int,
    ms,
    max_candidates: int = 1_000_000,
) -> np.ndarray:
    """Exhaustive MLE support of the first m rows, for each m in the ascending ``ms``.

    One pass over the rows, a few at a time, with the squared residuals
    of all C(n, k) supports in lexicographic order across each row.  The
    sums so far are added onto the first row of a piece, which is then
    reduced row by row, so every sum is the running sum
    ((s + r_lo) + r_lo+1) + ....  At each m the first minimum wins: equal
    residuals keep the lexicographically smallest support.  Returns a
    (len(ms), k) array.
    """
    if y.model.binary:
        raise ValueError("maximum-likelihood decoding is implemented for the linear channel only")
    if y.m != A.m:
        raise ValueError(f"dimension mismatch: matrix has m={A.m}, measurements have m={y.m}")
    if not 1 <= k <= A.n:
        raise ValueError(f"need 1 <= k <= n={A.n}, got k={k}")
    n_candidates = math.comb(A.n, k)
    if n_candidates > max_candidates:
        raise BudgetExceededError(
            f"C({A.n}, {k}) = {n_candidates} supports exceeds the budget of "
            f"{max_candidates}; shrink the instance or raise max_candidates"
        )
    marks = _check_prefixes(ms, A.m).tolist()
    supports = _supports(A.n, k)
    step = max(1, _MLE_BLOCK // len(supports))  # rows held at once, every candidate a column
    best = np.empty((len(marks), k), dtype=np.int64)
    sums = np.zeros(len(supports))  # each candidate's squared residuals so far
    lo = j = 0
    for hi in sorted(set(marks).union(range(step, marks[-1], step))):
        a = A.entries[lo:hi]
        fit = np.take(a, supports[:, 0], axis=1)  # C order; a[:, idx] would be F order
        for p in range(1, k):
            fit += np.take(a, supports[:, p], axis=1)
        np.subtract(y.values[lo:hi, None], fit, out=fit)  # residuals
        fit *= fit
        fit[0] += sums  # sums + r_lo, bit for bit: float addition commutes
        # rows in order; a lone column would be summed pairwise, but then
        # the one candidate wins whatever its sum
        sums = np.add.reduce(fit, axis=0)
        if hi == marks[j]:
            best[j] = supports[sums.argmin()]  # the first minimum: lexicographically smallest
            j += 1
        lo = hi
    return best


def mle_decode_linear(
    A: SensingMatrix,
    y: MeasurementVector,
    k: int,
    max_candidates: int = 1_000_000,
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


def _check_decimal_n(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= DECIMAL_MAX_N:
        raise ValueError(
            f"n must lie in [1, {DECIMAL_MAX_N}] so the single float64 measurement "
            f"is exact, got {n!r}"
        )


def decimal_row(n: int) -> SensingMatrix:
    """The 1 x n design [1, 2, 4, ..., 2^(n-1)] / 2^n.

    One noiseless linear measurement through this row encodes the whole
    signal: 2^n * y is the integer whose binary digits are the signal.
    """
    _check_decimal_n(n)
    entries = np.ldexp(1.0, np.arange(n, dtype=np.int64) - n)
    return SensingMatrix(entries.reshape(1, n))


def decimal_encode(x: SparseSignal) -> float:
    """The single measurement produced by :func:`decimal_row` on x, exactly."""
    _check_decimal_n(x.n)
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
    _check_decimal_n(n)
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
