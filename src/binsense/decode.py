"""Decoders: top-k correlation, exhaustive maximum likelihood, and the
single-measurement dyadic construction for the noiseless linear channel.

Tie rules are deterministic everywhere: equal correlation scores resolve
toward the smaller column index, and equal MLE residuals toward the
lexicographically smaller support.  Gaussian inputs make exact ties a
measure-zero event, but tests need reproducible answers.
"""

from __future__ import annotations

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


def topk_correlation_decode(A: SensingMatrix, y: MeasurementVector, k: int) -> DecodeResult:
    """Support estimate from the k columns most correlated with the output.

    Scores are l_i = sum_j y_j A_{j,i}; the estimate is the index set of
    the k largest scores.  Works for every channel.
    """
    if y.m != A.m:
        raise ValueError(f"dimension mismatch: matrix has m={A.m}, measurements have m={y.m}")
    if not 1 <= k <= A.n:
        raise ValueError(f"need 1 <= k <= n={A.n}, got k={k}")
    scores = y.values @ A.entries
    return DecodeResult(_top_k_indices(scores, k), "topk", scores)


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
    residuals keep the first, lexicographically smallest, support).
    Intended as a slow, auditable oracle; ``max_candidates`` guards the
    runtime.
    """
    if y.model.tag != "linear":
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
    cols = A.entries
    yv = y.values
    best_support = None
    best_ss = math.inf
    for combo in itertools.combinations(range(A.n), k):
        r = yv - np.take(cols, combo, axis=1).sum(axis=1)
        ss = float(r @ r)
        if ss < best_ss:
            best_ss = ss
            best_support = combo
    return DecodeResult(np.array(best_support, dtype=np.int64), "mle")


def quantize(y: MeasurementVector) -> MeasurementVector:
    """Keep only the sign of each measurement, carrying the noise variance.

    A linear vector becomes a one-bit vector over the same channel noise;
    a one-bit vector is returned unchanged (sign is idempotent).
    """
    if y.model.tag == "logistic":
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
