"""Closed-form sample-complexity catalog for sparse binary recovery.

Every function is pure and deterministic.  All entropies and logarithms
are base 2; thresholds that are ratios of same-base logarithms (the
all-or-nothing threshold, the capacity-style lower bounds, the
maximum-likelihood bound) are base-free and tested as such.

Lower bounds carry a Fano-style correction for a target error
probability delta; when the correction (or a whole bound) would go
negative the value clamps to 0 and is flagged vacuous -- a negative
measurement count is meaningless.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import Linear, Logistic, Model, OneBit
from .numerics import _check_int, binary_entropy

__all__ = [
    "NoiselessRegimeError",
    "fano_correction",
    "all_or_nothing_threshold",
    "conjectured_alg_threshold",
    "topk_sample_bound",
    "topk_sample_bound_closed",
    "glm_fano_lower",
    "onebit_fano_lower",
    "logistic_fano_lower",
    "linear_fano_lower",
    "shell_entropy",
    "ScanBound",
    "mle_sample_bound",
    "linear_shell_lower",
    "CurveRow",
    "mle_bound_curve",
    "curve_to_csv",
    "BoundQuery",
    "BoundReport",
    "bound_report",
]


class NoiselessRegimeError(ValueError):
    """Raised for thresholds that are undefined at sigma2 = 0.

    In the noiseless linear regime a single exact-arithmetic measurement
    recovers the signal (see decode.decimal_row), so the noisy-channel
    thresholds do not apply.
    """


def _check_nk(n: int, k: int) -> tuple:
    n = _check_int("n", n, 2)
    return n, _check_int("k", k, 1, n - 1)


def _check_half(n: int, k: int) -> tuple:
    n = _check_int("n", n, 2)
    return n, _check_int("k", k, 1, n // 2)


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta!r}")


def _check_positive(name: str, value) -> None:
    if value is None or not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_noisy(sigma2: float, power: float) -> None:
    """Refuse a sigma2 the channel refuses, 0 (the noiseless regime), or one at
    which the smallest capacity term divided by, log2(1 + power/sigma2), is 0."""
    Linear(sigma2)  # finite and >= 0
    if sigma2 == 0.0:
        raise NoiselessRegimeError(
            "bound undefined at sigma2=0: one exact measurement recovers the signal "
            "(see the single-measurement decoder)"
        )
    if 1.0 + power / sigma2 == 1.0:
        raise ValueError(f"bound undefined at sigma2={sigma2!r}: 1 + {power:g}/sigma2 rounds to 1")


def fano_correction(n: int, k: int, delta: float) -> float:
    """Factor converting an exact-recovery converse into a delta-error one.

    max(0, 1 - (h2(delta) + delta*k*log2(n)) / (k*log2(n/k))); equals 1 at
    delta = 0 and clamps to 0 once the allowed error probability swallows
    the whole entropy budget (vacuous bound).
    """
    n, k = _check_nk(n, k)
    _check_delta(delta)
    penalty = binary_entropy(delta) + delta * k * math.log2(n)
    value = 1.0 - penalty / (k * math.log2(n / k))
    return max(0.0, value)


def all_or_nothing_threshold(n: int, k: int, sigma2: float) -> float:
    """The critical measurement count 2*k*log2(n/k) / log2(1 + k/sigma2).

    Below this count even approximate recovery fails; above it, recovery
    succeeds.  The ratio of logarithms is base-free.
    """
    n, k = _check_nk(n, k)
    _check_noisy(sigma2, k)
    return 2.0 * k * math.log2(n / k) / math.log2(1.0 + k / sigma2)


def conjectured_alg_threshold(n: int, k: int, sigma2: float) -> float:
    """(2k + sigma2) * log2(n): the conjectured floor for efficient algorithms
    on the noisy linear channel."""
    n, k = _check_nk(n, k)
    Linear(sigma2)  # finite and >= 0
    return (2.0 * k + sigma2) * math.log2(n)


def topk_sample_bound(n: int, k: int, model: Model, c: float = 1.0) -> float:
    """Sample count sufficient for the top-k correlation decoder, in the
    form c / L^2 * (log2(k) + log2(n-k)).

    L <= 1 is the per-model link slope; the multiplicative constant c is
    not pinned by the theory, so values are shape-only (scaling in n, k,
    and the noise level).  A slope that is 0 in floating point (logistic
    beta below about 1e-154) admits no finite count and raises ValueError.
    """
    n, k = _check_nk(n, k)
    _check_positive("c", c)
    L = model.link_slope(k)
    if L == 0.0:
        raise ValueError(f"the link slope of {model!r} at k={k} is 0 in floating point")
    return c / (L * L) * (math.log2(k) + math.log2(n - k))


def topk_sample_bound_closed(n: int, k: int, model: Model, c: float = 1.0) -> float:
    """The specialized closed forms of :func:`topk_sample_bound`:

    c * (k + sigma2)  * (log2 k + log2(n-k))   for linear and one-bit,
    c * (k + 1/beta^2)* (log2 k + log2(n-k))   for logistic.
    """
    n, k = _check_nk(n, k)
    _check_positive("c", c)
    return c * model.output_scale(k) * (math.log2(k) + math.log2(n - k))


def glm_fano_lower(n: int, k: int, mutual_info_cap: float, delta: float = 0.0) -> float:
    """Generic information-theoretic floor k*log2(n/k) / I, Fano-corrected.

    ``mutual_info_cap`` is any upper bound I on the per-measurement
    mutual information between one output and the signal (I = 1 for
    binary outputs).
    """
    n, k = _check_nk(n, k)
    _check_positive("mutual_info_cap", mutual_info_cap)
    return k * math.log2(n / k) / mutual_info_cap * fano_correction(n, k, delta)


def onebit_fano_lower(n: int, k: int, sigma2: float, delta: float = 0.0) -> float:
    """One-bit channel floor (k + sigma2)/2 * log2(n/k), Fano-corrected."""
    n, k = _check_nk(n, k)
    return _binary_fano_lower(n, k, OneBit(sigma2), delta)


def logistic_fano_lower(n: int, k: int, beta: float, delta: float = 0.0) -> float:
    """Logistic channel floor (k + 1/beta^2)/2 * log2(n/k), Fano-corrected."""
    n, k = _check_nk(n, k)
    return _binary_fano_lower(n, k, Logistic(beta), delta)


def _binary_fano_lower(n: int, k: int, model: Model, delta: float) -> float:
    """The binary-channel floor output_scale(k)/2 * log2(n/k), Fano-corrected."""
    return model.output_scale(k) / 2.0 * math.log2(n / k) * fano_correction(n, k, delta)


def linear_fano_lower(n: int, k: int, sigma2: float, delta: float = 0.0) -> float:
    """Capacity-style floor for the noisy linear channel, clamped at 0:

    (k*log2(n/k) - h2(delta) - delta*k*log2(n)) / ((1/2)*log2(1 + k/sigma2)).

    The denominator is the Gaussian-channel capacity under the signal
    power constraint E[(A_i^T x)^2] <= k; at delta = 0 this equals the
    all-or-nothing threshold.
    """
    n, k = _check_nk(n, k)
    _check_delta(delta)
    _check_noisy(sigma2, k)
    numer = k * math.log2(n / k) - (binary_entropy(delta) + delta * k * math.log2(n))
    denom = 0.5 * math.log2(1.0 + k / sigma2)
    return max(0.0, numer / denom)


def shell_entropy(l, k: int, n: int):
    """Per-coordinate exponent of the Hamming shell around a k-subset:

    (k/n)*h2(l/k) + (1 - k/n)*h2(l/(n-k)).

    n times this value is log2 of (an upper bound on) the number of
    k-subsets that disagree with a fixed one in exactly l of its
    indices, i.e. sit at Hamming distance 2l.  Real-valued l in (0, k]
    is accepted; the scan-based bounds use integer l.
    """
    n, k = _check_half(n, k)
    arr = np.asarray(l, dtype=np.float64)
    if np.any((arr <= 0.0) | (arr > k)) or np.any(arr > n - k):
        raise ValueError(f"l must lie in (0, k] with l <= n-k, got {l!r}")
    kk = float(k)
    out = (kk / n) * binary_entropy(arr / kk) + (1.0 - kk / n) * binary_entropy(arr / (n - kk))
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ScanBound:
    """A bound obtained by exact maximization over integer l in [1, k]."""

    value: float
    argmax_l: int
    vacuous: bool = False


def _scan_max(values: np.ndarray) -> tuple[float, int]:
    # first maximum wins, so ties resolve toward the smaller l
    i = int(np.argmax(values))
    return float(values[i]), i + 1


def mle_sample_bound(n: int, k: int, sigma2: float) -> ScanBound:
    """Measurement count sufficient for exhaustive maximum likelihood on
    the noisy linear channel with a Gaussian design:

        max over integer l in [1, k] of
            n * shell_entropy(l) / ((1/2) * log2(1 + l/(2*sigma2)))

    The scan is exact and O(k); the theory does not settle where the
    maximum sits, so the empirical argmax is reported alongside the value.
    Requires k <= n/2.
    """
    n, k = _check_half(n, k)
    _check_noisy(sigma2, 0.5)  # l = 1
    ls = np.arange(1, k + 1, dtype=np.float64)
    values = n * shell_entropy(ls, k, n) / (0.5 * np.log2(1.0 + ls / (2.0 * sigma2)))
    value, argmax_l = _scan_max(values)
    return ScanBound(value, argmax_l)


def linear_shell_lower(n: int, k: int, sigma2: float, delta: float = 0.0) -> ScanBound:
    """Shell-conditioned converse for the noisy linear channel with a
    Gaussian design, sharper than :func:`linear_fano_lower`:

        max over integer l in [1, k] of
            (n*shell_entropy(l) - 2*log2(n) - h2(delta) - delta*k*log2(n))
            / ((1/2) * log2(1 + (l/sigma2) * (2 - l/k)))

    Clamped at 0 (and flagged vacuous) if the maximum is negative.
    """
    n, k = _check_half(n, k)
    _check_delta(delta)
    _check_noisy(sigma2, 1.0)  # l = 1 gives the least, at least 1/sigma2
    ls = np.arange(1, k + 1, dtype=np.float64)
    numer = (
        n * shell_entropy(ls, k, n)
        - 2.0 * math.log2(n)
        - binary_entropy(delta)
        - delta * k * math.log2(n)
    )
    denom = 0.5 * np.log2(1.0 + (ls / sigma2) * (2.0 - ls / k))
    value, argmax_l = _scan_max(numer / denom)
    if value < 0.0:
        return ScanBound(0.0, argmax_l, vacuous=True)
    return ScanBound(value, argmax_l)


@dataclass(frozen=True)
class CurveRow:
    """One row of the MLE-bound curve: sparsity k, the exact scanned
    maximum m1, the same objective at the real-valued point
    l = k*(1 - k/n) as m2, and where the scan peaked."""

    k: int
    m1: float
    m2: float
    argmax_l: int


def mle_bound_curve(n: int, sigma2: float, k_values) -> list[CurveRow]:
    """m1/m2 table across sparsities for the maximum-likelihood bound.

    m1 is the exact integer-scan maximum of :func:`mle_sample_bound`;
    m2 evaluates the same objective at the (not necessarily integer)
    point l = k*(1 - k/n), where the shell exponent collapses to
    h2(k/n).  m1 >= m2 whenever that point is an integer, and the two
    stay within a fraction of a percent of each other at desk scale.
    """
    rows = []
    for k in k_values:
        n, k = _check_half(n, k)
        scan = mle_sample_bound(n, k, sigma2)
        l_closed = k * (1.0 - k / n)
        _check_noisy(sigma2, l_closed / 2.0)  # less than mle_sample_bound's 1/2 at k = 1
        m2 = n * shell_entropy(l_closed, k, n) / (
            0.5 * math.log2(1.0 + l_closed / (2.0 * sigma2))
        )
        rows.append(CurveRow(k, scan.value, m2, scan.argmax_l))
    return rows


def curve_to_csv(rows) -> str:
    """CSV with header ``k,m1,m2`` and floats at 6 significant digits."""
    lines = ["k,m1,m2"]
    for row in rows:
        lines.append(f"{row.k},{row.m1:.6g},{row.m2:.6g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundQuery:
    """Inputs for the full bound catalog.

    The shell-based entries assume k <= n/2, so the query enforces it.
    ``mutual_info_cap`` optionally feeds the generic information floor;
    ``c`` scales the shape-only decoder bounds.
    """

    n: int
    k: int
    model: Model
    delta: float = 0.0
    mutual_info_cap: float | None = None
    c: float = 1.0

    def __post_init__(self) -> None:
        n, k = _check_half(self.n, self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        _check_delta(self.delta)
        _check_positive("c", self.c)
        if self.mutual_info_cap is not None:
            _check_positive("mutual_info_cap", self.mutual_info_cap)


@dataclass(frozen=True)
class BoundReport:
    """Catalog of every threshold applicable to the queried channel.

    Field names are the wire contract of the JSON report; entries that do
    not apply to the channel (or are undefined at sigma2 = 0) are None,
    with a note explaining why.  ``spl`` abbreviates sparse linear
    regression, the noisy linear channel.
    """

    query: BoundQuery
    m_star: float | None
    m_alg: float | None
    alg_upper: float
    alg_upper_closed_form: float
    glm_lower: float | None
    onebit_lower: float | None
    logistic_lower: float | None
    spl_fano_lower: float | None
    mle_upper: ScanBound | None
    spl_conditional_lower: ScanBound | None
    notes: tuple = ()

    def to_dict(self) -> dict:
        q = self.query
        query = {
            "n": q.n,
            "k": q.k,
            "model": q.model.tag,
            **q.model.noise_fields(),
            "delta": q.delta,
            "mutual_info_cap": q.mutual_info_cap,
            "c": q.c,
        }
        return {**asdict(self), "query": query, "notes": list(self.notes)}

    def to_json(self) -> str:
        try:
            return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise ValueError("a bound overflows a float at this query; no JSON number holds it") from None


def bound_report(query: BoundQuery) -> BoundReport:
    """Evaluate the whole catalog for one (n, k, channel, delta) query."""
    n, k, model, delta = query.n, query.k, query.model, query.delta
    notes = []

    alg_upper = topk_sample_bound(n, k, model, query.c)
    closed = topk_sample_bound_closed(n, k, model, query.c)

    glm_lower = None
    if query.mutual_info_cap is not None:
        glm_lower = glm_fano_lower(n, k, query.mutual_info_cap, delta)
        if glm_lower == 0.0 and delta > 0.0:
            notes.append("glm_lower vacuous: error-probability correction exhausts the entropy budget")

    m_star = m_alg = spl_fano = mle_upper = spl_cond = None
    binary_lowers = {"onebit_lower": None, "logistic_lower": None}

    if model.binary:
        field = f"{model.tag}_lower"
        binary_lowers[field] = _binary_fano_lower(n, k, model, delta)
        if binary_lowers[field] == 0.0 and delta > 0.0:
            notes.append(f"{field} vacuous: error-probability correction exhausts the entropy budget")
    else:
        m_alg = conjectured_alg_threshold(n, k, model.sigma2)
        if model.sigma2 > 0.0:
            m_star = all_or_nothing_threshold(n, k, model.sigma2)
            spl_fano = linear_fano_lower(n, k, model.sigma2, delta)
            if spl_fano == 0.0:
                notes.append("spl_fano_lower vacuous: numerator clamped at 0")
            mle_upper = mle_sample_bound(n, k, model.sigma2)
            spl_cond = linear_shell_lower(n, k, model.sigma2, delta)
        else:
            notes.append(
                "sigma2=0: noisy-channel thresholds undefined; one exact measurement "
                "recovers the signal (single-measurement decoder)"
            )

    if fano_correction(n, k, delta) == 0.0 and delta > 0.0:
        notes.append("fano correction clamped to 0 at this delta (vacuous lower bounds)")

    return BoundReport(
        query=query,
        m_star=m_star,
        m_alg=m_alg,
        alg_upper=alg_upper,
        alg_upper_closed_form=closed,
        glm_lower=glm_lower,
        **binary_lowers,
        spl_fano_lower=spl_fano,
        mle_upper=mle_upper,
        spl_conditional_lower=spl_cond,
        notes=tuple(notes),
    )
