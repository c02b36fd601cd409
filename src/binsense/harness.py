"""Monte Carlo engine: single trials, success-rate sweeps over the
measurement count, empirical 95%-threshold search, and the two
closed-form moment checks.

Every trial is a pure function of (config, trial_index): the signal,
matrix, and noise come from fixed role substreams of the trial's stream,
so sweeps are reproducible for any worker count and probes at different
m reuse the same underlying instances (paired sampling, which also keeps
curve comparisons low-variance).  Aggregation is success counting, so
results never depend on execution order.

Draws are prefix-stable (see :mod:`binsense.numerics`): the trial at m
rows is the first m rows of the trial at any larger m.  A sweep or a
threshold search therefore draws each trial once, at the largest m it
needs, and judges it at every smaller m from running sums over the rows
(:func:`~binsense.decode.prefix_scores`,
:func:`~binsense.decode.mle_prefix_decode`).  Each verdict is bit for bit
the one a trial drawn at that m alone gets, so a count never depends on
the grid, the bracket, or which other m were asked for.  One process pool
serves a whole call; each worker runs a contiguous block of trials.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .decode import (
    _top_k_indices,
    mle_decode_linear,
    mle_prefix_decode,
    prefix_scores,
    quantize,
    quantize_then_decode,
    topk_correlation_decode,
)
from .model import (
    Model,
    OneBit,
    gen_sensing_matrix,
    link_slope,
    measure,
    noise_param,
    random_signal,
    sign_pm1,
)
from .numerics import RngStream, derive_trial_stream, sample_gaussian

__all__ = [
    "DECODERS",
    "ROLE_SIGNAL",
    "ROLE_MATRIX",
    "ROLE_NOISE",
    "BracketError",
    "TrialConfig",
    "TrialOutcome",
    "SweepRow",
    "SweepResult",
    "M95Result",
    "ProbeRow",
    "MomentCheck",
    "run_trial",
    "count_successes",
    "sweep",
    "estimate_m95",
    "moment_check_onebit",
    "moment_check_logistic",
    "wilson_interval",
]

ROLE_SIGNAL = 0
ROLE_MATRIX = 1
ROLE_NOISE = 2

DECODERS = ("topk", "mle", "quantize")

_U64_MAX = 0xFFFFFFFFFFFFFFFF


class BracketError(ValueError):
    """Raised when the threshold search bracket does not contain the target."""


@dataclass(frozen=True)
class TrialConfig:
    """One experiment setting; trials are indexed on top of it."""

    model: Model
    n: int
    k: int
    m: int
    decoder: str = "topk"
    master_seed: int = 0
    mle_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.k, int) and 1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k!r}, n={self.n!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.decoder in ("mle", "quantize") and self.model.tag != "linear":
            raise ValueError(
                f"the {self.decoder!r} decoder requires the linear channel, "
                f"got {self.model.tag}"
            )
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed <= _U64_MAX):
            raise ValueError(f"master_seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class TrialOutcome:
    """Exact-recovery verdicts of one trial drawn at config.m rows.

    ``successes[j]`` is True iff decoding the first ``ms[j]`` rows (see
    :func:`run_trial`) returns the true support as a set; the last m is
    config.m, and ``decoded_support`` is the support decoded there.
    """

    successes: tuple
    decoded_support: tuple

    @property
    def success(self) -> bool:
        """The verdict at config.m."""
        return self.successes[-1]


def _decode(config: TrialConfig, A, y):
    if config.decoder == "topk":
        return topk_correlation_decode(A, y, config.k)
    if config.decoder == "mle":
        return mle_decode_linear(A, y, config.k, config.mle_budget)
    return quantize_then_decode(A, y, config.k)


def _topk_recovers(scores: np.ndarray, support: np.ndarray) -> np.ndarray:
    """For each row of ``scores``, whether its k largest entries are ``support``.

    They are when the smallest support score exceeds every other score;
    on an exact tie the decoder's own tie rule decides.  Overwrites
    ``scores``.
    """
    inside = scores[:, support]
    low = inside.min(axis=1)
    scores[:, support] = -np.inf
    high = scores.max(axis=1)
    ok = low > high
    for j in np.flatnonzero(low == high):
        scores[j, support] = inside[j]
        ok[j] = np.array_equal(_top_k_indices(scores[j], support.size), support)
    return ok


def run_trial(config: TrialConfig, trial_index: int, ms=None) -> TrialOutcome:
    """Fresh signal, matrix and noise for this index at config.m rows;
    decode the first m rows for every m in ``ms`` and compare.

    ``ms`` is strictly ascending and ends at config.m; the default is
    just config.m, which runs the decoder itself.  Several m are judged
    through the decoders' prefix forms, which agree with it bit for bit
    at every m.
    """
    ms = (config.m,) if ms is None else tuple(int(m) for m in ms)
    if not ms or ms[-1] != config.m:
        raise ValueError(f"ms must end at config.m={config.m}, got {ms}")
    base = derive_trial_stream(config.master_seed, trial_index)
    x = random_signal(config.n, config.k, base.substream(ROLE_SIGNAL))
    A = gen_sensing_matrix(config.m, config.n, base.substream(ROLE_MATRIX))
    y = measure(A, x, config.model, base.substream(ROLE_NOISE))
    if len(ms) == 1:
        result = _decode(config, A, y)
        success = result.support_set() == frozenset(x.support)
        return TrialOutcome((success,), tuple(int(i) for i in result.support))
    truth = x.support_array
    if config.decoder == "mle":
        supports = mle_prefix_decode(A, y, config.k, ms, config.mle_budget)
        successes = np.all(supports == truth, axis=1)
        decoded = supports[-1]
    else:
        scores = prefix_scores(A, quantize(y) if config.decoder == "quantize" else y, ms)
        decoded = _top_k_indices(scores[-1], config.k)
        successes = _topk_recovers(scores, truth)
    return TrialOutcome(tuple(bool(s) for s in successes), tuple(int(i) for i in decoded))


def _block_counts(config: TrialConfig, ms: tuple, start: int, stop: int) -> list:
    counts = np.zeros(len(ms), dtype=np.int64)
    for i in range(start, stop):
        counts += run_trial(config, i, ms).successes
    return counts.tolist()


def _worker_count(workers: int, trials: int) -> int:
    """Processes to start: the request, capped by the trial count and by
    the CPUs this process may run on."""
    return max(1, min(workers, trials, len(os.sched_getaffinity(0))))


def _check_memory(m: int, n: int) -> None:
    """Refuse an m x n float64 matrix larger than this machine's memory."""
    need = m * n * 8
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"a {m} x {n} sensing matrix needs {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of memory on this machine; reduce m or n"
        )


def _success_counts(config: TrialConfig, ms: tuple, trials: int, workers: int) -> list:
    """Successes at every m in the ascending ``ms`` over trial indices
    [0, trials), each trial drawn once at max(ms); identical for any
    worker count."""
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    _check_memory(ms[-1], config.n)
    config = replace(config, m=ms[-1])
    workers = _worker_count(workers, trials)
    if workers == 1:
        return _block_counts(config, ms, 0, trials)
    edges = [round(i * trials / workers) for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_block_counts, config, ms, a, b)
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]
        return [sum(column) for column in zip(*(f.result() for f in futures))]


def count_successes(config: TrialConfig, trials: int, workers: int = 1) -> int:
    """Successes at config.m over trial indices [0, trials); identical for any worker count."""
    return _success_counts(config, (config.m,), trials, workers)[0]


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    z = float(ndtri(0.5 + confidence / 2.0))
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the degenerate endpoints are exactly 0 and 1; keep them that way
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SweepRow:
    m: int
    trials: int
    successes: int
    success_rate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class SweepResult:
    """Per-m success rates with Wilson intervals, plus the config echo."""

    config: TrialConfig
    rows: tuple
    confidence: float = 0.95

    @property
    def master_seed(self) -> int:
        return self.config.master_seed

    def to_csv(self) -> str:
        cfg = self.config
        noise = {"sigma2": "", "beta": "", cfg.model.noise_name: f"{noise_param(cfg.model):.6g}"}
        lines = [
            "model,n,k,m,sigma2,beta,decoder,trials,successes,"
            "success_rate,ci_low,ci_high,seed"
        ]
        for row in self.rows:
            lines.append(
                f"{cfg.model.tag},{cfg.n},{cfg.k},{row.m},{noise['sigma2']},{noise['beta']},"
                f"{cfg.decoder},{row.trials},{row.successes},{row.success_rate:.6g},"
                f"{row.ci_low:.6g},{row.ci_high:.6g},{cfg.master_seed}"
            )
        return "\n".join(lines) + "\n"


def sweep(
    config: TrialConfig,
    m_grid,
    trials: int,
    workers: int = 1,
    confidence: float = 0.95,
) -> SweepResult:
    """Success rate at every m in the (ascending) grid, same trials each.

    Trial indices are shared across grid points, so rows are paired
    samples of the same underlying instances at growing m; each trial is
    drawn once, at the largest m, and judged at every m of the grid.
    """
    grid = [int(m) for m in m_grid]
    if not grid:
        raise ValueError("m_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"m_grid must be strictly ascending, got {grid}")
    rows = []
    for m, successes in zip(grid, _success_counts(config, tuple(grid), trials, workers)):
        lo, hi = wilson_interval(successes, trials, confidence)
        rows.append(SweepRow(m, trials, successes, successes / trials, lo, hi))
    return SweepResult(config, tuple(rows), confidence)


@dataclass(frozen=True)
class ProbeRow:
    m: int
    successes: int
    trials: int
    rate: float


@dataclass(frozen=True)
class M95Result:
    """Smallest probed m whose success rate clears the threshold."""

    m95: int
    threshold: float
    trials_per_probe: int
    successes: int
    success_rate: float
    ci_low: float
    ci_high: float
    probes: tuple


def estimate_m95(
    config: TrialConfig,
    trials: int,
    m_lo: int,
    m_hi: int,
    threshold: float = 0.95,
    workers: int = 1,
    confidence: float = 0.95,
) -> M95Result:
    """Bisect on m for the smallest count with success rate >= threshold.

    The bracket is validated first: the rate at m_hi must clear the
    threshold, else the search has no target and a BracketError is
    raised.  Every trial is drawn once, at m_hi, and judged at every m in
    [m_lo, m_hi]; the bisection then reads its probes off those counts,
    so every probe shares the same trials and the returned value is
    deterministic given the master seed.  The transition is
    steep (all-or-nothing behavior), which is what makes bisection on a
    noisy but effectively monotone curve reliable.
    """
    if not (isinstance(m_lo, int) and isinstance(m_hi, int) and 1 <= m_lo < m_hi):
        raise ValueError(f"need 1 <= m_lo < m_hi, got m_lo={m_lo!r}, m_hi={m_hi!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold!r}")
    counts = _success_counts(config, tuple(range(m_lo, m_hi + 1)), trials, workers)
    cache = {}
    probes = []

    def rate(m: int) -> float:
        if m not in cache:
            successes = counts[m - m_lo]
            cache[m] = successes
            probes.append(ProbeRow(m, successes, trials, successes / trials))
        return cache[m] / trials

    if rate(m_hi) < threshold:
        raise BracketError(
            f"success rate {rate(m_hi):.3f} at m_hi={m_hi} is below the "
            f"threshold {threshold}; widen the bracket"
        )
    if rate(m_lo) >= threshold:
        m95 = m_lo
    else:
        lo, hi = m_lo, m_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rate(mid) >= threshold:
                hi = mid
            else:
                lo = mid
        m95 = hi
    successes = cache[m95]
    lo_ci, hi_ci = wilson_interval(successes, trials, confidence)
    return M95Result(
        m95, threshold, trials, successes, successes / trials, lo_ci, hi_ci, tuple(probes)
    )


@dataclass(frozen=True)
class MomentCheck:
    """Monte Carlo estimate of a closed-form moment, with its z-score."""

    estimate: float
    target: float
    std_error: float
    z_score: float
    samples: int


def _z_score(estimate: float, target: float, std_error: float) -> float:
    if std_error == 0.0:
        return 0.0 if estimate == target else math.inf
    return (estimate - target) / std_error


def moment_check_onebit(
    k: int,
    sigma2: float,
    samples: int,
    master_seed: int = 0,
    in_support: bool = True,
) -> MomentCheck:
    """Estimate E[y * A_j] for the one-bit channel against its closed form.

    For a column j inside the support the mean is sqrt(2/pi)/sqrt(k+sigma2)
    (the link slope); outside the support the output and the column are
    uncorrelated, so the target is 0.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if sigma2 < 0.0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2!r}")
    if not (isinstance(samples, int) and samples >= 2):
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")
    stream = RngStream(master_seed)
    g = sample_gaussian(stream, samples * (k + 2)).reshape(samples, k + 2)
    t = g[:, :k].sum(axis=1)
    y = sign_pm1(t + math.sqrt(sigma2) * g[:, k])
    column = g[:, 0] if in_support else g[:, k + 1]
    prod = y * column
    estimate = float(prod.mean())
    std_error = float(prod.std(ddof=1) / math.sqrt(samples))
    target = link_slope(OneBit(sigma2), k) if in_support else 0.0
    return MomentCheck(estimate, target, std_error, _z_score(estimate, target, std_error), samples)


def moment_check_logistic(
    k: int,
    beta: float,
    samples: int,
    master_seed: int = 0,
) -> MomentCheck:
    """Estimate E[exp(-(beta*t)^2/4)] for t ~ N(0, k) against sqrt(2/(2+beta^2 k)).

    This Gaussian moment is the quantity that pins the logistic link
    slope; beta = 0 degenerates to the exact value 1.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not (isinstance(samples, int) and samples >= 2):
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")
    stream = RngStream(master_seed)
    t = math.sqrt(k) * sample_gaussian(stream, samples)
    w = np.exp(-((beta * t) ** 2) / 4.0)
    estimate = float(w.mean())
    std_error = float(w.std(ddof=1) / math.sqrt(samples))
    target = math.sqrt(2.0 / (2.0 + beta * beta * k))
    return MomentCheck(estimate, target, std_error, _z_score(estimate, target, std_error), samples)
