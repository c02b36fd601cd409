"""Monte Carlo engine: single trials, success-rate sweeps over the
measurement count, empirical 95%-threshold search, and the two
closed-form moment checks.

Every trial is a pure function of (config, trial_index): the signal,
matrix, and noise come from fixed role substreams of the trial's stream,
so sweeps are reproducible for any worker count and probes at different
m reuse the same underlying instances (paired sampling, which also keeps
curve comparisons low-variance).  Aggregation is success counting, so
results never depend on execution order.

Top-k and quantize trials never draw a matrix.  Their verdict reads only
the n scores s_j(m) = sum_{i<m} y_i A_ij, whose law given the outputs is
exact Gaussian conditioning: with t_i = <A_i, x> ~ N(0, k) drawn directly
(matrix role) and y from the channel (noise role), the off-support scores
are independent Gaussian walks W_j run on the clock v(m) = sum_{i<m} y_i^2,
and the support scores are (sum_{i<m} y_i t_i / k) 1 + (I - 11^T/k) W_S.
The walks are evaluated on a fixed dyadic skeleton (:class:`_TopkBlock`):
forward steps to each power of two, Brownian-bridge midpoints between
them, each node's normals a fixed range of the trial's walk or bridge
stream, so W at m is a function of (trial, m) alone, costs about
2 log2(m) nodes of n normals, and a count never depends on the grid, the
bracket, or which other m were asked for.  Trials are set up and judged
a block at a time (:func:`_block_counts`; a single trial is a block of
one): a block stacks its trials' statistics a row each and builds each
node once for all of them, as a (trials x n) array, with every row's
normals drawn from that trial's own streams, so a row is the trial set
up alone, bit for bit.  A trial yields only its verdicts, never its
decoded support.  The quantize arm signs y and keeps t, the noise and
the node normals, so quantize-on-linear is the one-bit trial bit for
bit.  MLE trials draw the whole matrix once, at the largest m, and judge
every smaller m from row-ordered prefix sums
(:func:`~binsense.decode.mle_prefix_decode`); draws are prefix-stable
(see :mod:`binsense.numerics`), so each verdict is the one a trial drawn
at that m alone gets.  A call runs in the calling process unless its
trial work is large enough for a second worker to pay for its start;
then each worker process counts a fixed contiguous block of trials for
the whole call.  A threshold search counts only the m its bisection
visits, and keeps each block of top-k trials set up between probes in
the one process that counts it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from . import model as _model
from .decode import (
    _check_prefixes,
    _mle_footprint,
    _top_k_indices,
    mle_decode_linear,
    mle_prefix_decode,
    quantize,
)

# Imported, though trials do not call them, so that tracing tools can
# patch every decoder where the harness resolves it (see bench/spans.py).
from .decode import quantize_then_decode, topk_correlation_decode  # noqa: F401
from .model import (
    Model,
    OneBit,
    gen_sensing_matrix,
    link_slope,
    measure,
    noise_param,
    observe,
    random_signal,
    sample_projections,
    sign_pm1,
)
from .numerics import _U64_MAX, RngStream, derive_trial_stream, sample_gaussian

__all__ = [
    "DECODERS",
    "ROLE_SIGNAL",
    "ROLE_MATRIX",
    "ROLE_NOISE",
    "ROLE_WALK",
    "ROLE_BRIDGE",
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
ROLE_WALK = 3  # forward steps of a top-k trial's score walks
ROLE_BRIDGE = 4  # their bridge midpoints

DECODERS = ("topk", "mle", "quantize")


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
            raise ValueError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}"
            )


@dataclass(frozen=True)
class TrialOutcome:
    """Exact-recovery verdicts of one trial, judged at several m.

    ``successes[j]`` is True iff decoding the first ``ms[j]`` rows (see
    :func:`run_trial`) returns the true support as a set; the last m is
    config.m.
    """

    successes: tuple

    @property
    def success(self) -> bool:
        """The verdict at config.m."""
        return self.successes[-1]


def _topk_recovers(scores: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """For each row of ``scores``, whether its k largest entries are the
    same row of ``supports``.

    They are when the smallest support score exceeds every other score;
    on an exact tie the decoder's own tie rule decides.
    """
    inside = np.take_along_axis(scores, supports, axis=1)
    low = inside.min(axis=1)
    np.put_along_axis(scores, supports, -np.inf, axis=1)
    high = scores.max(axis=1)
    np.put_along_axis(scores, supports, inside, axis=1)
    ok = low > high
    for j in np.flatnonzero(low == high):
        ok[j] = np.array_equal(_top_k_indices(scores[j], supports.shape[1]), supports[j])
    return ok


def _skeleton_length(m: int) -> int:
    """Outputs a top-k trial read up to m draws: up to the node m is bridged to."""
    return 1 << (m - 1).bit_length()


class _TopkBlock:
    """Top-k (or quantize) trials [start, stop), set up to be read at any
    m <= ``m_max``, a row per trial.

    Holds the scores' sufficient statistics: the true supports ``truth``,
    the running sums ``drift[:, m - 1]`` = sum_{i<m} y_i t_i, and the n
    score walks on the clocks ``clock[:, m]`` = v(m) = sum_{i<m} y_i^2.

    A walk W is an n-vector standard Gaussian walk run on its trial's
    clock, read on a fixed dyadic skeleton: node c >= 1 is W(v(c)).
    Powers of two are forward steps: node 2^j adds sqrt(v(2^j) - v(2^(j-1)))
    times normals j of the walk stream (samples [j n, (j + 1) n)) to node
    2^(j-1), from W = 0.  Any other c is the Brownian-bridge midpoint of
    nodes c - h and c + h, h the lowest set bit of c, with normals c of the
    bridge stream (samples [c n, (c + 1) n)) and the bridge's mean and
    variance taken on the clock (Levy's construction); a trial whose clock
    is flat there copies node c - h and draws nothing.  Every node is thus
    a fixed function of its own normals and those it is built from,
    whichever nodes were read before.  A node's rows are drawn in one
    sampler pass, each from its own trial's stream, and all arithmetic is
    elementwise, so a row is bit for bit the trial set up alone.
    """

    def __init__(self, config: TrialConfig, start: int, stop: int, m_max: int) -> None:
        length = _skeleton_length(m_max)
        levels = length.bit_length()  # powers of two up to the clock's end
        n, rows = config.n, stop - start
        bases = [derive_trial_stream(config.master_seed, i) for i in range(start, stop)]
        truth = np.empty((rows, config.k), dtype=np.int64)
        t, y = np.empty((rows, length)), np.empty((rows, length))
        steps = np.empty((rows, levels, n))
        for row, base in enumerate(bases):
            truth[row] = random_signal(n, config.k, base.substream(ROLE_SIGNAL)).support_array
            t[row] = sample_projections(length, config.k, base.substream(ROLE_MATRIX))
            out = observe(t[row], config.model, base.substream(ROLE_NOISE))
            y[row] = (quantize(out) if config.decoder == "quantize" else out).values
        walks = [base.substream(ROLE_WALK) for base in bases]
        _model._gaussian_rows(walks, levels * n, 0, steps.reshape(rows, -1))  # fills steps
        self.truth, self.n = truth, n
        self.drift = np.cumsum(y * t, axis=1)
        self.clock = np.zeros((rows, length + 1))
        np.cumsum(y * y, axis=1, out=self.clock[:, 1:])
        powers = 1 << np.arange(levels)
        steps *= np.sqrt(self.clock[:, powers] - self.clock[:, powers >> 1])[:, :, None]
        self.forward = np.cumsum(steps, axis=1, out=steps)  # [:, j] is node 2^j; adds in order
        self.bridges = [base.substream(ROLE_BRIDGE) for base in bases]
        self.nodes = {}

    def walk(self, c: int) -> np.ndarray:
        """Node c of every row's walk, as (rows, n)."""
        h = c & -c
        if h == c:
            return self.forward[:, h.bit_length() - 1]
        w = self.nodes.get(c)
        if w is None:
            lo, hi = self.walk(c - h), self.walk(c + h)
            v = self.clock
            left, span = v[:, c] - v[:, c - h], v[:, c + h] - v[:, c - h]
            moving = span > 0.0
            normals = np.zeros((len(v), self.n))
            rows = np.flatnonzero(moving)
            drawn = normals[: len(rows)]
            _model._gaussian_rows([self.bridges[r] for r in rows], self.n, c * self.n, drawn)
            if len(rows) < len(v):  # move the drawn rows to the rows they belong to
                normals[rows] = drawn
            with np.errstate(divide="ignore", invalid="ignore"):
                w = lo + (left / span)[:, None] * (hi - lo)
                w += np.sqrt(left * (v[:, c + h] - v[:, c]) / span)[:, None] * normals
            if not moving.all():
                w[~moving] = lo[~moving]
            self.nodes[c] = w
        return w

    def scores(self, m: int) -> np.ndarray:
        """The n correlation scores of the first m outputs, a row per trial,
        as a fresh array: the walk off the support; on it, the drift along 1
        plus the walk projected off 1.

        The read then forgets every midpoint that node m is not built from.
        For ascending reads this loses nothing still needed: a node that
        two reads are built from lies on the path of every read between.
        """
        scores = self.walk(m).copy()
        path, todo = set(), [m]
        while todo:
            c = todo.pop()
            h = c & -c
            if h != c and c not in path:
                path.add(c)
                todo += (c - h, c + h)
        self.nodes = {c: w for c, w in self.nodes.items() if c in path}
        inside = np.take_along_axis(scores, self.truth, axis=1)
        inside -= inside.mean(axis=1, keepdims=True)
        inside += self.drift[:, m - 1, None] / self.truth.shape[1]
        np.put_along_axis(scores, self.truth, inside, axis=1)
        return scores


# Top-k trial blocks kept by a threshold search between its probes, in
# each process that counts them (see _block_counts); None outside a search.
# A pure cache: a trial reads the same scores however it was set up.
_kept = None

# bytes of top-k trials one process may set up at once, and may keep
_KEPT_BYTES = 64 * 2**20


def run_trial(config: TrialConfig, trial_index: int, ms=None) -> TrialOutcome:
    """Fresh signal and measurements for this index; decode the first m
    rows for every m in ``ms`` and compare.

    ``ms`` is strictly ascending and ends at config.m; the default is
    just config.m.  A top-k or quantize trial is the one-trial block
    [trial_index, trial_index + 1) of :func:`_block_counts`, judged from
    the scores' sufficient statistics with no matrix drawn; an MLE trial
    draws the whole matrix at config.m.  Either way the verdict at m is a
    function of (config, trial_index, m) alone.
    """
    ms = (config.m,) if ms is None else tuple(int(m) for m in ms)
    if not ms or ms[-1] != config.m:
        raise ValueError(f"ms must end at config.m={config.m}, got {ms}")
    _check_prefixes(ms, config.m)
    if config.decoder != "mle":
        counts = _block_counts(config, ms, trial_index, trial_index + 1)
        return TrialOutcome(tuple(count == 1 for count in counts))
    base = derive_trial_stream(config.master_seed, trial_index)
    x = random_signal(config.n, config.k, base.substream(ROLE_SIGNAL))
    A = gen_sensing_matrix(config.m, config.n, base.substream(ROLE_MATRIX))
    y = measure(A, x, config.model, base.substream(ROLE_NOISE))
    if len(ms) == 1:
        supports = mle_decode_linear(A, y, config.k, config.mle_budget).support[None]
    else:
        supports = mle_prefix_decode(A, y, config.k, ms, config.mle_budget)
    return TrialOutcome(tuple(bool(s) for s in np.all(supports == x.support_array, axis=1)))


def _block_counts(
    config: TrialConfig, ms: tuple, start: int, stop: int, keep: bool = False
) -> list:
    """Successes at every m of the ascending ``ms`` (none above config.m)
    over trials [start, stop).

    This is the one place a top-k or quantize trial is judged, a single
    trial included (:func:`run_trial`); MLE trials are judged one by one
    by :func:`run_trial`.
    Top-k trials are set up and judged in blocks, as many at once as
    ``_KEPT_BYTES`` holds at their set-up peak (:func:`_walk_footprint`).
    With ``keep``, blocks are set up for config.m and kept, while there is
    room for what they hold (:func:`_held_bytes`), for the later calls of
    the same search: a worker process ends with its pool, and
    :func:`_counter` drops the blocks kept in its own process.
    """
    global _kept
    counts = np.zeros(len(ms), dtype=np.int64)
    if config.decoder == "mle":
        judged = replace(config, m=ms[-1])
        for i in range(start, stop):
            counts += run_trial(judged, i, ms).successes
        return counts.tolist()
    if keep and _kept is None:
        _kept = {}
    chunk = max(1, _KEPT_BYTES // _walk_footprint(config.m, config.n))
    room = _KEPT_BYTES // _held_bytes(config.m, config.n)
    for a in range(start, stop, chunk):
        b = min(a + chunk, stop)
        key = (config, a, b)
        block = _kept.get(key) if keep else None
        if block is None:
            fits = keep and sum(len(kept.truth) for kept in _kept.values()) + b - a <= room
            block = _TopkBlock(config, a, b, config.m if fits else ms[-1])
            if fits:
                _kept[key] = block
        for j, m in enumerate(ms):
            counts[j] += np.count_nonzero(_topk_recovers(block.scores(m), block.truth))
    return counts.tolist()


# A second worker pays for its fork, its pool's start and a round trip a
# probe only when a call's work (see _work) reaches _POOL_START plus
# _POOL_PROBE a probe; below that the call runs in the calling process.
# Measured with 1 and 2 workers on a 2-vCPU host (see CHANGES.md): top-k
# sweeps broke even at about 1.3 Mi normals, searches of 13 probes at
# about 6 Mi, and MLE sweeps at 3.5-4 Mi candidate rows, so a candidate
# row counts as a third of a normal.
_POOL_START = 0.9 * 2**20
_POOL_PROBE = 0.4 * 2**20
_MLE_ROW_COST = 1 / 3


def _work(config: TrialConfig, trials: int, marks: int, probes: int) -> float:
    """Work of ``probes`` counts of trials [0, trials), each at ``marks`` m
    up to config.m, in normals drawn.  A top-k trial draws its projections,
    noise and forward steps once, and at most one path of bridge nodes a
    read; an MLE trial scores every candidate on every row once a probe."""
    if config.decoder == "mle":
        return trials * probes * _MLE_ROW_COST * math.comb(config.n, config.k) * config.m
    length = _skeleton_length(config.m)
    levels = length.bit_length()
    return trials * (2 * length + config.n * levels * (1 + probes * marks))


def _worker_count(workers: int, trials: int, work: float, probes: int) -> int:
    """Processes to use: one below the break-even work of ``probes``
    counts, else the request, capped by the trial count and by the CPUs
    this process may run on."""
    if work < _POOL_START + probes * _POOL_PROBE:
        return 1
    return max(1, min(workers, trials, len(os.sched_getaffinity(0))))


def _walk_footprint(m: int, n: int) -> int:
    """Bytes a top-k trial read up to m holds at its peak: about seven
    arrays of its skeleton's length (t, noise, outputs, clock, drift and
    temporaries) and the nodes of two reads' paths, each n long, plus a
    few score vectors."""
    length = _skeleton_length(m)
    return (7 * length + (4 * length.bit_length() + 10) * n) * 8


def _held_bytes(m: int, n: int) -> int:
    """Bytes a top-k trial kept for reads up to m holds between them: its
    drift and clock, its forward nodes and one read's path of midpoints
    (at most levels - 2 of them), each n long, and its support and streams."""
    length = _skeleton_length(m)
    return (2 * length + (2 * length.bit_length() + 1) * n) * 8 + 2048


def _check_memory(config: TrialConfig) -> None:
    """Refuse a trial whose arrays would not fit in this machine's memory.

    An MLE trial holds its whole m x n matrix; a top-k or quantize trial
    holds its sufficient statistics and O(log m) skeleton nodes.
    """
    m, n = config.m, config.n
    if config.decoder == "mle":
        need, what = _mle_footprint(m, n), f"a {m} x {n} sensing matrix"
    else:
        need, what = _walk_footprint(m, n), f"a top-k trial of {n} columns at m={m}"
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"{what} needs {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of memory on this machine; reduce m or n"
        )


@contextmanager
def _counter(config: TrialConfig, trials: int, workers: int, marks: int, probes: int = 1):
    """Yield ``counts(ms)``: successes at every m of the ascending ``ms``
    (none above config.m) over trial indices [0, trials), for a call that
    expects to ask ``probes`` times for ``marks`` m.

    A call below the break-even work (:func:`_worker_count`) runs in this
    process.  A larger one gives each of up to ``workers`` processes a
    fixed contiguous block of trials, for every ``counts``, and sums the
    blocks' counts, so they are identical for any worker count.  A call
    of several probes keeps each process's top-k trials between them (see
    :func:`_block_counts`).
    """
    global _kept
    if not (isinstance(trials, int) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    _check_memory(config)
    keep = probes > 1
    workers = _worker_count(workers, trials, _work(config, trials, marks, probes), probes)
    try:
        if workers == 1:
            yield lambda ms: _block_counts(config, ms, 0, trials, keep)
            return
        edges = [round(i * trials / workers) for i in range(workers + 1)]
        blocks = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        with ExitStack() as stack:
            # a single-process pool a block, so each kept trial lives in one process
            pools = [stack.enter_context(ProcessPoolExecutor(max_workers=1)) for _ in blocks]

            def counts(ms: tuple) -> list:
                futures = [
                    pool.submit(_block_counts, config, ms, a, b, keep)
                    for pool, (a, b) in zip(pools, blocks)
                ]
                return [sum(column) for column in zip(*(f.result() for f in futures))]

            yield counts
    finally:
        _kept = None


def _success_counts(config: TrialConfig, ms: tuple, trials: int, workers: int) -> list:
    """Successes at every m in the ascending ``ms`` over trial indices [0, trials)."""
    with _counter(replace(config, m=ms[-1]), trials, workers, len(ms)) as counts:
        return counts(ms)


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
    """Per-m success rates with 95% Wilson intervals, plus the config echo."""

    config: TrialConfig
    rows: tuple

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


def sweep(config: TrialConfig, m_grid, trials: int, workers: int = 1) -> SweepResult:
    """Success rate at every m in the (ascending) grid, same trials each.

    Trial indices are shared across grid points, so rows are paired
    samples of the same underlying instances at growing m; each trial is
    set up once and judged at every m of the grid.
    """
    grid = [int(m) for m in m_grid]
    if not grid:
        raise ValueError("m_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"m_grid must be strictly ascending, got {grid}")
    rows = []
    for m, successes in zip(grid, _success_counts(config, tuple(grid), trials, workers)):
        lo, hi = wilson_interval(successes, trials)
        rows.append(SweepRow(m, trials, successes, successes / trials, lo, hi))
    return SweepResult(config, tuple(rows))


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
) -> M95Result:
    """Bisect on m for the smallest count with success rate >= threshold.

    The bracket is validated first: the rate at m_hi must clear the
    threshold, else the search has no target and a BracketError is
    raised.  Each probe counts the same trials at its m, in the same
    processes for the whole search, and only the m the bisection visits
    are ever counted; every verdict is a function of (trial, m) alone,
    so the returned value is deterministic given the master seed.  The transition is steep (all-or-nothing behavior),
    which is what makes bisection on a noisy but effectively monotone
    curve reliable.
    """
    if not (isinstance(m_lo, int) and isinstance(m_hi, int) and 1 <= m_lo < m_hi):
        raise ValueError(f"need 1 <= m_lo < m_hi, got m_lo={m_lo!r}, m_hi={m_hi!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold!r}")
    cache = {}
    probes = []
    most = 2 + (m_hi - m_lo - 1).bit_length()  # the bracket's ends, then a probe a halving
    with _counter(replace(config, m=m_hi), trials, workers, 1, most) as counts:

        def rate(m: int) -> float:
            if m not in cache:
                successes = counts((m,))[0]
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
    lo_ci, hi_ci = wilson_interval(successes, trials)
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
