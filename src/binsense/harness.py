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
visits, and its top-k trials, kept between probes, end with the call.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .decode import (
    MLE_BUDGET,
    _check_budget,
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
    measure,
    random_signal,
    sample_projections,
    sign_pm1,
)
from .numerics import (
    _U64_MAX,
    RngStream,
    _check_int,
    _check_real,
    _gaussian_rows,
    derive_trial_stream,
    sample_gaussian,
)

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
    mle_budget: int = MLE_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_int("n", self.n, 1))
        object.__setattr__(self, "k", _check_int("k", self.k, 1, self.n))
        object.__setattr__(self, "m", _check_int("m", self.m, 1))
        seed = _check_int("master_seed", self.master_seed, 0, _U64_MAX)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "mle_budget", _check_int("mle_budget", self.mle_budget, 1))
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.decoder in ("mle", "quantize") and self.model.binary:
            raise ValueError(
                f"the {self.decoder!r} decoder requires the linear channel, "
                f"got {self.model.tag}"
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
    is flat there copies node c - h, its normals unused.  Every node is thus
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
            out = config.model.observe(t[row], base.substream(ROLE_NOISE))
            y[row] = (quantize(out) if config.decoder == "quantize" else out).values
        walks = [base.substream(ROLE_WALK) for base in bases]
        _gaussian_rows(walks, levels * n, 0, steps.reshape(rows, -1))  # fills steps
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
            normals = _gaussian_rows(self.bridges, self.n, c * self.n, np.empty((len(v), self.n)))
            with np.errstate(divide="ignore", invalid="ignore"):
                w = lo + (left / span)[:, None] * (hi - lo)
                w += np.sqrt(left * (v[:, c + h] - v[:, c]) / span)[:, None] * normals
            flat = span == 0.0
            w[flat] = lo[flat]
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
    function of (config, trial_index, m) alone.  A trial over the MLE
    budget or too large for memory is refused before any draw.
    """
    trial_index = _check_int("trial_index", trial_index, 0)
    ms = (config.m,) if ms is None else _check_prefixes(ms, config.m)
    if ms[-1] != config.m:
        raise ValueError(f"ms must end at config.m={config.m}, got {ms}")
    _check_memory(config)
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
    config: TrialConfig, ms: tuple, start: int, stop: int, kept: dict | None = None
) -> list:
    """Successes at every m of the ascending ``ms`` (none above config.m)
    over trials [start, stop).

    This is the one place a top-k or quantize trial is judged, a single
    trial included (:func:`run_trial`); MLE trials are judged one by one
    by :func:`run_trial`.
    Top-k trials are set up and judged in blocks, as many at once as
    ``_KEPT_BYTES`` holds at their set-up peak (:func:`_walk_footprint`).
    ``kept`` is the caller's dict for the calls of one search over exactly
    [start, stop): a block is set up for config.m and kept there, by its
    first trial, while it fits beside those kept (:func:`_held_bytes`);
    with None, each call sets its blocks up afresh at ms[-1].
    """
    counts = np.zeros(len(ms), dtype=np.int64)
    if config.decoder == "mle":
        judged = replace(config, m=ms[-1])
        for i in range(start, stop):
            counts += run_trial(judged, i, ms).successes
        return counts.tolist()
    chunk = max(1, _KEPT_BYTES // _walk_footprint(config.m, config.n))
    room = _KEPT_BYTES // _held_bytes(config.m, config.n)
    for a in range(start, stop, chunk):
        b = min(a + chunk, stop)
        block = None if kept is None else kept.get(a)
        if block is None:
            fits = kept is not None and sum(len(v.truth) for v in kept.values()) + b - a <= room
            block = _TopkBlock(config, a, b, config.m if fits else ms[-1])
            if fits:
                kept[a] = block
        for j, m in enumerate(ms):
            counts[j] += np.count_nonzero(_topk_recovers(block.scores(m), block.truth))
    return counts.tolist()


# A second worker pays for its fork, its pool's start and a round trip a
# probe only when a call's work (see _work) reaches _POOL_START plus
# _POOL_PROBE a probe; below that the call runs in the calling process.
# Measured with 1 and 2 workers on a 2-vCPU host (see CHANGES.md): top-k
# sweeps broke even at about 1.3 Mi normals, searches of 13 probes at
# about 6 Mi, and MLE sweeps (n=20, k=3, marks 10/20/40) at 3.5-5.2 Mi
# candidate rows, both before and after their fits shared prefix sums
# (after: in-process won at 2.6 Mi, two workers from 7.0 Mi, in three
# runs), so a candidate row counts as a third of a normal.
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
    return min(workers, trials, len(os.sched_getaffinity(0)))


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

    An MLE trial holds its whole m x n matrix and the sums and tables of
    its C(n, k) supports, if within budget; a top-k or quantize trial
    holds its sufficient statistics and O(log m) skeleton nodes.
    """
    m, n = config.m, config.n
    if config.decoder == "mle":
        _check_budget(n, config.k, config.mle_budget)
        need = _mle_footprint(m, n, config.k)
        what = f"an MLE trial on a {m} x {n} sensing matrix"
    else:
        need, what = _walk_footprint(m, n), f"a top-k trial of {n} columns at m={m}"
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"{what} needs {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of memory on this machine; reduce m or n"
        )


# (config, start, stop, kept) that a pool's one process counts; set there only, by _hold_block
_pool_block = None


def _hold_block(*block) -> None:
    global _pool_block
    _pool_block = block


def _pool_block_counts(ms: tuple) -> list:
    return _block_counts(_pool_block[0], ms, *_pool_block[1:])


@contextmanager
def _counter(config: TrialConfig, trials: int, workers: int, marks: int, probes: int = 1):
    """Yield ``counts(ms)``: successes at every m of the ascending ``ms``
    (none above config.m) over trial indices [0, trials), for a call that
    expects to ask ``probes`` times for ``marks`` m.

    A call below the break-even work (:func:`_worker_count`) runs in this
    process.  A larger one gives each of up to ``workers`` processes a
    fixed contiguous block of trials, for every ``counts``, and sums the
    blocks' counts, so they are identical for any worker count.  A call
    of several probes keeps its top-k trials between them, in dicts that
    end with the call (see :func:`_block_counts`).
    """
    workers = _check_int("workers", workers, 1)
    _check_memory(config)
    workers = _worker_count(workers, trials, _work(config, trials, marks, probes), probes)
    if workers == 1:
        kept = {} if probes > 1 else None
        yield lambda ms: _block_counts(config, ms, 0, trials, kept)
        return
    edges = [round(i * trials / workers) for i in range(workers + 1)]
    blocks = [(config, a, b, {} if probes > 1 else None) for a, b in zip(edges[:-1], edges[1:])]
    with ExitStack() as stack:
        # a single-process pool a block (none empty: workers <= trials), with its kept trials
        pools = [
            stack.enter_context(ProcessPoolExecutor(1, initializer=_hold_block, initargs=block))
            for block in blocks
        ]

        def counts(ms: tuple) -> list:
            futures = [pool.submit(_pool_block_counts, ms) for pool in pools]
            return [sum(column) for column in zip(*(f.result() for f in futures))]

        yield counts


def _success_counts(config: TrialConfig, ms: tuple, trials: int, workers: int) -> list:
    """Successes at every m in the ascending ``ms`` over trial indices [0, trials)."""
    with _counter(replace(config, m=ms[-1]), trials, workers, len(ms)) as counts:
        return counts(ms)


def count_successes(config: TrialConfig, trials: int, workers: int = 1) -> int:
    """Successes at config.m over trial indices [0, trials); identical for any worker count."""
    trials = _check_int("trials", trials, 1)
    return _success_counts(config, (config.m,), trials, workers)[0]


# the two-sided 95% normal quantile, float(scipy.special.ndtri(0.975))
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    trials = _check_int("trials", trials, 1)
    successes = _check_int("successes", successes, 0, trials)
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
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
        fields = cfg.model.noise_fields().values()  # beta = inf reads "inf"
        noise = ",".join("" if v is None else format(float(v), ".6g") for v in fields)
        lines = [
            "model,n,k,m,sigma2,beta,decoder,trials,successes,"
            "success_rate,ci_low,ci_high,seed"
        ]
        for row in self.rows:
            lines.append(
                f"{cfg.model.tag},{cfg.n},{cfg.k},{row.m},{noise},"
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
    grid, trials = _check_prefixes(m_grid), _check_int("trials", trials, 1)
    rows = []
    for m, successes in zip(grid, _success_counts(config, grid, trials, workers)):
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
    so the returned value is deterministic given the master seed.  The
    transition is steep (all-or-nothing behavior), which is what makes
    bisection on a noisy but effectively monotone curve reliable.
    """
    m_lo = _check_int("m_lo", m_lo, 1)
    m_hi = _check_int("m_hi", m_hi, m_lo + 1)
    trials = _check_int("trials", trials, 1)
    threshold = _check_real("threshold", threshold, 0, 1, "(]")
    cache = {}  # successes at each probed m, in the order probed
    most = 2 + (m_hi - m_lo - 1).bit_length()  # the bracket's ends, then a probe a halving
    with _counter(replace(config, m=m_hi), trials, workers, 1, most) as counts:

        def rate(m: int) -> float:
            if m not in cache:
                cache[m] = counts((m,))[0]
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
    probes = tuple(ProbeRow(m, s, trials, s / trials) for m, s in cache.items())
    return M95Result(m95, threshold, trials, successes, successes / trials, lo_ci, hi_ci, probes)


@dataclass(frozen=True)
class MomentCheck:
    """Monte Carlo estimate of a closed-form moment, with its z-score."""

    estimate: float
    target: float
    std_error: float
    z_score: float
    samples: int


def _moment(values: np.ndarray, target: float) -> MomentCheck:
    """The sample mean of ``values`` against ``target``, with its standard
    error and z-score (0 for an exact match with no spread, else inf)."""
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(len(values)))
    if std_error == 0.0:
        z = 0.0 if estimate == target else math.inf
    else:
        z = (estimate - target) / std_error
    return MomentCheck(estimate, target, std_error, z, len(values))


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
    k, samples = _check_int("k", k, 1), _check_int("samples", samples, 2)
    slope = OneBit(sigma2).link_slope(k)  # checks sigma2
    stream = RngStream(master_seed)
    g = sample_gaussian(stream, samples * (k + 2)).reshape(samples, k + 2)
    t = g[:, :k].sum(axis=1)
    y = sign_pm1(t + math.sqrt(sigma2) * g[:, k])
    column = g[:, 0] if in_support else g[:, k + 1]
    return _moment(y * column, slope if in_support else 0.0)


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
    k, samples = _check_int("k", k, 1), _check_int("samples", samples, 2)
    beta = _check_real("beta", beta, 0, math.inf, "[)")
    stream = RngStream(master_seed)
    t = math.sqrt(k) * sample_gaussian(stream, samples)
    w = np.exp(-((beta * t) ** 2) / 4.0)
    return _moment(w, math.sqrt(2.0 / (2.0 + beta * beta * k)))
