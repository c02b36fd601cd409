"""Monte Carlo engine: trial semantics, sweeps, threshold search,
moment checks, and the Wilson interval."""

import ast
import gc
import itertools
import math
import os
import sys
import time
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from binsense import decode, harness
from binsense import model as model_module
from binsense.harness import (
    BracketError,
    TrialConfig,
    count_successes,
    estimate_m95,
    moment_check_logistic,
    moment_check_onebit,
    run_trial,
    sweep,
    wilson_interval,
)
from binsense.decode import mle_decode_linear, quantize_then_decode, topk_correlation_decode
from binsense.model import (
    CHANNELS,
    Linear,
    Logistic,
    MeasurementVector,
    OneBit,
    SensingMatrix,
    gen_sensing_matrix,
    measure,
    random_signal,
)
from binsense.numerics import TRIAL_STREAM_SLOTS, RngStream, derive_trial_stream


class TestTrialConfig:
    def test_decoder_channel_compatibility(self):
        with pytest.raises(ValueError):
            TrialConfig(OneBit(1.0), 16, 2, 8, decoder="mle")
        with pytest.raises(ValueError):
            TrialConfig(Logistic(1.0), 16, 2, 8, decoder="quantize")
        TrialConfig(Linear(1.0), 16, 2, 8, decoder="mle")  # fine

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(OneBit(1.0), 16, 17, 8)
        with pytest.raises(ValueError):
            TrialConfig(OneBit(1.0), 16, 2, 0)
        with pytest.raises(ValueError):
            TrialConfig(OneBit(1.0), 16, 2, 8, decoder="omp")


class TestRunTrial:
    def test_deterministic(self):
        config = TrialConfig(OneBit(1.0), 64, 4, 50, master_seed=9)
        assert run_trial(config, 3, range(1, 51)) == run_trial(config, 3, range(1, 51))

    def test_trials_differ(self):
        config = TrialConfig(OneBit(1.0), 64, 4, 50, master_seed=9)
        curves = {run_trial(config, i, range(1, 51)).successes for i in range(5)}
        assert len(curves) > 1

    def test_noiseless_mle_always_recovers(self):
        config = TrialConfig(Linear(0.0), 12, 2, 6, decoder="mle", master_seed=17)
        assert all(run_trial(config, i).success for i in range(20))

    def test_single_sign_bit_cannot_identify(self):
        # one sign measurement carries at most one bit; C(64, 4) supports
        config = TrialConfig(OneBit(0.0), 64, 4, 1, master_seed=23)
        rate = count_successes(config, 500) / 500
        assert rate < 0.05

    def test_success_is_set_equality(self):
        config = TrialConfig(Linear(0.0), 10, 2, 8, decoder="mle", master_seed=1)
        x = random_signal(config.n, config.k, _role(config, 0, harness.ROLE_SIGNAL))
        A = gen_sensing_matrix(config.m, config.n, _role(config, 0, harness.ROLE_MATRIX))
        y = measure(A, x, config.model, _role(config, 0, harness.ROLE_NOISE))
        assert mle_decode_linear(A, y, config.k).support_set() == frozenset(x.support)
        assert run_trial(config, 0).success


class TestCountSuccesses:
    def test_worker_count_invariance(self):
        config = TrialConfig(OneBit(1.0), 32, 2, 30, master_seed=5)
        serial = count_successes(config, 12, workers=1)
        assert count_successes(config, 12, workers=2) == serial
        assert count_successes(config, 12, workers=4) == serial

    def test_matches_manual_loop(self):
        config = TrialConfig(OneBit(1.0), 32, 2, 30, master_seed=5)
        manual = sum(run_trial(config, i).success for i in range(15))
        assert count_successes(config, 15) == manual

    def test_worker_count_capped(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert harness._worker_count(5000, 5000, math.inf, 1) == 3
        assert harness._worker_count(2, 5000, math.inf, 1) == 2
        assert harness._worker_count(5000, 2, math.inf, 1) == 2
        assert harness._worker_count(1, 10, math.inf, 1) == 1

    def test_pool_never_larger_than_cpus(self, monkeypatch):
        # a stand-in pool runs the blocks inline, so no process is started; it
        # sets its block up before each task, as its one process would hold it
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                self.initializer, self.initargs = initializer, initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                self.initializer(*self.initargs)
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_pool_block", None)  # the stand-in sets it in this process
        _pool_for_any_work(monkeypatch)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        config = TrialConfig(OneBit(1.0), 32, 2, 30, master_seed=5)
        assert count_successes(config, 9, workers=5000) == count_successes(config, 9)
        assert sizes == [1, 1]  # a single-process pool a block
        search = TrialConfig(OneBit(0.0), 64, 4, 10, master_seed=64)
        assert estimate_m95(search, 9, 10, 300, workers=2) == estimate_m95(search, 9, 10, 300)


def _no_pool(monkeypatch):
    def no_pool(max_workers, initializer, initargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)


def _blocks_alive() -> int:
    """Top-k trial blocks still alive in this process."""
    gc.collect()
    return sum(isinstance(o, harness._TopkBlock) for o in gc.get_objects())


def _pool_for_any_work(monkeypatch):
    monkeypatch.setattr(harness, "_POOL_START", 0.0)
    monkeypatch.setattr(harness, "_POOL_PROBE", 0.0)


def _counting_draws(monkeypatch):
    """Record every set-up draw of a trial, as (stream, rows): the projections
    of a top-k trial, the matrix of an MLE trial; refuse to start processes."""
    draws = []
    projections, matrix = harness.sample_projections, harness.gen_sensing_matrix

    def counted_projections(m, k, stream):
        draws.append((stream, m))
        return projections(m, k, stream)

    def counted_matrix(m, n, stream):
        draws.append((stream, m))
        return matrix(m, n, stream)

    monkeypatch.setattr(harness, "sample_projections", counted_projections)
    monkeypatch.setattr(harness, "gen_sensing_matrix", counted_matrix)
    _no_pool(monkeypatch)
    return draws


def _counting_normals(monkeypatch):
    """Record every Gaussian draw a trial makes, a row at a time, as
    (stream_id, start, count): single draws through ``model`` and the rows of
    a block through ``harness``."""
    drawn = []
    single, rows = model_module.sample_gaussian, harness._gaussian_rows

    def counted_single(stream, count, *, start=0):
        drawn.append((stream.stream_id, start, count))
        return single(stream, count, start=start)

    def counted_rows(streams, count, start, out):
        drawn.extend((stream.stream_id, start, count) for stream in streams)
        return rows(streams, count, start, out)

    monkeypatch.setattr(model_module, "sample_gaussian", counted_single)
    monkeypatch.setattr(harness, "_gaussian_rows", counted_rows)
    return drawn


def _role(config, trial_index, role):
    return derive_trial_stream(config.master_seed, trial_index).substream(role)


def _outputs_with_clock_steps(monkeypatch, steps_of):
    """Make each top-k trial's outputs y_i = sqrt(steps_of(trial)[i]), so that
    its clock v(m) adds up the given steps and stays flat where they are 0."""

    def observe(model, t, stream):
        trial = stream.stream_id // TRIAL_STREAM_SLOTS
        return MeasurementVector(model, np.sqrt(np.asarray(steps_of(trial), float)[: len(t)]))

    for channel in CHANNELS:
        monkeypatch.setattr(channel, "observe", observe)


def _decode_scores(decode_fn, scores, k):
    """The decoder run on a 1 x n matrix whose correlation scores are ``scores``."""
    return decode_fn(SensingMatrix(scores[None]), MeasurementVector(Linear(0.0), np.ones(1)), k)


# configs whose success rates lie strictly between 0 and 1 on their grids
PREFIX_CASES = {
    "topk": (TrialConfig(OneBit(1.0), 64, 4, 40, master_seed=61), [20, 40, 60, 90, 130]),
    "quantize": (
        TrialConfig(Linear(1.0), 64, 4, 40, decoder="quantize", master_seed=62),
        [20, 40, 60, 90, 130],
    ),
    "mle": (TrialConfig(Linear(1.0), 12, 2, 4, decoder="mle", master_seed=63), [3, 5, 8, 12]),
}


# (config, marks or bracket, trials) of the benchmark's units and of
# criterion 4's searches
BENCH_SWEEP = (TrialConfig(Linear(1.0), 512, 8, 700), (700, 1000, 1400, 2000, 2800), 10)
BENCH_SEARCH = (TrialConfig(OneBit(4.0), 512, 8, 50), (50, 1000), 30)
BENCH_MLE = (TrialConfig(Linear(0.25), 20, 3, 10, decoder="mle"), (10, 20, 40), 80)


class TestWorkRule:
    """A call runs in the calling process unless a second worker pays for itself."""

    def test_worker_count_follows_the_break_even(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)))
        for probes in (1, 2, 13):
            even = harness._POOL_START + probes * harness._POOL_PROBE
            assert harness._worker_count(8, 100, even - 1, probes) == 1
            assert harness._worker_count(8, 100, even, probes) == 8
            assert harness._worker_count(8, 3, even, probes) == 3
            assert harness._worker_count(1, 100, even, probes) == 1
        # each probe of a search is a round trip, so a search needs more work
        work = harness._POOL_START + 1.5 * harness._POOL_PROBE
        assert harness._worker_count(8, 100, work, 1) == 8
        assert harness._worker_count(8, 100, work, 2) == 1

    @pytest.mark.parametrize("model", [Linear(1.0), OneBit(2.0)], ids=["linear", "onebit"])
    def test_work_bounds_the_normals_drawn(self, monkeypatch, model):
        # a top-k call's work is the normals it draws, counted from above
        drawn = _counting_normals(monkeypatch)
        config = TrialConfig(model, 96, 3, 20, master_seed=70)
        grid = (20, 50, 129, 300)
        sweep(config, grid, 6)
        normals = lambda: sum(count for _, _, count in drawn)
        work = harness._work(replace(config, m=300), 6, len(grid), 1)
        assert normals() <= work <= 3 * normals()
        drawn.clear()
        probes = 2 + (600 - 20 - 1).bit_length()  # the most a search of [20, 600] asks
        assert len(estimate_m95(config, 6, 20, 600, threshold=0.5).probes) <= probes
        work = harness._work(replace(config, m=600), 6, 1, probes)
        assert normals() <= work <= 3 * normals()

    def test_small_calls_start_no_pool(self, monkeypatch):
        # the benchmark's units run in this process, however many workers are asked for
        _no_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)))
        config, grid, trials = BENCH_SWEEP
        sweep(config, grid, trials, workers=8)
        sweep(replace(config, decoder="quantize"), grid, trials, workers=8)
        config, (m_lo, m_hi), trials = BENCH_SEARCH
        estimate_m95(config, trials, m_lo, m_hi, workers=8)
        config, grid, trials = BENCH_MLE
        sweep(config, grid, trials, workers=8)

    def test_paper_scale_calls_keep_their_pool(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        for m_lo, m_hi in ((50, 700), (50, 1000), (50, 2000)):  # criterion 4
            config = TrialConfig(OneBit(0.0), 512, 8, m_hi)
            probes = 2 + (m_hi - m_lo - 1).bit_length()
            assert harness._worker_count(2, 400, harness._work(config, 400, 1, probes), probes) == 2
        config = TrialConfig(OneBit(1.0), 50_000, 1000, 20_000)
        assert harness._worker_count(2, 20, harness._work(config, 20, 3, 1), 1) == 2

    def test_two_processes_return_the_serial_counts(self, monkeypatch, tmp_path):
        # with the break-even at zero every call of two workers splits its
        # trials over two real processes (forked, so the patches below hold
        # there too); a search's kept trials are each set up once, in the
        # process that counts their block
        _pool_for_any_work(monkeypatch)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        log = tmp_path / "setups"
        setup = harness._TopkBlock.__init__

        def logged(block, config, start, stop, m_max):
            with open(log, "a") as fh:
                fh.writelines(f"{os.getpid()} {i}\n" for i in range(start, stop))
            setup(block, config, start, stop, m_max)

        monkeypatch.setattr(harness._TopkBlock, "__init__", logged)
        topk, grid = PREFIX_CASES["topk"]
        mle, mle_grid = PREFIX_CASES["mle"]
        calls = [
            lambda w: sweep(topk, grid, 9, workers=w),
            lambda w: sweep(mle, mle_grid, 9, workers=w),
            lambda w: estimate_m95(mle, 9, 3, 40, threshold=0.5, workers=w),
            lambda w: estimate_m95(topk, 9, 10, 300, workers=w),
        ]
        serial = [call(1) for call in calls]
        assert {line.split()[0] for line in log.read_text().splitlines()} == {str(os.getpid())}
        assert [call(2) for call in calls[:-1]] == serial[:-1]
        log.unlink()
        assert calls[-1](2) == serial[-1]
        setups = [line.split() for line in log.read_text().splitlines()]
        blocks = {pid: sorted(int(i) for p, i in setups if p == pid) for pid, _ in setups}
        assert str(os.getpid()) not in blocks
        assert sorted(blocks.values()) == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]


class TestPrefixTrials:
    """Each trial is set up once and judged at every m asked for."""

    @pytest.mark.parametrize("decoder", sorted(PREFIX_CASES))
    def test_grid_independence(self, decoder):
        config, grid = PREFIX_CASES[decoder]
        trials = 30
        rows = sweep(config, grid, trials).rows
        assert any(0 < row.successes < trials for row in rows)
        for row in rows:
            assert sweep(config, [row.m], trials).rows == (row,)
            cfg = replace(config, m=row.m)
            assert row.successes == sum(run_trial(cfg, i).success for i in range(trials))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), decoder=st.sampled_from(sorted(PREFIX_CASES)))
    def test_grid_independence_property(self, data, decoder):
        # a row of any grid is the one-point sweep at its m
        config, grid = PREFIX_CASES[decoder]
        ms = sorted(data.draw(st.sets(st.integers(1, 2 * grid[-1]), min_size=1, max_size=6)))
        m = data.draw(st.sampled_from(ms))
        row = sweep(config, ms, 8).rows[ms.index(m)]
        assert sweep(config, [m], 8).rows == (row,)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), rows=st.integers(1, 5))
    def test_topk_verdict_matches_the_decoders_tie_rule(self, data, n, rows):
        # small integer scores make exact ties between support and off-support
        # common; each row is judged against its own support
        line = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        scores = np.array(data.draw(st.lists(line, min_size=rows, max_size=rows)), float)
        k = data.draw(st.integers(1, n))
        subset = st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(sorted)
        supports = np.array(data.draw(st.lists(subset, min_size=rows, max_size=rows)))
        picks = [harness._top_k_indices(row, k) for row in scores]
        expected = [np.array_equal(p, support) for p, support in zip(picks, supports)]
        judged = scores.copy()
        assert harness._topk_recovers(judged, supports).tolist() == expected
        assert np.array_equal(judged, scores)  # the scores are left as they were

    @staticmethod
    def _judge_scores(first, last, truth):
        """run_trial on a stand-in trial whose scores at marks 1 and 2 are given;
        returns its outcome and the decoder's pick at each mark."""
        scores = {1: np.asarray(first, float), 2: np.asarray(last, float)}
        truth = np.asarray(truth)
        block = SimpleNamespace(truth=truth[None], scores=lambda m: scores[m][None].copy())
        config = TrialConfig(OneBit(1.0), len(last), truth.size, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_TopkBlock", lambda config, start, stop, m_max: block)
            outcome = run_trial(config, 0, (1, 2))
        picks = [harness._top_k_indices(scores[m], truth.size) for m in (1, 2)]
        assert outcome.successes == tuple(np.array_equal(p, truth) for p in picks)
        return outcome, picks

    @pytest.mark.parametrize("truth,success", [([0, 1], True), ([1, 2], False)])
    def test_decoded_support_on_a_tie(self, truth, success):
        outcome, picks = self._judge_scores([1, 1, 1, 0], [1, 1, 1, 0], truth)
        assert outcome.success == success
        assert picks[-1].tolist() == [0, 1]  # the decoder's tie rule

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10))
    def test_verdicts_follow_the_decoders_pick_at_each_mark(self, data, n):
        # small integer scores make ties common; the verdict at each mark is
        # whether the decoder's pick there is the truth
        draw = lambda: data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        first, last = draw(), draw()
        k = data.draw(st.integers(1, n))
        truth = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
        self._judge_scores(first, last, truth)

    def test_probes_equal_count_successes(self):
        config = TrialConfig(OneBit(0.0), 64, 4, 10, master_seed=64)
        result = estimate_m95(config, 30, 10, 300)
        assert len(result.probes) > 3
        for probe in result.probes:
            assert probe.successes == count_successes(replace(config, m=probe.m), 30)

    def test_run_trial_at_many_m(self):
        config, grid = PREFIX_CASES["topk"]
        outcome = run_trial(replace(config, m=grid[-1]), 5, grid)
        assert len(outcome.successes) == len(grid)
        for m, success in zip(grid, outcome.successes):
            assert run_trial(replace(config, m=m), 5).success == success
        with pytest.raises(ValueError):
            run_trial(replace(config, m=grid[-1]), 5, grid[:-1])

    @pytest.mark.parametrize("decoder", sorted(PREFIX_CASES))
    def test_verdicts_are_the_decoders(self, decoder):
        # MLE trials decode their matrix; top-k trials decode the scores of
        # their sufficient statistics, which the decoder must pick the same way
        config, grid = PREFIX_CASES[decoder]
        decode = {
            "topk": topk_correlation_decode,
            "quantize": quantize_then_decode,
            "mle": mle_decode_linear,
        }[decoder]
        for i in range(10):
            outcome = run_trial(config, i)
            if decoder == "mle":
                x = random_signal(config.n, config.k, _role(config, i, harness.ROLE_SIGNAL))
                A = gen_sensing_matrix(config.m, config.n, _role(config, i, harness.ROLE_MATRIX))
                y = measure(A, x, config.model, _role(config, i, harness.ROLE_NOISE))
                result, truth = decode(A, y, config.k), frozenset(x.support)
            else:
                block = harness._TopkBlock(config, i, i + 1, config.m)
                result = _decode_scores(decode, block.scores(config.m)[0], config.k)
                truth = frozenset(block.truth[0].tolist())
            assert outcome.success == (result.support_set() == truth)

    def test_sweep_draws_once_per_trial(self, monkeypatch):
        draws = _counting_draws(monkeypatch)
        config, grid = PREFIX_CASES["topk"]
        sweep(config, grid, 7, workers=1)
        length = harness._skeleton_length(max(grid))
        assert draws == [(_role(config, i, harness.ROLE_MATRIX), length) for i in range(7)]
        mle, grid = PREFIX_CASES["mle"]
        draws.clear()
        sweep(mle, grid, 3, workers=1)
        assert draws == [(_role(mle, i, harness.ROLE_MATRIX), max(grid)) for i in range(3)]

    def test_m95_draws_once_per_trial(self, monkeypatch):
        # each trial is set up once, at m_hi, and read only at the probed m
        draws = _counting_draws(monkeypatch)
        reads = []
        scores = harness._TopkBlock.scores

        def counted_scores(block, m):
            reads.extend([m] * len(block.truth))
            return scores(block, m)

        monkeypatch.setattr(harness._TopkBlock, "scores", counted_scores)
        config = TrialConfig(OneBit(0.0), 64, 4, 10, master_seed=64)
        result = estimate_m95(config, 9, 10, 300, workers=1)
        assert len(result.probes) > 1
        length = harness._skeleton_length(300)
        assert draws == [(_role(config, i, harness.ROLE_MATRIX), length) for i in range(9)]
        assert reads == [probe.m for probe in result.probes for _ in range(9)]
        assert _blocks_alive() == 0  # the kept trials went with the search
        # on two real processes (forked, so the patches hold there) every trial
        # is set up and read in the process that counts it, and ends with it
        monkeypatch.setattr(harness, "ProcessPoolExecutor", ProcessPoolExecutor)
        _pool_for_any_work(monkeypatch)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        seen = len(draws), len(reads)
        assert estimate_m95(config, 9, 10, 300, workers=2) == result
        assert (len(draws), len(reads)) == seen
        assert _blocks_alive() == 0

    def test_matrix_too_large_refused_before_any_trial(self, monkeypatch):
        rows = _counting_draws(monkeypatch)
        config = TrialConfig(OneBit(1.0), 10**9, 1, 10**6)
        with pytest.raises(ValueError, match="memory"):
            sweep(config, [10, 10**6], 4, workers=2)
        with pytest.raises(ValueError, match="memory"):
            estimate_m95(config, 4, 1, 10**6, workers=2)
        with pytest.raises(ValueError, match="memory"):
            count_successes(config, 4, workers=2)
        assert rows == []

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        decoder=st.sampled_from(sorted(PREFIX_CASES)),
        trials=st.integers(1, 10),
        warm=st.booleans(),
    )
    def test_block_counts_add_up_over_any_split(self, data, decoder, trials, warm):
        # the counts of contiguous blocks, split anywhere, sum to the serial
        # counts, whether the blocks set their trials up at ms[-1] or, to be
        # kept, at config.m
        config, grid = PREFIX_CASES[decoder]
        config = replace(config, m=grid[-1])
        marks = st.sets(st.integers(1, grid[-1]), min_size=1, max_size=5)
        ms = tuple(sorted(data.draw(marks)))
        cuts = sorted(data.draw(st.lists(st.integers(0, trials), max_size=4)))
        edges = [0, *cuts, trials]
        kept = lambda: {} if warm else None
        serial = harness._block_counts(config, ms, 0, trials, kept())
        parts = [harness._block_counts(config, ms, a, b, kept()) for a, b in zip(edges, edges[1:])]
        assert [sum(column) for column in zip(*parts)] == serial


# every channel and top-k decoder a trial can take
STREAMED_CASES = {
    "linear-topk": (Linear(1.0), "topk"),
    "linear-quantize": (Linear(1.0), "quantize"),
    "onebit-topk": (OneBit(1.0), "topk"),
    "logistic-topk": (Logistic(2.0), "topk"),
    "logistic-inf-topk": (Logistic(math.inf), "topk"),
}


class TestStreamedTrials:
    """Top-k and quantize trials are judged from their scores' sufficient statistics."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        case=st.sampled_from(sorted(STREAMED_CASES)),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 10**6),
    )
    def test_verdicts_equal_the_decoder_on_each_prefix(self, data, case, n, seed, index):
        model, decoder = STREAMED_CASES[case]
        k = data.draw(st.integers(1, min(3, n)))
        ms = sorted(data.draw(st.sets(st.integers(1, 150), min_size=1, max_size=12)))
        config = TrialConfig(model, n, k, ms[-1], decoder, seed)
        outcome = run_trial(config, index, ms)
        decode_fn = quantize_then_decode if decoder == "quantize" else topk_correlation_decode
        block = harness._TopkBlock(config, index, index + 1, ms[-1])
        truth = random_signal(n, k, derive_trial_stream(seed, index).substream(harness.ROLE_SIGNAL))
        assert block.truth[0].tolist() == list(truth.support)
        for m, success in zip(ms, outcome.successes):
            result = _decode_scores(decode_fn, block.scores(m)[0], k)
            assert success == (result.support_set() == frozenset(truth.support))

    @pytest.mark.parametrize("case", sorted(STREAMED_CASES))
    def test_verdicts_do_not_depend_on_the_grid(self, case):
        model, decoder = STREAMED_CASES[case]
        config = TrialConfig(model, 48, 3, 200, decoder, master_seed=66)
        dense = list(range(1, 201))
        # sparse marks, marks on either side of powers of two (skeleton forward nodes)
        grids = ([1, 100, 200], [63, 64, 65, 127, 128, 129, 200], [130, 200], [200])
        outcomes = [run_trial(config, i, dense) for i in range(6)]
        for i, outcome in enumerate(outcomes):
            for ms in grids:
                got = run_trial(config, i, ms)
                assert got.successes == tuple(outcome.successes[m - 1] for m in ms)
            # a trial set up for a larger m, read in any order (as the probes
            # of a threshold search read a kept trial), gives the same scores
            tall = harness._TopkBlock(config, i, i + 1, 1000)
            marks = (200, 1, 129, 64, 65, 128, 3)
            short = {m: harness._TopkBlock(config, i, i + 1, m).scores(m) for m in marks}
            for m in marks:
                assert np.array_equal(tall.scores(m), short[m])
                success = harness._topk_recovers(short[m], tall.truth)[0]
                assert success == outcome.successes[m - 1]
        assert any(0 < sum(o.successes) < len(dense) for o in outcomes)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m_max=st.integers(2, 300), bisection=st.booleans())
    def test_a_read_keeps_only_its_own_path(self, data, m_max, bisection):
        # after any sequence of reads, ascending or in a bisection's order,
        # the block holds exactly the midpoints the last read is built from,
        # and every read equals a fresh block's
        if bisection:
            lo, hi = data.draw(st.integers(1, m_max - 1)), m_max
            reads = [hi, lo]
            while hi - lo > 1:
                reads.append((lo + hi) // 2)
                lo, hi = (lo, reads[-1]) if data.draw(st.booleans()) else (reads[-1], hi)
        else:
            reads = sorted(data.draw(st.sets(st.integers(1, m_max), min_size=1, max_size=10)))

        def path(c):
            h = c & -c
            return set() if h == c else {c} | path(c - h) | path(c + h)

        config = TrialConfig(OneBit(1.0), 6, 2, m_max, master_seed=73)
        block = harness._TopkBlock(config, 0, 3, m_max)
        for m in reads:
            fresh = harness._TopkBlock(config, 0, 3, m).scores(m)
            assert np.array_equal(block.scores(m), fresh)
            assert set(block.nodes) == path(m)

    @pytest.mark.parametrize("case", sorted(STREAMED_CASES))
    def test_verdicts_do_not_depend_on_the_block_size(self, monkeypatch, case):
        # successes counted over blocks of 1, 3 or all 6 trials, each judged in
        # chunks of them all, of 2 or of 1, set up afresh, kept, or kept while
        # there is room for just one trial, are the per-trial verdicts summed;
        # later probes read what earlier ones kept, each part from its own
        # dict, with its own room
        model, decoder = STREAMED_CASES[case]
        config = TrialConfig(model, 48, 3, 200, decoder, master_seed=66)
        ms = (1, 63, 64, 65, 127, 128, 129, 200)
        verdicts = [run_trial(config, i, ms).successes for i in range(6)]
        assert any(0 < sum(v) < len(ms) for v in verdicts)
        whole, one_trial = harness._KEPT_BYTES, harness._walk_footprint(config.m, config.n)
        held = harness._held_bytes(config.m, config.n)
        assert held < one_trial
        rooms = ((False, whole), (True, whole), (False, 2 * one_trial), (True, 2 * one_trial))
        rooms += ((True, one_trial), (True, held))  # chunks of 1; room for several, or one
        for block in (1, 3, 6):
            for keep, room in rooms:
                monkeypatch.setattr(harness, "_KEPT_BYTES", room)
                kept = {a: {} if keep else None for a in range(0, 6, block)}
                for probe in (ms, ms[2:5], ms[:1], ms):
                    parts = [
                        harness._block_counts(config, probe, a, a + block, part)
                        for a, part in kept.items()
                    ]
                    got = [sum(column) for column in zip(*parts)]
                    assert got == [sum(v[ms.index(m)] for v in verdicts) for m in probe]

    def test_a_block_is_its_trials_set_up_one_at_a_time(self, monkeypatch):
        # rows on different clocks, some flat over a stretch, build every node,
        # read every score and draw every bridge normal as each trial set up alone
        def steps_of(trial):
            steps = np.random.default_rng(trial).exponential(size=32)
            steps[3 * trial : 3 * trial + 5 * (trial % 2)] = 0.0  # odd trials stall
            return steps

        _outputs_with_clock_steps(monkeypatch, steps_of)
        drawn = _counting_normals(monkeypatch)
        config = TrialConfig(Linear(0.0), 24, 3, 32, master_seed=7500)
        block = harness._TopkBlock(config, 0, 7, 32)
        singles = [harness._TopkBlock(config, i, i + 1, 32) for i in range(7)]
        clocks = block.clock
        assert len({tuple(v) for v in clocks}) == 7
        assert all(np.any(np.diff(v) == 0.0) == (i % 2 == 1) for i, v in enumerate(clocks))
        draws = lambda: sorted(drawn)
        for c in range(1, 33):
            drawn.clear()
            w = block.walk(c)
            together = draws()
            drawn.clear()
            assert np.array_equal(w, np.concatenate([t.walk(c) for t in singles]))
            assert together == draws()
            assert np.array_equal(block.scores(c), np.concatenate([t.scores(c) for t in singles]))

    def test_trial_fits_where_its_matrix_would_not(self, monkeypatch):
        # with 8 MiB of memory a 2000 x 1024 matrix (16 MiB) does not fit, but a
        # top-k trial never draws it: the sweep runs, and an MLE trial of k = 1,
        # within its budget but holding its matrix, is refused
        _no_pool(monkeypatch)
        real, fake = harness.os.sysconf, {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2048}
        monkeypatch.setattr(harness.os, "sysconf", lambda name: fake.get(name) or real(name))
        config = TrialConfig(OneBit(1.0), 1024, 4, 2000, master_seed=67)
        assert config.m * config.n * 8 > 8 * 2**20
        tracemalloc.start()
        try:
            result = sweep(config, [500, 2000], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.trials for row in result.rows] == [2, 2]
        assert peak < 4 * 2**20
        with pytest.raises(ValueError, match="memory"):
            sweep(replace(config, model=Linear(1.0), k=1, decoder="mle"), [2000], 2)

    def test_memory_refusal_follows_the_trials_footprint(self, monkeypatch):
        # a top-k trial is refused exactly when its statistics and skeleton
        # nodes need more than the machine has, before anything is drawn
        _no_pool(monkeypatch)
        config = TrialConfig(OneBit(1.0), 4096, 4, 3000, master_seed=68)
        need = harness._walk_footprint(3000, 4096)
        assert need < config.m * config.n * 8 // 10  # far below the matrix
        memory = {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr(harness.os, "sysconf", lambda name: memory[name])
        memory["SC_PHYS_PAGES"] = need - 1
        draws = _counting_draws(monkeypatch)
        with pytest.raises(ValueError, match="top-k trial of 4096 columns at m=3000 needs"):
            sweep(config, [1000, 3000], 2)
        assert draws == []
        memory["SC_PHYS_PAGES"] = need
        tracemalloc.start()
        try:
            sweep(config, [1000, 3000], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(draws) == 2
        assert peak <= need

    def test_mle_refusal_counts_the_supports(self, monkeypatch):
        # C(20, 7) = 77,520 supports, more than _MLE_BLOCK residuals: an MLE
        # trial holds its room for a piece, the running sums and the plan's
        # tables beside its small matrix, and is refused exactly when all of
        # that needs more than the machine has
        _no_pool(monkeypatch)
        config = TrialConfig(Linear(1.0), 20, 7, 6, decoder="mle", master_seed=69)
        assert math.comb(20, 7) > decode._MLE_BLOCK
        need = harness._mle_footprint(6, 20, 7)
        assert need > 5 * 8 * math.comb(20, 7)
        memory = {"SC_PAGE_SIZE": 1}
        monkeypatch.setattr(harness.os, "sysconf", lambda name: memory[name])
        memory["SC_PHYS_PAGES"] = need - 1
        draws = _counting_draws(monkeypatch)
        with pytest.raises(ValueError, match="MLE trial on a 6 x 20 sensing matrix needs"):
            sweep(config, [3, 6], 2)
        assert draws == []
        memory["SC_PHYS_PAGES"] = need
        decode._plan.cache_clear()  # the plan's build counts too
        tracemalloc.start()
        try:
            sweep(config, [3, 6], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(draws) == 2
        assert peak <= need

    def test_a_kept_block_holds_its_held_bytes(self):
        # a search keeps blocks while their _held_bytes fit; between reads a
        # kept block holds no more than that, and sets up within its footprint
        config = TrialConfig(OneBit(4.0), 512, 8, 1000, master_seed=72)
        harness._TopkBlock(config, 0, 1, config.m)  # lazy set-up outside the count
        tracemalloc.start()
        try:
            block = harness._TopkBlock(config, 0, 30, config.m)
            setup_peak = tracemalloc.get_traced_memory()[1]
            held = []
            for m in (1000, 525, 287, 168, 228, 258, 243, 250, 254, 252, 253):  # a bisection
                harness._topk_recovers(block.scores(m), block.truth)
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert max(held) <= 30 * harness._held_bytes(config.m, config.n)
        assert setup_peak <= 30 * harness._walk_footprint(config.m, config.n)

    def test_paper_scale_sweep_is_quick(self):
        # n = 50,000 and k = 1000 as in the paper's bounds; the matrix at
        # m = 20,000 would be 10^9 entries (8 GB), the statistics are ~30 MB
        config = TrialConfig(OneBit(1.0), 50_000, 1000, 20_000, master_seed=69)
        start = time.perf_counter()
        result = sweep(config, [5_000, 10_000, 20_000], 2)
        elapsed = time.perf_counter() - start
        assert [row.trials for row in result.rows] == [2, 2, 2]
        assert elapsed < 5.0


# The exact law of the sufficient statistics, against the matrix engine and
# closed forms.  They can fail: an engine that drops the (I - 11^T/k)
# projection, runs the linear arm on the clock m, mis-scales a bridge
# variance or a forward step, or puts the bridge mean at the midpoint of
# the nodes rather than of the clock fails them (see CHANGES.md).

def _matrix_verdicts(config, trial_index, ms):
    """Verdicts at each m of a trial drawn as a full matrix and decoded by the
    library's decoders on each prefix (the reference the engine replaces)."""
    base = derive_trial_stream(config.master_seed, trial_index)
    x = random_signal(config.n, config.k, base.substream(harness.ROLE_SIGNAL))
    A = gen_sensing_matrix(ms[-1], config.n, base.substream(harness.ROLE_MATRIX))
    y = measure(A, x, config.model, base.substream(harness.ROLE_NOISE))
    decode_fn = quantize_then_decode if config.decoder == "quantize" else topk_correlation_decode
    truth = frozenset(x.support)
    return [
        decode_fn(SensingMatrix(A.entries[:m]), MeasurementVector(y.model, y.values[:m]), config.k)
        .support_set() == truth
        for m in ms
    ]


def _two_proportion_z(a: int, b: int, trials: int) -> float:
    pooled = (a + b) / (2 * trials)
    se = math.sqrt(2 * pooled * (1 - pooled) / trials)
    return 0.0 if se == 0.0 else (a - b) / trials / se


# (model, decoder, marks) at n = 32, k = 2: rates between about 0.2 and 0.9
LAW_CASES = {
    "linear-topk": (Linear(1.0), "topk", [20, 45, 90]),
    "linear-quantize": (Linear(1.0), "quantize", [30, 60, 120]),
    "onebit-topk": (OneBit(1.0), "topk", [30, 60, 120]),
    "logistic-topk": (Logistic(2.0), "topk", [30, 60, 120]),
    "logistic-inf-topk": (Logistic(math.inf), "topk", [20, 45, 90]),
}


def _sign(u):
    return np.where(u >= 0.0, 1.0, -1.0)


class TestExactLaw:
    def test_skeleton_is_a_brownian_motion_on_its_clock(self, monkeypatch):
        # the n columns are independent walks, so 20,000 columns sample the
        # joint law of nodes 1..16, whose covariance must be v(min(c, c'));
        # the uneven clock (with flat stretches) keeps bridge weights off 1/2
        steps = [2.0, 0.1, 0.0, 0.0, 5.0, 1.0, 0.5, 3.0, 0.01, 4.0, 4.0, 0.0, 2.0, 7.0, 0.3, 1.0]
        _outputs_with_clock_steps(monkeypatch, lambda trial_index: steps)
        n = 20_000
        block = harness._TopkBlock(TrialConfig(Linear(0.0), n, 1, 16, master_seed=7400), 0, 1, 16)
        clock = block.clock[0]
        assert np.allclose(clock[1:], np.cumsum(steps)) and np.all(clock[3:5] == clock[2])
        W = np.array([block.walk(c)[0] for c in range(1, 17)])
        v = clock[1:]
        expected = np.minimum.outer(v, v)
        se = np.sqrt((np.outer(v, v) + expected**2) / n)
        z = (W @ W.T / n - expected) / np.where(se > 0, se, 1.0)
        assert np.all(np.abs(z) <= 5.0), np.abs(z).max()
        assert np.array_equal(W[2], W[1]) and np.array_equal(W[3], W[1])  # v flat

    @pytest.mark.parametrize("case", sorted(LAW_CASES))
    def test_success_rates_match_the_matrix_engine(self, case):
        model, decoder, ms = LAW_CASES[case]
        trials = 2000
        engine = TrialConfig(model, 32, 2, ms[-1], decoder, master_seed=7100)
        reference = replace(engine, master_seed=7200)  # independent trials
        fast = sweep(engine, ms, trials).rows
        slow = np.sum([_matrix_verdicts(reference, i, ms) for i in range(trials)], axis=0)
        assert any(0.15 < row.success_rate < 0.85 for row in fast)
        for row, successes in zip(fast, slow):
            z = _two_proportion_z(row.successes, int(successes), trials)
            assert abs(z) <= 4.0, f"m={row.m}: {row.successes} vs {successes} of {trials}"

    # each channel's output y at k = 1 from t; a binary one is the sign of a
    # noisy t (>= 0 is +1)
    K1_CHANNELS = {
        "linear-1": (Linear(1.0), lambda t, rng: t + rng.standard_normal(t.shape)),
        "onebit-0": (OneBit(0.0), lambda t, rng: _sign(t)),
        "onebit-1": (OneBit(1.0), lambda t, rng: _sign(t + rng.standard_normal(t.shape))),
        "logistic-2": (Logistic(2.0), lambda t, rng: _sign(expit(2.0 * t) - rng.random(t.shape))),
    }

    @pytest.mark.parametrize("case", sorted(K1_CHANNELS))
    def test_k1_success_curve_matches_its_trial_free_formula(self, case):
        # at k = 1 the support score is D = sum_{i<m} y_i t_i and the n - 1
        # others are i.i.d. N(0, v) given the outputs, with the clock
        # v(m) = sum_{i<m} y_i^2 (m on a binary channel), so
        # P(m) = E[Phi(D / sqrt(v))^(n - 1)].  D and v are drawn here with
        # numpy's own generator, none of binsense's
        model, output = self.K1_CHANNELS[case]
        n, ms, trials, draws = 64, (10, 20, 40, 80), 4000, 40_000
        rng = np.random.default_rng(7600)
        t = rng.standard_normal((draws, ms[-1]))
        y = output(t, rng)
        drift, clock = np.cumsum(y * t, axis=1), np.cumsum(y * y, axis=1)
        rows = sweep(TrialConfig(model, n, 1, ms[-1], master_seed=7700), ms, trials).rows
        for m, row in zip(ms, rows):
            p = ndtr(drift[:, m - 1] / np.sqrt(clock[:, m - 1])) ** (n - 1)
            se2 = p.var(ddof=1) / draws + p.mean() * (1.0 - p.mean()) / trials
            z = (row.success_rate - p.mean()) / math.sqrt(se2)
            assert abs(z) <= 4.0, f"m={m}: engine {row.success_rate} vs formula {p.mean():.4f}"

    @pytest.mark.parametrize("model", [Linear(1.0), OneBit(1.0)], ids=["linear", "onebit"])
    def test_score_moments_at_a_bridge_node(self, model):
        # scores at m = 45 (a bridge midpoint of the skeleton) against the
        # moments of s_j = sum_i y_i A_ij with a drawn matrix: per row, with
        # k = 3, sigma2 = 1, a = E[y A_j] and j != l on the support,
        #   linear:  a = 1, Var(y A_j) = 3 + (k - 1 + sigma2) - 1, Cov(y A_j, y A_l) = 2 - 1,
        #            off-support E[y^2] = k + sigma2
        #   one-bit: a = sqrt(2/pi)/sqrt(k + sigma2), Var = 1 - a^2, Cov = -a^2, off-support 1
        k, sigma2, m, trials = 3, 1.0, 45, 4000
        config = TrialConfig(model, 16, k, m, master_seed=7300)
        if model.tag == "linear":
            a, var, cov, off = 1.0, k + sigma2 + 1.0, 1.0, k + sigma2
        else:
            a = model.link_slope(k)
            var, cov, off = 1.0 - a * a, -a * a, 1.0
        stats = []
        block = harness._TopkBlock(config, 0, trials, m)
        for scores, truth in zip(block.scores(m), block.truth):
            inside = scores[truth] - m * a
            outside = np.delete(scores, truth)
            pairs = [inside[p] * inside[q] for p, q in itertools.combinations(range(k), 2)]
            stats.append([inside.mean(), np.mean(inside**2), np.mean(pairs), np.mean(outside**2)])
        stats = np.array(stats)
        z = (stats.mean(axis=0) - [0.0, m * var, m * cov, m * off]) / (
            stats.std(axis=0, ddof=1) / math.sqrt(trials)
        )
        assert np.all(np.abs(z) <= 4.0), z


def test_every_traced_target_resolves():
    # bench/spans.py patches these names on binsense.harness and binsense.model;
    # if a refactor drops one, a traced benchmark run fails on the missing attribute
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    modules = {"harness": harness, "model": model_module}
    targets = [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(ast.parse(spans.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"
    ]
    assert len(targets) >= 9
    for module, attr in targets:
        assert hasattr(modules[module], attr), f"{module}.{attr} is gone"


class TestWilsonInterval:
    @pytest.mark.parametrize(
        "s,t,lo,hi",
        [
            (8, 10, 0.490162471537, 0.943317848546),
            (0, 20, 0.0, 0.161125158053),
            (20, 20, 0.838874841947, 1.0),
            (50, 100, 0.403831530366, 0.596168469634),
        ],
    )
    def test_reference_values(self, s, t, lo, hi):
        got_lo, got_hi = wilson_interval(s, t)
        assert got_lo == pytest.approx(lo, abs=1e-10)
        assert got_hi == pytest.approx(hi, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_coverage_meta(self):
        # rigged Bernoulli(0.5) "decoder": the 95% interval must cover the
        # true rate in at least 93% of 500 independent sweeps
        gen = RngStream(314, 0).generator()
        trials = 64
        covered = 0
        for _ in range(500):
            successes = int((gen.random(trials) < 0.5).sum())
            lo, hi = wilson_interval(successes, trials)
            covered += lo <= 0.5 <= hi
        assert covered / 500 >= 0.93


class TestSweep:
    def test_single_point_reduces_to_trials(self):
        config = TrialConfig(OneBit(1.0), 32, 2, 40, master_seed=11)
        result = sweep(config, [40], 25)
        assert len(result.rows) == 1
        assert result.rows[0].successes == count_successes(config, 25)

    def test_row_count_and_rates(self):
        config = TrialConfig(OneBit(1.0), 64, 3, 20, master_seed=12)
        result = sweep(config, [20, 60, 180], 30)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.success_rate == row.successes / row.trials
            assert row.ci_low <= row.success_rate <= row.ci_high

    def test_statistical_monotonicity(self):
        # paired trials across a 6x span of m: more measurements help
        config = TrialConfig(OneBit(1.0), 128, 4, 40, master_seed=13)
        result = sweep(config, [40, 240], 100)
        assert result.rows[-1].success_rate >= result.rows[0].success_rate

    def test_grid_validation(self):
        config = TrialConfig(OneBit(1.0), 32, 2, 10, master_seed=0)
        with pytest.raises(ValueError):
            sweep(config, [], 5)
        with pytest.raises(ValueError):
            sweep(config, [20, 10], 5)

    def test_csv_schema(self):
        config = TrialConfig(OneBit(2.0), 32, 2, 10, master_seed=3)
        text = sweep(config, [10, 30], 8).to_csv()
        lines = text.splitlines()
        assert lines[0] == (
            "model,n,k,m,sigma2,beta,decoder,trials,successes,"
            "success_rate,ci_low,ci_high,seed"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "onebit" and first[4] == "2" and first[5] == ""
        assert first[-1] == "3"

    def test_csv_logistic_noise_column(self):
        config = TrialConfig(Logistic(0.5), 32, 2, 10, master_seed=3)
        line = sweep(config, [10], 8).to_csv().splitlines()[1]
        fields = line.split(",")
        assert fields[4] == "" and fields[5] == "0.5"

    def test_pipeline_equivalence(self):
        # sign-then-decode on the linear channel IS the one-bit sweep,
        # row for row, when the noise streams coincide
        lin = TrialConfig(Linear(1.0), 64, 4, 40, decoder="quantize", master_seed=77)
        bit = TrialConfig(OneBit(1.0), 64, 4, 40, decoder="topk", master_seed=77)
        r_lin = sweep(lin, [40, 80], 50)
        r_bit = sweep(bit, [40, 80], 50)
        for a, b in zip(r_lin.rows, r_bit.rows):
            assert a.successes == b.successes


class TestEstimateM95:
    def test_bracket_validated_first(self):
        config = TrialConfig(OneBit(1.0), 64, 4, 10, master_seed=21)
        with pytest.raises(BracketError):
            estimate_m95(config, 40, 5, 12)

    def test_all_success_returns_lower_edge(self):
        config = TrialConfig(Linear(0.0), 10, 2, 8, decoder="mle", master_seed=22)
        result = estimate_m95(config, 30, 4, 40)
        assert result.m95 == 4

    def test_threshold_reached_and_deterministic(self):
        config = TrialConfig(OneBit(0.0), 64, 4, 10, master_seed=23)
        a = estimate_m95(config, 60, 10, 300)
        b = estimate_m95(config, 60, 10, 300)
        assert a.m95 == b.m95
        assert a.success_rate >= 0.95
        assert 10 <= a.m95 <= 300
        assert a.probes == b.probes

    def test_worker_invariance(self):
        config = TrialConfig(OneBit(0.0), 32, 2, 10, master_seed=24)
        a = estimate_m95(config, 40, 5, 120, workers=1)
        b = estimate_m95(config, 40, 5, 120, workers=3)
        assert a == b

    def test_validation(self):
        config = TrialConfig(OneBit(1.0), 32, 2, 10, master_seed=0)
        with pytest.raises(ValueError):
            estimate_m95(config, 10, 50, 50)
        with pytest.raises(ValueError):
            estimate_m95(config, 10, 5, 50, threshold=0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda config, trials, workers: sweep(config, [10, 20], trials, workers),
        lambda config, trials, workers: count_successes(config, trials, workers),
        lambda config, trials, workers: estimate_m95(config, trials, 10, 300, workers=workers),
    ],
    ids=["sweep", "count_successes", "estimate_m95"],
)
@pytest.mark.parametrize(
    "trials, workers",
    [(0, 1), (-3, 1), (2.5, 1), (4, 0), (4, -4), (4, 2.5), (4, "2")],
)
def test_bad_trials_and_workers_are_refused(monkeypatch, call, trials, workers):
    # a trial or worker count that is not a positive integer is refused before any draw
    draws = _counting_draws(monkeypatch)
    config = TrialConfig(OneBit(0.0), 64, 4, 20, master_seed=64)
    bad = "trials" if trials != 4 else "workers"
    with pytest.raises(ValueError, match=f"{bad} must be a positive integer"):
        call(config, trials, workers)
    assert draws == []


def test_concurrent_calls_in_threads_return_their_serial_results(monkeypatch):
    # each call owns the trials it keeps, so searches and sweeps run at once
    # from threads of one process, all below the pool break-even, return
    # what they return alone; a short switch interval interleaves them finely
    _no_pool(monkeypatch)
    search = TrialConfig(OneBit(0.0), 64, 4, 10, master_seed=64)
    linear = TrialConfig(Linear(1.0), 64, 4, 20, master_seed=80)
    calls = [
        lambda: estimate_m95(search, 9, 10, 300),
        lambda: estimate_m95(replace(search, master_seed=65), 9, 10, 300),
        lambda: sweep(linear, [20, 40, 80], 9),
        lambda: sweep(replace(linear, master_seed=81), [20, 40, 80], 9),
    ]
    serial = [call() for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(call) for call in calls]
                assert [future.result() for future in futures] == serial
    finally:
        sys.setswitchinterval(interval)
    assert _blocks_alive() == 0


class TestMomentChecks:
    def test_onebit_in_support(self):
        check = moment_check_onebit(10, 1.0, 200_000, master_seed=41)
        assert check.target == pytest.approx(0.24057124674551033, rel=1e-12)
        assert abs(check.z_score) <= 3.0

    def test_onebit_off_support_uncorrelated(self):
        check = moment_check_onebit(10, 1.0, 200_000, master_seed=42, in_support=False)
        assert check.target == 0.0
        assert abs(check.z_score) <= 3.0

    def test_onebit_target_decreases_with_noise(self):
        targets = [moment_check_onebit(10, s2, 10, master_seed=1).target for s2 in (0.0, 4.0, 16.0)]
        assert targets[0] > targets[1] > targets[2] > 0.0

    def test_logistic_reference(self):
        check = moment_check_logistic(4, 1.0, 200_000, master_seed=43)
        assert check.target == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert abs(check.z_score) <= 3.0

    def test_logistic_beta_zero_exact(self):
        check = moment_check_logistic(4, 0.0, 1000, master_seed=44)
        assert check.estimate == 1.0
        assert check.target == 1.0
        assert check.z_score == 0.0

    def test_logistic_target_decreasing_in_beta(self):
        targets = [moment_check_logistic(4, b, 10, master_seed=1).target for b in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(targets, targets[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_check_onebit(0, 1.0, 100)
        with pytest.raises(ValueError):
            moment_check_onebit(5, -1.0, 100)
        with pytest.raises(ValueError):
            moment_check_logistic(5, math.inf, 100)
