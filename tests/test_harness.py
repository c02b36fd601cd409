"""Monte Carlo engine: trial semantics, sweeps, threshold search,
moment checks, and the Wilson interval."""

import math
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsense import harness
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
from binsense.model import Linear, Logistic, OneBit, gen_sensing_matrix, measure, random_signal
from binsense.numerics import RngStream, derive_trial_stream


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
        a = run_trial(config, 3)
        b = run_trial(config, 3)
        assert a.success == b.success
        assert a.decoded_support == b.decoded_support

    def test_trials_differ(self):
        config = TrialConfig(OneBit(1.0), 64, 4, 50, master_seed=9)
        supports = {run_trial(config, i).decoded_support for i in range(5)}
        assert len(supports) > 1

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
        outcome = run_trial(config, 0)
        assert outcome.success
        assert len(outcome.decoded_support) == 2


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
        assert harness._worker_count(5000, 5000) == 3
        assert harness._worker_count(2, 5000) == 2
        assert harness._worker_count(5000, 2) == 2
        assert harness._worker_count(0, 10) == 1

    def test_pool_never_larger_than_cpus(self, monkeypatch):
        # a stand-in pool runs the blocks inline, so no process is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
        config = TrialConfig(OneBit(1.0), 32, 2, 30, master_seed=5)
        assert count_successes(config, 9, workers=5000) == count_successes(config, 9)
        assert sizes == [2]


def _counting_draws(monkeypatch):
    """Record the rows of every matrix a trial draws; refuse to start processes."""
    rows = []
    draw = harness.gen_sensing_matrix

    def counted(m, n, stream):
        rows.append(m)
        return draw(m, n, stream)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "gen_sensing_matrix", counted)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    return rows


# configs whose success rates lie strictly between 0 and 1 on their grids
PREFIX_CASES = {
    "topk": (TrialConfig(OneBit(1.0), 64, 4, 40, master_seed=61), [20, 40, 60, 90, 130]),
    "quantize": (
        TrialConfig(Linear(1.0), 64, 4, 40, decoder="quantize", master_seed=62),
        [20, 40, 60, 90, 130],
    ),
    "mle": (TrialConfig(Linear(1.0), 12, 2, 4, decoder="mle", master_seed=63), [3, 5, 8, 12]),
}


class TestPrefixTrials:
    """Each trial is drawn once at the largest m and judged at every smaller m."""

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_topk_verdict_matches_the_decoders_tie_rule(self, data, n):
        # small integer scores make exact ties between support and off-support common
        scores = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
        k = data.draw(st.integers(1, n))
        support = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
        expected = np.array_equal(harness._top_k_indices(scores, k), support)
        assert harness._topk_recovers(scores[None, :].copy(), support)[0] == expected

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
    def test_decoded_support_is_the_decoders(self, decoder):
        config, grid = PREFIX_CASES[decoder]
        decode = {
            "topk": topk_correlation_decode,
            "quantize": quantize_then_decode,
            "mle": mle_decode_linear,
        }[decoder]
        for i in range(10):
            base = derive_trial_stream(config.master_seed, i)
            x = random_signal(config.n, config.k, base.substream(harness.ROLE_SIGNAL))
            A = gen_sensing_matrix(config.m, config.n, base.substream(harness.ROLE_MATRIX))
            y = measure(A, x, config.model, base.substream(harness.ROLE_NOISE))
            result = decode(A, y, config.k)
            outcome = run_trial(config, i)
            assert outcome.decoded_support == tuple(result.support)
            assert outcome.success == (result.support_set() == frozenset(x.support))

    def test_sweep_draws_once_per_trial(self, monkeypatch):
        rows = _counting_draws(monkeypatch)
        config, grid = PREFIX_CASES["topk"]
        sweep(config, grid, 7, workers=1)
        assert rows == [max(grid)] * 7

    def test_m95_draws_once_per_trial(self, monkeypatch):
        rows = _counting_draws(monkeypatch)
        config = TrialConfig(OneBit(0.0), 64, 4, 10, master_seed=64)
        result = estimate_m95(config, 9, 10, 300, workers=1)
        assert len(result.probes) > 1
        assert rows == [300] * 9

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
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)

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
