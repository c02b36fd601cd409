"""Scalar math and randomness: exact values, symmetry, and determinism.

Expected constants were derived independently (50-digit arithmetic for
entropy and link values, adaptive quadrature of the Gaussian density for
the CDF) and frozen here.
"""

import ast
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import binsense
from binsense import model, numerics
from binsense.bounds import BoundQuery, bound_report, fano_correction, mle_bound_curve
from binsense.decode import (
    decimal_decode,
    decimal_row,
    mle_decode_linear,
    mle_prefix_decode,
    quantize_then_decode,
    topk_correlation_decode,
)
from binsense.harness import (
    TrialConfig,
    count_successes,
    estimate_m95,
    moment_check_logistic,
    moment_check_onebit,
    run_trial,
    sweep,
    wilson_interval,
)
from binsense.model import Linear, Logistic, OneBit, SparseSignal, gen_sensing_matrix, measure
from binsense.numerics import (
    RngStream,
    _gaussian_rows,
    _open_interval,
    _uniforms,
    binary_entropy,
    derive_trial_stream,
    sample_gaussian,
    sample_indices,
    std_normal_cdf,
)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        # direct evaluation of -p log2 p - (1-p) log2 (1-p) at p = 1/4
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_symmetry_grid(self):
        p = np.linspace(0.0, 1.0, 1001)
        diff = np.abs(binary_entropy(p) - binary_entropy(1.0 - p))
        assert diff.max() <= 1e-12

    def test_array_shape(self):
        out = binary_entropy(np.array([[0.1, 0.9], [0.5, 0.0]]))
        assert out.shape == (2, 2)
        assert out[1, 0] == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestStdNormalCdf:
    def test_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_symmetry_identity(self, x):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)

    def test_quantile_196(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-10)

    @pytest.mark.parametrize("x", [-5.0, -2.3, -0.7, 0.0, 0.4, 1.96, 3.1, 5.5])
    def test_matches_quadrature(self, x):
        # oracle: integrate the Gaussian density in 30-digit arithmetic
        # over the nearer tail
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        density = lambda t: mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi)
        if x <= 0.0:
            target = float(mp.quad(density, [mp.mpf("-inf"), x]))
        else:
            target = float(1 - mp.quad(density, [x, mp.mpf("inf")]))
        assert std_normal_cdf(x) == pytest.approx(target, abs=1e-10)

    def test_monotone_grid(self):
        x = np.linspace(-8.0, 8.0, 10_000)
        vals = std_normal_cdf(x)
        assert np.all(np.diff(vals) >= 0.0)

    def test_saturation(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0


class TestRngStream:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_replays_from_start(self):
        s = RngStream(42, 7)
        assert np.array_equal(sample_gaussian(s, 100), sample_gaussian(s, 100))

    def test_distinct_ids_differ(self):
        a = sample_gaussian(RngStream(42, 0), 100)
        b = sample_gaussian(RngStream(42, 1), 100)
        assert not np.array_equal(a, b)

    def test_substream_tags(self):
        base = derive_trial_stream(9, 3)
        assert base.substream(0) == base
        assert base.substream(2) != base.substream(1)
        with pytest.raises(ValueError):
            base.substream(8)

    def test_trial_slots_never_collide(self):
        # highest tag of one trial vs lowest of the next
        assert derive_trial_stream(5, 0).substream(7) != derive_trial_stream(5, 1).substream(0)
        assert derive_trial_stream(5, 1) == RngStream(5, 8)

    def test_derivation_is_pure(self):
        assert derive_trial_stream(11, 4) == derive_trial_stream(11, 4)
        with pytest.raises(ValueError):
            derive_trial_stream(11, -1)


class TestSampleGaussian:
    def test_moments_million(self):
        g = sample_gaussian(RngStream(2024), 1_000_000)
        assert abs(g.mean()) <= 3e-3  # 3 standard errors of the mean
        assert abs(g.var() - 1.0) <= 5e-3

    def test_kolmogorov_smirnov(self):
        n = 100_000
        g = np.sort(sample_gaussian(RngStream(7, 1), n))
        cdf = std_normal_cdf(g)
        grid = np.arange(1, n + 1) / n
        d = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max())
        assert d <= 1.63 / math.sqrt(n)  # 1% critical value

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian(RngStream(0), 0)

    def test_exact_length_any_parity(self):
        assert sample_gaussian(RngStream(0), 7).shape == (7,)
        assert sample_gaussian(RngStream(0), 8).shape == (8,)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        a=st.integers(1, 5000),
        extra=st.integers(0, 5000),
    )
    def test_prefix_nesting_property(self, seed, stream_id, a, extra):
        # sample i depends on uniform i alone: a short draw is a prefix of a long one
        stream = RngStream(seed, stream_id)
        assert np.array_equal(sample_gaussian(stream, a), sample_gaussian(stream, a + extra)[:a])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        slices=st.lists(
            st.tuples(st.integers(0, 700), st.integers(1, 300)), min_size=1, max_size=8
        ),
        reuse=st.booleans(),
    )
    def test_continued_draws_are_slices_of_one_draw(self, seed, slices, reuse):
        # draws at any start, in any order (backwards, repeated, mid-step),
        # are the slices of one draw from the start of the stream
        stream = RngStream(seed, 3)
        whole = sample_gaussian(stream, 1005)  # the last continued slice ends at 1005
        if reuse:  # consecutive slices continue where the last draw stopped
            slices = slices + [(start + count, 5) for start, count in slices]
        for start, count in slices:
            got = sample_gaussian(stream, count, start=start)
            assert np.array_equal(got, whole[start : start + count])

    @settings(max_examples=60, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1),
                st.integers(0, 2**64 - 1),
                st.integers(1, 300),
                # bridge node c*n passes 2**32 at n = 50,000
                st.integers(0, 300) | st.integers(2**32, 2**40),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_rekeyed_uniforms_are_a_fresh_generators(self, draws):
        # the one reused generator carries nothing (key, counter, a part-used
        # step) from one draw to the next, and reads a stream at any start
        for seed, stream_id, count, start in draws:
            stream = RngStream(seed, stream_id)
            fresh = stream.generator()
            assert np.array_equal(_uniforms(stream, count), fresh.random(count))
            fresh = stream.generator()
            if start < 2**32:
                expected = fresh.random(start + count)[start:]
            else:  # too far to read through: numpy's own jump by whole steps
                fresh.bit_generator.advance(start // 4)
                expected = fresh.random(start % 4 + count)[start % 4 :]
            assert np.array_equal(_uniforms(stream, count, start), expected)
            got = sample_gaussian(stream, count, start=start)
            assert np.array_equal(got, ndtri(_open_interval(expected)))

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=8,
        ),
        count=st.integers(1, 600),
        start=st.integers(0, 40) | st.integers(0, 2**40),
    )
    def test_a_block_of_rows_is_its_rows_drawn_alone(self, keys, count, start):
        # every row keeps its own key and counter though the rows share one
        # transform pass, so row r is stream r's own draw, bit for bit
        streams = [RngStream(seed, stream_id) for seed, stream_id in keys]
        out = np.full((len(streams), count), np.nan)
        assert _gaussian_rows(streams, count, start, out) is out
        for row, stream in zip(out, streams):
            assert np.array_equal(row, sample_gaussian(stream, count, start=start))

    def test_a_block_draws_into_its_buffer(self):
        # the rows' uniforms, their move into (0, 1) and their quantiles all
        # live in the caller's buffer: no second buffer of its size is made
        streams = [RngStream(11, i) for i in range(8)]
        out = np.empty((8, 4096))
        _gaussian_rows(streams, 4096, 6, out)  # warm up
        tracemalloc.start()
        try:
            _gaussian_rows(streams, 4096, 6, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes // 8

    def test_a_stream_is_a_value(self):
        # reading a stream at any start leaves nothing on the stream object
        stream = RngStream(5, 9)
        for start in (0, 7, 2**33 + 1, 3):
            sample_gaussian(stream, 4, start=start)
        assert vars(stream) == {"master_seed": 5, "stream_id": 9}

    def test_start_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian(RngStream(0), 3, start=-1)
        with pytest.raises(ValueError):
            sample_gaussian(RngStream(0), 3, start=2**66)

    def test_uniform_map_endpoints(self):
        # the smallest and largest 53-bit uniforms land strictly inside (0, 1),
        # symmetric about 1/2, so their samples are finite and of opposite sign
        u = _open_interval(np.array([0.0, 1.0 - 2.0**-53]))
        assert u[0] == 2.0**-53
        assert u[1] == 1.0 - 2.0**-53
        g = ndtri(u)
        assert np.all(np.isfinite(g))
        assert g[0] < 0.0 < g[1]
        assert g[0] == -g[1]


class TestSampleIndices:
    def test_sorted_and_in_range(self):
        idx = sample_indices(RngStream(1, 2), 100, 10)
        assert idx.shape == (10,)
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 100

    def test_edges(self):
        assert sample_indices(RngStream(0), 5, 0).size == 0
        assert np.array_equal(sample_indices(RngStream(0), 5, 5), np.arange(5))
        with pytest.raises(ValueError):
            sample_indices(RngStream(0), 5, 6)

    def test_uniform_over_subsets(self):
        # all C(4, 2) = 6 subsets should appear roughly equally often
        counts = {}
        for i in range(6000):
            key = tuple(sample_indices(RngStream(13, i), 4, 2))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for value in counts.values():
            assert 850 <= value <= 1150  # ~4 sigma around 1000

    def test_deterministic(self):
        a = sample_indices(RngStream(3, 5), 50, 7)
        b = sample_indices(RngStream(3, 5), 50, 7)
        assert np.array_equal(a, b)


_A = gen_sensing_matrix(12, 6, RngStream(1))
_Y = measure(_A, SparseSignal(6, (1, 4)), Linear(0.5), RngStream(2))
_TOPK = TrialConfig(OneBit(0.0), 64, 4, 20, master_seed=64)

# every integer argument of the public API: (a call with the value in that
# slot, the lowest value it admits, a value it admits)
INTEGER_ARGUMENTS = {
    "RngStream.master_seed": (lambda v: RngStream(v, 1), 0, 7),
    "RngStream.stream_id": (lambda v: RngStream(7, v), 0, 1),
    "RngStream.substream": (lambda v: RngStream(7).substream(v), 0, 2),
    "derive_trial_stream": (lambda v: derive_trial_stream(7, v), 0, 3),
    "sample_gaussian.count": (lambda v: sample_gaussian(RngStream(7), v), 1, 5),
    "sample_gaussian.start": (lambda v: sample_gaussian(RngStream(7), 5, start=v), 0, 6),
    "sample_indices.n": (lambda v: sample_indices(RngStream(7), v, 3), 0, 9),
    "sample_indices.k": (lambda v: sample_indices(RngStream(7), 9, v), 0, 3),
    "link_slope": (lambda v: Logistic(2.0).link_slope(v), 1, 4),
    "SparseSignal.n": (lambda v: SparseSignal(v, (1, 4)), 1, 6),
    "SparseSignal.support": (lambda v: SparseSignal(6, (v, 4)), 0, 1),
    "gen_sensing_matrix.m": (lambda v: gen_sensing_matrix(v, 6, RngStream(1)), 1, 12),
    "gen_sensing_matrix.n": (lambda v: gen_sensing_matrix(12, v, RngStream(1)), 1, 6),
    "topk_correlation_decode": (lambda v: topk_correlation_decode(_A, _Y, v), 1, 2),
    "quantize_then_decode": (lambda v: quantize_then_decode(_A, _Y, v), 1, 2),
    "mle_decode_linear": (lambda v: mle_decode_linear(_A, _Y, v), 1, 2),
    "mle_decode_linear.max_candidates": (lambda v: mle_decode_linear(_A, _Y, 2, v), 1, 15),
    "mle_prefix_decode.k": (lambda v: mle_prefix_decode(_A, _Y, v, [6, 12]), 1, 2),
    "mle_prefix_decode.ms": (lambda v: mle_prefix_decode(_A, _Y, 2, [v, 12]), 1, 6),
    "decimal_row": (decimal_row, 1, 9),
    "decimal_decode": (lambda v: decimal_decode(0.5, v), 1, 9),
    "TrialConfig.n": (lambda v: TrialConfig(OneBit(1.0), v, 2, 20), 1, 32),
    "TrialConfig.k": (lambda v: TrialConfig(OneBit(1.0), 32, v, 20), 1, 2),
    "TrialConfig.m": (lambda v: TrialConfig(OneBit(1.0), 32, 2, v), 1, 20),
    "TrialConfig.master_seed": (lambda v: TrialConfig(OneBit(1.0), 32, 2, 20, master_seed=v), 0, 3),
    "TrialConfig.mle_budget": (lambda v: TrialConfig(Linear(1.0), 8, 2, 12, "mle", 0, v), 1, 28),
    "run_trial.trial_index": (lambda v: run_trial(_TOPK, v), 0, 5),
    "run_trial.ms": (lambda v: run_trial(_TOPK, 5, [v, 20]), 1, 10),
    "count_successes.trials": (lambda v: count_successes(_TOPK, v), 1, 6),
    "count_successes.workers": (lambda v: count_successes(_TOPK, 6, v), 1, 2),
    "sweep.m_grid": (lambda v: sweep(_TOPK, [v, 20], 6), 1, 10),
    "sweep.trials": (lambda v: sweep(_TOPK, [10, 20], v), 1, 6),
    "estimate_m95.trials": (lambda v: estimate_m95(_TOPK, v, 10, 300), 1, 9),
    "estimate_m95.m_lo": (lambda v: estimate_m95(_TOPK, 9, v, 300), 1, 10),
    "estimate_m95.m_hi": (lambda v: estimate_m95(_TOPK, 9, 10, v), 11, 300),
    "wilson_interval.trials": (lambda v: wilson_interval(3, v), 1, 10),
    "wilson_interval.successes": (lambda v: wilson_interval(v, 10), 0, 3),
    "moment_check_onebit.k": (lambda v: moment_check_onebit(v, 1.0, 50), 1, 3),
    "moment_check_onebit.samples": (lambda v: moment_check_onebit(3, 1.0, v), 2, 50),
    "moment_check_logistic.k": (lambda v: moment_check_logistic(v, 1.0, 50), 1, 3),
    "moment_check_logistic.samples": (lambda v: moment_check_logistic(3, 1.0, v), 2, 50),
    "fano_correction.n": (lambda v: fano_correction(v, 1, 0.1), 2, 100),
    "fano_correction.k": (lambda v: fano_correction(100, v, 0.1), 1, 3),
    "BoundQuery.n": (lambda v: bound_report(BoundQuery(v, 1, Linear(1.0))).to_json(), 2, 100),
    "BoundQuery.k": (lambda v: bound_report(BoundQuery(100, v, Linear(1.0))).to_json(), 1, 3),
    "mle_bound_curve": (lambda v: mle_bound_curve(100, 1.0, [v, 5]), 1, 3),
}


@pytest.mark.parametrize("call, low, valid", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_one_rule_for_integer_arguments(monkeypatch, call, low, valid):
    # a fraction, a bool and a value below the range are refused before any
    # draw, where a fraction was truncated and a bool taken for 0 or 1; a
    # numpy integer is taken as its Python int, down to the pickled bytes
    draws = []

    def counted(stream, count, start=0, out=None):
        draws.append(stream)
        return uniforms(stream, count, start, out)

    uniforms = numerics._uniforms
    monkeypatch.setattr(numerics, "_uniforms", counted)
    monkeypatch.setattr(model, "_uniforms", counted)
    for bad in (2.5, True, low - 1):
        with pytest.raises(ValueError, match=f"got {bad!r}$"):
            call(bad)
    assert draws == []
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))


def int_isinstance_lines(path) -> list:
    """Line numbers in ``path`` of the isinstance calls that name ``int``."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(Path(path).read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and any(getattr(sub, "id", None) == "int" for arg in node.args[1:] for sub in ast.walk(arg))
    })


def test_only_the_integer_rule_asks_for_an_int():
    # every integer argument goes through numerics._check_int, which tests
    # numbers.Integral; no module tests isinstance(..., int) on its own
    package = Path(binsense.__file__).parent
    found = {path.name: int_isinstance_lines(path) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
