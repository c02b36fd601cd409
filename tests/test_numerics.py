"""Scalar math and randomness: exact values, symmetry, and determinism.

Expected constants were derived independently (50-digit arithmetic for
entropy and link values, adaptive quadrature of the Gaussian density for
the CDF) and frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from binsense.numerics import (
    RngStream,
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
                st.integers(0, 300),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_rekeyed_uniforms_are_a_fresh_generators(self, draws):
        # the one reused generator carries nothing (key, counter, a part-used
        # step) from one draw to the next; draws at a start read the same stream
        for seed, stream_id, count, start in draws:
            stream = RngStream(seed, stream_id)
            fresh = stream.generator().random(start + count)
            assert np.array_equal(_uniforms(stream, count), fresh[:count])
            got = sample_gaussian(stream, count, start=start)
            assert np.array_equal(got, ndtri(_open_interval(fresh[start:])))

    def test_start_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian(RngStream(0), 3, start=-1)

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
