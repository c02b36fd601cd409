"""Channels, signals, and designs: contracts, links, and Monte Carlo checks."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import binsense
from binsense.model import (
    CHANNELS,
    Linear,
    Logistic,
    MeasurementVector,
    OneBit,
    SensingMatrix,
    SparseSignal,
    gen_sensing_matrix,
    measure,
    model_tag,
    random_signal,
    sample_projections,
    sign_pm1,
)
from binsense.numerics import RngStream


class TestModelSpecs:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            Linear(-0.5)
        with pytest.raises(ValueError):
            OneBit(-1e-9)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            Logistic(0.0)
        with pytest.raises(ValueError):
            Logistic(-2.0)

    def test_beta_infinity_is_noiseless_mode(self):
        model = Logistic(math.inf)
        assert math.isinf(model.beta)

    def test_tags_and_noise(self):
        assert model_tag(Linear(1.0)) == "linear"
        assert model_tag(OneBit(0.0)) == "onebit"
        assert model_tag(Logistic(2.0)) == "logistic"
        assert OneBit(4.0).noise == 4.0
        assert Logistic(0.5).noise == 0.5
        # the registry order is the order the CLI lists the channels in
        assert [c.tag for c in CHANNELS] == ["linear", "onebit", "logistic"]
        assert [c.noise_name for c in CHANNELS] == ["sigma2", "sigma2", "beta"]
        assert [c.binary for c in CHANNELS] == [False, True, True]
        assert repr(Linear(1)) == "Linear(sigma2=1.0)"
        assert Linear(1.0) != OneBit(1.0)


class TestSparseSignal:
    def test_dense_weight(self):
        x = SparseSignal(10, (1, 4, 7))
        assert x.k == 3
        dense = x.dense()
        assert dense.sum() == 3.0
        assert np.array_equal(np.flatnonzero(dense), [1, 4, 7])

    def test_empty_support_allowed(self):
        x = SparseSignal(5, ())
        assert x.k == 0
        assert x.dense().sum() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSignal(5, (3, 1))  # not sorted
        with pytest.raises(ValueError):
            SparseSignal(5, (1, 1))  # duplicate
        with pytest.raises(ValueError):
            SparseSignal(5, (5,))  # out of range
        with pytest.raises(ValueError):
            SparseSignal(0, ())

    def test_random_signal_uniform_weight(self):
        x = random_signal(40, 6, RngStream(1))
        assert x.k == 6 and x.n == 40


class TestSensingMatrix:
    def test_shape_contract(self):
        A = gen_sensing_matrix(3, 5, RngStream(0))
        assert (A.m, A.n) == (3, 5)
        assert A.entries.shape == (3, 5)

    def test_deterministic(self):
        s = RngStream(8, 4)
        assert np.array_equal(gen_sensing_matrix(4, 6, s).entries, gen_sensing_matrix(4, 6, s).entries)

    def test_entry_mean_million(self):
        A = gen_sensing_matrix(1000, 1000, RngStream(5))
        assert abs(A.entries.mean()) <= 3e-3

    def test_power_constraint(self):
        # E[(A_i^T x)^2] = k for k-sparse binary x; chi-square variance 2k^2
        k, rows = 10, 100_000
        x = SparseSignal(20, tuple(range(k)))
        A = gen_sensing_matrix(rows, 20, RngStream(6))
        proj = A.entries[:, x.support_array].sum(axis=1)
        power = (proj**2).mean()
        assert abs(power - k) <= 3.0 * math.sqrt(2.0 * k * k / rows)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gen_sensing_matrix(0, 5, RngStream(0))
        with pytest.raises(ValueError):
            SensingMatrix(np.zeros(4))


class TestMeasure:
    def test_linear_noiseless_exact(self):
        x = SparseSignal(6, (0, 3))
        A = gen_sensing_matrix(9, 6, RngStream(2))
        y = measure(A, x, Linear(0.0), RngStream(3))
        expected = A.entries[:, [0, 3]].sum(axis=1)
        assert np.array_equal(y.values, expected)

    def test_onebit_sign_convention(self):
        # row projections (-2, 3, 0) must give (-1, +1, +1): sign(0) = +1
        A = SensingMatrix(np.array([[-2.0], [3.0], [0.0]]))
        x = SparseSignal(1, (0,))
        y = measure(A, x, OneBit(0.0), RngStream(0))
        assert np.array_equal(y.values, [-1.0, 1.0, 1.0])

    def test_logistic_fair_at_zero(self):
        # zero projection makes the output a fair coin
        rows = 100_000
        A = SensingMatrix(np.zeros((rows, 1)))
        x = SparseSignal(1, (0,))
        y = measure(A, x, Logistic(1.0), RngStream(11))
        freq = (y.values == 1.0).mean()
        assert abs(freq - 0.5) <= 3.0 * 0.5 / math.sqrt(rows)

    def test_logistic_noiseless_limit(self):
        x = SparseSignal(4, (1,))
        A = gen_sensing_matrix(50, 4, RngStream(4))
        y = measure(A, x, Logistic(math.inf), RngStream(5))
        assert np.array_equal(y.values, sign_pm1(A.entries[:, 1]))

    def test_quantization_consistency(self):
        # same noise stream => sign of the linear vector IS the one-bit vector
        x = random_signal(30, 4, RngStream(9, 0))
        A = gen_sensing_matrix(80, 30, RngStream(9, 1))
        for sigma2 in (0.0, 0.5, 4.0):
            ylin = measure(A, x, Linear(sigma2), RngStream(9, 2))
            ybit = measure(A, x, OneBit(sigma2), RngStream(9, 2))
            assert np.array_equal(sign_pm1(ylin.values), ybit.values)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 30),
        k_frac=st.floats(0.0, 1.0),
        sigma2=st.floats(0.0, 100.0),
    )
    def test_paired_noise_property(self, seed, m, n, k_frac, sigma2):
        # the README's paired-noise contract over random seeds and shapes
        x = random_signal(n, max(1, round(k_frac * n)), RngStream(seed, 0))
        A = gen_sensing_matrix(m, n, RngStream(seed, 1))
        ylin = measure(A, x, Linear(sigma2), RngStream(seed, 2))
        ybit = measure(A, x, OneBit(sigma2), RngStream(seed, 2))
        assert np.array_equal(sign_pm1(ylin.values), ybit.values)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.integers(1, 40),
        extra=st.integers(0, 40),
        n=st.integers(1, 30),
    )
    def test_matrix_prefix_property(self, seed, m, extra, n):
        # the matrix at m rows is the first m rows of the matrix at any larger m
        small = gen_sensing_matrix(m, n, RngStream(seed, 1))
        large = gen_sensing_matrix(m + extra, n, RngStream(seed, 1))
        assert np.array_equal(small.entries, large.entries[:m])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.integers(1, 40),
        extra=st.integers(0, 40),
        n=st.integers(1, 30),
        k_frac=st.floats(0.0, 1.0),
        sigma2=st.floats(0.0, 100.0),
        beta=st.floats(0.01, 100.0),
    )
    def test_measure_prefix_property(self, seed, m, extra, n, k_frac, sigma2, beta):
        # measuring the m-row prefix gives the first m values of the full measurement
        x = random_signal(n, max(1, round(k_frac * n)), RngStream(seed, 0))
        large = gen_sensing_matrix(m + extra, n, RngStream(seed, 1))
        prefix = SensingMatrix(large.entries[:m])
        for model in (Linear(sigma2), OneBit(sigma2), Logistic(beta)):
            full = measure(large, x, model, RngStream(seed, 2)).values
            assert np.array_equal(measure(prefix, x, model, RngStream(seed, 2)).values, full[:m])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.integers(1, 40),
        n=st.integers(1, 30),
        k_frac=st.floats(0.0, 1.0),
        sigma2=st.floats(0.0, 100.0),
        beta=st.floats(0.01, 100.0),
    )
    @example(seed=3, m=5, n=4, k_frac=0.0, sigma2=1.0, beta=1.0)  # the empty signal
    def test_measure_observes_the_projection(self, seed, m, n, k_frac, sigma2, beta):
        # measure is the channel applied to t = A x, summed in support order
        x = random_signal(n, round(k_frac * n), RngStream(seed, 0))
        A = gen_sensing_matrix(m, n, RngStream(seed, 1))
        t = np.zeros(m)
        for j in x.support:
            t = t + A.entries[:, j]
        for model in (Linear(sigma2), OneBit(sigma2), Logistic(beta), Logistic(math.inf)):
            y = measure(A, x, model, RngStream(seed, 2))
            assert y.model == model
            assert np.array_equal(y.values, model.observe(t, RngStream(seed, 2)).values)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(1, 60), extra=st.integers(0, 60),
           k=st.integers(1, 50))
    def test_projections_are_prefix_stable(self, seed, m, extra, k):
        small = sample_projections(m, k, RngStream(seed, 1))
        assert np.array_equal(small, sample_projections(m + extra, k, RngStream(seed, 1))[:m])

    def test_projections_have_the_law_of_a_x(self):
        # t = <A_i, x> ~ N(0, k): check the variance and the fourth moment 3 k^2
        t = sample_projections(200_000, 7, RngStream(5, 1))
        assert abs(t.mean()) <= 4 * math.sqrt(7 / 200_000)
        assert t.var() == pytest.approx(7.0, rel=0.02)
        assert np.mean(t**4) == pytest.approx(3 * 49.0, rel=0.05)

    def test_projection_adds_support_columns_in_index_order(self):
        # one row and many support columns: numpy's row sum would go pairwise here
        A = SensingMatrix(np.array([[1.0] + [2.0**-53] * 16]))
        y = measure(A, SparseSignal(17, tuple(range(17))), Linear(0.0), RngStream(0))
        assert y.values[0] == 1.0

    def test_dimension_mismatch(self):
        A = gen_sensing_matrix(5, 7, RngStream(0))
        with pytest.raises(ValueError):
            measure(A, SparseSignal(6, (0,)), Linear(0.0), RngStream(0))

    def test_binary_values_validated(self):
        with pytest.raises(ValueError):
            MeasurementVector(OneBit(1.0), np.array([1.0, 0.5]))


class TestInverseLink:
    def test_zeros(self):
        assert OneBit(2.0).inverse_link(0.0) == 0.0
        assert Logistic(3.0).inverse_link(0.0) == 0.0

    def test_linear_identity(self):
        t = np.linspace(-4, 4, 11)
        assert np.array_equal(Linear(1.0).inverse_link(t), t)

    def test_onebit_at_one_sigma(self):
        # 1 - 2*Phi(-1), i.e. the mass within one standard deviation
        assert OneBit(4.0).inverse_link(2.0) == pytest.approx(0.6826894921370859, abs=1e-10)

    def test_noiseless_links_are_signs(self):
        t = np.array([-3.0, 0.0, 2.0])
        assert np.array_equal(OneBit(0.0).inverse_link(t), [-1.0, 1.0, 1.0])
        assert np.array_equal(Logistic(math.inf).inverse_link(t), [-1.0, 1.0, 1.0])

    @pytest.mark.parametrize("model", [OneBit(1.0), Logistic(0.7), OneBit(0.0), Logistic(math.inf)])
    def test_binary_links_bounded(self, model):
        t = np.linspace(-10, 10, 201)
        vals = model.inverse_link(t)
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)

    @pytest.mark.parametrize(
        "model", [Linear(2.0), OneBit(1.0), Logistic(0.7), OneBit(0.0), Logistic(math.inf)]
    )
    def test_odd_and_monotone(self, model):
        # oddness is checked away from t = 0: the noiseless links take the
        # value +1 there by the sign(0) = +1 convention
        t = np.linspace(-10, 10, 201)
        vals = model.inverse_link(t)
        nonzero = t != 0.0
        assert np.allclose(vals[nonzero], -model.inverse_link(-t[nonzero]), atol=1e-12)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_empirical_conditional_mean(self):
        # binned sample mean of y against the link-predicted mean (the
        # defining property of the inverse link, checked empirically)
        rows, n, k = 100_000, 8, 3
        x = SparseSignal(n, (0, 1, 2))
        for model, stream in ((OneBit(1.0), RngStream(21)), (Logistic(1.0), RngStream(22))):
            A = gen_sensing_matrix(rows, n, RngStream(20))
            t = A.entries[:, x.support_array].sum(axis=1)
            y = measure(A, x, model, stream).values
            edges = np.quantile(t, np.linspace(0, 1, 11))
            for lo, hi in zip(edges[:-2], edges[1:-1]):
                mask = (t >= lo) & (t < hi)
                count = mask.sum()
                assert count > 1000
                predicted = model.inverse_link(t[mask]).mean()
                se = y[mask].std(ddof=1) / math.sqrt(count)
                assert abs(y[mask].mean() - predicted) <= 3.0 * se + 1e-12


class TestLinkSlope:
    def test_onebit_value(self):
        assert OneBit(1.0).link_slope(10) == pytest.approx(0.24057124674551033, rel=1e-12)

    def test_logistic_value(self):
        assert Logistic(1.0).link_slope(2) == pytest.approx(0.35355339059327376, rel=1e-12)

    def test_logistic_noiseless_limit(self):
        assert Logistic(math.inf).link_slope(8) == pytest.approx(0.5 * math.sqrt(2.0 / 8.0), rel=1e-12)

    def test_linear_value(self):
        assert Linear(1.0).link_slope(3) == 0.5

    def test_decreasing_in_noise(self):
        assert OneBit(16.0).link_slope(10) < OneBit(0.0).link_slope(10)
        assert Logistic(0.1).link_slope(10) < Logistic(10.0).link_slope(10)


def channel_branch_lines(path) -> tuple:
    """Line numbers in ``path`` of the isinstance calls that name a channel
    class or one of its bases and the hasattr calls that probe a channel's
    attribute, and of the comparisons that read a ``.tag``, with the
    function each comparison sits in."""
    channels = {c.__name__ for channel in CHANNELS for c in channel.__mro__} - {"object"}
    attributes = {
        name
        for channel in CHANNELS
        for name in [*dir(channel), *(f.name for f in dataclasses.fields(channel))]
        if not name.startswith("__")
    }
    tree = ast.parse(Path(path).read_text())
    owner = {
        sub: node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for sub in ast.walk(node)
    }  # innermost last: ast.walk visits outer functions first
    isinstances, compares = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {
                getattr(sub, "id", None) or getattr(sub, "attr", None)
                for arg in node.args[1:]
                for sub in ast.walk(arg)
            }
            if named & channels:
                isinstances.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            if getattr(node.args[1], "value", None) in attributes:
                isinstances.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, ast.Attribute) and op.attr == "tag" for op in operands):
                compares.append((node.lineno, owner.get(node)))
    return isinstances, compares


def test_only_model_branches_on_channel_class():
    # every channel law is a method of the channel, and other modules read a
    # channel's binary and noise facts; the CLI alone compares a tag, to map
    # --model to its class
    package = Path(binsense.__file__).parent
    found = {path.name: channel_branch_lines(path) for path in sorted(package.glob("*.py"))}
    isinstances = {name: lines for name, (lines, _) in found.items() if lines}
    compares = {
        name: [line for line, owner in lines if (name, owner) != ("cli.py", "_model_from_args")]
        for name, (_, lines) in found.items()
    }
    assert isinstances == {}
    assert {name: lines for name, lines in compares.items() if lines} == {}


def random_api_lines(path) -> tuple:
    """Line numbers in ``path`` that name numpy.random, and that call an ``advance``."""
    named, advanced = [], []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if getattr(node.value, "id", None) in ("np", "numpy"):
                named.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            if any((prefix + alias.name).startswith("numpy.random") for alias in node.names):
                named.append(node.lineno)
        elif isinstance(node, ast.Call):
            if (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "advance":
                advanced.append(node.lineno)
    return named, advanced


def test_only_numerics_reads_a_random_stream():
    # numerics reads every stream by setting Philox's counter for each draw;
    # no other module builds a generator, and none moves one by advance
    package = Path(binsense.__file__).parent
    found = {
        path.relative_to(package).as_posix(): random_api_lines(path)
        for path in sorted(package.rglob("*.py"))
    }
    named = {name: lines for name, (lines, _) in found.items() if lines and name != "numerics.py"}
    advanced = {name: lines for name, (_, lines) in found.items() if lines}
    assert (named, advanced) == ({}, {})


def looped_sampler_lines(path) -> list:
    """Line numbers in ``path`` of Gaussian sampler calls made in a loop's body
    or a comprehension."""
    lines = set()
    for loop in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(loop, (ast.For, ast.While)):
            body = loop.body
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            body = [loop]
        else:
            continue
        for sub in (sub for stmt in body for sub in ast.walk(stmt)):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "attr", None) or getattr(sub.func, "id", "")
                if "gaussian" in name:
                    lines.add(sub.lineno)
    return sorted(lines)


def test_harness_draws_no_gaussians_row_by_row():
    # a block of top-k trials draws each skeleton node's rows in one sampler
    # call; a call per row, in a loop, would undo that
    harness_py = Path(binsense.__file__).parent / "harness.py"
    assert looped_sampler_lines(harness_py) == []
