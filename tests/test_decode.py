"""Decoders: hand-checked examples, exhaustive oracles, and exact invariants."""

import itertools
import math

import numpy as np
import pytest

from binsense import decode
from binsense.decode import (
    DECIMAL_MAX_N,
    BudgetExceededError,
    DecodeResult,
    decimal_decode,
    decimal_encode,
    decimal_roundtrip,
    decimal_row,
    mle_decode_linear,
    mle_prefix_decode,
    quantize,
    quantize_then_decode,
    topk_correlation_decode,
)
from binsense.model import (
    Linear,
    Logistic,
    MeasurementVector,
    OneBit,
    SensingMatrix,
    SparseSignal,
    gen_sensing_matrix,
    measure,
    random_signal,
)
from binsense.numerics import RngStream


def _linear(values):
    return MeasurementVector(Linear(0.0), np.asarray(values, dtype=np.float64))


class TestTopkDecoder:
    def test_hand_example(self):
        # two dot products by hand: scores (2, 0, 0) -> support {0}
        A = SensingMatrix(np.array([[1.0, 0.0, 0.5], [1.0, 0.0, -0.5]]))
        result = topk_correlation_decode(A, _linear([1.0, 1.0]), 1)
        assert np.array_equal(result.scores, [2.0, 0.0, 0.0])
        assert np.array_equal(result.support, [0])
        assert result.decoder == "topk"

    def test_k_equals_n(self):
        A = gen_sensing_matrix(4, 6, RngStream(0))
        result = topk_correlation_decode(A, _linear(np.ones(4)), 6)
        assert np.array_equal(result.support, np.arange(6))

    def test_tie_toward_smaller_index(self):
        A = SensingMatrix(np.array([[5.0, 5.0, 1.0]]))
        y = _linear([1.0])
        assert np.array_equal(topk_correlation_decode(A, y, 1).support, [0])
        assert np.array_equal(topk_correlation_decode(A, y, 2).support, [0, 1])

    def test_validation(self):
        A = gen_sensing_matrix(3, 5, RngStream(0))
        with pytest.raises(ValueError):
            topk_correlation_decode(A, _linear(np.ones(4)), 1)
        with pytest.raises(ValueError):
            topk_correlation_decode(A, _linear(np.ones(3)), 6)

    def test_score_decomposition(self):
        # sum_i l_i x_i must equal <y, A x> exactly up to float roundoff
        x = random_signal(30, 5, RngStream(4, 0))
        A = gen_sensing_matrix(50, 30, RngStream(4, 1))
        y = measure(A, x, Linear(1.0), RngStream(4, 2))
        result = topk_correlation_decode(A, y, 5)
        lhs = result.scores[x.support_array].sum()
        rhs = y.values @ (A.entries @ x.dense())
        assert abs(lhs - rhs) <= 1e-9

    def test_scale_invariance_of_selection(self):
        x = random_signal(20, 3, RngStream(5, 0))
        A = gen_sensing_matrix(40, 20, RngStream(5, 1))
        y = measure(A, x, Linear(1.0), RngStream(5, 2))
        base = topk_correlation_decode(A, y, 3)
        for c in (0.5, 3.0, 1e6):
            scaled = MeasurementVector(Linear(1.0), c * y.values)
            assert np.array_equal(topk_correlation_decode(A, scaled, 3).support, base.support)

    def test_permutation_equivariance(self):
        n, k = 16, 4
        x = random_signal(n, k, RngStream(6, 0))
        A = gen_sensing_matrix(30, n, RngStream(6, 1))
        y = measure(A, x, OneBit(1.0), RngStream(6, 2))
        base = topk_correlation_decode(A, y, k).support
        perm = np.array(RngStream(6, 3).generator().permutation(n))
        A_perm = SensingMatrix(A.entries[:, perm])
        permuted = topk_correlation_decode(A_perm, y, k).support
        # column j of A_perm is column perm[j] of A
        assert np.array_equal(np.sort(perm[permuted]), base)

    def test_deterministic(self):
        x = random_signal(25, 4, RngStream(7, 0))
        A = gen_sensing_matrix(60, 25, RngStream(7, 1))
        y = measure(A, x, OneBit(2.0), RngStream(7, 2))
        a = topk_correlation_decode(A, y, 4)
        b = topk_correlation_decode(A, y, 4)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.scores, b.scores)


class TestMleDecoder:
    def test_identity_rows(self):
        A = SensingMatrix(np.eye(3))
        y = _linear([0.0, 1.0, 0.0])  # x = e_1
        result = mle_decode_linear(A, y, 1)
        assert np.array_equal(result.support, [1])
        assert result.decoder == "mle"

    def test_noiseless_unique_minimum(self):
        # independent oracle: enumerate all 6 candidate supports directly
        for seed in range(50):
            x = random_signal(4, 2, RngStream(100 + seed, 0))
            A = gen_sensing_matrix(4, 4, RngStream(100 + seed, 1))
            y = measure(A, x, Linear(0.0), RngStream(100 + seed, 2))
            residuals = {
                combo: float(((y.values - A.entries[:, combo].sum(axis=1)) ** 2).sum())
                for combo in itertools.combinations(range(4), 2)
            }
            oracle = min(residuals, key=residuals.get)
            result = mle_decode_linear(A, y, 2)
            assert tuple(result.support) == oracle == x.support
            assert residuals[oracle] <= 1e-9

    def test_budget_exceeded(self):
        A = gen_sensing_matrix(5, 40, RngStream(1))
        y = _linear(np.zeros(5))
        with pytest.raises(BudgetExceededError):
            mle_decode_linear(A, y, 10)  # C(40, 10) is way past the default budget
        # raising the budget is the caller's choice
        assert mle_decode_linear(A, y, 1, max_candidates=40).decoder == "mle"

    def test_wrong_channel_rejected(self):
        A = gen_sensing_matrix(5, 8, RngStream(2))
        y = MeasurementVector(OneBit(1.0), np.ones(5))
        with pytest.raises(ValueError):
            mle_decode_linear(A, y, 2)

    def test_tie_lexicographic(self):
        # duplicate columns force an exact residual tie
        A = SensingMatrix(np.array([[1.0, 1.0, 0.0]]))
        result = mle_decode_linear(A, _linear([1.0]), 1)
        assert np.array_equal(result.support, [0])

    def test_permutation_equivariance(self):
        x = random_signal(8, 2, RngStream(8, 0))
        A = gen_sensing_matrix(10, 8, RngStream(8, 1))
        y = measure(A, x, Linear(0.5), RngStream(8, 2))
        base = mle_decode_linear(A, y, 2).support
        perm = np.array(RngStream(8, 3).generator().permutation(8))
        permuted = mle_decode_linear(SensingMatrix(A.entries[:, perm]), y, 2).support
        assert np.array_equal(np.sort(perm[permuted]), base)


class TestPrefixDecoding:
    """One pass over a tall matrix decodes every row prefix, bit for bit."""

    def _instance(self, model, m=60, n=12, k=3, seed=31):
        x = random_signal(n, k, RngStream(seed, 0))
        A = gen_sensing_matrix(m, n, RngStream(seed, 1))
        return x, A, measure(A, x, model, RngStream(seed, 2))

    def _prefix(self, A, y, m):
        return SensingMatrix(A.entries[:m]), MeasurementVector(y.model, y.values[:m])

    def test_scores_are_row_by_row_sums(self):
        # the top-k scores of every prefix, block edges of any earlier kernel included
        _, A, y = self._instance(OneBit(1.0), m=200)
        ms = [1, 2, 3, 7, 33, 62, 63, 64, 65, 66, 127, 128, 129, 199, 200]
        acc = np.zeros(A.n)
        for i in range(200):
            acc = acc + y.values[i] * A.entries[i]
            if i + 1 in ms:
                got = topk_correlation_decode(*self._prefix(A, y, i + 1), 3).scores
                assert np.array_equal(got, acc)

    def test_rows_do_not_depend_on_the_other_prefixes(self):
        _, A, y = self._instance(Linear(4.0), m=600)
        full = mle_prefix_decode(A, y, 3, range(1, 601))
        assert len({tuple(row) for row in full}) > 1  # the answer moves with m
        for ms in ([5], [300, 600], [17, 255, 256, 257, 599]):
            assert np.array_equal(mle_prefix_decode(A, y, 3, ms), full[np.array(ms) - 1])

    @pytest.mark.parametrize("candidates", [1, 3, 64])
    def test_scores_do_not_depend_on_the_block_size(self, monkeypatch, candidates):
        # the MLE's scores are its residual sums, added here one row at a time
        # for every support; blocks of 1, 3 or 64 candidates pick the same minima
        _, A, y = self._instance(Linear(4.0), m=200)
        ms = [1, 2, 3, 62, 63, 64, 65, 66, 127, 128, 129, 130, 199, 200]
        supports = np.array(list(itertools.combinations(range(A.n), 3)))
        fit = A.entries[:, supports[:, 0]]
        for p in (1, 2):
            fit = fit + A.entries[:, supports[:, p]]
        residuals = y.values[:, None] - fit
        residuals = residuals * residuals
        expected = np.zeros((len(ms), 3), dtype=np.int64)
        acc = np.zeros(len(supports))
        for i in range(200):
            acc = acc + residuals[i]
            if i + 1 in ms:
                expected[ms.index(i + 1)] = supports[np.argmin(acc)]
        assert len({tuple(row) for row in expected}) > 1
        monkeypatch.setattr(decode, "_MLE_BLOCK", candidates * 200)
        assert np.array_equal(mle_prefix_decode(A, y, 3, ms), expected)
        assert np.array_equal(mle_prefix_decode(A, y, 3, [200])[0], expected[-1])

    @pytest.mark.parametrize("n", [2, 3, 512])
    def test_numpy_reduces_axis_0_in_row_order(self, n):
        # the top-k decoder relies on np.add.reduce(axis=0) and np.add.accumulate
        # adding rows one at a time in order; summed pairwise (or in any other
        # order) the tiny rows below would add up to more than 1
        rows = np.full((65, n), 2.0**-53)
        rows[0] = 1.0
        expected = np.zeros(n)
        for row in rows:
            expected = expected + row
        assert np.all(expected == 1.0)
        assert np.array_equal(np.add.reduce(rows, axis=0), expected)
        assert np.array_equal(np.add.accumulate(rows, axis=0)[-1], expected)

    def test_single_column_scores_add_in_row_order(self):
        # one column: np.add.reduce would sum it pairwise, so the decoder accumulates
        A = SensingMatrix(np.array([[1.0]] + [[2.0**-53]] * 64))
        y = MeasurementVector(OneBit(0.0), np.ones(65))
        assert topk_correlation_decode(A, y, 1).scores.tolist() == [1.0]

    def test_mle_prefixes_match_decoding_each_prefix(self):
        _, A, y = self._instance(Linear(4.0), m=30)
        ms = [2, 3, 10, 30]
        got = mle_prefix_decode(A, y, 3, ms)
        for support, m in zip(got, ms):
            assert np.array_equal(support, mle_decode_linear(*self._prefix(A, y, m), 3).support)

    def test_mle_blocks_do_not_change_the_answer(self, monkeypatch):
        _, A, y = self._instance(Linear(4.0), m=30)
        ms = list(range(1, 31))
        whole = mle_prefix_decode(A, y, 3, ms)
        monkeypatch.setattr(decode, "_MLE_BLOCK", 30)  # one candidate per block
        assert np.array_equal(mle_prefix_decode(A, y, 3, ms), whole)

    def test_support_table_is_lexicographic_read_only_and_kept(self):
        table = decode._supports(7, 3)
        assert table.tolist() == [list(c) for c in itertools.combinations(range(7), 3)]
        assert not table.flags.writeable
        assert decode._supports(7, 3) is table

    def test_mle_tie_across_blocks_is_lexicographic(self, monkeypatch):
        # columns 0 and 1 are equal, so supports {0} and {1} tie exactly
        A = SensingMatrix(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 5.0]]))
        monkeypatch.setattr(decode, "_MLE_BLOCK", 2)
        assert mle_prefix_decode(A, _linear([1.0, 2.0]), 1, [1, 2]).tolist() == [[0], [0]]

    @pytest.mark.parametrize("ms", [[], [0], [3, 3], [5, 2], [61]])
    def test_prefix_validation(self, ms):
        _, A, y = self._instance(Linear(1.0))
        with pytest.raises(ValueError):
            mle_prefix_decode(A, y, 3, ms)


class TestQuantize:
    def test_carries_noise_variance(self):
        y = MeasurementVector(Linear(2.5), np.array([0.3, -0.7, 0.0]))
        q = quantize(y)
        assert isinstance(q.model, OneBit) and q.model.sigma2 == 2.5
        assert np.array_equal(q.values, [1.0, -1.0, 1.0])

    def test_idempotent(self):
        y = MeasurementVector(OneBit(1.0), np.array([1.0, -1.0]))
        q = quantize(y)
        assert q.model == y.model
        assert np.array_equal(q.values, y.values)

    def test_logistic_rejected(self):
        y = MeasurementVector(Logistic(1.0), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            quantize(y)

    def test_pipeline_matches_manual(self):
        A = SensingMatrix(np.array([[1.0, 0.0, 0.5], [1.0, 0.0, -0.5]]))
        y = _linear([1.0, 1.0])  # already +1s: sign is the identity here
        result = quantize_then_decode(A, y, 1)
        assert np.array_equal(result.support, [0])
        assert result.decoder == "quantize_then_topk"

    def test_equals_topk_on_onebit_vector(self):
        x = random_signal(20, 3, RngStream(9, 0))
        A = gen_sensing_matrix(60, 20, RngStream(9, 1))
        ylin = measure(A, x, Linear(1.0), RngStream(9, 2))
        ybit = measure(A, x, OneBit(1.0), RngStream(9, 2))
        a = quantize_then_decode(A, ylin, 3)
        b = topk_correlation_decode(A, ybit, 3)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.scores, b.scores)


class TestDecimalDecoder:
    def test_hand_example(self):
        # support {0, 2} at n = 4: y = (1 + 4) / 16
        x = SparseSignal(4, (0, 2))
        y = decimal_encode(x)
        assert y == 0.3125
        assert np.array_equal(decimal_decode(y, 4), [0, 2])

    def test_empty_support(self):
        x = SparseSignal(4, ())
        assert decimal_encode(x) == 0.0
        assert decimal_decode(0.0, 4).size == 0

    def test_all_supports_n10_k3(self):
        for combo in itertools.combinations(range(10), 3):
            x = SparseSignal(10, combo)
            assert tuple(decimal_roundtrip(x)) == combo

    def test_row_matches_encoding(self):
        x = SparseSignal(12, (0, 5, 11))
        A = decimal_row(12)
        assert A.entries.shape == (1, 12)
        assert np.array_equal(A.entries[0], [2.0**i / 2.0**12 for i in range(12)])
        y = measure(A, x, Linear(0.0), RngStream(0))
        assert y.values[0] == decimal_encode(x)

    def test_boundary_width(self):
        x = SparseSignal(DECIMAL_MAX_N, (0, DECIMAL_MAX_N - 1))
        assert tuple(decimal_roundtrip(x)) == (0, DECIMAL_MAX_N - 1)
        with pytest.raises(ValueError):
            decimal_row(DECIMAL_MAX_N + 1)
        with pytest.raises(ValueError):
            decimal_encode(SparseSignal(DECIMAL_MAX_N + 1, (0,)))

    def test_noise_refused(self):
        # a noisy measurement is no longer an exact dyadic and must be refused
        with pytest.raises(ValueError):
            decimal_decode(0.3, 4)
        x = SparseSignal(8, (1, 2))
        noisy = decimal_encode(x) + 1e-4
        with pytest.raises(ValueError):
            decimal_decode(noisy, 8)


class TestDecodeResult:
    def test_support_set(self):
        assert DecodeResult(np.array([2, 0]), "mle").support_set() == {0, 2}
