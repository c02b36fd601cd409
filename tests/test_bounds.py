"""Bound catalog: frozen oracle values, algebraic identities, base invariance.

Frozen constants come from an independent 50-digit evaluation of the
closed forms (and an independent exhaustive scan for the max-over-l
bounds).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binsense.bounds import (
    BoundQuery,
    NoiselessRegimeError,
    all_or_nothing_threshold,
    bound_report,
    conjectured_alg_threshold,
    curve_to_csv,
    fano_correction,
    glm_fano_lower,
    linear_fano_lower,
    linear_shell_lower,
    logistic_fano_lower,
    mle_bound_curve,
    mle_sample_bound,
    onebit_fano_lower,
    shell_entropy,
    topk_sample_bound,
    topk_sample_bound_closed,
)
from binsense.model import Linear, Logistic, OneBit, link_slope
from binsense.numerics import binary_entropy


def _h2_nats(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


class TestFanoCorrection:
    def test_delta_zero(self):
        assert fano_correction(1024, 16, 0.0) == 1.0

    def test_reference_value(self):
        assert fano_correction(1024, 16, 0.05) == pytest.approx(0.9136833650300421, rel=1e-12)

    def test_clamps_to_zero(self):
        # h2(0.9) + 0.9*k*log2(n) dwarfs k*log2(n/k) here
        assert fano_correction(4, 2, 0.9) == 0.0

    def test_always_in_unit_interval(self):
        for n, k in ((64, 4), (1024, 16), (50_000, 1000)):
            for delta in (0.0, 0.01, 0.2, 0.5, 0.99):
                assert 0.0 <= fano_correction(n, k, delta) <= 1.0

    def test_base_invariance(self):
        # every log swapped to natural base leaves the ratio unchanged
        n, k, delta = 1024, 16, 0.05
        nats = 1.0 - (_h2_nats(delta) + delta * k * math.log(n)) / (k * math.log(n / k))
        assert fano_correction(n, k, delta) == pytest.approx(nats, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            fano_correction(16, 16, 0.0)
        with pytest.raises(ValueError):
            fano_correction(16, 4, 1.0)


class TestScalarThresholds:
    def test_all_or_nothing_value(self):
        assert all_or_nothing_threshold(50_000, 1000, 1.0) == pytest.approx(
            1132.4828077964859, rel=1e-12
        )

    def test_all_or_nothing_simplification(self):
        # sigma2 = k makes the denominator exactly one bit
        assert all_or_nothing_threshold(100, 5, 5.0) == pytest.approx(
            2 * 5 * math.log2(20), rel=1e-12
        )

    def test_all_or_nothing_monotone_in_n(self):
        assert all_or_nothing_threshold(2048, 16, 1.0) > all_or_nothing_threshold(1024, 16, 1.0)

    def test_all_or_nothing_noiseless_refused(self):
        with pytest.raises(NoiselessRegimeError):
            all_or_nothing_threshold(100, 5, 0.0)

    def test_all_or_nothing_base_invariance(self):
        n, k, s2 = 50_000, 1000, 1.0
        nats = 2 * k * math.log(n / k) / math.log(1 + k / s2)
        assert all_or_nothing_threshold(n, k, s2) == pytest.approx(nats, rel=1e-9)

    def test_alg_threshold_value(self):
        assert conjectured_alg_threshold(1024, 10, 4.0) == 240.0

    def test_alg_threshold_noiseless(self):
        assert conjectured_alg_threshold(1024, 10, 0.0) == pytest.approx(20 * 10.0, rel=1e-12)

    def test_alg_threshold_monotone(self):
        base = conjectured_alg_threshold(1024, 10, 4.0)
        assert conjectured_alg_threshold(2048, 10, 4.0) > base
        assert conjectured_alg_threshold(1024, 11, 4.0) > base
        assert conjectured_alg_threshold(1024, 10, 5.0) > base


class TestTopkSampleBound:
    def test_onebit_reference_value(self):
        # L = sqrt(2/pi)/sqrt(11) < 1, so min(L, L^2) = L^2 and the value is
        # (pi/2) * 11 * (log2 10 + log2 990)
        assert topk_sample_bound(1000, 10, OneBit(1.0)) == pytest.approx(
            229.34465319134773, rel=1e-12
        )

    def test_closed_form_matches_shape(self):
        # for one-bit, c/min(L,L^2) = c*(pi/2)*(k+sigma2): same value up to pi/2
        n, k = 1000, 10
        generic = topk_sample_bound(n, k, OneBit(1.0))
        closed = topk_sample_bound_closed(n, k, OneBit(1.0))
        assert generic == pytest.approx(closed * math.pi / 2.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 4) | st.integers(1, 10**9),  # the slopes are largest at small k
        sigma2=st.floats(0.0, 1e300),
        beta=st.floats(0.0, math.inf, exclude_min=True),
    )
    @example(k=1, sigma2=0.0, beta=math.inf)  # every slope at its largest
    def test_link_slope_is_at_most_one(self, k, sigma2, beta):
        # the bound divides by L^2, the smaller of L and L^2 only while L <= 1;
        # a beta whose square leaves the float range reads as its limit, 0 or inf
        for model in (Linear(sigma2), OneBit(sigma2), Logistic(beta)):
            assert 0.0 <= link_slope(model, k) <= 1.0

    def test_logistic_noiseless_closed_form(self):
        n, k = 512, 8
        assert topk_sample_bound_closed(n, k, Logistic(math.inf)) == pytest.approx(
            k * (math.log2(k) + math.log2(n - k)), rel=1e-12
        )

    def test_degenerate_k_rejected(self):
        with pytest.raises(ValueError):
            topk_sample_bound(10, 0, OneBit(1.0))
        with pytest.raises(ValueError):
            topk_sample_bound(10, 10, OneBit(1.0))


class TestFanoLowerBounds:
    def test_glm_binary_cap(self):
        assert glm_fano_lower(1024, 16, 1.0) == pytest.approx(16 * 6.0, rel=1e-12)

    def test_glm_reference(self):
        assert glm_fano_lower(1024, 16, 0.5) == pytest.approx(192.0, rel=1e-12)

    def test_glm_halving_cap_doubles_bound(self):
        assert glm_fano_lower(512, 8, 0.25) == pytest.approx(
            2 * glm_fano_lower(512, 8, 0.5), rel=1e-12
        )

    def test_glm_missing_cap(self):
        with pytest.raises(ValueError):
            glm_fano_lower(512, 8, None)

    def test_onebit_reference(self):
        assert onebit_fano_lower(1024, 16, 0.0) == pytest.approx(48.0, rel=1e-12)

    def test_onebit_sigma_equals_k_doubles(self):
        assert onebit_fano_lower(1024, 16, 16.0) == pytest.approx(96.0, rel=1e-12)

    def test_onebit_delta_zero_removes_correction(self):
        n, k, s2 = 512, 8, 2.0
        assert onebit_fano_lower(n, k, s2, 0.0) == pytest.approx(
            (k + s2) / 2 * math.log2(n / k), rel=1e-12
        )

    def test_logistic_noiseless_limit(self):
        assert logistic_fano_lower(1024, 16, math.inf) == pytest.approx(48.0, rel=1e-12)

    def test_logistic_reference(self):
        assert logistic_fano_lower(1024, 16, 0.5) == pytest.approx(60.0, rel=1e-12)

    def test_logistic_decreasing_beta_increases_bound(self):
        assert logistic_fano_lower(512, 8, 0.5) > logistic_fano_lower(512, 8, 2.0)
        with pytest.raises(ValueError):
            logistic_fano_lower(512, 8, 0.0)

    def test_linear_equals_threshold_at_delta_zero(self):
        n, k, s2 = 50_000, 1000, 1.0
        assert linear_fano_lower(n, k, s2, 0.0) == pytest.approx(
            all_or_nothing_threshold(n, k, s2), rel=1e-12
        )

    def test_linear_reference(self):
        assert linear_fano_lower(50_000, 1000, 1.0, 0.0) == pytest.approx(
            1132.4828077964859, rel=1e-12
        )

    def test_linear_increasing_noise_increases_bound(self):
        assert linear_fano_lower(1024, 16, 4.0) > linear_fano_lower(1024, 16, 1.0)
        with pytest.raises(NoiselessRegimeError):
            linear_fano_lower(1024, 16, 0.0)


class TestShellEntropy:
    def test_zero_at_full_distance_half_dense(self):
        # l = k with k = n/2: both entropy arguments are 1 -> 0
        assert shell_entropy(8, 8, 16) == 0.0

    def test_reference_value(self):
        assert shell_entropy(5, 10, 100) == pytest.approx(0.37858908623529263, rel=1e-12)

    def test_exact_identity_at_closed_point(self):
        # at l = k(1-k/n) both arguments collapse to k/n, giving h2(k/n) exactly
        for n, k in ((50_000, 1000), (10_000, 300), (100, 20)):
            l_closed = k * (1.0 - k / n)
            assert shell_entropy(l_closed, k, n) == pytest.approx(
                binary_entropy(k / n), rel=1e-14
            )

    def test_asymptotic_gap_to_k_log_term(self):
        # n*h2(k/n) exceeds k*log2(n/k) by the factor ~ 1 + 1/ln(n/k);
        # at n=50000, k=1000 the ratio is 1.25305 (nowhere near 1)
        n, k = 50_000, 1000
        ratio = n * shell_entropy(k * (1 - k / n), k, n) / (k * math.log2(n / k))
        assert ratio == pytest.approx(1.253048782, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            shell_entropy(0.0, 10, 100)
        with pytest.raises(ValueError):
            shell_entropy(11, 10, 100)
        with pytest.raises(ValueError):
            shell_entropy(5, 60, 100)  # k > n/2

    def test_vectorized(self):
        ls = np.array([1.0, 5.0, 10.0])
        out = shell_entropy(ls, 10, 100)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.37858908623529263, rel=1e-12)


class TestScanBounds:
    def test_mle_reference(self):
        scan = mle_sample_bound(50_000, 1000, 1.0)
        assert scan.value == pytest.approx(1584.8678508314534, rel=1e-10)
        assert scan.argmax_l == 956
        assert not scan.vacuous

    def test_mle_dominates_closed_point(self):
        for n, k in ((50_000, 1000), (2000, 100), (64, 8)):
            scan = mle_sample_bound(n, k, 1.0)
            l_rounded = int(round(k * (1.0 - k / n)))
            l_rounded = max(1, min(k, l_rounded))
            point = (
                n
                * shell_entropy(float(l_rounded), k, n)
                / (0.5 * math.log2(1.0 + l_rounded / 2.0))
            )
            assert scan.value >= point

    def test_mle_k_one_degenerate(self):
        n, s2 = 100, 0.5
        scan = mle_sample_bound(n, 1, s2)
        expected = n * shell_entropy(1.0, 1, n) / (0.5 * math.log2(1.0 + 1.0 / (2 * s2)))
        assert scan.value == pytest.approx(expected, rel=1e-12)
        assert scan.argmax_l == 1

    def test_mle_base_invariance(self):
        n, k, s2 = 2000, 50, 1.0
        ls = np.arange(1, k + 1, dtype=float)
        h = lambda p: np.where(
            (p > 0) & (p < 1), -(p * np.log(np.clip(p, 1e-300, 1)) + (1 - p) * np.log(np.clip(1 - p, 1e-300, 1))), 0.0
        )
        rate_nats = (k / n) * h(ls / k) + (1 - k / n) * h(ls / (n - k))
        vals_nats = n * rate_nats / (0.5 * np.log(1.0 + ls / (2 * s2)))
        assert mle_sample_bound(n, k, s2).value == pytest.approx(vals_nats.max(), rel=1e-9)
        assert mle_sample_bound(n, k, s2).argmax_l == int(np.argmax(vals_nats)) + 1

    def test_mle_argmax_scale_invariant(self):
        # rescaling the objective by any positive constant moves the value,
        # never the argmax
        n, k, s2 = 5000, 200, 2.0
        scan = mle_sample_bound(n, k, s2)
        ls = np.arange(1, k + 1, dtype=float)
        scaled = 739.3 * n * shell_entropy(ls, k, n) / (0.5 * np.log2(1.0 + ls / (2 * s2)))
        assert int(np.argmax(scaled)) + 1 == scan.argmax_l

    def test_mle_validation(self):
        with pytest.raises(NoiselessRegimeError):
            mle_sample_bound(100, 10, 0.0)
        with pytest.raises(ValueError):
            mle_sample_bound(100, 51, 1.0)

    def test_shell_lower_reference(self):
        scan = linear_shell_lower(50_000, 1000, 1.0, 0.0)
        assert scan.value == pytest.approx(1412.874514983588, rel=1e-10)
        assert scan.argmax_l == 979
        assert not scan.vacuous

    def test_shell_lower_below_mle_upper(self):
        upper = mle_sample_bound(50_000, 1000, 1.0)
        lower = linear_shell_lower(50_000, 1000, 1.0, 0.0)
        assert lower.value <= upper.value

    def test_shell_lower_delta_terms_vanish_at_zero(self):
        n, k, s2 = 4000, 120, 1.5
        scan = linear_shell_lower(n, k, s2, 0.0)
        ls = np.arange(1, k + 1, dtype=float)
        numer = n * shell_entropy(ls, k, n) - 2 * math.log2(n)
        denom = 0.5 * np.log2(1.0 + (ls / s2) * (2.0 - ls / k))
        assert scan.value == pytest.approx((numer / denom).max(), rel=1e-12)

    def test_shell_lower_vacuous_clamp(self):
        scan = linear_shell_lower(4, 1, 1.0, 0.0)
        assert scan.value == 0.0
        assert scan.vacuous


class TestBoundCurve:
    def test_default_grid_shape(self):
        rows = mle_bound_curve()
        assert len(rows) == 25
        assert rows[0].k == 1000 and rows[-1].k == 25_000

    def test_m1_dominates_m2(self):
        for row in mle_bound_curve():
            assert row.m1 >= row.m2

    def test_value_gap_small(self):
        # the two curves track each other within half a percent
        for row in mle_bound_curve():
            assert (row.m1 - row.m2) / row.m1 <= 0.02

    def test_small_grid_values(self):
        rows = mle_bound_curve(50_000, 1.0, [1000])
        assert rows[0].m1 == pytest.approx(1584.8678508314534, rel=1e-10)
        assert rows[0].m2 == pytest.approx(1582.1834467928417, rel=1e-10)
        assert rows[0].argmax_l == 956

    def test_csv_format(self):
        text = curve_to_csv(mle_bound_curve(50_000, 1.0, [1000, 2000]))
        lines = text.splitlines()
        assert lines[0] == "k,m1,m2"
        assert lines[1] == "1000,1584.87,1582.18"
        assert len(lines) == 3 and text.endswith("\n")


class TestBoundReport:
    def test_linear_report_complete(self):
        query = BoundQuery(50_000, 1000, Linear(1.0), delta=0.0, mutual_info_cap=None)
        report = bound_report(query)
        assert report.m_star == pytest.approx(1132.4828077964859, rel=1e-12)
        assert report.m_alg == pytest.approx(2001 * math.log2(50_000), rel=1e-12)
        assert report.mle_upper.value == pytest.approx(1584.8678508314534, rel=1e-10)
        assert report.spl_conditional_lower.value <= report.mle_upper.value
        assert report.onebit_lower is None and report.logistic_lower is None

    def test_onebit_report(self):
        report = bound_report(BoundQuery(1024, 16, OneBit(0.0)))
        assert report.onebit_lower == pytest.approx(48.0, rel=1e-12)
        assert report.m_star is None and report.mle_upper is None

    def test_logistic_report(self):
        report = bound_report(BoundQuery(1024, 16, Logistic(0.5)))
        assert report.logistic_lower == pytest.approx(60.0, rel=1e-12)
        assert report.spl_fano_lower is None

    def test_glm_entry_only_when_capped(self):
        base = bound_report(BoundQuery(1024, 16, OneBit(1.0)))
        capped = bound_report(BoundQuery(1024, 16, OneBit(1.0), mutual_info_cap=1.0))
        assert base.glm_lower is None
        assert capped.glm_lower == pytest.approx(96.0, rel=1e-12)

    def test_noiseless_linear_notes(self):
        report = bound_report(BoundQuery(1024, 16, Linear(0.0)))
        assert report.m_star is None
        assert any("sigma2=0" in note for note in report.notes)
        assert report.m_alg == pytest.approx(32 * 10.0, rel=1e-12)

    def test_json_stable(self):
        report = bound_report(BoundQuery(1024, 16, Linear(1.0), delta=0.05))
        payload = json.loads(report.to_json())
        assert payload["query"]["model"] == "linear"
        assert payload["mle_upper"]["argmax_l"] == report.mle_upper.argmax_l
        assert set(payload) == {
            "query",
            "m_star",
            "m_alg",
            "alg_upper",
            "alg_upper_closed_form",
            "glm_lower",
            "onebit_lower",
            "logistic_lower",
            "spl_fano_lower",
            "mle_upper",
            "spl_conditional_lower",
            "notes",
        }

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(100, 51, Linear(1.0))
        with pytest.raises(ValueError):
            BoundQuery(100, 10, Linear(1.0), delta=1.0)
        with pytest.raises(ValueError):
            BoundQuery(100, 10, Linear(1.0), c=0.0)
        with pytest.raises(ValueError):
            BoundQuery(100, 10, Linear(1.0), mutual_info_cap=-1.0)

    def test_nonpositive_bounds_never_emitted(self):
        report = bound_report(BoundQuery(1024, 16, OneBit(1.0), delta=0.3, mutual_info_cap=1.0))
        for value in (report.onebit_lower, report.glm_lower, report.alg_upper):
            assert value is None or value >= 0.0
