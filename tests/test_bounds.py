"""Constants, tail curves, certificates, and the setting catalog."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conclab.bounds import (
    KAPPA,
    LevelCoefficients,
    MomentGrowthSpec,
    Setting,
    chaos_sup_bound,
    const_C,
    const_c,
    exp_moment_certificate,
    growth_to_moment_spec,
    hw_bound,
    moment_growth_bound,
    paper_constant_table,
    setting_catalog,
    tail_bound,
    tail_from_moments,
)

LOG2 = math.log(2.0)


class TestConstants:
    def test_kappa_value(self):
        assert KAPPA == pytest.approx(math.sqrt(math.e) / (2 * (math.sqrt(math.e) - 1)))
        assert 1.27 < KAPPA < 1.28

    def test_c_gaussian_case(self):
        assert const_c(2, 2, 2, 1) == pytest.approx(
            (math.sqrt(2.0) - 1.0) ** 2 / (8.0 * math.e), rel=1e-15
        )

    def test_C_gaussian_case(self):
        assert const_C(2, 2, 1) == pytest.approx(LOG2 / (2.0 * math.e ** 2), rel=1e-15)

    def test_C_bounded_differences_case(self):
        val = const_C(2, 2, math.sqrt(8.0 * KAPPA))
        assert val == pytest.approx(LOG2 / (16.0 * KAPPA * math.e ** 2), rel=1e-14)
        assert 1.0 / 217.0 < val < 1.0 / 216.0

    def test_small_L_branch(self):
        # for L < 1 the constant uses max(L^{1/d}, L) = L^{1/d}
        L = 0.5
        d = 3
        expected = (2.0 ** 0.5 - 1.0) ** 2 / (
            2.0 * math.e * (L ** (1.0 / d)) ** 2 * 2.0 * 2.0
        )
        assert const_c(2, d, 2, L) == pytest.approx(expected, rel=1e-14)


class TestSetting:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Setting(p=2.0, r0=1.0, L=1.0, sigma=1.0, d=1)
        with pytest.raises(ValueError):
            Setting(p=2.0, r0=2.0, L=1.0, sigma=1.0, d=0)
        with pytest.raises(ValueError):
            Setting(p=2.0, r0=2.0, L=1.0, sigma=1.0, d=1, q=3.0)
        with pytest.raises(ValueError):
            Setting(p=2.0, r0=2.0, L=1.0, sigma=1.0, d=1, gamma=0.5)

    @pytest.mark.parametrize("field", ["p", "r0", "L", "sigma", "q", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_refused(self, field, value):
        params = dict(p=2.0, r0=2.0, L=1.0, sigma=1.0, d=1, q=2.0, gamma=1.0)
        params[field] = value
        with pytest.raises(ValueError):
            Setting(**params)

    def test_holder_conjugate_accepted(self):
        s = Setting(p=3.0, r0=1.5, L=1.0, sigma=1.0, d=1, q=1.5)
        assert s.q == 1.5

    def test_json_roundtrip(self):
        s = setting_catalog("stiefel", d=2, n=10, k=3)
        back = Setting.from_json(s.to_json())
        assert back == s


class TestTailBound:
    def make(self, d=1):
        return setting_catalog("lsi", d=d, sigma2=1.0)

    def test_zero_threshold(self):
        s = self.make()
        assert tail_bound(s, LevelCoefficients([1.0]), 0.0) == 1.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_threshold_refused(self, t):
        with pytest.raises(ValueError):
            tail_bound(self.make(), LevelCoefficients([1.0]), t)

    @pytest.mark.parametrize("K", [[math.nan], [math.inf], [1.0, math.nan], [-math.inf]])
    def test_non_finite_levels_refused(self, K):
        with pytest.raises(ValueError):
            LevelCoefficients(K)

    def test_gaussian_linear_shape(self):
        s = self.make()
        C = LOG2 / (2.0 * math.e ** 2)
        K = LevelCoefficients([1.0])
        for t in (0.5, 1.0, 3.0):
            assert tail_bound(s, K, t) == pytest.approx(
                min(1.0, 2.0 * math.exp(-C * t ** 2))
            )

    def test_monotone_decreasing(self):
        s = self.make(d=2)
        K = LevelCoefficients([1.0, 0.5])
        ts = np.linspace(0.0, 500.0, 100)
        vals = [tail_bound(s, K, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_zero_levels_skipped(self):
        s = self.make(d=2)
        full = tail_bound(s, LevelCoefficients([0.0, 1.0]), 3.0)
        d1 = tail_bound(setting_catalog("lsi", d=2, sigma2=1.0), LevelCoefficients([1e-12, 1.0]), 3.0)
        assert full == pytest.approx(d1, rel=1e-6)

    def test_all_zero_levels_error(self):
        s = self.make(d=2)
        with pytest.raises(ValueError):
            tail_bound(s, LevelCoefficients([0.0, 0.0]), 1.0)

    def test_scale_covariance(self):
        s = self.make(d=3)
        rng = np.random.default_rng(0)
        K = rng.uniform(0.1, 2.0, 3)
        for a in (0.5, 2.0, 7.0):
            for t in (0.3, 1.0, 4.0):
                assert tail_bound(s, LevelCoefficients(a * K), a * t) == pytest.approx(
                    tail_bound(s, LevelCoefficients(K), t), rel=1e-12
                )

    def test_gamma_weakens_bound(self):
        base = Setting(p=2.0, r0=2.0, L=1.0, sigma=1.0, d=1)
        relaxed = Setting(p=2.0, r0=2.0, L=1.0, sigma=1.0, d=1, gamma=2.0)
        K = LevelCoefficients([1.0])
        assert tail_bound(relaxed, K, 10.0) > tail_bound(base, K, 10.0)


class TestExpMomentCertificate:
    def test_normalized_gaussian_quadratic(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        exponent, coef, normalized = exp_moment_certificate(
            s, LevelCoefficients([1.0, 1.0])
        )
        assert exponent == pytest.approx(1.0)
        assert coef == pytest.approx((math.sqrt(2.0) - 1.0) ** 2 / (8.0 * math.e), rel=1e-14)
        assert normalized

    def test_oversized_level_flagged(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        _, _, normalized = exp_moment_certificate(s, LevelCoefficients([2.0, 1.0]))
        assert not normalized

    def test_constant_function_top_level(self):
        s = setting_catalog("lsi", d=3, sigma2=1.0)
        _, _, normalized = exp_moment_certificate(s, LevelCoefficients([0.0, 0.0, 0.5]))
        assert normalized


class TestMomentGrowth:
    def test_single_level(self):
        s = setting_catalog("lsi", d=1, sigma2=4.0)
        assert moment_growth_bound(s, LevelCoefficients([3.0]), 4.0) == pytest.approx(
            2.0 * 2.0 * 3.0
        )

    def test_two_level_value(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        assert moment_growth_bound(s, LevelCoefficients([1.0, 1.0]), 2.0) == pytest.approx(
            math.sqrt(2.0) + 2.0
        )

    def test_monotone_in_r_and_K(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        K = LevelCoefficients([1.0, 1.0])
        assert moment_growth_bound(s, K, 3.0) < moment_growth_bound(s, K, 4.0)
        K2 = LevelCoefficients([1.5, 1.0])
        assert moment_growth_bound(s, K, 3.0) < moment_growth_bound(s, K2, 3.0)

    def test_r_below_r0_rejected(self):
        s = setting_catalog("lsi", d=1, sigma2=1.0)
        with pytest.raises(ValueError):
            moment_growth_bound(s, LevelCoefficients([1.0]), 1.5)


class TestTailFromMoments:
    def test_single_term_matches_direct_tail(self):
        s = setting_catalog("lsi", d=1, sigma2=1.0)
        K = LevelCoefficients([1.0])
        m = MomentGrowthSpec([(1.0, 2.0)], r0=2.0)
        for t in (0.5, 2.0, 5.0):
            assert tail_from_moments(m, t) == pytest.approx(tail_bound(s, K, t))

    def test_zero_threshold(self):
        m = MomentGrowthSpec([(1.0, 2.0)], r0=2.0)
        assert tail_from_moments(m, 0.0) == 1.0

    def test_closed_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            terms = [(rng.uniform(0.1, 3.0), rng.uniform(0.5, 3.0)) for _ in range(3)]
            r0 = rng.uniform(1.0, 3.0)
            m = MomentGrowthSpec(terms, r0=r0)
            t = rng.uniform(0.1, 5.0)
            pmax = max(p for _, p in terms)
            pref = LOG2 / (r0 * (3.0 * math.e) ** pmax)
            expected = min(1.0, 2.0 * math.exp(-pref * min(t ** p / c for c, p in terms)))
            assert tail_from_moments(m, t) == pytest.approx(expected, rel=1e-14)

    def test_induced_spec_reproduces_tail_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            s = Setting(
                p=float(rng.uniform(1.0, 3.0)),
                r0=float(rng.uniform(1.5, 3.0)),
                L=float(rng.uniform(0.5, 2.0)),
                sigma=float(rng.uniform(0.5, 2.0)),
                d=d,
            )
            K = LevelCoefficients(rng.uniform(0.1, 2.0, d))
            spec = growth_to_moment_spec(s, K)
            for t in rng.uniform(0.0, 8.0, 5):
                assert tail_from_moments(spec, float(t)) == pytest.approx(
                    tail_bound(s, K, float(t)), rel=1e-12
                )


class TestHwBound:
    def test_gaussian_constant(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        C = LOG2 / (8.0 * math.e ** 2)
        hs, op = 2.0, 1.0
        t = 3.0
        expected = min(
            1.0, 2.0 * math.exp(-C * min((t / hs) ** 2, (t / op) ** 1.0))
        )
        assert hw_bound(s, hs, op, t) == pytest.approx(expected, rel=1e-14)

    def test_zero_threshold(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        assert hw_bound(s, 1.0, 1.0, 0.0) == 1.0

    def test_poincare_exponents(self):
        s = setting_catalog("poincare", d=2, sigma2=1.0)
        C = LOG2 / (2.0 * (2.0 * s.L * math.e) ** 1.0)
        t, hs, op = 4.0, 1.0, 1.0
        expected = min(
            1.0,
            2.0 * math.exp(-C * min(t / (s.L * hs), (t / op) ** 0.5)),
        )
        assert hw_bound(s, hs, op, t) == pytest.approx(expected, rel=1e-14)

    def test_exponent_crossover(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        hs, op = 3.0, 0.7
        tstar = s.L ** 2 * s.sigma ** 2 * hs ** 2 / op
        f1 = lambda t: (t / (s.L * s.sigma ** 2 * hs)) ** s.p
        f2 = lambda t: (t / (s.sigma ** 2 * op)) ** (s.p / 2.0)
        assert f1(tstar) == pytest.approx(f2(tstar), rel=1e-9)

    def test_both_zero_rejected(self):
        s = setting_catalog("lsi", d=2, sigma2=1.0)
        with pytest.raises(ValueError):
            hw_bound(s, 0.0, 0.0, 1.0)


class TestChaosSupBound:
    def test_zero_threshold(self):
        assert chaos_sup_bound([1.0, 1.0], -1.0, 1.0, 1.0, 0.0) == 1.0

    def test_single_level_subgaussian(self):
        sigma2, w = 0.5, 2.0
        t = 3.0
        expected = min(
            1.0,
            2.0 * math.exp(-(t / (math.e * w)) ** 2 / (2.0 * sigma2 * 4.0)),
        )
        assert chaos_sup_bound([w], -1.0, 1.0, sigma2, t) == pytest.approx(expected)

    def test_doubling_range_quarters_exponent(self):
        t = 10.0
        b1 = chaos_sup_bound([1.0], 0.0, 1.0, 1.0, t)
        b2 = chaos_sup_bound([1.0], 0.0, 2.0, 1.0, t)
        e1 = -math.log(b1 / 2.0)
        e2 = -math.log(b2 / 2.0)
        assert e1 == pytest.approx(4.0 * e2, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            chaos_sup_bound([0.0, 0.0], 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            chaos_sup_bound([1.0], 1.0, 1.0, 1.0, 1.0)


class TestSettingCatalog:
    def test_sphere(self):
        s = setting_catalog("sphere", n=10)
        assert (s.p, s.r0, s.L) == (2.0, 2.0, 1.0)
        assert s.sigma == pytest.approx(1.0 / 3.0)

    def test_stiefel(self):
        s = setting_catalog("stiefel", n=10, k=3)
        assert s.sigma ** 2 == pytest.approx(0.5)

    def test_grassmann(self):
        s = setting_catalog("grassmann", n=10, k=3)
        assert s.sigma ** 2 == pytest.approx(1.0)

    def test_independent_bounded(self):
        s = setting_catalog("independent_bounded")
        assert s.L * s.sigma == pytest.approx(math.sqrt(8.0 * KAPPA))
        assert s.L * s.sigma == pytest.approx(3.189, abs=2e-3)

    def test_poincare(self):
        s = setting_catalog("poincare", sigma2=1.0)
        assert (s.p, s.r0) == (1.0, 2.0)
        assert s.L == pytest.approx(1.0 / math.sqrt(2.0))

    def test_lsq(self):
        p = 3.0
        q = 1.5
        s = setting_catalog("lsq", p=p, sigma_q=1.0)
        assert s.r0 == pytest.approx(q)
        assert s.L == pytest.approx(4.0 ** (1.0 / q) * (p - 1.0) / LOG2 ** (1.0 / q))

    def test_cone_lp(self):
        n, p = 8, 3.0
        q = 1.5
        s = setting_catalog("cone_lp", n=n, p=p)
        assert s.sigma ** q == pytest.approx(
            3.0 * 4.0 ** q * q ** (q - 1.0) * n ** (-1.0 / (p - 1.0))
        )

    def test_dlsi(self):
        s = setting_catalog("dlsi", sigma2=2.0)
        assert s.L * s.sigma == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            setting_catalog("sphere", n=1)
        with pytest.raises(ValueError):
            setting_catalog("stiefel", n=2, k=1)
        with pytest.raises(ValueError):
            setting_catalog("nosuch")


class TestConstantTable:
    def test_lsi_row_agrees(self):
        rows = {r["tag"]: r for r in paper_constant_table()}
        assert rows["lsi"]["agrees"] is True

    def test_independent_row_agrees(self):
        rows = {r["tag"]: r for r in paper_constant_table()}
        row = rows["independent_bounded"]
        assert row["agrees"] is True
        assert row["paper_C"] == pytest.approx(LOG2 / (16.0 * KAPPA * math.e ** 2))

    def test_poincare_row_flagged(self):
        rows = {r["tag"]: r for r in paper_constant_table()}
        row = rows["poincare"]
        assert row["agrees"] is False
        assert row["mismatch"] == "c"
        assert row["paper_c"] == pytest.approx(2.0 * row["engine_c"], rel=1e-12)

    def test_lsq_row_flagged(self):
        rows = {r["tag"]: r for r in paper_constant_table()}
        assert rows["lsq"]["agrees"] is False
        assert rows["lsq"]["mismatch"] == "c+C"

    def test_flagged_set(self):
        flagged = {r["tag"] for r in paper_constant_table() if r["agrees"] is False}
        assert flagged == {"poincare", "lsq"}

    def test_incomparable_rows_reported_not_flagged(self):
        rows = {r["tag"]: r for r in paper_constant_table()}
        for tag in ("sphere_intrinsic", "dlsi"):
            assert rows[tag]["agrees"] is None
            assert rows[tag]["note"]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_tail_bound_monotone_property(t1, t2):
    s = setting_catalog("lsi", d=2, sigma2=1.0)
    K = LevelCoefficients([1.0, 0.7])
    lo, hi = sorted((t1, t2))
    assert tail_bound(s, K, hi) <= tail_bound(s, K, lo) + 1e-15


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
def test_markov_consequence_of_certificate(k1, t):
    # a valid certificate implies a tail bound by the exponential Markov
    # inequality; check the implied curve never dips below exp decay shape
    s = setting_catalog("lsi", d=1, sigma2=1.0)
    exponent, coef, _ = exp_moment_certificate(s, LevelCoefficients([k1]))
    markov = 2.0 * math.exp(-coef * t ** exponent)
    assert markov >= 0.0
    if t == 0.0:
        assert markov == pytest.approx(2.0)
