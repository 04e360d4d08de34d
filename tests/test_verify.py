"""Verification machinery: tails, moments, entropy ratios, finite differences."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conclab.bounds import LevelCoefficients, exp_moment_certificate, setting_catalog
from conclab.calculus import (
    Euclidean,
    Grassmann,
    PolyFunction,
    Sphere,
    Stiefel,
    derivative_tensor,
)
from conclab.discrete import (
    FiniteProductSpace,
    dependence_profile,
    dlsi_constant,
    ising_space,
    uniform_cube,
)
from conclab.samplers import sample_gaussian, sample_sphere, sample_stiefel
from conclab.tensor import op_norm
from conclab.verify import (
    discrete_level_coefficients,
    empirical_tail,
    finite_difference_suite,
    polynomial_level_coefficients,
    verify_dlsi,
    verify_exp_moment,
    verify_moment_recursion,
    verify_tail,
)


class TestEmpiricalTail:
    def test_fraction(self):
        frac, _ = empirical_tail([1.0, 2.0, 3.0, 4.0], 2.5, 0.05)
        assert frac == 0.5

    def test_zero_threshold(self):
        frac, _ = empirical_tail([1.0, -2.0, 0.5], 0.0, 0.05)
        assert frac == 1.0

    def test_zero_count_closed_form(self):
        delta = 0.01
        n = 1000
        _, ucb = empirical_tail(np.ones(n), 2.0, delta)
        assert ucb == pytest.approx(1.0 - delta ** (1.0 / n), rel=1e-9)

    def test_upper_bound_dominates_fraction(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(500)
        for t in (0.0, 0.5, 1.0, 3.0):
            frac, ucb = empirical_tail(vals, t, 0.05)
            assert frac <= ucb

    def test_input_validation(self):
        with pytest.raises(ValueError):
            empirical_tail([], 1.0, 0.05)
        with pytest.raises(ValueError):
            empirical_tail([1.0], 1.0, 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            empirical_tail(np.full(10, bad), 0.5, 0.05)


class TestVerifyTail:
    def test_gaussian_linear_passes(self):
        n = 10
        a = np.zeros(n)
        a[0] = 1.0
        batch = sample_gaussian(n, 20000, seed=1)
        s = setting_catalog("gaussian", d=1)
        f = PolyFunction.linear(a)
        report = verify_tail(
            batch, lambda x: f.eval(x), s, LevelCoefficients([1.0]),
            np.arange(0.0, 5.1, 0.5), 0.01,
        )
        assert report.mode == "montecarlo"
        assert report.passed

    def test_exhaustive_constant_function(self):
        sp = uniform_cube(3)
        s = setting_catalog("independent_bounded", d=1)
        report = verify_tail(
            sp, lambda x: 5.0, s, LevelCoefficients([1.0]), [0.5, 1.0, 2.0], 0.01
        )
        assert report.mode == "exhaustive"
        assert report.passed
        assert all(e == 0.0 for e in report.empirical_tail)

    def test_report_serialization(self):
        sp = uniform_cube(2)
        s = setting_catalog("independent_bounded", d=1)
        report = verify_tail(
            sp, lambda x: float(x[0]), s, LevelCoefficients([2.0]), [0.0, 1.0], 0.01
        )
        obj = json.loads(report.to_json())
        assert obj["schema_version"] == "1"
        assert obj["mode"] == "exhaustive"
        csv = report.to_csv()
        assert csv.splitlines()[0] == "t,empirical,ucb,bound,pass"

    def test_reproducible_reports(self):
        batch = sample_gaussian(4, 2000, seed=3)
        s = setting_catalog("gaussian", d=1)
        f = PolyFunction.linear([0.5, 0.5, 0.5, 0.5])
        args = (batch, lambda x: f.eval(x), s, LevelCoefficients([1.0]), [0.0, 1.0, 2.0], 0.01)
        assert verify_tail(*args).to_json() == verify_tail(*args).to_json()

    def test_violation_detected(self):
        # a function far larger than its claimed level coefficient must fail
        sp = uniform_cube(4)
        s = setting_catalog("independent_bounded", d=1)
        report = verify_tail(
            sp, lambda x: 100.0 * float(np.sum(x)), s,
            LevelCoefficients([0.001]), [50.0, 150.0], 0.01,
        )
        assert not report.passed


    def test_non_finite_values_refused_exhaustive(self):
        # a NaN on a single configuration used to be counted as within
        # the bound, so the whole check passed
        sp = uniform_cube(3)
        s = setting_catalog("independent_bounded", d=1)
        K = LevelCoefficients([2.0])
        f = lambda x: np.nan if x[0] > 0 else float(x[1])
        with pytest.raises(ValueError, match="finite"):
            verify_tail(sp, f, s, K, [0.5, 1.0], 0.01)
        with pytest.raises(ValueError, match="finite"):
            verify_moment_recursion(sp, f, s, K, [2.0])
        cert = exp_moment_certificate(s, K)
        with pytest.raises(ValueError, match="finite"):
            verify_exp_moment(sp, f, cert)

    def test_empty_grid_refused(self):
        # an empty grid or list of orders used to pass with no check made
        s = setting_catalog("gaussian", d=1)
        K = LevelCoefficients([1.0])
        for source in (uniform_cube(2), sample_gaussian(2, 50, seed=0)):
            with pytest.raises(ValueError, match="empty"):
                verify_tail(source, lambda x: float(x[0]), s, K, [], 0.01)
            with pytest.raises(ValueError, match="empty"):
                verify_moment_recursion(source, lambda x: float(x[0]), s, K, [])

    def test_non_finite_values_refused_montecarlo(self):
        batch = sample_gaussian(3, 200, seed=0)
        s = setting_catalog("gaussian", d=1)
        K = LevelCoefficients([1.0])
        f = lambda x: np.nan if x[0] > 0 else float(x[1])
        with pytest.raises(ValueError, match="finite"):
            verify_tail(batch, f, s, K, [0.5, 1.0], 0.01)
        with pytest.raises(ValueError, match="finite"):
            verify_moment_recursion(batch, lambda x: np.inf, s, K, [2.0])


class TestVerifyMomentRecursion:
    def test_exhaustive_linear(self):
        n = 6
        rng = np.random.default_rng(4)
        a = rng.standard_normal(n)
        sp = uniform_cube(n)
        s = setting_catalog("independent_bounded", d=1)
        K = LevelCoefficients([2.0 * float(np.linalg.norm(a))])
        report = verify_moment_recursion(
            sp, lambda x: float(a @ x), s, K, [2.0, 4.0, 8.0]
        )
        assert report.mode == "exhaustive"
        assert report.passed

    def test_boundary_r0_included(self):
        sp = uniform_cube(3)
        s = setting_catalog("independent_bounded", d=1)
        report = verify_moment_recursion(
            sp, lambda x: float(x[0]), s, LevelCoefficients([2.0]), [2.0]
        )
        assert report.r_values == (2.0,)
        assert report.passed

    def test_constant_function(self):
        sp = uniform_cube(3)
        s = setting_catalog("independent_bounded", d=1)
        report = verify_moment_recursion(
            sp, lambda x: 7.0, s, LevelCoefficients([1.0]), [2.0, 3.0]
        )
        assert report.passed
        assert all(m == 0.0 for m in report.moments)

    def test_montecarlo_mode(self):
        batch = sample_gaussian(5, 20000, seed=5)
        s = setting_catalog("gaussian", d=1)
        f = PolyFunction.linear(np.ones(5) / np.sqrt(5.0))
        report = verify_moment_recursion(
            batch, lambda x: f.eval(x), s, LevelCoefficients([1.0]), [2.0, 4.0]
        )
        assert report.mode == "montecarlo"
        assert report.passed


class TestVerifyExpMoment:
    def test_constant_function(self):
        sp = uniform_cube(3)
        s = setting_catalog("independent_bounded", d=1)
        cert = exp_moment_certificate(s, LevelCoefficients([1.0]))
        value, ok = verify_exp_moment(sp, lambda x: 0.0, cert)
        assert value == pytest.approx(1.0)
        assert ok

    def test_linear_normalized(self):
        n = 8
        sp = uniform_cube(n)
        a = np.ones(n)
        a /= 2.0 * np.linalg.norm(a)  # now |h f| = 2|a| = 1
        s = setting_catalog("independent_bounded", d=1)
        cert = exp_moment_certificate(s, LevelCoefficients([1.0]))
        value, ok = verify_exp_moment(sp, lambda x: float(a @ x), cert)
        assert ok
        assert value <= 2.0

    def test_montecarlo_refused(self):
        batch = sample_gaussian(2, 100, seed=6)
        s = setting_catalog("gaussian", d=1)
        cert = exp_moment_certificate(s, LevelCoefficients([1.0]))
        with pytest.raises(TypeError):
            verify_exp_moment(batch, lambda x: 0.0, cert)


class TestVerifyDlsi:
    def test_two_point_space(self):
        best, ok = verify_dlsi(uniform_cube(1), 1.0, search_budget=6, seed=0)
        assert best == pytest.approx(1.0, abs=1e-3)
        assert ok

    def test_product_cube_tensorizes(self):
        best, ok = verify_dlsi(uniform_cube(2), 1.0, search_budget=4, seed=1)
        assert best <= 1.0 + 1e-3
        assert ok

    def test_detects_undersized_claim(self):
        best, ok = verify_dlsi(uniform_cube(1), 0.5, search_budget=4, seed=2)
        assert not ok

    def test_ising_below_formula(self):
        sp = ising_space(3, [(0, 1, 1.0), (1, 2, 1.0)], beta=0.2)
        sigma2, _ = dlsi_constant(dependence_profile(sp))
        best, ok = verify_dlsi(sp, sigma2, search_budget=3, seed=3)
        assert ok

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            verify_dlsi(uniform_cube(1), 1.0, search_budget=0)


class TestFiniteDifferenceSuite:
    def test_linear_on_sphere(self):
        f = PolyFunction.linear([1.0, -0.5, 2.0])
        pts = sample_sphere(3, 10, seed=7).data
        assert finite_difference_suite(f, Sphere(3), pts) <= 1e-6

    def test_constant(self):
        f = PolyFunction(3, {(0, 0, 0): 4.0})
        pts = sample_sphere(3, 5, seed=8).data
        assert finite_difference_suite(f, Sphere(3), pts) == 0.0

    def test_quadratic_hessian_on_sphere(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 4))
        f = PolyFunction.quadratic_form((A + A.T) / 2.0)
        pts = sample_sphere(4, 10, seed=10).data
        assert finite_difference_suite(f, Sphere(4), pts) <= 1e-4

    def test_euclidean(self):
        rng = np.random.default_rng(11)
        f = PolyFunction.quadratic_form(np.eye(3))
        pts = rng.standard_normal((5, 3))
        assert finite_difference_suite(f, Euclidean(3), pts) <= 1e-6

    def test_stiefel(self):
        n, k = 4, 2
        mono = {}
        rng = np.random.default_rng(12)
        coefs = rng.standard_normal(n * k)
        f = PolyFunction.linear(coefs)
        pts = sample_stiefel(n, k, 5, seed=13).data
        assert finite_difference_suite(f, Stiefel(n, k), pts) <= 1e-5

    def test_h_validation(self):
        f = PolyFunction.linear([1.0, 0.0])
        with pytest.raises(ValueError):
            finite_difference_suite(f, Sphere(2), [[1.0, 0.0]], h=0.5)


class TestLevelCoefficients:
    def test_discrete_linear_exact(self):
        n = 4
        rng = np.random.default_rng(14)
        a = rng.standard_normal(n)
        sp = uniform_cube(n)
        K = discrete_level_coefficients(lambda x: float(a @ x), sp, 1)
        assert K.K[0] == pytest.approx(2.0 * float(np.linalg.norm(a)))

    def test_discrete_quadratic_two_levels(self):
        n = 4
        rng = np.random.default_rng(15)
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        sp = uniform_cube(n)
        K = discrete_level_coefficients(lambda x: float(x @ A @ x), sp, 2)
        # top level is the spectral norm of the constant tensor 8|A|
        assert K.K[1] == pytest.approx(float(np.linalg.norm(8.0 * np.abs(A), 2)))

    def test_polynomial_top_level_exact(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((5, 5))
        A = (A + A.T) / 2.0
        f = PolyFunction.quadratic_form(A)
        batch = sample_gaussian(5, 2000, seed=17)
        K = polynomial_level_coefficients(f, batch, 2)
        assert K.K[1] == pytest.approx(2.0 * float(np.linalg.norm(A, 2)))

    def test_polynomial_inflation_monotone(self):
        f = PolyFunction.quadratic_form(np.eye(3))
        batch = sample_gaussian(3, 2000, seed=18)
        k_infl = polynomial_level_coefficients(f, batch, 2, inflate=True)
        k_raw = polynomial_level_coefficients(f, batch, 2, inflate=False)
        assert k_infl.K[0] > k_raw.K[0]

    def test_polynomial_third_level(self):
        # order-3 derivative tensors take the alternating op_norm
        f = PolyFunction(3, {(1, 1, 1): 1.0, (2, 1, 0): 0.5})
        batch = sample_gaussian(3, 20, seed=20)
        K = polynomial_level_coefficients(f, batch, 4, inflate=False)
        norms = [op_norm(derivative_tensor(f, 3, x), 2.0).value for x in batch.data]
        assert K.K[2] == pytest.approx(float(np.mean(norms)), rel=1e-12)
        assert K.K[3] == 0.0

    def test_degree_guard(self):
        f = PolyFunction(2, {(2, 1): 1.0})
        batch = sample_gaussian(2, 100, seed=19)
        with pytest.raises(ValueError):
            polynomial_level_coefficients(f, batch, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ucb_dominates_fraction_property(seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(200)
    t = float(rng.uniform(0.0, 3.0))
    frac, ucb = empirical_tail(vals, t, 0.01)
    assert frac <= ucb <= 1.0
