"""Verification machinery: tails, moments, entropy ratios, finite differences."""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import conclab
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
    d_field,
    dependence_profile,
    dlsi_constant,
    h_tensor_field,
    ising_space,
    uniform_cube,
    value_table,
)
from conclab.samplers import sample_finite, sample_gaussian, sample_sphere, sample_stiefel
from conclab.tensor import op_norm
from conclab.verify import (
    _dirichlet_form,
    _dlsi_ratio,
    _level_norm,
    _neg_entropy_ratio,
    discrete_level_coefficients,
    empirical_tail,
    finite_difference_suite,
    poincare_ratio,
    polynomial_level_coefficients,
    verify_dlsi,
    verify_exp_moment,
    verify_moment_recursion,
    verify_tail,
)
from oracles import dlsi_search_oracle, level_norm_oracle


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

    def test_ucb_matches_beta_quantile_oracle(self):
        # the Clopper-Pearson bound is the (1 - delta)-quantile of
        # Beta(k + 1, n - k); betaincinv and beta.ppf share one inverse
        rng = np.random.default_rng(14)
        for n in np.unique(np.geomspace(10, 10 ** 5, 25).astype(int)):
            for k in (0, n - 1, int(rng.integers(1, n - 1))):
                values = np.zeros(n)
                values[:k] = 2.0
                for delta in rng.uniform(1e-6, 0.5, size=4):
                    oracle = float(stats.beta.ppf(1.0 - delta, k + 1, n - k))
                    assert empirical_tail(values, 1.0, delta) == (k / n, oracle)


_SCIPY_FREE_IMPORT = """
import sys
import numpy as np
import conclab, conclab.cli
from conclab.discrete import uniform_cube
from conclab.verify import discrete_level_coefficients, empirical_tail, verify_dlsi, verify_tail
from conclab.bounds import LevelCoefficients, setting_catalog

def scipy_loaded():
    return [m for m in ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.special")
            if m in sys.modules]

assert scipy_loaded() == [], scipy_loaded()
sp = uniform_cube(3)
report = verify_tail(sp, lambda x: float(sum(x)), setting_catalog("lsi", sigma2=1.0),
                     LevelCoefficients([1.0]), [1.0, 2.0])
assert report.passed and report.mode == "exhaustive"
discrete_level_coefficients(lambda x: float(x[0] * x[1] * x[2]), sp, 3)
assert scipy_loaded() == [], scipy_loaded()
assert empirical_tail(np.array([0.0, 2.0]), 1.0, 0.05)[0] == 0.5
assert verify_dlsi(uniform_cube(2), 1.0)[1]
"""


def test_import_and_exhaustive_checks_load_no_scipy():
    # a fresh interpreter: the test process itself has scipy loaded
    src = str(Path(conclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


    @pytest.mark.parametrize("K", [0.04, 0.06, 0.08, 0.10, 0.12])
    def test_montecarlo_and_exhaustive_verdicts_agree_on_a_finite_space(self, K):
        # the sample rows are label vectors, so f sees {-1, 1}^3 in both
        # modes (alphabet indices gave variance 0.75 against 3 and a pass)
        sp = uniform_cube(3)
        s = setting_catalog("independent_bounded", d=1)
        f = lambda x: float(x[0] + x[1] + x[2])
        grid = np.arange(0.25, 3.0 + 0.125, 0.25)
        args = (f, s, LevelCoefficients([K]), grid)
        exhaustive = verify_tail(sp, *args)
        montecarlo = verify_tail(sample_finite(sp, 20000, 0), *args)
        assert montecarlo.passed == exhaustive.passed


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

    @pytest.mark.parametrize("seed", range(6))
    def test_two_point_search_stays_at_the_constant(self, seed):
        # the exact constant is 1, approached by tables near the constants,
        # where the entropy cancels to u^2 / 2
        best, ok = verify_dlsi(uniform_cube(1), 1.0, search_budget=4, seed=seed)
        assert best <= 1.0 + 1e-14 and ok

    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4, 1e-2, 0.2])
    def test_ratio_near_constants_matches_exact_arithmetic(self, eps):
        # on the two-point space E|dg|^2 = Var(g) = ((a - b) / 2)^2
        g = np.array([1.0 + eps, 1.0 - eps / 3.0])
        with localcontext() as ctx:
            ctx.prec = 50
            a, b = (Decimal(float(v)) ** 2 for v in g)
            m = (a + b) / 2
            ent = (a * a.ln() + b * b.ln()) / 2 - m * m.ln()
            exact = float(ent / (2 * ((Decimal(float(g[0])) - Decimal(float(g[1]))) / 2) ** 2))
        assert _dlsi_ratio(g, uniform_cube(1)) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_floor_is_one_on_uniform_cube(self, n):
        # the Gibbs sampler on the uniform cube has spectral gap 1
        assert poincare_ratio(uniform_cube(n)) == pytest.approx(1.0, rel=1e-14)

    def test_disconnected_chain_fails_every_claim(self):
        # the support {(-1,-1), (1,1)} has no single-coordinate move, so a
        # table that differs between the two points has zero energy and
        # positive entropy: the constant is infinite
        sp = FiniteProductSpace([(-1, 1), (-1, 1)], [[0.5, 0.0], [0.0, 0.5]])
        assert _dlsi_ratio(np.array([[1.0, 5.0], [5.0, 2.0]]), sp) == math.inf
        # two 2x2 blocks, each connected: the eigensolver's second
        # eigenvalue is roundoff, not exactly 0
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = [[0.1, 0.2], [0.15, 0.05]]
        blocks[2:, 2:] = [[0.2, 0.1], [0.05, 0.15]]
        two = FiniteProductSpace([range(4)] * 2, blocks)
        for space in (sp, two):
            assert poincare_ratio(space) == math.inf
            for claim in (1e-3, 1e6):
                assert verify_dlsi(space, claim, search_budget=3, seed=0) == (math.inf, False)
        assert _dlsi_ratio(np.full((2, 2), 3.0), sp) == 0.0

    @pytest.mark.parametrize("coupling", [1.0, 5.0, 10.0])
    def test_floor_matches_two_spin_closed_form(self, coupling):
        # mu(x) ~ exp(J x0 x1): the Gibbs sampler's Dirichlet form is a
        # 4-cycle with spectrum {0, 2 / (1 + e^2J), 2 / (1 + e^-2J), 2}
        sp = ising_space(2, [(0, 1, 1.0)], beta=coupling)
        exact = (1.0 + math.exp(2.0 * coupling)) / 2.0
        assert poincare_ratio(sp) == pytest.approx(exact, rel=1e-6)
        assert verify_dlsi(sp, exact, search_budget=2, seed=0)[0] >= poincare_ratio(sp)

    @pytest.mark.parametrize("coupling", [12.0, 20.0])
    def test_unresolved_gap_is_not_a_floor(self, coupling):
        # lambda_2 = 2 / (1 + e^2J) is below eigh's resolution: at J = 20
        # the computed second eigenvalue is negative roundoff, so 1/lambda_2
        # would be garbage; the search alone gives the result
        sp = ising_space(2, [(0, 1, 1.0)], beta=coupling)
        assert math.isnan(poincare_ratio(sp))
        best, ok = verify_dlsi(sp, 1.0, search_budget=3, seed=0)
        assert type(best) is float and 1.0 < best < math.inf and not ok
        assert verify_dlsi(sp, 2.0 * best, search_budget=3, seed=0) == (best, True)

    def test_returns_plain_float(self):
        best, ok = verify_dlsi(uniform_cube(2), 1.0, search_budget=2, seed=0)
        assert type(best) is float and type(ok) is bool

    def test_point_mass_has_ratio_zero(self):
        # one support point: no non-constant table, no eigenproblem
        sp = FiniteProductSpace([(-1, 1), (-1, 1)], [[0.0, 1.0], [0.0, 0.0]])
        assert poincare_ratio(sp) == 0.0
        assert verify_dlsi(sp, 1e-3, search_budget=2) == (0.0, True)

    @pytest.mark.parametrize("case", range(21))
    def test_search_dominates_floor_and_oracle(self, case):
        # criterion 9's systems, then a joint with a zero; the oracle is the
        # former coordinate ascent, capped at 5 sweeps (each sweep can only
        # raise its ratio, so the full search is above it)
        sp, sigma2, seed = _dlsi_systems()[case]
        best, ok = verify_dlsi(sp, sigma2, search_budget=2, seed=seed)
        assert best >= poincare_ratio(sp)
        assert best >= dlsi_search_oracle(sp, search_budget=2, seed=seed, sweeps=5)
        assert best <= sigma2 and ok

    @pytest.mark.parametrize("case", [0, 7, 20])
    def test_gradient_matches_central_differences(self, case):
        sp = _dlsi_systems()[case][0]
        F, mu, _ = _dirichlet_form(sp)
        rng = np.random.default_rng(case)
        g = rng.standard_normal(mu.size)
        _, grad = _neg_entropy_ratio(g, mu, F)
        h = 1e-6
        for k in range(mu.size):
            e = np.zeros(mu.size)
            e[k] = h
            fd = (_neg_entropy_ratio(g + e, mu, F)[0] - _neg_entropy_ratio(g - e, mu, F)[0]) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_form_is_the_dirichlet_energy(self):
        # g' F g equals E sum_i Var_i(g) computed from d_field
        sp = _dlsi_systems()[20][0]
        F, mu, support = _dirichlet_form(sp)
        g = np.random.default_rng(4).standard_normal(sp.joint.size)
        energy = float(np.sum(sp.joint * (d_field(g.reshape(sp.shape), sp) ** 2).sum(axis=0)))
        assert g[support] @ F @ g[support] == pytest.approx(energy, rel=1e-12)


@functools.cache
def _dlsi_systems():
    """(space, sigma2, seed): criterion 9's 20 Ising systems, then a
    two-spin joint with one zero whose Gibbs sampler is connected."""
    systems = []
    rng = np.random.default_rng(99)
    while len(systems) < 20:
        edges = [(0, 1, float(rng.uniform(-1.0, 1.0))),
                 (1, 2, float(rng.uniform(-1.0, 1.0))),
                 (0, 2, float(rng.uniform(-1.0, 1.0)))]
        fields = rng.uniform(-0.5, 0.5, size=3)
        beta = float(rng.uniform(0.05, 0.5))
        sp = ising_space(3, edges, fields=fields, beta=beta)
        profile = dependence_profile(sp)
        if profile.J_opnorm < 1.0:
            systems.append((sp, dlsi_constant(profile)[0], len(systems)))
    sp = FiniteProductSpace([(-1, 1), (-1, 1)], [[0.0, 0.3], [0.3, 0.4]])
    systems.append((sp, dlsi_constant(dependence_profile(sp))[0], 0))
    return tuple(systems)


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

    def test_discrete_cubic_third_level_matches_the_loop(self):
        # the benchmark's order-3 statistic: cubic, quadratic and linear
        # parts on {-1, 1}^4; one op_norm_stack call serves all 16 tensors
        n = 4
        rng = np.random.default_rng(21)
        triples = np.array(list(itertools.combinations(range(n), 3)))
        coef = rng.standard_normal(len(triples))
        B, a = np.triu(rng.standard_normal((n, n)), 1), rng.standard_normal(n)

        def stat(x):
            return float(np.prod(x[triples], axis=1) @ coef + x @ B @ x + a @ x)

        sp = uniform_cube(n)
        field = h_tensor_field(value_table(stat, sp), sp, 3).reshape((n,) * 3 + (-1,))
        stack = np.moveaxis(field, -1, 0)
        ref = np.array([level_norm_oracle(T) for T in stack])
        np.testing.assert_allclose(_level_norm(stack), ref, rtol=1e-12, atol=0.0)
        K = discrete_level_coefficients(stat, sp, 3)
        assert K.K[2] == pytest.approx(ref.max(), rel=1e-12)

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

    def test_degree_guard(self, monkeypatch):
        # refused before any level is computed
        f = PolyFunction(2, {(2, 1): 1.0})
        batch = sample_gaussian(2, 100, seed=19)

        def no_field(*args):
            raise AssertionError("derivative_field called before the degree check")

        monkeypatch.setattr("conclab.calculus.derivative_field", no_field)
        with pytest.raises(ValueError, match="degree"):
            polynomial_level_coefficients(f, batch, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ucb_dominates_fraction_property(seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(200)
    t = float(rng.uniform(0.0, 3.0))
    frac, ucb = empirical_tail(vals, t, 0.01)
    assert frac <= ucb <= 1.0
