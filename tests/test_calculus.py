"""Polynomials, derivative tensors, and intrinsic manifold calculus."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conclab.calculus import (
    Euclidean,
    Grassmann,
    LpSphere,
    PolyFunction,
    Sphere,
    Stiefel,
    derivative_tensor,
    intrinsic_gradient,
    sphere_hessian,
    spherical_derivative_tensor,
    spherical_partial,
    tangent_project,
)
from conclab.samplers import (
    sample_cone_lp,
    sample_gaussian,
    sample_grassmann,
    sample_sphere,
    sample_stiefel,
)
from conclab.verify import polynomial_level_coefficients
from oracles import (
    derivative_tensor_oracle,
    poly_eval_oracle,
    polynomial_level_coefficients_oracle,
    spherical_derivative_tensor_oracle,
)


def random_poly(rng, n, degree):
    mono = {}
    for _ in range(6):
        exps = tuple(rng.integers(0, degree + 1, n))
        if sum(exps) > degree:
            continue
        mono[exps] = mono.get(exps, 0.0) + float(rng.standard_normal())
    mono[(0,) * n] = mono.get((0,) * n, 0.0) + 1.0
    return PolyFunction(n, mono)


class TestPolyFunction:
    def test_eval_product(self):
        f = PolyFunction(2, {(1, 1): 1.0})
        assert f.eval([2.0, 3.0]) == pytest.approx(6.0)

    def test_eval_shifted_square(self):
        f = PolyFunction(2, {(2, 0): 1.0, (0, 0): -1.0})
        assert f.eval([1.0, 5.0]) == pytest.approx(0.0)

    def test_zero_polynomial(self):
        f = PolyFunction(3, {})
        assert f.eval([1.0, 2.0, 3.0]) == 0.0
        assert f.degree == 0

    def test_monomials_merge(self):
        f = PolyFunction(1, [((1,), 2.0), ((1,), 3.0)])
        assert f.monomials == {(1,): 5.0}

    def test_gradient_matches_partials(self):
        rng = np.random.default_rng(0)
        f = random_poly(rng, 3, 3)
        x = rng.standard_normal(3)
        g = f.gradient(x)
        for i in range(3):
            assert g[i] == pytest.approx(f.partial(i).eval(x))

    def test_quadratic_form(self):
        A = np.array([[1.0, 2.0], [2.0, -1.0]])
        f = PolyFunction.quadratic_form(A)
        x = np.array([0.5, -1.5])
        assert f.eval(x) == pytest.approx(float(x @ A @ x))

    def test_linear(self):
        f = PolyFunction.linear([1.0, -2.0, 0.5])
        assert f.eval([1.0, 1.0, 2.0]) == pytest.approx(0.0)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(1)
        f = random_poly(rng, 2, 3)
        back = PolyFunction.from_json(f.to_json())
        assert back.monomials == f.monomials


class TestDerivativeTensor:
    def test_bilinear_term(self):
        f = PolyFunction(2, {(1, 1): 1.0})
        T = derivative_tensor(f, 2, [0.3, -0.7])
        assert np.allclose(T.array, [[0.0, 1.0], [1.0, 0.0]])

    def test_quadratic_form_second_derivative(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        A = (A + A.T) / 2.0
        f = PolyFunction.quadratic_form(A)
        T = derivative_tensor(f, 2, rng.standard_normal(3))
        assert np.allclose(T.array, 2.0 * A)

    def test_cubic_third_derivative(self):
        f = PolyFunction(2, {(3, 0): 1.0})
        T = derivative_tensor(f, 3, [0.1, 0.2])
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 6.0
        assert np.allclose(T.array, expected)

    def test_order_beyond_degree_is_zero(self):
        f = PolyFunction(2, {(1, 1): 1.0})
        assert np.all(derivative_tensor(f, 3, [0.0, 0.0]).array == 0.0)

    def test_tensor_entries_are_derivatives_of_lower_order(self):
        rng = np.random.default_rng(3)
        f = random_poly(rng, 2, 3)
        x = rng.standard_normal(2)
        h = 1e-6
        T2 = derivative_tensor(f, 2, x).array
        for i in range(2):
            for j in range(2):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (
                    derivative_tensor(f, 1, xp).array[i]
                    - derivative_tensor(f, 1, xm).array[i]
                ) / (2.0 * h)
                assert fd == pytest.approx(T2[i, j], rel=1e-5, abs=1e-5)


class TestTangentProject:
    def test_sphere_radial_killed(self):
        m = Sphere(3)
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(m.tangent_project(e1, e1), 0.0)

    def test_sphere_tangency(self):
        m = Sphere(4)
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(4)
        theta /= np.linalg.norm(theta)
        v = m.tangent_project(theta, rng.standard_normal(4))
        assert abs(v @ theta) < 1e-12

    def test_lp_sphere_tangency(self):
        m = LpSphere(3, 4.0)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(3)
        theta /= np.sum(np.abs(theta) ** 4.0) ** 0.25
        v = m.tangent_project(theta, rng.standard_normal(3))
        w = np.sign(theta) * np.abs(theta) ** 3.0
        assert abs(v @ w) < 1e-12

    def test_stiefel_point_projects_to_zero(self):
        A = np.eye(4)[:, :2]
        m = Stiefel(4, 2)
        assert np.allclose(m.tangent_project(A, A), 0.0)

    def test_grassmann_point_projects_to_zero(self):
        P = np.diag([1.0, 1.0, 0.0])
        m = Grassmann(3, 2)
        assert np.allclose(m.tangent_project(P, P), 0.0)

    def test_off_manifold_rejected(self):
        with pytest.raises(ValueError):
            Sphere(3).tangent_project([2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            Stiefel(3, 2).tangent_project(np.ones((3, 2)), np.ones((3, 2)))

    def test_projection_idempotent(self):
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(5)
        theta /= np.linalg.norm(theta)
        m = Sphere(5)
        v = m.tangent_project(theta, rng.standard_normal(5))
        assert np.allclose(m.tangent_project(theta, v), v, atol=1e-12)

    def test_module_level_wrapper(self):
        m = Euclidean(3)
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(tangent_project(m, np.zeros(3), v), v)


@pytest.mark.parametrize("m,point", [
    (Euclidean(3), np.array([0.3, -1.0, 2.0])),
    (Sphere(4), sample_sphere(4, 1, seed=20).data[0]),
    (LpSphere(4, 3.0), sample_cone_lp(3.0, 4, 1, seed=21).data[0]),
    (Stiefel(4, 2), sample_stiefel(4, 2, 1, seed=22).data[0]),
    (Grassmann(4, 2), sample_grassmann(4, 2, 1, seed=23).data[0]),
], ids=["euclidean", "sphere", "lp_sphere", "stiefel", "grassmann"])
def test_retract_starts_at_the_point_and_stays_on_the_manifold(m, point):
    rng = np.random.default_rng(24)
    u = m.tangent_project(point, rng.standard_normal(point.shape)).ravel()
    u /= np.linalg.norm(u)
    assert np.allclose(np.ravel(m.retract(point, u, 0.0)), point, rtol=0.0, atol=1e-12)
    for t in (1e-4, -1e-4):
        moved = m.retract(point, u, t)
        assert m.on_manifold(moved)
        assert 0.0 < np.linalg.norm(np.ravel(moved) - point) <= 2e-4


class TestIntrinsicGradient:
    def test_sphere_orthogonal_direction(self):
        f = PolyFunction.linear([0.0, 1.0, 0.0])
        g = intrinsic_gradient(Sphere(3), f, [1.0, 0.0, 0.0])
        assert np.allclose(g, [0.0, 1.0, 0.0])

    def test_sphere_radial_direction(self):
        f = PolyFunction.linear([1.0, 0.0, 0.0])
        g = intrinsic_gradient(Sphere(3), f, [1.0, 0.0, 0.0])
        assert np.allclose(g, 0.0)

    def test_grassmann_trace_gradient_vanishes(self):
        # the trace functional has Euclidean gradient I, and I projects to
        # zero in the tangent space at any projection matrix
        n, k = 3, 1
        mono = {}
        for i in range(n):
            e = [0] * (n * n)
            e[i * n + i] = 1
            mono[tuple(e)] = 1.0
        f = PolyFunction(n * n, mono)
        P = np.diag([1.0, 0.0, 0.0])
        g = intrinsic_gradient(Grassmann(n, k), f, P)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_contraction_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_poly(rng, 4, 3)
            theta = rng.standard_normal(4)
            theta /= np.linalg.norm(theta)
            gi = intrinsic_gradient(Sphere(4), f, theta)
            assert np.linalg.norm(gi) <= np.linalg.norm(f.gradient(theta)) + 1e-12


class TestSphereHessian:
    def test_linear_function(self):
        f = PolyFunction.linear([1.0, 0.0, 0.0])
        H = sphere_hessian(f, [1.0, 0.0, 0.0]).array
        P = np.eye(3) - np.diag([1.0, 0.0, 0.0])
        assert np.allclose(H, -P)

    def test_constant_function(self):
        f = PolyFunction(3, {(0, 0, 0): 5.0})
        assert np.allclose(sphere_hessian(f, [0.0, 1.0, 0.0]).array, 0.0)

    def test_half_norm_squared(self):
        f = PolyFunction(3, {(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5})
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(3)
        theta /= np.linalg.norm(theta)
        assert np.allclose(sphere_hessian(f, theta).array, 0.0, atol=1e-12)

    def test_hs_contraction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            f = PolyFunction.quadratic_form((A + A.T) / 2.0)
            theta = rng.standard_normal(4)
            theta /= np.linalg.norm(theta)
            H = sphere_hessian(f, theta).array
            B = derivative_tensor(f, 2, theta).array - (
                theta @ f.gradient(theta)
            ) * np.eye(4)
            assert np.linalg.norm(H) <= np.linalg.norm(B) + 1e-12

    def test_off_sphere_rejected(self):
        f = PolyFunction.linear([1.0, 0.0])
        with pytest.raises(ValueError):
            sphere_hessian(f, [2.0, 0.0])


class TestSphericalPartial:
    def test_linear_first_order(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(4)
        f = PolyFunction.linear(a)
        theta = rng.standard_normal(4)
        theta /= np.linalg.norm(theta)
        for i in range(4):
            expected = a[i] - (a @ theta) * theta[i]
            assert spherical_partial(f, [i], theta) == pytest.approx(expected)

    def test_linear_at_aligned_point(self):
        f = PolyFunction.linear([1.0, 0.0, 0.0])
        assert spherical_partial(f, [0], [1.0, 0.0, 0.0]) == pytest.approx(0.0)

    def test_constant_vanishes(self):
        f = PolyFunction(3, {(0, 0, 0): 2.0})
        theta = np.array([0.0, 0.0, 1.0])
        assert spherical_partial(f, [0, 1], theta) == 0.0
        assert spherical_partial(f, [2], theta) == 0.0

    def test_first_order_matches_intrinsic_gradient(self):
        rng = np.random.default_rng(11)
        f = random_poly(rng, 3, 3)
        theta = rng.standard_normal(3)
        theta /= np.linalg.norm(theta)
        g = intrinsic_gradient(Sphere(3), f, theta)
        D1 = spherical_derivative_tensor(f, 1, theta)
        assert np.allclose(D1, g, atol=1e-10)

    def test_second_order_not_symmetric_in_general(self):
        f = PolyFunction(3, {(1, 0, 0): 1.0})
        theta = np.array([3.0, 4.0, 0.0]) / 5.0
        D2 = spherical_derivative_tensor(f, 2, theta)
        assert not np.allclose(D2, D2.T)

    def test_finite_difference_cross_check(self):
        # D_i at theta equals the i-th Euclidean partial of x -> f(x/|x|)
        rng = np.random.default_rng(12)
        f = random_poly(rng, 3, 3)
        theta = rng.standard_normal(3)
        theta /= np.linalg.norm(theta)
        h = 1e-6
        for i in range(3):
            xp, xm = theta.copy(), theta.copy()
            xp[i] += h
            xm[i] -= h
            fd = (
                f.eval(xp / np.linalg.norm(xp)) - f.eval(xm / np.linalg.norm(xm))
            ) / (2.0 * h)
            assert spherical_partial(f, [i], theta) == pytest.approx(
                fd, rel=1e-5, abs=1e-5
            )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_intrinsic_gradient_always_tangent(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 4, 3)
    theta = rng.standard_normal(4)
    theta /= np.linalg.norm(theta)
    g = intrinsic_gradient(Sphere(4), f, theta)
    assert abs(g @ theta) < 1e-10


@st.composite
def polynomials(draw):
    """Random polynomials in n <= 4 variables of degree <= 4, the zero and
    constant polynomials included (as the empty and all-zero-exponent draws)."""
    n = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda e: sum(e) <= 4)
    coef = st.floats(-10.0, 10.0, allow_nan=False).filter(lambda c: c != 0.0)
    mono = draw(st.dictionaries(exps.map(tuple), coef, max_size=8))
    return PolyFunction(n, mono)


def assert_rel(new, old, atol=0.0):
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=atol)


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.integers(0, 2 ** 32 - 1))
@example(PolyFunction(2, {(2, 0): 4.2e-110, (0, 2): 4.2e-110}), 1)
def test_array_form_matches_dict_oracles(f, seed):
    rng = np.random.default_rng(seed)
    n, mono = f.nvars, f.monomials
    X = rng.standard_normal((7, n))
    values = f.eval(X)
    assert isinstance(values, np.ndarray) and values.shape == (7,)
    assert_rel(values, [poly_eval_oracle(mono, x) for x in X])
    point = f.eval(X[0])
    assert isinstance(point, float)
    assert_rel(point, poly_eval_oracle(mono, X[0]))
    for bad in (np.zeros(n + 1), np.zeros((3, n + 1)), np.zeros((2, 3, n)), np.float64(1.0)):
        with pytest.raises(ValueError):
            f.eval(bad)
    for j in (1, 2, 3):
        assert_rel(derivative_tensor(f, j, X[1]).array, derivative_tensor_oracle(mono, n, j, X[1]))
    if n >= 2:
        theta = X[2] / np.linalg.norm(X[2])
        roundoff = 1e-12 * float(np.abs(f.coefs).sum())
        for j in (1, 2):
            oracle = spherical_derivative_tensor_oracle(mono, j, theta)
            # a multiple of |x|^2 is constant on the sphere: its spherical
            # derivatives are exactly 0 and both sides return roundoff of
            # the coefficients' size; only such an all-roundoff oracle is
            # compared with an absolute floor
            degenerate = np.abs(oracle).max() <= roundoff
            assert_rel(spherical_derivative_tensor(f, j, theta), oracle,
                       roundoff if degenerate else 0.0)
    batch = sample_gaussian(n, 40, seed % 1000)
    for d in (2, 3):
        if f.degree > d:
            with pytest.raises(ValueError):
                polynomial_level_coefficients(f, batch, d)
        else:
            assert_rel(polynomial_level_coefficients(f, batch, d).K,
                       polynomial_level_coefficients_oracle(mono, n, batch.data, d))
