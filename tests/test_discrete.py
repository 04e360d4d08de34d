"""Difference operators, dependence diagnostics, and exhaustive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conclab.discrete import (
    FiniteProductSpace,
    d_field,
    d_operator,
    dependence_profile,
    dlsi_constant,
    exact_distribution,
    exact_moment,
    h_field,
    h_ops,
    h_tensor,
    h_tensor_field,
    ising_space,
    phi_entropy,
    uniform_cube,
    value_table,
)
from conclab.tensor import SymTensor, op_norm, op_norm_oracle
from oracles import conditional_std, h_tensor_oracle


def random_table(rng, space):
    return rng.standard_normal(space.shape)


def _ternary_cube():
    return FiniteProductSpace([(-1.0, 0.0, 1.0)] * 3, np.full((3, 3, 3), 1.0 / 27))


def _mixed_space():
    rng = np.random.default_rng(8)
    alphabets = [(-1.0, 0.0, 2.0), (0.0, 1.0), (-2.0, -1.0, 1.0, 3.0)]
    return FiniteProductSpace(alphabets, rng.dirichlet(np.ones(24)))


FIELD_SPACES = {
    "cube": lambda: uniform_cube(3),
    "ternary": _ternary_cube,
    "mixed": _mixed_space,
}


class TestFiniteProductSpace:
    def test_uniform_cube(self):
        sp = uniform_cube(3)
        assert sp.n == 3
        assert sp.is_product
        assert sp.joint.sum() == pytest.approx(1.0)

    def test_non_product_detected(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        sp = FiniteProductSpace([(-1.0, 1.0)] * 2, joint)
        assert not sp.is_product

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            FiniteProductSpace([(-1.0, 1.0)], np.array([0.4, 0.4]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            FiniteProductSpace([(-1.0, 1.0)], np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_joint_rejected(self, bad):
        with pytest.raises(ValueError):
            FiniteProductSpace([(-1.0, 1.0)] * 2, np.full((2, 2), bad))
        with pytest.raises(ValueError):
            FiniteProductSpace([(-1.0, 1.0)], np.array([bad, 0.5]))

    def test_json_roundtrip(self):
        sp = ising_space(2, [(0, 1, 1.0)], beta=0.3)
        back = FiniteProductSpace.from_json(sp.to_json())
        assert np.allclose(back.joint, sp.joint)
        assert back.alphabets == sp.alphabets


class TestHOps:
    def test_linear_function(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(3)
        sp = uniform_cube(3)
        f = lambda x: float(a @ x)
        for i in range(3):
            h, _, _ = h_ops(f, sp, (0, 0, 0), i)
            assert h == pytest.approx(2.0 * abs(a[i]))

    def test_constant(self):
        sp = uniform_cube(2)
        h, hp, hm = h_ops(lambda x: 1.0, sp, (0, 1), 0)
        assert (h, hp, hm) == (0.0, 0.0, 0.0)

    def test_one_coordinate_positive_negative_parts(self):
        sp = uniform_cube(1)
        # f = x1; at x1 = +1 the replacement can only go down
        h, hp, hm = h_ops(lambda x: float(x[0]), sp, (1,), 0)
        assert (h, hp, hm) == (2.0, 2.0, 0.0)

    def test_h_decomposes_into_signed_parts(self):
        rng = np.random.default_rng(1)
        sp = uniform_cube(3)
        table = random_table(rng, sp)
        for i in range(3):
            for x in sp.configurations():
                h, _, _ = h_ops(table, sp, x, i)
                hp_max = max(h_ops(table, sp, x[:i] + (b,) + x[i + 1:], i)[1] for b in range(2))
                hm_max = max(h_ops(table, sp, x[:i] + (b,) + x[i + 1:], i)[2] for b in range(2))
                assert h == pytest.approx(max(hp_max, hm_max))


class TestHTensor:
    def test_quadratic_form_entries(self):
        rng = np.random.default_rng(2)
        n = 4
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        sp = uniform_cube(n)
        f = lambda x: float(x @ A @ x)
        T = h_tensor(f, sp, 2, (0,) * n)
        for i in range(n):
            for j in range(n):
                expected = 8.0 * abs(A[i, j]) if i != j else 0.0
                assert T.array[i, j] == pytest.approx(expected)

    def test_repeated_indices_zero(self):
        rng = np.random.default_rng(3)
        sp = uniform_cube(3)
        table = random_table(rng, sp)
        T = h_tensor(table, sp, 2, (0, 0, 0))
        assert np.all(np.diag(T.array) == 0.0)

    def test_linear_second_difference_vanishes(self):
        sp = uniform_cube(3)
        f = lambda x: float(x[0] + 2.0 * x[1] - x[2])
        T = h_tensor(f, sp, 2, (1, 0, 1))
        assert np.allclose(T.array, 0.0, atol=1e-12)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("space", sorted(FIELD_SPACES))
    def test_field_matches_pointwise(self, space, j):
        rng = np.random.default_rng(4)
        sp = FIELD_SPACES[space]()
        table = random_table(rng, sp)
        field = h_tensor_field(table, sp, j)
        for x in sp.configurations():
            expected = h_tensor_oracle(table, j, x)
            assert np.allclose(field[(Ellipsis,) + x], expected, rtol=0, atol=1e-12)
            assert np.array_equal(h_tensor(table, sp, j, x).array, field[(Ellipsis,) + x])

    def test_order_outside_range_rejected(self):
        sp = uniform_cube(2)
        for j in (0, 3):
            with pytest.raises(ValueError):
                h_tensor_field(np.zeros(sp.shape), sp, j)

    def test_h_field_matches_h_ops(self):
        rng = np.random.default_rng(5)
        sp = uniform_cube(2)
        table = random_table(rng, sp)
        field = h_field(table, sp)
        for x in sp.configurations():
            for i in range(2):
                assert field[(i,) + x] == pytest.approx(h_ops(table, sp, x, i)[0])


class TestDOperator:
    def test_linear_on_cube(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(3)
        sp = uniform_cube(3)
        d = d_operator(lambda x: float(a @ x), sp, (0, 1, 0))
        assert np.allclose(d, np.abs(a))

    def test_constant(self):
        sp = uniform_cube(2)
        assert np.allclose(d_operator(lambda x: 3.0, sp, (0, 0)), 0.0)

    def test_point_mass_conditional(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        sp = FiniteProductSpace([(-1.0, 1.0)] * 2, joint)
        d = d_operator(lambda x: float(x[0]), sp, (0, 0))
        # conditioning on x2 pins x1, so the conditional variance vanishes
        assert d[0] == pytest.approx(0.0)

    def test_field_matches_pointwise(self):
        rng = np.random.default_rng(7)
        for sp in [ising_space(3, [(0, 1, 1.0), (1, 2, -0.5)], beta=0.4), _mixed_space()]:
            table = random_table(rng, sp)
            field = d_field(table, sp)
            for x in sp.configurations():
                expected = conditional_std(table, sp.joint, x)
                assert np.allclose(field[(slice(None),) + x], expected, rtol=1e-12, atol=1e-12)
                assert np.array_equal(d_operator(table, sp, x), field[(slice(None),) + x])

    def test_zero_probability_section_rejected(self):
        # the first coordinate never takes its second value, so the section
        # through x = (1, .) along coordinate 1 carries no probability
        joint = np.array([[0.5, 0.5], [0.0, 0.0]])
        sp = FiniteProductSpace([(-1.0, 1.0)] * 2, joint)
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        for x in [(1, 0), (1, 1)]:
            with pytest.raises(ValueError, match="zero-probability"):
                d_operator(table, sp, x)
        assert np.allclose(d_operator(table, sp, (0, 0)), [0.0, 0.5])


class TestDependenceProfile:
    def test_product_measure(self):
        prof = dependence_profile(uniform_cube(3))
        assert np.allclose(prof.J, 0.0)
        assert prof.beta_tilde == pytest.approx(0.5)
        assert prof.alpha2 == pytest.approx(1.0)

    def test_zero_coupling_ising(self):
        prof = dependence_profile(ising_space(2, [(0, 1, 1.0)], beta=0.0))
        assert np.allclose(prof.J, 0.0, atol=1e-12)

    def test_two_site_ising_coupling(self):
        beta = 0.3
        prof = dependence_profile(ising_space(2, [(0, 1, 1.0)], beta=beta))
        assert prof.J[0, 1] == pytest.approx(np.tanh(beta))
        assert prof.J[1, 0] == pytest.approx(np.tanh(beta))
        assert prof.J[0, 0] == 0.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dependence_profile(uniform_cube(13))


class TestDlsiConstant:
    def test_half_half(self):
        prof = dependence_profile(uniform_cube(1))
        prof = prof.__class__(
            J=prof.J, beta_tilde=0.5, J_opnorm=0.5, alpha1=0.5, alpha2=0.5
        )
        sigma2, at = dlsi_constant(prof)
        assert sigma2 == pytest.approx(4.0)
        assert at == pytest.approx(8.0)

    def test_independent_half(self):
        prof = dependence_profile(uniform_cube(2))
        sigma2, at = dlsi_constant(prof)
        assert sigma2 == pytest.approx(1.0)
        assert at == pytest.approx(2.0)

    def test_dobrushin_violation(self):
        prof = dependence_profile(uniform_cube(1))
        bad = prof.__class__(
            J=prof.J, beta_tilde=0.5, J_opnorm=1.0, alpha1=0.5, alpha2=0.0
        )
        with pytest.raises(ValueError):
            dlsi_constant(bad)


class TestExactOracles:
    def test_sum_pmf_binomial(self):
        sp = uniform_cube(3)
        pmf = exact_distribution(lambda x: float(np.sum(x)), sp)
        assert pmf == pytest.approx(
            {-3.0: 1 / 8, -1.0: 3 / 8, 1.0: 3 / 8, 3.0: 1 / 8}
        )

    def test_second_moment_is_std(self):
        sp = uniform_cube(3)
        assert exact_moment(lambda x: float(np.sum(x)), sp, 2) == pytest.approx(
            np.sqrt(3.0)
        )

    def test_entropy_of_constant(self):
        sp = uniform_cube(2)
        assert phi_entropy(lambda x: 2.0, sp) == pytest.approx(0.0)
        assert phi_entropy(lambda x: 2.0, sp, phi="power", q=2.0) == pytest.approx(0.0)

    def test_entropy_nonnegative(self):
        rng = np.random.default_rng(8)
        sp = uniform_cube(3)
        g = np.abs(random_table(rng, sp)) + 0.1
        assert phi_entropy(g ** 2, sp) >= 0.0


class TestInequalities:
    def test_efron_stein(self):
        rng = np.random.default_rng(9)
        sp = uniform_cube(4)
        for _ in range(20):
            table = random_table(rng, sp)
            mean = float(np.sum(sp.joint * table))
            var = float(np.sum(sp.joint * (table - mean) ** 2))
            total = 0.0
            for i in range(4):
                mx = table.max(axis=i, keepdims=True)
                mn = table.min(axis=i, keepdims=True)
                diff2 = np.broadcast_to((mx - mn) ** 2, sp.shape)
                total += float(np.sum(sp.joint * diff2))
            assert var <= 0.5 * total + 1e-12

    def test_variance_tensorization(self):
        rng = np.random.default_rng(10)
        sp = uniform_cube(4)
        for _ in range(20):
            table = random_table(rng, sp)
            mean = float(np.sum(sp.joint * table))
            var = float(np.sum(sp.joint * (table - mean) ** 2))
            d2 = (d_field(table, sp) ** 2).sum(axis=0)
            assert var <= float(np.sum(sp.joint * d2)) + 1e-12

    def test_hs_recursion(self):
        rng = np.random.default_rng(11)
        sp = uniform_cube(4)
        for _ in range(20):
            table = random_table(rng, sp)
            t2 = h_tensor_field(table, sp, 2)
            hs1 = np.sqrt((h_field(table, sp) ** 2).sum(axis=0))
            # h applied to |h f| versus the order-2 tensor, at every point
            outer = h_field(hs1, sp)
            lhs = np.sqrt((outer ** 2).sum(axis=0))
            rhs = np.sqrt((t2 ** 2).sum(axis=(0, 1)))
            assert np.all(lhs <= rhs + 1e-10)

    def test_cyclic_quadratic_op_recursion_fails(self):
        # the plain (unsigned) operator-norm recursion is violated by the
        # cyclic second-order statistic on the 4-cycle of sign variables,
        # where the second neighbors pair up: at the configuration where
        # both second-neighbor products are -1 the gradient-norm function
        # sits at 0 and every single flip lifts it above the spectral norm
        # of the second-difference matrix (margin 8*sqrt(2) - 8).  Longer
        # cycles, even ones included, satisfy it (6-cycle margin -3.561)
        n = 4
        sp = uniform_cube(n)
        f = lambda x: float(sum(x[i] * x[(i + 1) % n] for i in range(n)))
        table = value_table(f, sp)
        t2 = h_tensor_field(table, sp, 2)
        op1 = np.empty(sp.shape)
        for x in sp.configurations():
            op1[x] = np.linalg.norm(h_tensor(table, sp, 1, x).array)
        violation = 0.0
        for x in sp.configurations():
            lhs = np.linalg.norm(h_tensor(op1, sp, 1, x).array)
            rhs = float(np.linalg.norm(t2[(Ellipsis,) + x], 2))
            violation = max(violation, lhs - rhs)
        assert violation > 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_h_tensor_dominates_absolute_second_difference(seed):
    rng = np.random.default_rng(seed)
    sp = uniform_cube(3)
    table = rng.standard_normal(sp.shape)
    T = h_tensor(table, sp, 2, (0, 0, 0))
    # any specific replacement pair is dominated by the sup
    d01 = abs(table[0, 0, 0] - table[1, 0, 0] - table[0, 1, 0] + table[1, 1, 0])
    assert T.array[0, 1] >= d01 - 1e-12
