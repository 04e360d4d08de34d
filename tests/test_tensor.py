"""Symmetric tensors: Hilbert-Schmidt and operator norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conclab import tensor
from conclab.tensor import (
    SymTensor,
    contract,
    hs_norm,
    op_norm,
    op_norm_oracle,
    op_norm_stack,
)
from oracles import op_norm_oracle_loop


def random_sym_tensor(rng, order, dim):
    return SymTensor(order, dim, rng.standard_normal((dim,) * order))


class TestSymTensor:
    def test_symmetrized_on_construction(self):
        T = SymTensor(2, 2, [[0.0, 2.0], [0.0, 0.0]])
        assert np.allclose(T.array, [[0.0, 1.0], [1.0, 0.0]])

    def test_symmetry_order_three(self):
        rng = np.random.default_rng(0)
        T = random_sym_tensor(rng, 3, 3)
        a = T.array
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.allclose(a, np.transpose(a, perm))

    def test_rejects_bad_order_dim(self):
        with pytest.raises(ValueError):
            SymTensor(0, 2, [1.0, 1.0])
        with pytest.raises(ValueError):
            SymTensor(1, 0, [])

    def test_json_roundtrip(self):
        rng = np.random.default_rng(1)
        T = random_sym_tensor(rng, 3, 2)
        back = SymTensor.from_json(T.to_json())
        assert back.order == T.order and back.dim == T.dim
        # re-symmetrization on load may shuffle float summation order
        assert np.allclose(back.array, T.array, rtol=1e-15, atol=0.0)


class TestHsNorm:
    def test_identity_3x3(self):
        assert hs_norm(SymTensor(2, 3, np.eye(3))) == pytest.approx(np.sqrt(3.0))

    def test_zero_tensor(self):
        assert hs_norm(SymTensor(3, 2, np.zeros((2, 2, 2)))) == 0.0

    def test_2x2_example(self):
        T = SymTensor(2, 2, [[1.0, 2.0], [2.0, 1.0]])
        assert hs_norm(T) == pytest.approx(np.sqrt(10.0))


class TestContract:
    def test_identity_orthogonal_vectors(self):
        T = SymTensor(2, 2, np.eye(2))
        assert contract(T, [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0)

    def test_identity_same_vector(self):
        T = SymTensor(2, 2, np.eye(2))
        assert contract(T, [[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_all_ones_cube(self):
        T = SymTensor(3, 2, np.ones((2, 2, 2)))
        assert contract(T, [[1.0, 1.0]] * 3) == pytest.approx(8.0)

    def test_shape_errors(self):
        T = SymTensor(2, 2, np.eye(2))
        with pytest.raises(ValueError):
            contract(T, [[1.0, 0.0]])
        with pytest.raises(ValueError):
            contract(T, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestOpNorm:
    def test_diag_matrix_spectral(self):
        T = SymTensor(2, 2, np.diag([1.0, -2.0]))
        res = op_norm(T, q=2.0)
        assert res.value == pytest.approx(2.0)
        assert res.converged

    def test_all_ones_cube_q2(self):
        T = SymTensor(3, 2, np.ones((2, 2, 2)))
        res = op_norm(T, q=2.0, restarts=10)
        assert res.value == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-9)

    def test_all_ones_matrix_q1(self):
        T = SymTensor(2, 2, np.ones((2, 2)))
        res = op_norm(T, q=1.0, restarts=10)
        assert res.value == pytest.approx(4.0)

    def test_witnesses_reproduce_value(self):
        rng = np.random.default_rng(2)
        for order, q in [(2, 1.5), (3, 2.0), (3, 1.0)]:
            T = random_sym_tensor(rng, order, 3)
            res = op_norm(T, q=q, restarts=10)
            assert contract(T, res.witnesses) == pytest.approx(res.value, rel=1e-12)

    def test_q_range_enforced(self):
        T = SymTensor(2, 2, np.eye(2))
        with pytest.raises(ValueError):
            op_norm(T, q=3.0)
        with pytest.raises(ValueError):
            op_norm(T, q=0.5)

    def test_lower_bound_soundness(self):
        rng = np.random.default_rng(3)
        T = random_sym_tensor(rng, 3, 3)
        res = op_norm(T, q=2.0, restarts=10)
        for _ in range(50):
            vs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 3))]
            assert contract(T, vs) <= res.value + 1e-9

    def test_nonnegative_entries_allow_nonnegative_witnesses(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            T = SymTensor(3, 3, np.abs(rng.standard_normal((3, 3, 3))))
            res = op_norm(T, q=2.0, restarts=10)
            flipped = [np.abs(v) for v in res.witnesses]
            assert contract(T, flipped) >= res.value - 1e-9

    def test_symmetric_restriction_attains_q2(self):
        # for symmetric tensors the symmetric power iteration reaches the
        # same supremum as the unconstrained alternating search
        rng = np.random.default_rng(5)
        for _ in range(10):
            T = random_sym_tensor(rng, 3, 3)
            res = op_norm(T, q=2.0, restarts=20)
            best_sym = 0.0
            for _ in range(20):
                v = rng.standard_normal(3)
                v /= np.linalg.norm(v)
                for _ in range(200):
                    g = np.tensordot(np.tensordot(T.array, v, axes=1), v, axes=1)
                    nrm = np.linalg.norm(g)
                    if nrm == 0:
                        break
                    v = g / nrm
                cand = abs(contract(T, [v, v, v]))
                best_sym = max(best_sym, cand)
            assert best_sym == pytest.approx(res.value, rel=1e-6)


class TestOpNormStack:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("order, dim", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("count", [1, 16])
    def test_matches_the_per_tensor_loop(self, q, order, dim, count):
        rng = np.random.default_rng([order, count, int(2 * q)])
        tensors = [random_sym_tensor(rng, order, dim) for _ in range(count)]
        value, upper, converged, witnesses = op_norm_stack(
            np.array([T.array for T in tensors]), q)
        for k, T in enumerate(tensors):
            ref = op_norm_oracle_loop(T, q)
            assert value[k] == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            assert upper[k] == pytest.approx(ref.upper, rel=1e-12, abs=0.0)
            assert converged[k] == ref.converged
            assert contract(T, witnesses[k]) == pytest.approx(value[k], rel=1e-12)
        # op_norm is the N = 1 case
        res, ref = op_norm(tensors[0], q), op_norm_oracle_loop(tensors[0], q)
        assert (res.converged, res.restarts_used) == (ref.converged, ref.restarts_used)
        assert res.value == pytest.approx(value[0], rel=1e-14)
        assert res.upper == pytest.approx(upper[0], rel=1e-14)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_bracket_holds_on_random_tensors(self, q):
        rng = np.random.default_rng(int(4 * q))
        for order in range(1, 5):
            for dim in range(2, 5):
                T = random_sym_tensor(rng, order, dim)
                res = op_norm(T, q, restarts=5)
                assert res.value <= res.upper
                if q == 2.0:
                    assert res.upper <= hs_norm(T)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_bracket_is_tight_on_all_ones(self, q):
        # sup of prod <1, v_s> over unit l_p vectors is n^(j (1 - 1/p)),
        # which the unfolding bound times n^(j (1/2 - 1/p)) attains
        p = np.inf if q == 1.0 else q / (q - 1.0)
        for order, dim in [(3, 2), (3, 3), (4, 2)]:
            value, upper, _, _ = op_norm_stack(np.ones((1,) + (dim,) * order), q)
            exact = dim ** (order * (1.0 - 1.0 / p))
            assert value[0] == pytest.approx(exact, rel=1e-9)
            assert upper[0] == pytest.approx(exact, rel=1e-12)

    def test_refuses_ragged_or_non_finite_stacks(self):
        with pytest.raises(ValueError):
            op_norm_stack(np.zeros((2, 3, 2, 3)))
        with pytest.raises(ValueError):
            op_norm_stack(np.zeros(3))
        with pytest.raises(ValueError):
            op_norm_stack(np.full((1, 2, 2, 2), np.nan))

    def test_chunks_match_one_pass(self, monkeypatch):
        rng = np.random.default_rng(9)
        stack = np.array([random_sym_tensor(rng, 3, 3).array for _ in range(5)])
        whole = op_norm_stack(stack, 1.5, restarts=4)
        monkeypatch.setattr(tensor, "_CHUNK_ENTRIES", 2 * 4 * 9)
        chunked = op_norm_stack(stack, 1.5, restarts=4)
        np.testing.assert_array_equal(whole[2], chunked[2])
        for a, b in zip(whole, chunked):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0.0)


class TestOpNormOracle:
    def test_diag_matrix(self):
        T = SymTensor(2, 2, np.diag([1.0, -2.0]))
        assert op_norm_oracle(T, q=2.0, grid_per_angle=720) == pytest.approx(
            2.0, abs=1e-4
        )

    def test_all_ones_cube(self):
        T = SymTensor(3, 2, np.ones((2, 2, 2)))
        assert op_norm_oracle(T, q=2.0) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-3)

    def test_zero_tensor(self):
        T = SymTensor(2, 2, np.zeros((2, 2)))
        assert op_norm_oracle(T, q=2.0) == 0.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            op_norm_oracle(SymTensor(2, 5, np.eye(5)))
        with pytest.raises(ValueError):
            op_norm_oracle(SymTensor(4, 2, np.zeros((2,) * 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3), st.integers(2, 3))
def test_op_le_hs(seed, order, dim):
    rng = np.random.default_rng(seed)
    T = random_sym_tensor(rng, order, dim)
    assert op_norm(T, q=2.0, restarts=5).value <= hs_norm(T) + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10 ** 6),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_positive_homogeneity(seed, a):
    rng = np.random.default_rng(seed)
    T = random_sym_tensor(rng, 3, 2)
    base = op_norm(T, q=2.0, restarts=8, seed=1).value
    scaled = op_norm(T.scale(a), q=2.0, restarts=8, seed=1).value
    assert scaled == pytest.approx(a * base, rel=1e-6, abs=1e-9)
