"""Seeded samplers: determinism, invariants, and moment checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conclab import samplers
from conclab.discrete import FiniteProductSpace, uniform_cube
from conclab.samplers import (
    SampleBatch,
    sample_cone_lp,
    sample_finite,
    sample_gaussian,
    sample_grassmann,
    sample_pgen,
    sample_sphere,
    sample_stiefel,
)
from oracles import sample_grassmann_oracle, sample_stiefel_oracle

N_MC = 20000


class TestGaussian:
    def test_moments(self):
        z = sample_gaussian(5, N_MC, seed=0).data
        assert np.all(np.abs(z.mean(axis=0)) < 4.0 / np.sqrt(N_MC))
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 4.0 * np.sqrt(2.0 / N_MC))

    def test_seed_determinism(self):
        a = sample_gaussian(3, 1000, seed=42).data
        b = sample_gaussian(3, 1000, seed=42).data
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_gaussian(3, 100, seed=0).data
        b = sample_gaussian(3, 100, seed=1).data
        assert not np.array_equal(a, b)

    def test_chunk_boundaries_invisible(self):
        # a longer run must extend a shorter one sample-for-sample
        a = sample_gaussian(2, 5000, seed=7).data
        b = sample_gaussian(2, 9000, seed=7).data
        assert np.array_equal(a, b[:5000])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian(0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_gaussian(3, 0, seed=0)


class TestPgen:
    def test_p2_is_standard_normal_variance(self):
        z = sample_pgen(2.0, 2, N_MC, seed=1).data
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 5.0 * np.sqrt(2.0 / N_MC))

    def test_pth_moment_is_one(self):
        for p in (2.0, 3.0, 4.0):
            z = sample_pgen(p, 1, N_MC, seed=2).data.ravel()
            m = np.abs(z) ** p
            se = m.std(ddof=1) / np.sqrt(m.size)
            assert abs(m.mean() - 1.0) <= 3.0 * se

    def test_sign_symmetry(self):
        z = sample_pgen(4.0, 1, N_MC, seed=3).data.ravel()
        se = z.std(ddof=1) / np.sqrt(z.size)
        assert abs(z.mean()) <= 4.0 * se

    def test_p_guard(self):
        with pytest.raises(ValueError):
            sample_pgen(1.5, 2, 10, seed=0)


class TestSphereAndCone:
    def test_unit_norms(self):
        th = sample_sphere(6, 5000, seed=4).data
        assert np.max(np.abs(np.linalg.norm(th, axis=1) - 1.0)) < 1e-12

    def test_coordinate_second_moment(self):
        n = 8
        th = sample_sphere(n, N_MC, seed=5).data
        assert n * (th[:, 0] ** 2).mean() == pytest.approx(1.0, abs=0.05)

    def test_first_moment_zero(self):
        th = sample_sphere(4, N_MC, seed=6).data
        assert abs(th[:, 0].mean()) < 4.0 / np.sqrt(N_MC)

    def test_direction_radius_independence(self):
        z = sample_gaussian(5, N_MC, seed=7).data
        r = np.linalg.norm(z, axis=1)
        th1 = z[:, 0] / r
        corr = np.corrcoef(r, th1)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(N_MC)

    def test_cone_unit_lp_norms(self):
        p = 3.0
        th = sample_cone_lp(p, 5, 5000, seed=8).data
        lp = np.sum(np.abs(th) ** p, axis=1) ** (1.0 / p)
        assert np.max(np.abs(lp - 1.0)) < 1e-12

    def test_cone_p2_matches_sphere_marginal(self):
        # at p = 2 the cone measure is the uniform sphere measure; compare
        # first-coordinate second moments of independent draws
        n = 6
        a = sample_cone_lp(2.0, n, N_MC, seed=9).data[:, 0] ** 2
        b = sample_sphere(n, N_MC, seed=10).data[:, 0] ** 2
        se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) <= 4.0 * se


class TestStiefelGrassmann:
    def test_stiefel_orthonormality(self):
        n, k = 6, 2
        batch = sample_stiefel(n, k, 500, seed=11)
        for row in batch.data:
            A = row.reshape(n, k)
            assert np.max(np.abs(A.T @ A - np.eye(k))) < 1e-10

    def test_grassmann_projection_invariants(self):
        n, k = 5, 2
        batch = sample_grassmann(n, k, 500, seed=12)
        for row in batch.data:
            P = row.reshape(n, n)
            assert np.max(np.abs(P - P.T)) < 1e-10
            assert np.max(np.abs(P @ P - P)) < 1e-10
            assert abs(np.trace(P) - k) < 1e-10

    def test_grassmann_rank_one_diagonal_mean(self):
        n = 5
        batch = sample_grassmann(n, 1, N_MC, seed=13)
        p11 = batch.data[:, 0]
        se = p11.std(ddof=1) / np.sqrt(p11.size)
        assert abs(p11.mean() - 1.0 / n) <= 4.0 * se

    def test_k_range_guard(self):
        with pytest.raises(ValueError):
            sample_stiefel(3, 3, 10, seed=0)
        with pytest.raises(ValueError):
            sample_grassmann(3, 0, 10, seed=0)


class TestFinite:
    def test_uniform_cube_frequencies(self):
        # rows are label vectors in {-1, +1}^2, not alphabet indices
        space = uniform_cube(2)
        data = sample_finite(space, N_MC, seed=14).data
        assert set(np.unique(data)) == {-1.0, 1.0}
        for a in (-1.0, 1.0):
            for b in (-1.0, 1.0):
                freq = np.mean((data[:, 0] == a) & (data[:, 1] == b))
                assert freq == pytest.approx(0.25, abs=0.02)

    def test_point_mass(self):
        # all mass on indices (1, 0): labels (1, -2) of the two alphabets
        joint = np.zeros((2, 2))
        joint[1, 0] = 1.0
        space = FiniteProductSpace([(-1.0, 1.0), (-2.0, 2.0)], joint)
        batch = sample_finite(space, 100, seed=15)
        assert np.all(batch.data == [1.0, -2.0])

    def test_product_bernoulli_means(self):
        p = 0.3
        marg = np.array([1.0 - p, p])
        space = FiniteProductSpace([(0.0, 1.0)] * 2, np.outer(marg, marg))
        batch = sample_finite(space, N_MC, seed=16)
        means = batch.data.mean(axis=0)
        assert np.all(np.abs(means - p) < 0.02)

    def test_determinism(self):
        space = uniform_cube(3)
        a = sample_finite(space, 1000, seed=17).data
        b = sample_finite(space, 1000, seed=17).data
        assert np.array_equal(a, b)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        batch = sample_gaussian(4, 100, seed=18)
        path = tmp_path / "batch.bin"
        batch.to_binary(path)
        back = SampleBatch.read_binary(path)
        assert np.array_equal(back, batch.data)

    def test_binary_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            SampleBatch.read_binary(path)

    def test_csv_roundtrip(self, tmp_path):
        batch = sample_gaussian(3, 50, seed=19)
        path = tmp_path / "batch.csv"
        batch.to_csv(path)
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, batch.data, rtol=1e-15)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.integers(1, 5), st.integers(1, 200))
def test_seed_determinism_property(seed, n, count):
    a = sample_gaussian(n, count, seed).data
    b = sample_gaussian(n, count, seed).data
    assert np.array_equal(a, b)


class TestStackedParity:
    """The stacked samplers equal the row-by-row oracles bit for bit."""

    CASES = [(5, 1, 300, 0), (4, 2, 1, 1), (6, 3, 5000, 2), (8, 3, 9000, 3), (4, 3, 4097, 4)]

    @pytest.mark.parametrize("n,k,count,seed", CASES)
    def test_stiefel_equals_oracle(self, n, k, count, seed):
        assert np.array_equal(sample_stiefel(n, k, count, seed).data,
                              sample_stiefel_oracle(n, k, count, seed))

    @pytest.mark.parametrize("n,k,count,seed", CASES)
    def test_grassmann_equals_oracle(self, n, k, count, seed):
        assert np.array_equal(sample_grassmann(n, k, count, seed).data,
                              sample_grassmann_oracle(n, k, count, seed))

    @staticmethod
    def failing(block, error, fail_calls):
        """block, except that the calls numbered in fail_calls raise error."""
        calls = []

        def wrapped(g):
            calls.append(g.shape[0])
            if len(calls) in fail_calls:
                raise error("forced singular Gram matrix")
            return block(g)

        return wrapped, calls

    # count 5000 is chunk 0 (4096 rows) and chunk 1 (904 rows).  Call 1 is
    # chunk 0's block; when it fails, calls 2..4097 are its rows, so call 5
    # is row 3, whose retry takes one more (1, n, k) call.
    @pytest.mark.parametrize("fail_calls,fail_rows,row_calls", [
        ({1}, (), 4096),
        ({2}, (), 904),
        ({1, 5}, (3,), 4097),
    ])
    @pytest.mark.parametrize("name", ["stiefel", "grassmann"])
    def test_singular_chunk_fallback(self, monkeypatch, name, fail_calls, fail_rows, row_calls):
        n, k, count, seed = 5, 2, 5000, 9
        error = FloatingPointError if name == "stiefel" else np.linalg.LinAlgError
        block = getattr(samplers, f"_{name}_block")
        wrapped, calls = self.failing(block, error, fail_calls)
        monkeypatch.setattr(samplers, f"_{name}_block", wrapped)
        data = getattr(samplers, f"sample_{name}")(n, k, count, seed).data
        oracle = sample_stiefel_oracle if name == "stiefel" else sample_grassmann_oracle
        assert np.array_equal(data, oracle(n, k, count, seed, fail_rows))
        assert calls.count(1) == row_calls

    def test_forced_row_failure_moves_the_draws(self):
        # the retry the fallback reproduces changes the output, so the
        # fallback test above would notice a fallback that skipped it
        assert not np.array_equal(sample_stiefel_oracle(5, 2, 50, 9, fail_rows=(3,)),
                                  sample_stiefel_oracle(5, 2, 50, 9))
