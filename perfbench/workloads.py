"""The three benchmark workloads: inputs built from a seed, the timed job
bodies, and the untimed checks that feed ``pass_frac``.

Each workload is a fixed cycle of job kinds.  About two thirds of the jobs
are of a light kind and one third of a heavy kind, so the median job time
reads the light kind and the tail (10 jobs beyond) reads the heavy kind.

Job bodies look every library function up on its module at call time, so
the tracer's wrappers (installed on the modules) see the calls.
"""

from __future__ import annotations

import itertools

import numpy as np

from conclab import bounds, calculus, discrete, samplers, verify
from harness import Job

POOL_CYCLES = 64

# mc_geometric: manifold jobs are sampler time, chaos jobs are calculus time
MANIFOLD_N, MANIFOLD_K, MANIFOLD_ROWS = 8, 3, 10_000
CHAOS_DIM, CHAOS_ROWS = 10, 800
MC_R = (2.0, 4.0, 6.0, 8.0)

# exhaustive_cube: order-2 jobs are value-table enumeration and difference
# fields, order-3 jobs are per-configuration tensor.op_norm
CUBE_N, TERNARY_N, CUBIC_N = 10, 6, 4
EXACT_R = tuple(float(r) for r in range(2, 17))

# spin_dlsi: profile jobs are dependence_profile, search jobs verify_dlsi
# mostly 10 spins, so the median reads 10-spin profiles, well below the search
# jobs that the tail reads
PROFILE_SIZES = (10, 9, 10, 10, 11, 10)
SEARCH_BUDGET, SEARCH_SWEEPS = 2, 15

REL_TOL = 1e-9
INVARIANT_TOL = 1e-10
OPNORM_TOL = 1e-6


def _rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# references computed by the benchmark itself


def label_grid(space):
    """Label vectors of every configuration, in value-table (C) order."""
    return np.array(list(itertools.product(*space.alphabets)), dtype=float)


def exact_tail_and_moments(values, probs, grid, r_values=()):
    """Tail masses P(|v - Ev| >= t) and centred L^r norms by plain numpy."""
    dev = np.abs(values - probs @ values)
    tails = [float(probs[dev >= t - 1e-12].sum()) for t in grid]
    moments = [float((probs @ dev ** r) ** (1.0 / r)) for r in r_values]
    return tails, moments


def spectral_gap_reference(space):
    """sup over non-constant h of Var(h) / E sum_i Var_i(h).

    Var_i is the variance in coordinate i given the others, under the
    joint measure.  This is the limit of verify_dlsi's entropy ratio at
    constant functions, so it lower-bounds the discrete log-Sobolev
    constant (Diaconis and Saloff-Coste, 1996).  Needs a positive joint.
    """
    mu = space.joint.ravel()
    index = np.arange(mu.size).reshape(space.shape)
    form = np.zeros((mu.size, mu.size))
    for i in range(space.n):
        for section in np.moveaxis(index, i, -1).reshape(-1, space.shape[i]):
            m = mu[section]
            form[np.ix_(section, section)] += np.diag(m) - np.outer(m, m) / m.sum()
    s = 1.0 / np.sqrt(mu)
    gap = np.linalg.eigvalsh(s[:, None] * form * s[None, :])[1]
    return float(1.0 / gap)


def nonnegative_op_norm(T, rng, probes=4096, polish=4):
    """l2 operator norm of an entrywise nonnegative symmetric 3-tensor.

    The maximum of T(u, u, u) over unit u is reached on the nonnegative
    orthant; scan it with random probes, then run the shifted symmetric
    power iteration (monotone ascent) from the best few.
    """
    n = T.shape[0]
    U = np.abs(rng.standard_normal((probes, n)))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    vals = np.einsum("ijk,ni,nj,nk->n", T, U, U, U)
    best = float(vals.max())
    shift = float(np.sqrt((T ** 2).sum()))
    for u in U[np.argsort(vals)[-polish:]]:
        for _ in range(5000):
            g = np.einsum("ijk,j,k->i", T, u, u) + shift * u
            v = g / np.linalg.norm(g)
            if np.abs(v - u).max() < 1e-14:
                break
            u = v
        best = max(best, float(np.einsum("ijk,i,j,k->", T, u, u, u)))
    return best


def interdependence(joint):
    """Dobrushin interdependence matrix of a positive joint table.

    J[i, j] is the largest total-variation distance between the laws of
    x_i given the other coordinates, over pairs of them that differ only
    in coordinate j.
    """
    n = joint.ndim
    J = np.zeros((n, n))
    for i in range(n):
        cond = joint / joint.sum(axis=i, keepdims=True)
        for j in range(n):
            if j != i:
                c = np.moveaxis(cond, (j, i), (0, 1))
                J[i, j] = 0.5 * np.abs(c[:, None] - c[None, :]).sum(axis=2).max()
    return J


def min_conditional(joint):
    """Smallest single-site conditional probability of a positive joint."""
    return float(min((joint / joint.sum(axis=i, keepdims=True)).min() for i in range(joint.ndim)))


# ---------------------------------------------------------------------------
# mc_geometric


def _manifold_job(kind, rng):
    n, k = MANIFOLD_N, MANIFOLD_K
    dim = n * k if kind == "stiefel" else n * n
    w = rng.standard_normal(dim)
    seed = int(rng.integers(2 ** 31))
    setting = bounds.setting_catalog(kind, d=1, n=n, k=k)
    K = bounds.LevelCoefficients([float(np.linalg.norm(w))])
    grid = [float(np.linalg.norm(w)) * t for t in np.linspace(0.1, 1.2, 12)]

    def stat(x):
        return float(w @ x)

    def run():
        sample = samplers.sample_stiefel if kind == "stiefel" else samplers.sample_grassmann
        batch = sample(n, k, MANIFOLD_ROWS, seed)
        tail = verify.verify_tail(batch, stat, setting, K, grid)
        moments = verify.verify_moment_recursion(batch, stat, setting, K, MC_R)
        return batch.data, tail, moments

    def check(out):
        data, tail, moments = out
        failures = []
        if kind == "stiefel":
            A = data.reshape(-1, n, k)
            dev = np.abs(np.einsum("rik,ril->rkl", A, A) - np.eye(k)).max()
        else:
            P = data.reshape(-1, n, n)
            dev = max(
                np.abs(P @ P - P).max(),
                np.abs(np.trace(P, axis1=1, axis2=2) - k).max(),
            )
        if not dev <= INVARIANT_TOL:
            failures.append(f"{kind} invariant deviation {dev:.3e}")
        if data.shape[0] != MANIFOLD_ROWS or tail.n_samples != MANIFOLD_ROWS:
            failures.append("wrong sample count")
        if not (tail.passed and moments.passed):
            failures.append("Monte Carlo verdict failed")
        return failures, {}

    return run, check


def _chaos_job(rng):
    n = CHAOS_DIM
    G = rng.standard_normal((n, n))
    A = (G + G.T) / 2.0
    seed = int(rng.integers(2 ** 31))
    f = calculus.PolyFunction.quadratic_form(A)
    setting = bounds.setting_catalog("gaussian", d=2)
    scale = float(np.sqrt(2.0) * np.linalg.norm(A))
    grid = [scale * t for t in np.linspace(0.5, 6.0, 12)]

    def run():
        batch = samplers.sample_gaussian(n, CHAOS_ROWS, seed)
        K = verify.polynomial_level_coefficients(f, batch, 2)
        tail = verify.verify_tail(batch, f, setting, K, grid)
        moments = verify.verify_moment_recursion(batch, f, setting, K, MC_R)
        return batch.data, K, tail, moments

    def check(out):
        data, K, tail, moments = out
        norms = np.linalg.norm(data @ (2.0 * A), axis=1)
        k1 = norms.mean() + 3.0 * norms.std(ddof=1) / np.sqrt(norms.size)
        k2 = 2.0 * np.abs(np.linalg.eigvalsh(A)).max()
        failures = []
        if not (_rel_close(K.K[0], k1) and _rel_close(K.K[1], k2)):
            failures.append(f"level coefficients {K.K} != closed form ({k1}, {k2})")
        if not (tail.passed and moments.passed):
            failures.append("Monte Carlo verdict failed")
        return failures, {}

    return run, check


# ---------------------------------------------------------------------------
# exhaustive_cube


def _quadratic(rng, n):
    return np.triu(rng.standard_normal((n, n)), 1), rng.standard_normal(n)


def _exhaustive_checks(report_tail, grid, table, probs, moments=None, r_values=()):
    tails, exact_m = exact_tail_and_moments(table, probs, grid, r_values)
    failures = []
    if any(abs(a - b) > 1e-12 for a, b in zip(report_tail.empirical_tail, tails)):
        failures.append("exhaustive tail masses differ from the numpy enumeration")
    if moments is not None and not all(
        _rel_close(a, b) for a, b in zip(moments.moments, exact_m)
    ):
        failures.append("exact moments differ from the numpy enumeration")
    if not report_tail.passed or (moments is not None and not moments.passed):
        failures.append("exhaustive verdict failed")
    return failures


def _order2_job(space, labels, rng):
    B, a = _quadratic(rng, space.n)
    setting = bounds.setting_catalog("independent_bounded", d=2)
    table = np.einsum("ci,ij,cj->c", labels, B, labels) + labels @ a
    probs = space.joint.ravel()
    sd = float(np.sqrt(probs @ (table - probs @ table) ** 2))
    grid = [sd * t for t in np.linspace(0.25, 3.0, 12)]

    def stat(x):
        return float(x @ B @ x + a @ x)

    def run():
        K = verify.discrete_level_coefficients(stat, space, 2)
        tail = verify.verify_tail(space, stat, setting, K, grid)
        moments = verify.verify_moment_recursion(space, stat, setting, K, EXACT_R)
        # rescale so the exp-moment certificate's normalisation holds
        c = max(K.K[0] / setting.sigma, K.K[1])
        cert = bounds.exp_moment_certificate(
            setting, bounds.LevelCoefficients([k / c for k in K.K])
        )
        value, ok = verify.verify_exp_moment(space, lambda x: stat(x) / c, cert)
        return tail, moments, c, cert, value, ok

    def check(out):
        tail, moments, c, cert, value, ok = out
        failures = _exhaustive_checks(tail, grid, table, probs, moments, EXACT_R)
        exponent, coefficient, normalized = cert
        dev = np.abs(table - probs @ table) / c
        exact = float(probs @ np.exp(coefficient * dev ** exponent))
        if not _rel_close(value, exact):
            failures.append(f"exp moment {value} != numpy enumeration {exact}")
        if not (normalized and ok):
            failures.append("exp-moment certificate failed")
        return failures, {}

    return run, check


def _order3_job(space, labels, rng):
    n = space.n
    triples = np.array(list(itertools.combinations(range(n), 3)))
    coef = rng.standard_normal(len(triples))
    B, a = _quadratic(rng, n)
    setting = bounds.setting_catalog("independent_bounded", d=3)
    cubic = np.prod(labels[:, triples], axis=2) @ coef
    table = cubic + np.einsum("ci,ij,cj->c", labels, B, labels) + labels @ a
    probs = space.joint.ravel()
    sd = float(np.sqrt(probs @ (table - probs @ table) ** 2))
    grid = [sd * t for t in np.linspace(0.25, 3.0, 12)]
    # On {-1, 1}^n the third iterated difference of this statistic is the
    # constant tensor 8 |c_ijk| (zero on repeated indices).
    T = np.zeros((n, n, n))
    for (i, j, k), c in zip(triples, coef):
        for p in itertools.permutations((i, j, k)):
            T[p] = 8.0 * abs(c)
    ref_seed = int(rng.integers(2 ** 31))

    def stat(x):
        return float(np.prod(x[triples], axis=1) @ coef + x @ B @ x + a @ x)

    def run():
        K = verify.discrete_level_coefficients(stat, space, 3)
        tail = verify.verify_tail(space, stat, setting, K, grid)
        return K, tail

    def check(out):
        K, tail = out
        failures = _exhaustive_checks(tail, grid, table, probs)
        ref = nonnegative_op_norm(T, np.random.default_rng(ref_seed))
        if K.K[2] < ref * (1.0 - OPNORM_TOL):
            failures.append(f"op_norm level {K.K[2]} below reference {ref}")
        if K.K[2] > ref * (1.0 + OPNORM_TOL):
            failures.append(f"op_norm level {K.K[2]} above the exact norm {ref}")
        return failures, {}

    return run, check


# ---------------------------------------------------------------------------
# spin_dlsi


def _profile_job(labels, rng):
    n = labels.shape[1]
    edges = [(i, (i + 1) % n, float(rng.uniform(-0.2, 0.2))) for i in range(n)]
    for _ in range(n // 3):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges.append((i, j, float(rng.uniform(-0.1, 0.1))))
    space = discrete.ising_space(n, edges, fields=rng.uniform(-0.3, 0.3, n))
    w = rng.standard_normal(n)
    K = bounds.LevelCoefficients([2.0 * float(np.linalg.norm(w))])
    table = labels @ w
    probs = space.joint.ravel()
    sd = float(np.sqrt(probs @ (table - probs @ table) ** 2))
    grid = [sd * t for t in np.linspace(0.25, 3.0, 12)]

    def stat(x):
        return float(w @ x)

    def run():
        profile = discrete.dependence_profile(space)
        sigma2, _ = discrete.dlsi_constant(profile)
        setting = bounds.setting_catalog("dlsi", d=1, sigma2=sigma2)
        tail = verify.verify_tail(space, stat, setting, K, grid)
        return profile, tail

    def check(out):
        profile, tail = out
        failures = _exhaustive_checks(tail, grid, table, probs)
        J = interdependence(space.joint)
        if np.abs(profile.J - J).max() > 1e-12:
            failures.append("interdependence matrix differs from the numpy reference")
        if not _rel_close(profile.beta_tilde, min_conditional(space.joint)):
            failures.append("beta-tilde differs from the smallest site conditional")
        return failures, {}

    return run, check


def _search_job(index, rng):
    # criterion 9's 3-spin systems; Dobrushin's condition is enforced here
    # with the benchmark's own interdependence matrix
    while True:
        edges = [(0, 1, float(rng.uniform(-1.0, 1.0))),
                 (1, 2, float(rng.uniform(-1.0, 1.0))),
                 (0, 2, float(rng.uniform(-1.0, 1.0)))]
        space = discrete.ising_space(
            3, edges, fields=rng.uniform(-0.5, 0.5, size=3), beta=float(rng.uniform(0.05, 0.5))
        )
        if np.linalg.norm(interdependence(space.joint), 2) < 0.95:
            break

    def run():
        profile = discrete.dependence_profile(space)
        sigma2, _ = discrete.dlsi_constant(profile)
        best, ok = verify.verify_dlsi(
            space, sigma2, search_budget=SEARCH_BUDGET, seed=index, sweeps=SEARCH_SWEEPS
        )
        return sigma2, best, ok

    def check(out):
        sigma2, best, ok = out
        failures = []
        if ok != bool(best <= sigma2 * (1.0 + 1e-6) + 1e-12):
            failures.append(f"DLSI verdict {ok} disagrees with ratio {best} vs {sigma2}")
        if not ok:
            failures.append(f"DLSI search ratio {best} above the formula {sigma2}")
        ref = spectral_gap_reference(space)
        if ref > sigma2 * (1.0 + 1e-9):
            failures.append(f"spectral-gap reference {ref} above the formula {sigma2}")
        return failures, {"dlsi_ratio_rel": best / ref}

    return run, check


# ---------------------------------------------------------------------------
# pools


CYCLES = {
    "mc_geometric": ("stiefel", "chaos", "grassmann"),
    "exhaustive_cube": ("cube_order2", "cube_order3", "ternary_order2"),
    "spin_dlsi": ("profile", "search", "profile"),
}


def build_pool(workload, seed):
    """(jobs, warm-up jobs, cycle length) for a workload and seed.

    Job i draws its inputs from its own stream (seed, i), so the same seed
    gives the same inputs and the pool is a fixed prefix of one sequence.
    """
    cycle = CYCLES[workload]
    spaces = {}
    if workload == "exhaustive_cube":
        ternary = discrete.FiniteProductSpace(
            [(-1.0, 0.0, 1.0)] * TERNARY_N, np.full((3,) * TERNARY_N, 3.0 ** -TERNARY_N)
        )
        for name, space in (
            ("cube_order2", discrete.uniform_cube(CUBE_N)),
            ("ternary_order2", ternary),
            ("cube_order3", discrete.uniform_cube(CUBIC_N)),
        ):
            spaces[name] = (space, label_grid(space))
    size = POOL_CYCLES * len(cycle)
    jobs = []
    profiles = 0
    for i in range(size + len(cycle)):
        kind = cycle[i % len(cycle)]
        rng = np.random.default_rng([seed, i])
        if kind in ("stiefel", "grassmann"):
            run, check = _manifold_job(kind, rng)
        elif kind == "chaos":
            run, check = _chaos_job(rng)
        elif kind in ("cube_order2", "ternary_order2"):
            run, check = _order2_job(*spaces[kind], rng)
        elif kind == "cube_order3":
            run, check = _order3_job(*spaces[kind], rng)
        elif kind == "profile":
            n = PROFILE_SIZES[profiles % len(PROFILE_SIZES)]
            if n not in spaces:
                spaces[n] = label_grid(discrete.uniform_cube(n))
            run, check = _profile_job(spaces[n], rng)
            profiles += 1
        else:
            run, check = _search_job(i, rng)
        jobs.append(Job(kind, run, check))
    return jobs[:size], jobs[size:], len(cycle)

