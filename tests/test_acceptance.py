"""Acceptance suite: one test per acceptance criterion.

Each test prints a single pass/fail line and asserts the criterion at its
stated tolerance.  Criteria with a stated runtime budget also assert the
elapsed time.
"""

import math
import time

import numpy as np

from conclab.bounds import (
    KAPPA,
    LevelCoefficients,
    const_C,
    const_c,
    exp_moment_certificate,
    hw_bound,
    paper_constant_table,
    setting_catalog,
)
from conclab.calculus import (
    Euclidean,
    Grassmann,
    LpSphere,
    PolyFunction,
    Sphere,
    Stiefel,
    intrinsic_gradient,
)
from conclab.discrete import (
    dependence_profile,
    dlsi_constant,
    h_field,
    h_plus_field,
    h_tensor_field,
    ising_space,
    uniform_cube,
    value_table,
)
from conclab.samplers import (
    sample_cone_lp,
    sample_gaussian,
    sample_grassmann,
    sample_pgen,
    sample_sphere,
    sample_stiefel,
)
from conclab.tensor import SymTensor, hs_norm, op_norm, op_norm_oracle
from conclab.verify import (
    discrete_level_coefficients,
    finite_difference_suite,
    verify_dlsi,
    verify_exp_moment,
    verify_moment_recursion,
    verify_tail,
)
from oracles import h_tensor_oracle

LOG2 = math.log(2.0)


def _report(num, ok, detail):
    ok = bool(ok)
    line = "acceptance criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_constant_cross_checks():
    val = const_C(2.0, 2.0, math.sqrt(8.0 * KAPPA))
    in_window = 1.0 / 217.0 < val < 1.0 / 216.0
    c_ref = (math.sqrt(2.0) - 1.0) ** 2 / (8.0 * math.e)
    C_ref = LOG2 / (2.0 * math.e ** 2)
    c_ok = abs(const_c(2.0, 2.0, 2.0, 1.0) - c_ref) <= 1e-15 * c_ref
    C_ok = abs(const_C(2.0, 2.0, 1.0) - C_ref) <= 1e-15 * C_ref
    rows = {r["tag"]: r for r in paper_constant_table()}
    flagged = {tag for tag, r in rows.items() if r["agrees"] is False}
    flags_ok = (
        flagged == {"poincare", "lsq"}
        and rows["poincare"]["mismatch"] == "c"
        and rows["lsq"]["mismatch"] == "c+C"
    )
    _report(
        1,
        in_window and c_ok and C_ok and flags_ok,
        "bounded-difference constant %.6f in (1/217, 1/216); quadratic-entropy "
        "constants match to 1e-15; flagged rows %s" % (val, sorted(flagged)),
    )


def test_criterion_02_gaussian_linear_tail():
    t0 = time.time()
    n = 20
    rng = np.random.default_rng(2)
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    batch = sample_gaussian(n, 100000, seed=202)
    s = setting_catalog("gaussian", d=1)
    report = verify_tail(
        batch,
        lambda x: float(a @ x),
        s,
        LevelCoefficients([1.0]),
        np.arange(0.0, 5.01, 0.25),
        0.01,
    )
    elapsed = time.time() - t0
    _report(
        2,
        report.passed and elapsed < 10.0,
        "verify_tail passed=%s on 21-point grid in %.1fs" % (report.passed, elapsed),
    )


def test_criterion_03_gaussian_quadratic_tail():
    t0 = time.time()
    n = 30
    rng = np.random.default_rng(3)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    z = sample_gaussian(n, 100000, seed=303).data
    vals = np.einsum("ij,ij->i", z @ A, z) - np.trace(A)
    s = setting_catalog("gaussian", d=2)
    hs = 2.0 * float(np.linalg.norm(A))
    op = 2.0 * float(np.linalg.norm(A, 2))
    grid = np.linspace(0.0, 8.0 * hs, 40)
    violations = 0
    for t in grid:
        emp = float(np.mean(np.abs(vals) >= t))
        if emp > hw_bound(s, hs, op, float(t)):
            violations += 1
    elapsed = time.time() - t0
    _report(
        3,
        violations == 0 and elapsed < 30.0,
        "%d grid violations against the quadratic-form bound in %.1fs"
        % (violations, elapsed),
    )


def test_criterion_04_exhaustive_quadratic_bounds():
    t0 = time.time()
    n = 12
    rng = np.random.default_rng(4)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 0.0)
    sp = uniform_cube(n)
    f = lambda x: float(x @ A @ x)
    K = discrete_level_coefficients(f, sp, 2)
    s = setting_catalog("independent_bounded", d=2)
    grid = np.linspace(0.0, 3.0 * K.K[0], 100)
    tail_report = verify_tail(sp, f, s, K, grid, 0.01)
    moment_report = verify_moment_recursion(sp, f, s, K, list(range(2, 17)))
    elapsed = time.time() - t0
    _report(
        4,
        tail_report.passed and moment_report.passed and elapsed < 60.0,
        "exact tail passed=%s, moment growth passed=%s in %.1fs"
        % (tail_report.passed, moment_report.passed, elapsed),
    )


def _cyclic_margins(n):
    """Recursion margins of f(x) = sum_i x_i x_{i+1} on the n-cycle.

    Returns the largest |h|hf|| - |h^(2)f|_op, the largest
    |h+|hf|| - |h^(2)f|_op over {-1,1}^n, and the largest deviation of the
    right-hand side taken from h_tensor_field from the one taken from the
    per-point from-the-definition oracle.
    """
    sp = uniform_cube(n)
    table = value_table(
        lambda x: float(sum(x[i] * x[(i + 1) % n] for i in range(n))), sp
    )
    t2 = h_tensor_field(table, sp, 2)
    g = np.sqrt((h_field(table, sp) ** 2).sum(axis=0))
    lhs = np.sqrt((h_field(g, sp) ** 2).sum(axis=0))
    lhs_plus = np.sqrt((h_plus_field(g, sp) ** 2).sum(axis=0))
    unsigned = one_sided = -np.inf
    field_dev = 0.0
    for x in sp.configurations():
        rhs = float(np.linalg.norm(t2[(Ellipsis,) + x], 2))
        rhs_oracle = float(np.linalg.norm(h_tensor_oracle(table, 2, x), 2))
        field_dev = max(field_dev, abs(rhs - rhs_oracle))
        unsigned = max(unsigned, lhs[x] - rhs)
        one_sided = max(one_sided, lhs_plus[x] - rhs)
    return unsigned, one_sided, field_dev


def test_criterion_05_difference_recursions():
    rng = np.random.default_rng(5)
    n = 5
    sp = uniform_cube(n)
    op_violations = 0
    hs_violations = 0
    for _ in range(100):
        table = rng.standard_normal(sp.shape)
        t2 = h_tensor_field(table, sp, 2)
        g = np.sqrt((h_field(table, sp) ** 2).sum(axis=0))
        lhs_plus = np.sqrt((h_plus_field(g, sp) ** 2).sum(axis=0))
        rhs_op = np.empty(sp.shape)
        for x in sp.configurations():
            rhs_op[x] = np.linalg.norm(t2[(Ellipsis,) + x], 2)
        if np.any(lhs_plus > rhs_op + 1e-10):
            op_violations += 1
        lhs_hs = np.sqrt((h_field(g, sp) ** 2).sum(axis=0))
        rhs_hs = np.sqrt((t2 ** 2).sum(axis=(0, 1)))
        if np.any(lhs_hs > rhs_hs + 1e-10):
            hs_violations += 1
    # cyclic second-order statistic: h^(2)_ik f = 4 on cyclic neighbours, so
    # |h^(2)f|_op = 8, and |hf| = 2 sqrt(2n + 2 S2) with S2 the sum over
    # second neighbours.  On the 4-cycle S2 = 2(x0 x2 + x1 x3): at S2 = -4
    # |hf| = 0 and every flip lifts it to 4 sqrt(2), so the unsigned
    # recursion breaks by 8 sqrt(2) - 8 while the one-sided one is tight.
    # On the 5-cycle S2 is in {5, 1, -3} and the margin is 4 - 4 sqrt(3).
    m4_ref = 8.0 * math.sqrt(2.0) - 8.0
    m5_ref = 4.0 - 4.0 * math.sqrt(3.0)
    m4, m4_plus, dev4 = _cyclic_margins(4)
    m5, m5_plus, dev5 = _cyclic_margins(5)
    field_dev = max(dev4, dev5)
    _report(
        5,
        op_violations == 0
        and hs_violations == 0
        and m4 > 1e-6
        and abs(m4 - m4_ref) <= 1e-9
        and m4_plus <= 1e-10
        and abs(m5 - m5_ref) <= 1e-9
        and field_dev <= 1e-12,
        "one-sided recursion violations=%d, quadratic-mean recursion "
        "violations=%d, cyclic 4-variable unsigned margin=%.6f (needs "
        "8*sqrt(2)-8=%.6f), one-sided margin=%.2e (needs <= 1e-10), cyclic "
        "5-variable unsigned margin=%.6f (needs 4-4*sqrt(3)=%.6f, one-sided "
        "%.3f), field vs per-point oracle deviation=%.1e"
        % (op_violations, hs_violations, m4, m4_ref, m4_plus, m5, m5_ref,
           m5_plus, field_dev),
    )


def test_criterion_06_sampler_invariants():
    t0 = time.time()
    n, k, count = 8, 3, 10000
    st_dev = 0.0
    for row in sample_stiefel(n, k, count, seed=606).data:
        a = row.reshape(n, k)
        st_dev = max(st_dev, float(np.max(np.abs(a.T @ a - np.eye(k)))))
    gr_dev = 0.0
    for row in sample_grassmann(n, k, count, seed=607).data:
        p = row.reshape(n, n)
        gr_dev = max(gr_dev, float(np.max(np.abs(p @ p - p))))
        gr_dev = max(gr_dev, abs(float(np.trace(p)) - k))
    th = sample_sphere(n, 10 ** 6, seed=608).data
    sphere_m2 = n * float((th[:, 0] ** 2).mean())
    pgen_ok = True
    for p_exp in (2.0, 3.0, 4.0):
        z = sample_pgen(p_exp, 1, 10 ** 6, seed=609 + int(p_exp)).data.ravel()
        m = np.abs(z) ** p_exp
        se = float(m.std(ddof=1)) / math.sqrt(m.size)
        if abs(float(m.mean()) - 1.0) > 3.0 * se:
            pgen_ok = False
    elapsed = time.time() - t0
    ok = (
        st_dev <= 1e-10
        and gr_dev <= 1e-10
        and abs(sphere_m2 - 1.0) <= 0.01
        and pgen_ok
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        "orthonormality dev %.1e, projection dev %.1e, sphere moment %.4f, "
        "p-generalized moments within 3 s.e.=%s in %.1fs"
        % (st_dev, gr_dev, sphere_m2, pgen_ok, elapsed),
    )


def _random_poly(rng, nvars, n_terms=6, max_deg=3):
    monomials = {}
    for _ in range(n_terms):
        e = rng.integers(0, 2, size=nvars)
        while e.sum() > max_deg:
            e = rng.integers(0, 2, size=nvars)
        monomials[tuple(int(v) for v in e)] = float(rng.standard_normal())
    return PolyFunction(nvars, monomials)


def test_criterion_07_intrinsic_calculus():
    rng = np.random.default_rng(7)
    grad_err = 0.0
    hess_err = 0.0
    contraction_ok = True
    for trial in range(10):
        cases = [
            (Sphere(4), sample_sphere(4, 3, seed=700 + trial).data),
            (Euclidean(4), rng.standard_normal((3, 4))),
            (LpSphere(4, 3.0), sample_cone_lp(3.0, 4, 3, seed=710 + trial).data),
            (Stiefel(4, 2), sample_stiefel(4, 2, 3, seed=720 + trial).data),
            (Grassmann(4, 2), sample_grassmann(4, 2, 3, seed=730 + trial).data),
        ]
        for m, pts in cases:
            f = _random_poly(rng, m.ambient_dim)
            if isinstance(m, Sphere):
                hess_err = max(hess_err, finite_difference_suite(f, m, pts, hessian=True))
            else:
                grad_err = max(grad_err, finite_difference_suite(f, m, pts, hessian=False))
            for pt in pts:
                g_int = np.asarray(intrinsic_gradient(m, f, pt))
                g_amb = np.asarray(f.gradient(np.asarray(pt, dtype=float).ravel()))
                if np.linalg.norm(g_int) > np.linalg.norm(g_amb) + 1e-10:
                    contraction_ok = False
    _report(
        7,
        grad_err <= 1e-5 and hess_err <= 1e-4 and contraction_ok,
        "gradient error %.1e (<=1e-5), spherical Hessian error %.1e (<=1e-4), "
        "gradient contraction holds=%s" % (grad_err, hess_err, contraction_ok),
    )


def test_criterion_08_tensor_norms():
    rng = np.random.default_rng(8)
    worst_rel = 0.0
    for k in range(20):
        j = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        q = (1.0, 1.5, 2.0)[k % 3]
        T = SymTensor(j, n, rng.standard_normal((n,) * j))
        approx = op_norm(T, q=q).value
        exact = op_norm_oracle(T, q=q)
        worst_rel = max(worst_rel, abs(approx - exact) / max(1e-12, abs(exact)))
    dominance_violations = 0
    for _ in range(1000):
        j = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        T = SymTensor(j, n, rng.standard_normal((n,) * j))
        if op_norm(T, q=2.0, restarts=5).value > hs_norm(T) + 1e-10:
            dominance_violations += 1
    _report(
        8,
        worst_rel <= 1e-3 and dominance_violations == 0,
        "alternating vs grid oracle relative gap %.1e (<=1e-3), "
        "op<=hs violations %d/1000" % (worst_rel, dominance_violations),
    )


def test_criterion_09_discrete_lsi_search():
    t0 = time.time()
    best, ok = verify_dlsi(uniform_cube(1), 1.0, search_budget=6, seed=9)
    two_point_ok = ok and abs(best - 1.0) <= 1e-3
    rng = np.random.default_rng(99)
    violations = 0
    checked = 0
    while checked < 20:
        edges = [
            (0, 1, float(rng.uniform(-1.0, 1.0))),
            (1, 2, float(rng.uniform(-1.0, 1.0))),
            (0, 2, float(rng.uniform(-1.0, 1.0))),
        ]
        fields = rng.uniform(-0.5, 0.5, size=3)
        beta = float(rng.uniform(0.05, 0.5))
        sp = ising_space(3, edges, fields=fields, beta=beta)
        profile = dependence_profile(sp)
        if not profile.J_opnorm < 1.0:
            continue
        sigma2, _ = dlsi_constant(profile)
        _, system_ok = verify_dlsi(sp, sigma2, search_budget=2, seed=checked)
        if not system_ok:
            violations += 1
        checked += 1
    elapsed = time.time() - t0
    _report(
        9,
        two_point_ok and violations == 0 and elapsed < 120.0,
        "two-point ratio %.6f (1 +- 1e-3), %d/20 spin systems above the "
        "entropy-constant formula in %.1fs" % (best, violations, elapsed),
    )


def test_criterion_10_exp_moment_certificate():
    t0 = time.time()
    n = 10
    rng = np.random.default_rng(10)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 0.0)
    sp = uniform_cube(n)
    raw = lambda x: float(x @ A @ x)
    K_raw = discrete_level_coefficients(raw, sp, 2)
    scale = 1.0 / max(K_raw.K)
    f = lambda x: scale * float(x @ A @ x)
    K = discrete_level_coefficients(f, sp, 2)
    s = setting_catalog("independent_bounded", d=2)
    cert = exp_moment_certificate(s, K)
    value, ok = verify_exp_moment(sp, f, cert)
    elapsed = time.time() - t0
    _report(
        10,
        ok and value <= 2.0 and elapsed < 10.0,
        "exact exponential moment %.6f (<=2) in %.1fs" % (value, elapsed),
    )
