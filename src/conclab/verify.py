"""Empirical and exhaustive verification of concentration bounds.

Monte Carlo mode compares Clopper-Pearson-adjusted empirical tails against
theoretical curves (the confidence budget delta is Bonferroni-split over
grid points); exhaustive mode enumerates finite spaces and tolerates zero
slack.  Also lower-bounds discrete log-Sobolev constants (an exact Poincare
floor, then a gradient search) and validates the intrinsic calculus by
finite differences.

Only two paths need scipy, and each imports it where it is called: the
Monte Carlo upper confidence bound (empirical_tail, scipy.special) and the
DLSI floor and search (scipy.sparse, scipy.optimize).  Importing conclab
loads numpy alone (about 0.2 s against 1.4 s with scipy.stats on a 2-vCPU
machine), and exhaustive checks never load scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import calculus as cal
from . import discrete as dc
from . import tensor as tn

__all__ = [
    "VerificationReport",
    "MomentReport",
    "empirical_tail",
    "verify_tail",
    "verify_moment_recursion",
    "verify_exp_moment",
    "verify_dlsi",
    "poincare_ratio",
    "finite_difference_suite",
    "discrete_level_coefficients",
    "polynomial_level_coefficients",
]

# 1/lambda_2 counts as resolved where eigh's error on lambda_2 is at most
# this fraction of it, the tolerance of verify_dlsi's verdict
_GAP_RTOL = 1e-6

# phi(u) / u^2 = sum_{k >= 2} (-1)^k u^(k-2) / (k (k-1)), highest power
# first; on |u| < 0.05 the dropped terms are below 1e-17 relative, where
# the closed form loses up to eps / |u| to cancellation
_PHI_SERIES_RADIUS = 0.05
_PHI_SERIES = [(-1.0) ** k / (k * (k - 1)) for k in range(13, 1, -1)]


@dataclass(frozen=True)
class VerificationReport:
    """Grid-wise comparison of empirical tails against a theoretical curve."""

    grid: tuple
    empirical_tail: tuple
    empirical_upper_confidence: tuple
    theoretical: tuple
    verdicts: tuple
    passed: bool
    n_samples: int
    delta: float
    mode: str

    def to_dict(self):
        """The report's fields in JSON order, without a schema version."""
        return {
            "mode": self.mode,
            "n_samples": self.n_samples,
            "delta": self.delta,
            "passed": self.passed,
            "grid": list(self.grid),
            "empirical_tail": list(self.empirical_tail),
            "empirical_upper_confidence": list(self.empirical_upper_confidence),
            "theoretical": list(self.theoretical),
            "verdicts": list(self.verdicts),
        }

    def to_json(self):
        return json.dumps({"schema_version": "1", **self.to_dict()}, indent=2)

    def to_csv(self):
        lines = ["t,empirical,ucb,bound,pass"]
        for t, e, u, b, v in zip(
            self.grid,
            self.empirical_tail,
            self.empirical_upper_confidence,
            self.theoretical,
            self.verdicts,
        ):
            lines.append(f"{t!r},{e!r},{u!r},{b!r},{str(bool(v)).lower()}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MomentReport:
    """Per-r comparison of (estimated) centered moments against the bound."""

    r_values: tuple
    moments: tuple
    bounds: tuple
    verdicts: tuple
    passed: bool
    mode: str


def empirical_tail(values, t, delta):
    """(fraction, exact upper confidence bound) for P(|value| >= t).

    The upper bound is the Clopper-Pearson exact binomial bound at level
    1 - delta, the (1 - delta)-quantile of Beta(k + 1, N - k); with zero
    exceedances it reduces to 1 - delta^{1/N}.
    """
    from scipy.special import betaincinv
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample values must be finite")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    n = values.size
    k = int(np.sum(np.abs(values) >= t))
    frac = k / n
    if k == n:
        ucb = 1.0
    else:
        ucb = float(betaincinv(k + 1, n - k, 1.0 - delta))
    return frac, ucb


def _deviations(source, f):
    """(|f - Ef|, weights, exact) over a finite space or a sample batch.

    A FiniteProductSpace gives every configuration weighted by the joint
    table, with the exact mean (exact=True); a SampleBatch gives every row
    weighted by 1/N, centred at the sample mean (exact=False).  Both
    evaluate f through discrete._evaluate.
    """
    exact = isinstance(source, dc.FiniteProductSpace)
    if exact:
        values = dc.value_table(f, source).ravel()
        weights = source.joint.ravel()
    else:
        values = dc._evaluate(f, source.data)
        if values.size == 0:
            raise ValueError("empty sample")
        weights = np.full(values.size, 1.0 / values.size)
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite")
    mean = float(np.sum(weights * values))
    return np.abs(values - mean), weights, exact


def verify_tail(source, f, s, K, grid, delta=0.01):
    """Compare the true/empirical tail of f - Ef against tail_bound.

    source is a FiniteProductSpace (exhaustive mode: exact tail masses,
    compared with zero slack; delta is ignored) or a SampleBatch (Monte
    Carlo mode: Clopper-Pearson upper bounds at level delta split over the
    grid).  Non-finite values of f are refused.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("empty grid")
    theo = [bd.tail_bound(s, K, t) for t in grid]
    dev, weights, exact = _deviations(source, f)
    if exact:
        emp = ucb = [float(weights[dev >= t - 1e-12].sum()) for t in grid]
        slack = 1e-12
    else:
        tails = [empirical_tail(dev, t, delta / len(grid)) for t in grid]
        emp, ucb = [e for e, _ in tails], [u for _, u in tails]
        slack = 0.0
    verdicts = [(u <= b + slack) if b < 1.0 else True for u, b in zip(ucb, theo)]
    return VerificationReport(
        grid=tuple(grid),
        empirical_tail=tuple(emp),
        empirical_upper_confidence=tuple(ucb),
        theoretical=tuple(theo),
        verdicts=tuple(bool(v) for v in verdicts),
        passed=bool(all(verdicts)),
        n_samples=int(dev.size),
        delta=0.0 if exact else float(delta),
        mode="exhaustive" if exact else "montecarlo",
    )


def verify_moment_recursion(source, f, s, K, r_list):
    """Check ||f - Ef||_r against the iterated moment bound for each r.

    Exhaustive mode uses exact moments and zero slack; Monte Carlo mode
    subtracts 3 standard errors from the r-th moment estimate before
    comparing.
    """
    r_list = [float(r) for r in r_list]
    if not r_list:
        raise ValueError("empty list of moment orders")
    bounds_ = [bd.moment_growth_bound(s, K, r) for r in r_list]
    dev, weights, exact = _deviations(source, f)
    moments = []
    verdicts = []
    for r, b in zip(r_list, bounds_):
        powr = dev ** r
        mr = float(np.sum(weights * powr))
        moments.append(mr ** (1.0 / r))
        if exact:
            verdicts.append(moments[-1] <= b + 1e-12)
        else:
            se = float(powr.std(ddof=1)) / np.sqrt(dev.size)
            verdicts.append(max(0.0, mr - 3.0 * se) ** (1.0 / r) <= b)
    return MomentReport(
        r_values=tuple(r_list),
        moments=tuple(moments),
        bounds=tuple(bounds_),
        verdicts=tuple(bool(v) for v in verdicts),
        passed=bool(all(verdicts)),
        mode="exhaustive" if exact else "montecarlo",
    )


def verify_exp_moment(space, f, certificate):
    """Exact exp-moment integral of the certificate; pass iff <= 2.

    Exhaustive only: Monte Carlo estimation of exponential moments has
    unbounded relative variance.
    """
    if not isinstance(space, dc.FiniteProductSpace):
        raise TypeError("exp-moment verification is exhaustive only")
    exponent, coefficient, _ = certificate
    dev, weights, _ = _deviations(space, f)
    value = float(np.sum(weights * np.exp(coefficient * dev ** exponent)))
    return value, bool(value <= 2.0 + 1e-12)


def _dlsi_ratio(g, space):
    """Ent(g^2) / (2 E|dg|^2) of a table g, from d_field.

    E g^2 is normalized to 1 (the ratio is scale invariant) and the entropy
    summed as phi(u) = (1+u) log1p(u) - u >= 0 with u = g^2 - 1.  Near
    constant tables, where the ratio tends to the Poincare floor, keep
    full precision: u is formed from the exact differences g -+ sqrt(E g^2)
    and phi from its Taylor series on |u| < _PHI_SERIES_RADIUS.  Zero
    energy gives inf when the entropy is positive (g varies across parts
    of the support that the Gibbs sampler does not connect), else 0.
    """
    w = space.joint
    ms = float(np.sum(w * g ** 2))
    if ms <= 1e-300:
        return 0.0
    r = np.sqrt(ms)
    u = (g - r) * (g + r) / ms
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(u > -1.0, (1.0 + u) * np.log1p(np.maximum(u, -1.0)) - u, 1.0)
    phi = np.where(np.abs(u) < _PHI_SERIES_RADIUS, u * u * np.polyval(_PHI_SERIES, u), phi)
    num = float(np.sum(w * phi)) * ms
    den2 = float(np.sum(w * (dc.d_field(g, space) ** 2).sum(axis=0)))
    if den2 == 0.0:
        return np.inf if num > 0.0 else 0.0
    return num / (2.0 * den2)


def _dirichlet_form(space):
    """(F, mu, support): CSR F with g' F g = E sum_i Var_i(g) on the support.

    F sums diag(m) - m m' / sum(m) over every section (coordinate i free,
    the others fixed), m the joint weights along it: d_field's conditional
    weights times the section's mass.
    """
    from scipy import sparse
    mu = space.joint.ravel()
    index = np.arange(mu.size).reshape(space.shape)
    rows, cols, vals = [index.ravel()], [index.ravel()], [space.n * mu]
    for i, k in enumerate(space.shape):
        sec = np.moveaxis(index, i, -1).reshape(-1, k)
        m = mu[sec]
        tot = m.sum(axis=1)
        tot[tot == 0.0] = 1.0
        rows.append(np.repeat(sec, k, axis=1).ravel())
        cols.append(np.tile(sec, (1, k)).ravel())
        vals.append((-m[:, :, None] * m[:, None, :] / tot[:, None, None]).ravel())
    support = np.flatnonzero(mu > 0.0)
    F = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mu.size, mu.size),
    )[support][:, support]
    return F, mu[support], support


def _inverse_gap(F, mu, n):
    """(1 / lambda_2, v_2) for F v = lambda diag(mu) v, with E v_2^2 = 1.

    Solved by dense eigh of S = D^-1/2 F D^-1/2, D = diag(mu).  S sums n
    complementary projections, so its spectrum lies in [0, n] and eigh's
    error on lambda_2 is about size * n * eps; where that exceeds
    _GAP_RTOL * lambda_2 (a nearly disconnected sampler) 1/lambda_2 is not
    resolved and nan is returned, with v_2.  inf (and no v_2) when the
    sampler is disconnected on the support, which is a second zero
    eigenvalue; 0 on a one-point support, which has no non-constant g.
    """
    from scipy.sparse.csgraph import connected_components
    if mu.size == 1:
        return 0.0, None
    if connected_components(F, directed=False)[0] > 1:
        return np.inf, None
    s = 1.0 / np.sqrt(mu)
    lam, vecs = np.linalg.eigh(s[:, None] * F.toarray() * s[None, :])
    resolved = _GAP_RTOL * lam[1] > mu.size * n * np.finfo(float).eps
    return (float(1.0 / lam[1]) if resolved else np.nan), s * vecs[:, 1]


def _poincare_floor(space):
    """(F, mu, support, 1 / lambda_2, v_2): the form and its inverse gap."""
    F, mu, support = _dirichlet_form(space)
    return (F, mu, support) + _inverse_gap(F, mu, space.n)


def poincare_ratio(space):
    """sup over non-constant g of Var(g) / E sum_i Var_i(g).

    The inverse spectral gap of the Gibbs sampler's Dirichlet form, inf
    when the sampler is disconnected and nan when the gap is below the
    eigensolver's resolution (see _inverse_gap); elsewhere exact to a
    relative error of at most _GAP_RTOL.  It is the limit of the entropy
    ratio at constants, so it lower-bounds the discrete log-Sobolev
    constant (Diaconis and Saloff-Coste, 1996).
    """
    return _poincare_floor(space)[3]


def _neg_entropy_ratio(g, mu, F):
    """-Ent(g^2) / (2 g'Fg) and its gradient, g on the support.

    grad Ent(g^2) = 2 mu g log(g^2 / E g^2) and grad g'Fg = 2 F g.
    """
    g2 = g * g
    q = float(mu @ g2)
    Fg = F @ g
    energy = float(g @ Fg)
    if q <= 0.0 or energy <= 0.0:
        return 0.0, np.zeros_like(g)
    u = g2 / q - 1.0
    with np.errstate(divide="ignore"):
        log = np.where(g2 > 0.0, np.log1p(u), 0.0)
    ent = q * float(mu @ ((1.0 + u) * log - u))
    grad = mu * g * log / energy - ent * Fg / energy ** 2
    return -ent / (2.0 * energy), -grad


def verify_dlsi(space, sigma2_claimed, search_budget=5, seed=0, sweeps=60, *, _floor=None):
    """Lower-bound the optimal discrete LSI constant; pass iff <= sigma2_claimed.

    The constant is sup Ent(g^2) / (2 int |dg|^2 dmu) over tables g.  The
    Poincare floor (poincare_ratio: the ratio's limit at constants, from
    one dense eigenproblem of the Dirichlet form) comes first.  Then an
    L-BFGS ascent on the ratio with its analytic gradient, started once
    from 1 +- v_2 / 5 (v_2 the floor's eigenvector, the sign with the
    larger ratio) and search_budget - 1 times from seeded Gaussian tables.
    sweeps caps the L-BFGS iterations per start; each end point is
    re-evaluated from d_field.  Returns (max(floor, best ratio found),
    verdict) with a plain float.  A disconnected Gibbs sampler gives inf,
    which fails every claim; where the floor is not resolved (nan) only
    the search counts.  _floor takes a precomputed _poincare_floor(space).
    """
    from scipy.optimize import minimize
    if search_budget < 1:
        raise ValueError("need at least one restart")
    F, mu, support, floor, v2 = _poincare_floor(space) if _floor is None else _floor
    best = 0.0 if np.isnan(floor) else floor
    if v2 is not None:
        rng = np.random.default_rng(seed)
        table = np.ones(space.joint.size)
        for restart in range(search_budget):
            if restart == 0:
                g0 = min((1.0 + 0.2 * v2, 1.0 - 0.2 * v2),
                         key=lambda g: _neg_entropy_ratio(g, mu, F)[0])
            else:
                g0 = rng.standard_normal(mu.size)
            res = minimize(_neg_entropy_ratio, g0, args=(mu, F), jac=True,
                           method="L-BFGS-B", options={"maxiter": sweeps})
            table[support] = res.x
            best = max(best, _dlsi_ratio(table.reshape(space.shape), space))
    best = float(best)
    # allow optimizer-level float noise in the one-sided comparison
    return best, bool(best <= sigma2_claimed * (1.0 + _GAP_RTOL) + 1e-12)


def _tangent_basis_vector(m, point, rng):
    """Random unit tangent vector/matrix at the point."""
    amb = rng.standard_normal(np.asarray(point, dtype=float).shape)
    u = m.tangent_project(point, amb)
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:
        return None
    return u / nrm


def finite_difference_suite(f, m, points, h=1e-4, seed=0, hessian=None):
    """Max relative error of intrinsic derivatives vs central differences.

    Gradients are checked on every manifold via in-manifold curves (great
    circles on the sphere, metric retractions elsewhere); the spherical
    Hessian is additionally checked when hessian=True (default on the
    sphere).  Errors are relative to max(1, |value|).
    """
    if not (0.0 < h <= 1e-2):
        raise ValueError("h must lie in (0, 1e-2]")
    rng = np.random.default_rng(seed)
    if hessian is None:
        hessian = isinstance(m, cal.Sphere)
    max_err = 0.0
    for point in points:
        point = np.asarray(point, dtype=float)
        grad = cal.intrinsic_gradient(m, f, point)
        u = _tangent_basis_vector(m, point, rng)
        if u is None:
            continue
        fd = (
            f.eval(m.retract(point, u, h).ravel())
            - f.eval(m.retract(point, u, -h).ravel())
        ) / (2.0 * h)
        ana = float(np.sum(np.asarray(grad) * u))
        max_err = max(max_err, abs(ana - fd) / max(1.0, abs(ana), abs(fd)))
        if hessian and isinstance(m, cal.Sphere):
            H = cal.sphere_hessian(f, point).array
            fd2 = (
                f.eval(m.retract(point, u, h))
                - 2.0 * f.eval(point)
                + f.eval(m.retract(point, u, -h))
            ) / h ** 2
            ana2 = float(u @ H @ u)
            max_err = max(max_err, abs(ana2 - fd2) / max(1.0, abs(ana2), abs(fd2)))
    return max_err


# ---------------------------------------------------------------------------
# level-coefficient helpers


def _level_norm(stack):
    """|T|_op of each tensor T in a stacked (N, n, ..., n) array: Euclidean
    norm at order 1, spectral norm at order 2, one op_norm_stack call beyond."""
    order = stack.ndim - 1
    if order == 1:
        return np.linalg.norm(stack, axis=-1)
    if order == 2:
        return np.linalg.norm(stack, ord=2, axis=(-2, -1))
    return tn.op_norm_stack(stack, 2.0)[0]


def discrete_level_coefficients(f, space, d):
    """Exact K_j = ||  |h^(j) f|_op ||_1 (j < d) and K_d = || . ||_inf."""
    K = []
    probs = space.joint
    table = dc.value_table(f, space)
    for j in range(1, d + 1):
        field = dc.h_tensor_field(table, space, j).reshape((space.n,) * j + (-1,))
        norms = _level_norm(np.moveaxis(field, -1, 0)).reshape(space.shape)
        if j < d:
            K.append(float(np.sum(probs * norms)))
        else:
            K.append(float(norms.max()))
    return bd.LevelCoefficients(K)


def polynomial_level_coefficients(f, batch, d, inflate=True):
    """Monte Carlo K_j = E |f^(j)|_op (j < d) and exact constant top level.

    Estimates are inflated by 3 standard errors so the subsequent bound
    evaluation cannot pass through underestimated norms.  The top level
    requires f to have degree <= d, making f^(d) constant in x.
    """
    if f.degree > d:
        raise ValueError("top level is only exact for polynomials of degree <= d")
    K = []
    for j in range(1, d):
        vals = _level_norm(cal.derivative_field(f, j, batch.data))
        est = float(vals.mean())
        if inflate:
            est += 3.0 * float(vals.std(ddof=1)) / np.sqrt(vals.size)
        K.append(est)
    K.append(float(_level_norm(cal.derivative_field(f, d, np.zeros((1, f.nvars))))[0]))
    return bd.LevelCoefficients(K)
