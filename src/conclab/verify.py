"""Empirical and exhaustive verification of concentration bounds.

Monte Carlo mode compares Clopper-Pearson-adjusted empirical tails against
theoretical curves (the confidence budget delta is Bonferroni-split over
grid points); exhaustive mode enumerates finite spaces and tolerates zero
slack.  Also provides a numeric search lower-bounding discrete log-Sobolev
constants and finite-difference validation of the intrinsic calculus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.optimize import minimize_scalar

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
    "finite_difference_suite",
    "discrete_level_coefficients",
    "polynomial_level_coefficients",
]


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

    def to_json(self):
        return json.dumps(
            {
                "schema_version": "1",
                "mode": self.mode,
                "n_samples": self.n_samples,
                "delta": self.delta,
                "passed": self.passed,
                "grid": list(self.grid),
                "empirical_tail": list(self.empirical_tail),
                "empirical_upper_confidence": list(self.empirical_upper_confidence),
                "theoretical": list(self.theoretical),
                "verdicts": list(self.verdicts),
            },
            indent=2,
        )

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
    1 - delta; with zero exceedances it reduces to 1 - delta^{1/N}.
    """
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
        ucb = float(stats.beta.ppf(1.0 - delta, k + 1, n - k))
    return frac, ucb


def _deviations(source, f):
    """(|f - Ef|, weights, exact) over a finite space or a sample batch.

    A FiniteProductSpace gives every configuration weighted by the joint
    table, with the exact mean (exact=True); a SampleBatch gives every row
    weighted by 1/N, centred at the sample mean (exact=False).
    """
    exact = isinstance(source, dc.FiniteProductSpace)
    if exact:
        values = dc.value_table(f, source).ravel()
        weights = source.joint.ravel()
    else:
        values = np.array([float(f(row)) for row in source.data])
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
    # normalize E g^2 = 1 (the ratio is scale invariant) and compute the
    # entropy through phi(u) = (1+u) log1p(u) - u with u = g^2 - 1, which
    # is nonnegative and free of the cancellation that otherwise dominates
    # near constant functions
    w = space.joint
    ms = float(np.sum(w * g ** 2))
    if ms <= 1e-300:
        return 0.0
    u = g ** 2 / ms - 1.0
    den2 = float(np.sum(w * (dc.d_field(g, space) ** 2).sum(axis=0)))
    if den2 <= 1e-300:
        return 0.0
    if np.max(np.abs(u)) < 1e-6:
        # essentially constant g: the ratio's exact limit along this
        # direction is the variance/Dirichlet-form quotient, which is
        # stable, while the entropy quotient drowns in roundoff
        mean = float(np.sum(w * g))
        var = float(np.sum(w * (g - mean) ** 2))
        return var / den2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(u > -1.0, (1.0 + u) * np.log1p(np.maximum(u, -1.0)) - u, 1.0)
    num = float(np.sum(w * phi))
    return num * ms / (2.0 * den2)


def verify_dlsi(space, sigma2_claimed, search_budget=5, seed=0, sweeps=60):
    """Lower-bound the optimal discrete LSI constant by coordinate ascent.

    Maximizes Ent(g^2) / (2 int |d g|^2 dmu) over function tables g from
    search_budget random restarts.  The search only lower-bounds the
    supremum, so the check is one-sided: pass iff the best ratio found is
    <= sigma2_claimed.
    """
    if search_budget < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    shape = space.shape
    best = 0.0
    for restart in range(search_budget):
        if restart == 0:
            # near-constant probe: the entropy/energy ratio extends
            # continuously to the constant function, where it recovers the
            # spectral-gap-type value; pure ascent approaches this limit slowly
            g = 1.0 + 1e-4 * rng.standard_normal(shape)
        else:
            g = rng.standard_normal(shape)
        cur = _dlsi_ratio(g, space)
        for _ in range(sweeps):
            improved = False
            for idx in np.ndindex(*shape):
                def ratio_at(v, idx=idx):
                    g[idx] = v
                    return -_dlsi_ratio(g, space)

                v0 = g[idx]
                res = minimize_scalar(
                    ratio_at, bracket=(v0 - 1.0, v0 + 1.0), method="brent",
                    options={"xtol": 1e-10},
                )
                if -res.fun > cur + 1e-14:
                    g[idx] = res.x
                    cur = -res.fun
                    improved = True
                else:
                    g[idx] = v0
            # renormalize to keep the table well scaled (ratio is invariant)
            scale = np.max(np.abs(g))
            if scale > 0:
                g /= scale
            if not improved:
                break
        best = max(best, cur)
    # allow optimizer-level float noise in the one-sided comparison
    return best, bool(best <= sigma2_claimed * (1.0 + 1e-6) + 1e-12)


def _tangent_basis_vector(m, point, rng):
    """Random unit tangent vector/matrix at the point."""
    amb = rng.standard_normal(np.asarray(point, dtype=float).shape)
    u = m.tangent_project(point, amb)
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:
        return None
    return u / nrm


def _curve(m, point, u, t):
    """In-manifold curve through point with initial velocity u."""
    point = np.asarray(point, dtype=float)
    if isinstance(m, cal.Sphere):
        return np.cos(t) * point + np.sin(t) * u
    if isinstance(m, cal.Euclidean):
        return point + t * u
    if isinstance(m, cal.LpSphere):
        x = point + t * u
        return x / np.sum(np.abs(x) ** m.p) ** (1.0 / m.p)
    if isinstance(m, cal.Stiefel):
        x = point.reshape(m.n, m.k) + t * u.reshape(m.n, m.k)
        s = x.T @ x
        w, v = np.linalg.eigh(s)
        return x @ ((v * (1.0 / np.sqrt(w))) @ v.T)
    if isinstance(m, cal.Grassmann):
        x = point.reshape(m.n, m.n) + t * u.reshape(m.n, m.n)
        x = (x + x.T) / 2.0
        w, v = np.linalg.eigh(x)
        top = v[:, -m.k:]
        return top @ top.T
    raise TypeError("unsupported manifold")


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
            f.eval(_curve(m, point, u, h).ravel())
            - f.eval(_curve(m, point, u, -h).ravel())
        ) / (2.0 * h)
        ana = float(np.sum(np.asarray(grad) * u))
        max_err = max(max_err, abs(ana - fd) / max(1.0, abs(ana), abs(fd)))
        if hessian and isinstance(m, cal.Sphere):
            H = cal.sphere_hessian(f, point).array
            fd2 = (
                f.eval(_curve(m, point, u, h))
                - 2.0 * f.eval(point)
                + f.eval(_curve(m, point, u, -h))
            ) / h ** 2
            ana2 = float(u @ H @ u)
            max_err = max(max_err, abs(ana2 - fd2) / max(1.0, abs(ana2), abs(fd2)))
    return max_err


# ---------------------------------------------------------------------------
# level-coefficient helpers


def _level_norm(T):
    """|T|_op of a level tensor: Euclidean norm at order 1, spectral at 2."""
    if T.order == 1:
        return float(np.linalg.norm(T.array))
    if T.order == 2:
        return float(np.linalg.norm(T.array, 2))
    return tn.op_norm(T, 2.0).value


def _field_op_norms(field, j, n, base_shape):
    """Operator norm of the order-j tensor at every configuration."""
    flat = field.reshape((n,) * j + (-1,))
    norms = [
        _level_norm(tn.SymTensor(j, n, flat[(Ellipsis, i)], symmetrize=False))
        for i in range(flat.shape[-1])
    ]
    return np.array(norms).reshape(base_shape)


def discrete_level_coefficients(f, space, d):
    """Exact K_j = ||  |h^(j) f|_op ||_1 (j < d) and K_d = || . ||_inf."""
    K = []
    probs = space.joint
    table = dc.value_table(f, space)
    for j in range(1, d + 1):
        field = dc.h_tensor_field(table, space, j)
        norms = _field_op_norms(field, j, space.n, space.shape)
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
    K = []
    data = batch.data
    for j in range(1, d):
        vals = np.array([_level_norm(cal.derivative_tensor(f, j, x)) for x in data])
        est = float(vals.mean())
        if inflate:
            est += 3.0 * float(vals.std(ddof=1)) / np.sqrt(vals.size)
        K.append(est)
    if f.degree > d:
        raise ValueError("top level is only exact for polynomials of degree <= d")
    K.append(_level_norm(cal.derivative_tensor(f, d, np.zeros(f.nvars))))
    return bd.LevelCoefficients(K)
