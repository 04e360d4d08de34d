"""Exact difference operators and dependence diagnostics on finite spaces.

Functions on a finite product space are given either as a value table
(array indexed by per-coordinate alphabet indices) or as a callable on
label vectors.  All quantities here are computed by exhaustive
enumeration; cost guards refuse sizes beyond exhaustive feasibility
rather than silently sampling.

Reductions use numpy's pairwise summation, so results are deterministic
regardless of how enumeration is blocked.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .tensor import SymTensor

__all__ = [
    "FiniteProductSpace",
    "DependenceProfile",
    "value_table",
    "h_ops",
    "h_field",
    "h_plus_field",
    "h_tensor",
    "h_tensor_field",
    "d_operator",
    "dependence_profile",
    "dlsi_constant",
    "exact_distribution",
    "exact_mean",
    "exact_moment",
    "phi_entropy",
    "ising_space",
    "uniform_cube",
]

_MAX_CONFIGS = 2 ** 22
_PROFILE_MAX_N = 12


@dataclass(frozen=True)
class FiniteProductSpace:
    """Product of finite alphabets with a full joint probability table."""

    alphabets: tuple
    joint: np.ndarray
    is_product: bool

    def __init__(self, alphabets, joint):
        alphabets = tuple(tuple(float(a) for a in alpha) for alpha in alphabets)
        shape = tuple(len(a) for a in alphabets)
        if any(s == 0 for s in shape):
            raise ValueError("empty alphabet")
        joint = np.asarray(joint, dtype=float).reshape(shape)
        if not np.all(np.isfinite(joint)):
            raise ValueError("probabilities must be finite")
        if np.any(joint < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(joint.sum() - 1.0) > 1e-12:
            raise ValueError("joint table must sum to 1")
        if joint.size > _MAX_CONFIGS:
            raise ValueError("configuration space too large")
        object.__setattr__(self, "alphabets", alphabets)
        jj = joint.copy()
        jj.setflags(write=False)
        object.__setattr__(self, "joint", jj)
        object.__setattr__(self, "is_product", _is_product(jj))

    @property
    def n(self):
        return len(self.alphabets)

    @property
    def shape(self):
        return self.joint.shape

    def labels(self, x):
        """Label vector of a configuration given as alphabet indices."""
        return np.array([self.alphabets[i][xi] for i, xi in enumerate(x)])

    def configurations(self):
        return itertools.product(*(range(s) for s in self.shape))

    def to_json(self):
        return json.dumps(
            {
                "alphabets": [list(a) for a in self.alphabets],
                "joint": self.joint.ravel().tolist(),
                "is_product": bool(self.is_product),
            }
        )

    @staticmethod
    def from_json(s):
        obj = json.loads(s) if isinstance(s, str) else s
        return FiniteProductSpace(obj["alphabets"], np.array(obj["joint"]))


def _is_product(joint, tol=1e-12):
    n = joint.ndim
    prod = np.ones_like(joint)
    for i in range(n):
        marg = joint.sum(axis=tuple(k for k in range(n) if k != i))
        shape = [1] * n
        shape[i] = joint.shape[i]
        prod = prod * marg.reshape(shape)
    return bool(np.max(np.abs(prod - joint)) <= tol)


def value_table(f, space):
    """Materialize f as an array over all configurations.

    f may already be such an array (indexed by alphabet indices) or a
    callable receiving the label vector of a configuration.
    """
    if isinstance(f, np.ndarray):
        return np.asarray(f, dtype=float).reshape(space.shape)
    out = np.empty(space.shape)
    for x in space.configurations():
        out[x] = f(space.labels(x))
    return out


@dataclass(frozen=True)
class DependenceProfile:
    """Interdependence diagnostics of a finite product measure.

    J is the minimal valid interdependence matrix (zero diagonal),
    beta_tilde the infimum of conditional atom probabilities over
    sections, J_opnorm its spectral norm; alpha1 = beta_tilde and
    alpha2 = 1 - J_opnorm when that is positive.
    """

    J: np.ndarray
    beta_tilde: float
    J_opnorm: float
    alpha1: float
    alpha2: float


# ---------------------------------------------------------------------------
# difference operators


def _point(x):
    return tuple(int(v) for v in x)


def h_ops(f, space, x, i):
    """(h_i, h+_i, h-_i) of f at configuration x (alphabet indices).

    h_i takes the sup over both the observed and the replacement value of
    coordinate i; h+/h- keep the observed value and sup over the
    replacement only, taking positive/negative parts.  These are the
    values of h_field and h_plus_field (of f and of -f) at x.
    """
    table = value_table(f, space)
    at = (i,) + _point(x)
    return (
        float(h_field(table, space)[at]),
        float(h_plus_field(table, space)[at]),
        float(h_plus_field(-table, space)[at]),
    )


def h_field(f, space):
    """h_i f over all configurations: array of shape (n,) + space.shape."""
    table = value_table(f, space)
    n = space.n
    out = np.empty((n,) + space.shape)
    for i in range(n):
        out[i] = np.broadcast_to(np.ptp(table, axis=i, keepdims=True), space.shape)
    return out


def h_plus_field(f, space):
    """h+_i f over all configurations."""
    table = value_table(f, space)
    n = space.n
    out = np.empty((n,) + space.shape)
    for i in range(n):
        out[i] = table - table.min(axis=i, keepdims=True)
    return out


def h_tensor(f, space, j, x):
    """Order-j iterated-difference tensor h^(j) f at configuration x.

    The value of h_tensor_field at x; entries with repeated indices are
    zero by definition.
    """
    field = h_tensor_field(f, space, j)
    return SymTensor(j, space.n, field[(Ellipsis,) + _point(x)], symmetrize=False)


def h_tensor_field(f, space, j):
    """h^(j) f over all configurations: shape (n,)*j + space.shape.

    Order 1 is h_field.  For j >= 2, entry (i1..ij) is the sup over
    replacement values y of |prod_s (Id - T_{i_s}) f|, the observed values
    staying fixed.  Each sorted index tuple is one inclusion-exclusion sum
    over its 2^j observed/replacement subsets, with the replacements on j
    trailing axes; the result fills every permutation of the tuple, and
    entries with repeated indices are zero.
    """
    n = space.n
    if not 1 <= j <= n:
        raise ValueError("tensor order must lie in 1..n")
    table = value_table(f, space)
    if j == 1:
        return h_field(table, space)
    repl_axes = tuple(range(n, n + j))
    observed = np.expand_dims(table, repl_axes)
    out = np.zeros((n,) * j + space.shape)
    for idx in itertools.combinations(range(n), j):
        total = 0.0
        for mask in range(2 ** j):
            replaced = [s for s in range(j) if mask >> s & 1]
            term = observed
            for s in replaced:
                # coordinate idx[s] now runs over the replacement axis n + s
                term = np.swapaxes(term, idx[s], n + s)
            total = total - term if len(replaced) % 2 else total + term
        sup = np.abs(total).max(axis=repl_axes)
        for perm in itertools.permutations(idx):
            out[perm] = sup
    return out


def d_operator(f, space, x):
    """Conditional standard deviations d_i f at configuration x.

    The value of d_field at x; raises if x lies in a section of
    probability zero, where the conditional law is undefined.
    """
    x = _point(x)
    for i in range(space.n):
        if space.joint.sum(axis=i)[x[:i] + x[i + 1:]] <= 0:
            raise ValueError("conditioning on a zero-probability section")
    return d_field(f, space)[(slice(None),) + x]


def d_field(f, space):
    """d_i f over all configurations: shape (n,) + space.shape."""
    table = value_table(f, space)
    joint = space.joint
    n = space.n
    out = np.zeros((n,) + space.shape)
    for i in range(n):
        tot = joint.sum(axis=i, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(tot > 0, joint / np.where(tot > 0, tot, 1.0), 0.0)
        mean = (w * table).sum(axis=i, keepdims=True)
        var = (w * (table - mean) ** 2).sum(axis=i, keepdims=True)
        out[i] = np.broadcast_to(np.sqrt(np.maximum(var, 0.0)), space.shape)
    return out


# ---------------------------------------------------------------------------
# dependence diagnostics


def _interdependence_matrix(space):
    joint = space.joint
    n = space.n
    J = np.zeros((n, n))
    for i in range(n):
        marg = joint.sum(axis=i, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(marg > 0, joint / np.where(marg > 0, marg, 1.0), 0.0)
        supported = np.broadcast_to(marg > 0, joint.shape)
        # compare conditionals across sections differing only in coordinate jx
        for jx in range(n):
            if jx == i:
                continue
            c = np.moveaxis(cond, jx, 0)
            ms = np.moveaxis(supported, jx, 0)
            # after the move, coordinate i sits at axis i+1 if i < jx else i
            ax_i = i + 1 if i < jx else i
            best = 0.0
            for b in range(c.shape[0]):
                for bp in range(b + 1, c.shape[0]):
                    tv = 0.5 * np.abs(c[b] - c[bp]).sum(axis=ax_i - 1)
                    both = (ms[b] & ms[bp]).all(axis=ax_i - 1)
                    if np.any(both):
                        best = max(best, float(tv[both].max()))
            J[i, jx] = best
    return J


def _beta_tilde(space):
    joint = space.joint
    n = space.n
    best = np.inf
    for r in range(n):
        for S in itertools.combinations(range(n), r):
            rest = [k for k in range(n) if k not in S]
            for i in rest:
                keep = tuple(sorted(S + (i,)))
                drop = tuple(k for k in range(n) if k not in keep)
                tab = joint.sum(axis=drop) if drop else joint
                # axes of tab follow sorted(keep); locate i among them
                ai = keep.index(i)
                marg_S = tab.sum(axis=ai, keepdims=True)
                with np.errstate(invalid="ignore", divide="ignore"):
                    cond = np.where(
                        marg_S > 0, tab / np.where(marg_S > 0, marg_S, 1.0), np.inf
                    )
                vals = cond[(tab > 0)]
                if vals.size:
                    best = min(best, float(vals.min()))
    return best


def dependence_profile(space):
    """Minimal interdependence matrix J, beta-tilde, and Dobrushin data."""
    if space.n > _PROFILE_MAX_N:
        raise ValueError("dependence profile guarded to n <= 12")
    J = _interdependence_matrix(space)
    beta = _beta_tilde(space)
    jop = float(np.linalg.norm(J, 2))
    alpha2 = 1.0 - jop
    return DependenceProfile(J=J, beta_tilde=beta, J_opnorm=jop, alpha1=beta, alpha2=alpha2)


def dlsi_constant(profile):
    """(sigma^2, AT constant) from a dependence profile.

    sigma^2 = log(1/alpha1) / (2 log 2 * alpha1 * alpha2^2); the
    approximate-tensorization constant is 1/(alpha1 * alpha2^2).
    Requires the Dobrushin condition |J|_op < 1.
    """
    if profile.J_opnorm >= 1.0:
        raise ValueError("Dobrushin condition violated: |J|_op >= 1")
    a1, a2 = profile.alpha1, profile.alpha2
    if not (0.0 < a1 <= 1.0) or not (0.0 < a2 <= 1.0):
        raise ValueError("alpha parameters must lie in (0, 1]")
    at_const = 1.0 / (a1 * a2 ** 2)
    sigma2 = np.log(1.0 / a1) / (2.0 * np.log(2.0) * a1 * a2 ** 2)
    return float(sigma2), float(at_const)


# ---------------------------------------------------------------------------
# exhaustive oracles


def exact_distribution(f, space, decimals=12):
    """pmf of f-values under the joint measure (values rounded for grouping)."""
    table = value_table(f, space)
    vals = np.round(table.ravel(), decimals)
    probs = space.joint.ravel()
    pmf = {}
    for v, p in zip(vals, probs):
        if p > 0:
            pmf[float(v)] = pmf.get(float(v), 0.0) + float(p)
    return dict(sorted(pmf.items()))


def exact_mean(f, space):
    table = value_table(f, space)
    return float(np.sum(space.joint * table))


def exact_moment(f, space, r):
    """Centered L^r norm ||f - Ef||_r by enumeration."""
    table = value_table(f, space)
    mean = float(np.sum(space.joint * table))
    return float(np.sum(space.joint * np.abs(table - mean) ** r) ** (1.0 / r))


def phi_entropy(g, space, phi="log", q=None):
    """Phi-entropy E[Phi(g)] - Phi(E[g]); phi='log' means Phi(u)=u log u.

    The log branch uses the convention 0 log 0 = 0 and requires g >= 0.
    phi='power' uses Phi(u) = u^q.
    """
    table = value_table(g, space)
    w = space.joint
    mean = float(np.sum(w * table))
    if phi == "log":
        if np.any(table < 0):
            raise ValueError("log-entropy needs a nonnegative function")
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(table > 0, table * np.log(table), 0.0)
        e_phi = float(np.sum(w * plogp))
        phi_mean = mean * np.log(mean) if mean > 0 else 0.0
        return e_phi - phi_mean
    if phi == "power":
        if q is None:
            raise ValueError("power entropy needs q")
        return float(np.sum(w * np.abs(table) ** q) - abs(mean) ** q)
    raise ValueError("phi must be 'log' or 'power'")


# ---------------------------------------------------------------------------
# builders


def uniform_cube(n):
    """Uniform measure on {-1, +1}^n."""
    joint = np.full((2,) * n, 1.0 / 2 ** n)
    return FiniteProductSpace([(-1.0, 1.0)] * n, joint)


def ising_space(n, edges, fields=None, beta=1.0):
    """Ising measure on {-1,+1}^n: mu(x) ~ exp(beta (sum J_ij x_i x_j + sum h_i x_i)).

    edges is a list of (i, j, coupling); fields defaults to zero.
    """
    if fields is None:
        fields = np.zeros(n)
    fields = np.asarray(fields, dtype=float)
    labels = np.array([-1.0, 1.0])
    energy = np.zeros((2,) * n)
    for i, j, coup in edges:
        xi = labels.reshape([2 if k == i else 1 for k in range(n)])
        xj = labels.reshape([2 if k == j else 1 for k in range(n)])
        energy = energy + coup * xi * xj
    for i in range(n):
        xi = labels.reshape([2 if k == i else 1 for k in range(n)])
        energy = energy + fields[i] * xi
    w = np.exp(beta * energy)
    return FiniteProductSpace([(-1.0, 1.0)] * n, w / w.sum())

