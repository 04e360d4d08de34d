"""Polynomial test functions and intrinsic first/second-order calculus.

A polynomial is an (m, n) integer exponent matrix plus (m,) coefficients:
eval takes a point or an (N, n) batch, partials are exponent shifts, and
derivative_field stacks exact derivative tensors of any order over a batch.
Manifold descriptors (Euclidean space, unit sphere, l_p sphere, Stiefel,
Grassmann) supply tangent-space projections and retract(point, u, t), a
curve in the manifold through point with velocity u at t = 0; intrinsic
gradients are projected Euclidean gradients.  On the sphere the intrinsic
Hessian and iterated spherical partial derivatives D_{i1..ij} are computed
exactly via the 0-homogeneous extension G(x) = g(x/|x|) of each level
function, which is kept in the same array form.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .tensor import SymTensor

__all__ = [
    "PolyFunction",
    "Euclidean",
    "Sphere",
    "LpSphere",
    "Stiefel",
    "Grassmann",
    "derivative_field",
    "derivative_tensor",
    "tangent_project",
    "intrinsic_gradient",
    "sphere_hessian",
    "spherical_partial",
    "spherical_derivative_tensor",
]

_ONMANIFOLD_TOL = 1e-8


class PolyFunction:
    """Multivariate polynomial in canonical merged-monomial array form.

    exps is an (m, n) integer exponent matrix with distinct rows, in order
    of first appearance, and coefs the matching (m,) coefficient vector;
    zero coefficients are dropped.  monomials is the same data as a dict
    {exponent tuple: coefficient}.
    """

    def __init__(self, nvars, monomials):
        items = list(monomials.items() if isinstance(monomials, dict) else monomials)
        rows = [tuple(int(e) for e in exps) for exps, _ in items]
        if any(len(r) != int(nvars) for r in rows):
            raise ValueError("exponent multi-index length must equal nvars")
        exps = np.array(rows, dtype=np.int64).reshape(len(rows), int(nvars))
        if np.any(exps < 0):
            raise ValueError("exponents must be nonnegative")
        self._merge(nvars, exps, [float(c) for _, c in items])

    @classmethod
    def _from_arrays(cls, nvars, exps, coefs):
        """Unvalidated constructor from an exponent matrix and coefficients."""
        f = cls.__new__(cls)
        f._merge(nvars, exps, coefs)
        return f

    def _merge(self, nvars, exps, coefs):
        exps, first, owner = np.unique(exps, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        coefs = np.bincount(np.argsort(order)[owner.ravel()], weights=coefs, minlength=len(order))
        exps = exps[order]
        self.nvars, self.exps, self.coefs = int(nvars), exps[coefs != 0.0], coefs[coefs != 0.0]

    @property
    def monomials(self):
        return {tuple(int(e) for e in row): float(c) for row, c in zip(self.exps, self.coefs)}

    @property
    def degree(self):
        return int(self.exps.sum(axis=1).max()) if len(self.coefs) else 0

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """f at a point (n,), as a float, or at every row of a batch (N, n).

        Terms are kept as an (m, N) array.  One variable at a time, the
        monomials that contain it multiply their terms by its powers, each
        power computed once per point, so memory stays O(N m).  The terms
        are summed in monomial order from 0.0, as a term-by-term loop does.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.nvars:
            raise ValueError("expected a point (nvars,) or a batch (N, nvars)")
        cols = x.reshape(-1, self.nvars).T
        terms = np.repeat(np.append(0.0, self.coefs)[:, None], cols.shape[1], axis=1)
        for i in np.flatnonzero(self.exps.any(axis=0)):
            e = np.append(0, self.exps[:, i])
            hit = np.flatnonzero(e)
            terms[hit] *= (cols[i] ** np.arange(e.max() + 1)[:, None])[e[hit]]
        values = np.add.accumulate(terms, axis=0)[-1]
        return float(values[0]) if x.ndim == 1 else values

    def partial(self, i):
        """Exact partial derivative with respect to variable i."""
        e = self.exps[:, i]
        keep = e > 0
        exps = self.exps[keep]
        exps[:, i] -= 1
        return PolyFunction._from_arrays(self.nvars, exps, self.coefs[keep] * e[keep])

    def gradient(self, x):
        return np.array([self.partial(i).eval(x) for i in range(self.nvars)])

    def __add__(self, other):
        exps = np.concatenate([self.exps, other.exps])
        return PolyFunction._from_arrays(self.nvars, exps, np.concatenate([self.coefs, other.coefs]))

    def scale(self, a):
        return PolyFunction._from_arrays(self.nvars, self.exps, a * self.coefs)

    def to_json(self):
        return json.dumps(
            {
                "nvars": self.nvars,
                "monomials": [
                    {"exps": list(e), "coef": c} for e, c in sorted(self.monomials.items())
                ],
            }
        )

    @staticmethod
    def from_json(s):
        obj = json.loads(s) if isinstance(s, str) else s
        return PolyFunction(
            obj["nvars"], [(m["exps"], m["coef"]) for m in obj["monomials"]]
        )

    @staticmethod
    def linear(a):
        a = np.asarray(a, dtype=float).ravel()
        return PolyFunction._from_arrays(a.size, np.eye(a.size, dtype=np.int64), a)

    @staticmethod
    def quadratic_form(A):
        """x^T A x for a square matrix A."""
        A = np.asarray(A, dtype=float)
        eye = np.eye(A.shape[0], dtype=np.int64)
        exps = (eye[:, None, :] + eye[None, :, :]).reshape(-1, A.shape[0])
        return PolyFunction._from_arrays(A.shape[0], exps, A.ravel())


def derivative_field(f, j, X):
    """Stacked j-fold partial-derivative tensors of f at the rows of X.

    Returns an (N, n, ..., n) array.  Each distinct sorted index tuple is
    differentiated (by exponent shifts) and evaluated on the whole batch
    once, then written to all of its permutations.
    """
    if j < 1:
        raise ValueError("derivative order must be >= 1")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != f.nvars:
        raise ValueError("expected a batch (N, nvars)")
    n = f.nvars
    cache = {(): f}

    def diff(idx):
        if idx not in cache:
            cache[idx] = diff(idx[:-1]).partial(idx[-1])
        return cache[idx]

    out = np.empty((len(X),) + (n,) * j)
    for idx in itertools.combinations_with_replacement(range(n), j):
        values = diff(idx).eval(X)
        for perm in set(itertools.permutations(idx)):
            out[(slice(None),) + perm] = values
    return out


def derivative_tensor(f, j, x):
    """Exact j-fold partial-derivative tensor of f at x, as a SymTensor."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (f.nvars,):
        raise ValueError("point length must equal nvars")
    return SymTensor(j, f.nvars, derivative_field(f, j, x[None, :])[0], symmetrize=False)


# ---------------------------------------------------------------------------
# manifold descriptors


@dataclass(frozen=True)
class Euclidean:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def ambient_dim(self):
        return self.n

    def on_manifold(self, x):
        return np.asarray(x).ravel().size == self.n

    def tangent_project(self, point, ambient):
        return np.asarray(ambient, dtype=float)

    def retract(self, point, u, t):
        return np.asarray(point, dtype=float) + t * u


@dataclass(frozen=True)
class Sphere:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sphere needs n >= 2")

    @property
    def ambient_dim(self):
        return self.n

    def on_manifold(self, theta):
        theta = np.asarray(theta, dtype=float).ravel()
        return theta.size == self.n and abs(np.linalg.norm(theta) - 1.0) <= _ONMANIFOLD_TOL

    def tangent_project(self, theta, v):
        theta = np.asarray(theta, dtype=float).ravel()
        if not self.on_manifold(theta):
            raise ValueError("point is not on the unit sphere")
        v = np.asarray(v, dtype=float).ravel()
        return v - (v @ theta) * theta

    def retract(self, theta, u, t):
        """Great circle."""
        return np.cos(t) * np.asarray(theta, dtype=float) + np.sin(t) * u


@dataclass(frozen=True)
class LpSphere:
    n: int
    p: float

    def __post_init__(self):
        if self.n < 2 or self.p < 2:
            raise ValueError("l_p sphere needs n >= 2 and p >= 2")

    @property
    def ambient_dim(self):
        return self.n

    def on_manifold(self, theta):
        theta = np.asarray(theta, dtype=float).ravel()
        lp = np.sum(np.abs(theta) ** self.p) ** (1.0 / self.p)
        return theta.size == self.n and abs(lp - 1.0) <= _ONMANIFOLD_TOL

    def tangent_project(self, theta, v):
        theta = np.asarray(theta, dtype=float).ravel()
        if not self.on_manifold(theta):
            raise ValueError("point is not on the l_p sphere")
        v = np.asarray(v, dtype=float).ravel()
        # normal direction is theta^{p-1} entrywise (signed power)
        w = np.sign(theta) * np.abs(theta) ** (self.p - 1.0)
        return v - ((v @ w) / (w @ w)) * w

    def retract(self, theta, u, t):
        """Radial projection of theta + t u."""
        x = np.asarray(theta, dtype=float) + t * u
        return x / np.sum(np.abs(x) ** self.p) ** (1.0 / self.p)


@dataclass(frozen=True)
class Stiefel:
    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k < self.n) or self.n < 3:
            raise ValueError("Stiefel needs 1 <= k < n and n >= 3")

    @property
    def ambient_dim(self):
        return self.n * self.k

    def _mat(self, x):
        return np.asarray(x, dtype=float).reshape(self.n, self.k)

    def on_manifold(self, A):
        A = self._mat(A)
        return np.max(np.abs(A.T @ A - np.eye(self.k))) <= _ONMANIFOLD_TOL

    def tangent_project(self, A, M):
        A = self._mat(A)
        if not self.on_manifold(A):
            raise ValueError("point is not on the Stiefel manifold")
        M = self._mat(M)
        sym = (A.T @ M + M.T @ A) / 2.0
        return M - A @ sym

    def retract(self, A, U, t):
        """Polar factor X (X'X)^{-1/2} of X = A + t U."""
        x = self._mat(A) + t * self._mat(U)
        w, v = np.linalg.eigh(x.T @ x)
        return x @ ((v * (1.0 / np.sqrt(w))) @ v.T)


@dataclass(frozen=True)
class Grassmann:
    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k < self.n) or self.n < 3:
            raise ValueError("Grassmann needs 1 <= k < n and n >= 3")

    @property
    def ambient_dim(self):
        return self.n * self.n

    def _mat(self, x):
        return np.asarray(x, dtype=float).reshape(self.n, self.n)

    def on_manifold(self, P):
        P = self._mat(P)
        ok_sym = np.max(np.abs(P - P.T)) <= _ONMANIFOLD_TOL
        ok_idem = np.max(np.abs(P @ P - P)) <= _ONMANIFOLD_TOL
        ok_rank = abs(np.trace(P) - self.k) <= _ONMANIFOLD_TOL
        return ok_sym and ok_idem and ok_rank

    def tangent_project(self, P, M):
        P = self._mat(P)
        if not self.on_manifold(P):
            raise ValueError("point is not on the Grassmann manifold")
        M = self._mat(M)
        M = (M + M.T) / 2.0
        return P @ M + M @ P - 2.0 * P @ M @ P

    def retract(self, P, U, t):
        """Projection onto the top-k eigenvectors of sym(P + t U)."""
        x = self._mat(P) + t * self._mat(U)
        top = np.linalg.eigh((x + x.T) / 2.0)[1][:, -self.k:]
        return top @ top.T


def tangent_project(m, point, ambient):
    """Project an ambient vector/matrix onto the tangent space at point."""
    return m.tangent_project(point, ambient)


def intrinsic_gradient(m, f, point):
    """Tangent projection of the Euclidean gradient of f at the point."""
    x = np.asarray(point, dtype=float)
    g = f.gradient(x.ravel())
    out = m.tangent_project(point, g.reshape(x.shape) if x.ndim > 1 else g)
    return np.asarray(out)


def sphere_hessian(f, theta):
    """Intrinsic spherical Hessian P_{theta-perp} B P_{theta-perp}.

    B = f''(theta) - <theta, grad f(theta)> I and P_{theta-perp} is the
    orthogonal projection onto the tangent space.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    n = theta.size
    if abs(np.linalg.norm(theta) - 1.0) > _ONMANIFOLD_TOL:
        raise ValueError("point is not on the unit sphere")
    H = derivative_tensor(f, 2, theta).array
    g = f.gradient(theta)
    B = H - (theta @ g) * np.eye(n)
    P = np.eye(n) - np.outer(theta, theta)
    return SymTensor(2, n, P @ B @ P, symmetrize=False)


# ---------------------------------------------------------------------------
# spherical partial derivatives via 0-homogeneous extension
#
# Each level function is a PolyFunction sum c x^beta read as the 0-homogeneous
# extension sum c x^beta |x|^{-|beta|} of its sphere restriction, which it
# equals on the sphere.  Differentiating a term and re-homogenizing gives the
# recursion below, so iterated D operators stay exact rational expressions.


def _spherical_diff(g, k):
    """D_k of a level function: each term c x^beta gives c beta_k x^(beta - e_k)
    (when beta_k > 0), then -c |beta| x^(beta + e_k)."""
    e_k = np.eye(g.nvars, dtype=np.int64)[k]
    exps = np.stack([g.exps - e_k, g.exps + e_k], axis=1).reshape(-1, g.nvars)
    coefs = np.stack([g.coefs * g.exps[:, k], -g.coefs * g.exps.sum(axis=1)], axis=1).ravel()
    valid = exps[:, k] >= 0
    return PolyFunction._from_arrays(g.nvars, exps[valid], coefs[valid])


def spherical_partial(f, indices, theta):
    """Iterated spherical partial derivative D_{i1..ij} f(theta).

    Each level applies the Euclidean derivative of the 0-homogeneous
    extension of the current level function and evaluates on the sphere.
    Note D_{ij} differs from D_{ji} in general.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if abs(np.linalg.norm(theta) - 1.0) > _ONMANIFOLD_TOL:
        raise ValueError("point is not on the unit sphere")
    if len(indices) < 1:
        raise ValueError("need at least one index")
    return functools.reduce(_spherical_diff, indices, f).eval(theta)


def spherical_derivative_tensor(f, j, theta):
    """All index tuples of D^(j) f(theta), as an unsymmetrized array."""
    theta = np.asarray(theta, dtype=float).ravel()
    n = theta.size
    cache = {(): f}

    def level(idx):
        if idx not in cache:
            cache[idx] = _spherical_diff(level(idx[:-1]), idx[-1])
        return cache[idx]

    out = np.zeros((n,) * j)
    for idx in np.ndindex(*(n,) * j):
        out[idx] = level(idx).eval(theta)
    return out
