"""Dense symmetric tensors with Hilbert-Schmidt and l_p operator norms.

A j-tensor over n coordinates is stored as a dense numpy array of shape
(n,)*j, symmetrized on construction.  The operator norm

    |T|_op(q) = sup { <T, v^1 x ... x v^j> : |v^s|_p = 1 },   p = q/(q-1),

is bracketed from both sides by one kernel, op_norm_stack, which works on a
whole (N, n, ..., n) stack of tensors at once.  Alternating block
maximization with closed-form dual-norm updates (the higher-order power
method), run for every tensor and every restart together, gives the lower
bound `value` (exact for matrices at q=2); the spectral norm of the mode-1
unfolding, scaled by a norm-equivalence factor for q < 2, gives `upper`.
op_norm is the N = 1 case.  A brute-force grid oracle is provided for tiny
sizes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

# entries of the largest contraction intermediate op_norm_stack holds at once
_CHUNK_ENTRIES = 2 ** 21

__all__ = [
    "SymTensor",
    "OpNormResult",
    "hs_norm",
    "op_norm",
    "op_norm_stack",
    "op_norm_oracle",
    "contract",
]


def _symmetrize(a):
    """Average an array over all permutations of its axes."""
    j = a.ndim
    if j <= 1:
        return np.array(a, dtype=float)
    out = np.zeros_like(a, dtype=float)
    perms = list(itertools.permutations(range(j)))
    for perm in perms:
        out += np.transpose(a, perm)
    return out / len(perms)


@dataclass(frozen=True)
class SymTensor:
    """Dense symmetric tensor of a given order and dimension.

    Parameters
    ----------
    order : int
        Number of indices j >= 1.
    dim : int
        Range n >= 1 of each index.
    entries : array_like
        n^j real entries; any array reshapeable to (n,)*j.  The stored
        entries are the symmetrization (average over index permutations)
        of the input, so derivative-type tensors are well defined no
        matter the construction order.
    """

    order: int
    dim: int
    entries: np.ndarray = field(repr=False)

    def __init__(self, order, dim, entries, symmetrize=True):
        if order < 1:
            raise ValueError("order must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        a = np.asarray(entries, dtype=float).reshape((dim,) * order)
        if symmetrize:
            a = _symmetrize(a)
        a.setflags(write=False)
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "entries", a)

    @property
    def array(self):
        return self.entries

    def scale(self, a):
        return SymTensor(self.order, self.dim, a * self.entries, symmetrize=False)

    def to_json(self):
        return json.dumps(
            {
                "order": self.order,
                "dim": self.dim,
                "entries": self.entries.ravel().tolist(),
            }
        )

    @staticmethod
    def from_json(s):
        obj = json.loads(s) if isinstance(s, str) else s
        return SymTensor(obj["order"], obj["dim"], np.array(obj["entries"]))


@dataclass
class OpNormResult:
    """Outcome of an operator-norm computation.

    value is the best lower bound found; witnesses are the j unit vectors
    attaining it (contracting against them reproduces value to 1e-12
    relative); converged records whether the alternating sweeps met the
    tolerance before the iteration cap; upper is a bound from above (see
    op_norm_stack), so the norm lies in [value, upper].
    """

    value: float
    witnesses: list
    converged: bool
    restarts_used: int
    upper: float


def hs_norm(T):
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(T.array ** 2)))


def contract(T, vectors):
    """Contract T against j vectors: sum T_{i1..ij} v^1_{i1} ... v^j_{ij}."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if len(vectors) != T.order:
        raise ValueError("need exactly order-many vectors")
    a = T.array
    for v in vectors:
        if v.shape != (T.dim,):
            raise ValueError("vector length must equal dim")
        a = np.tensordot(a, v, axes=([a.ndim - 1], [0]))
    return float(a)


def _contract_all_but(a, vectors, skip):
    """Contract all modes except `skip`, returning the gradient vector."""
    # move the kept axis to front, then contract the rest in order
    out = np.moveaxis(a, skip, 0)
    for s in [i for i in range(len(vectors)) if i != skip]:
        v = vectors[s]
        out = np.tensordot(out, v, axes=([1], [0]))
    return out


def _contract_all_but_stack(moved, vecs, skip):
    """All-but-mode-`skip` contraction for every tensor and restart.

    moved[skip] is the (N, n, n^(j-1)) stack with mode `skip` moved last;
    vecs are j arrays of shape (N, R, n).  Returns the (N, R, n) gradients.
    """
    N, R, n = vecs[skip].shape
    rest = [s for s in range(len(vecs)) if s != skip]
    if not rest:
        return np.broadcast_to(moved[skip].reshape(N, 1, n), (N, R, n))
    out = vecs[rest[0]] @ moved[skip]
    for s in rest[1:]:
        out = (vecs[s][:, :, None] @ out.reshape(N, R, n, -1))[:, :, 0]
    return out


def _lp_dual_maximizer(g, q, p):
    """argmax of <g, v> over the unit l_p sphere, along the last axis of g.

    For p = infinity (q = 1) the maximizer is the sign vector, ties toward +1.
    Otherwise v_i proportional to sign(g_i) |g_i|^{q-1}, normalized in l_p.
    A zero g, or one whose normalizer underflows, gets the first basis vector.
    """
    if np.isinf(p):
        v = np.where(g >= 0, 1.0, -1.0)
        dead = ~np.any(g, axis=-1)
    else:
        w = np.sign(g) * np.abs(g) ** (q - 1.0)
        nrm = np.sum(np.abs(w) ** p, axis=-1, keepdims=True) ** (1.0 / p)
        dead = nrm[..., 0] == 0
        v = w / np.where(nrm == 0, 1.0, nrm)
    v[dead] = np.eye(g.shape[-1])[0]
    return v


def _random_start(rng, n, p):
    if np.isinf(p):
        return rng.choice([-1.0, 1.0], size=n)
    v = rng.standard_normal(n)
    nv = np.sum(np.abs(v) ** p) ** (1.0 / p)
    while nv == 0:
        v = rng.standard_normal(n)
        nv = np.sum(np.abs(v) ** p) ** (1.0 / p)
    return v / nv


def _ascend(a, starts, q, p, tol, max_sweeps):
    """Alternating maximization of one chunk of tensors from shared starts.

    Every (tensor, restart) pair sweeps until its own relative improvement
    is below tol, then stays frozen while the others go on.  Returns the
    (N, R) values, the (N, R) converged flags and the j (N, R, n) vectors.
    """
    N, (R, j, n) = a.shape[0], starts.shape
    moved = [np.ascontiguousarray(np.moveaxis(a, s + 1, -1)).reshape(N, n, -1)
             for s in range(j)]
    vecs = [np.repeat(starts[None, :, s], N, axis=0) for s in range(j)]
    g = _contract_all_but_stack(moved, vecs, j - 1)
    cur = prev = np.sum(g * vecs[-1], axis=-1)
    live = np.ones((N, R), dtype=bool)
    conv = np.zeros((N, R), dtype=bool)
    for _ in range(max_sweeps):
        for s in range(j):
            g = _contract_all_but_stack(moved, vecs, s)
            np.copyto(vecs[s], _lp_dual_maximizer(g, q, p), where=live[..., None])
        # after the last block update the value is <g, v> for that block
        cur = np.sum(g * vecs[-1], axis=-1)
        done = live & (cur - prev <= tol * np.maximum(1.0, np.abs(cur)))
        conv |= done
        live &= ~done
        if not live.any():
            break
        prev = cur
    return cur, conv, vecs


def op_norm_stack(stack, q=2.0, restarts=20, tol=1e-10, max_sweeps=1000, seed=0):
    """Operator norms of every j-tensor in an (N, n, ..., n) stack at once.

    q in [1,2] with p = q/(q-1) (p = infinity at q = 1).  Alternating
    maximization: fix all but one vector, maximize the resulting linear
    form in closed form, sweep until relative improvement < tol.  All N
    tensors and all restarts run together; the restarts draw their start
    vectors from default_rng(seed), restart by restart, and share them
    across the stack, so each tensor gets the starts a call on it alone
    would.  The best restart's value is a lower bound on the norm.

    The upper bound is the spectral norm of the n x n^(j-1) mode-1
    unfolding (the q = 2 operator norm of T is at most that), times
    n^(j (1/2 - 1/p)) for q < 2 because |v|_2 <= n^(1/2 - 1/p) |v|_p.
    Both sides carry roundoff, so where the bracket is tight (order 1, or
    a rank-one unfolding at q = 2) value may exceed upper by an ulp.

    Returns (value, upper, converged, witnesses): (N,) lower bounds, (N,)
    upper bounds, (N,) flags of the best restart and the (N, j, n) vectors
    attaining value.
    """
    if not (1.0 <= q <= 2.0):
        raise ValueError("q must lie in [1, 2]")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    p = np.inf if q == 1.0 else q / (q - 1.0)
    a = np.asarray(stack, dtype=float)
    N, j, n = a.shape[0], a.ndim - 1, a.shape[-1]
    if j < 1 or a.shape[1:] != (n,) * j:
        raise ValueError("stack must have shape (N, n, ..., n)")
    if not np.all(np.isfinite(a)):
        raise ValueError("stack entries must be finite")
    rng = np.random.default_rng(seed)
    starts = np.array([[_random_start(rng, n, p) for _ in range(j)]
                       for _ in range(restarts)])
    value, converged = np.zeros(N), np.zeros(N, dtype=bool)
    witnesses = np.zeros((N, j, n))
    # chunks bound the (chunk, R, n^(j-1)) intermediate of the contraction
    chunk = max(1, _CHUNK_ENTRIES // (restarts * n ** (j - 1)))
    for lo in range(0, N, chunk):
        cur, conv, vecs = _ascend(a[lo:lo + chunk], starts, q, p, tol, max_sweeps)
        rows = np.arange(cur.shape[0])
        best = np.argmax(cur, axis=1)
        # after a block update the contraction equals a dual norm, hence >= 0
        value[lo:lo + chunk] = np.maximum(cur[rows, best], 0.0)
        converged[lo:lo + chunk] = conv[rows, best]
        witnesses[lo:lo + chunk] = np.stack([v[rows, best] for v in vecs], axis=1)
    unfolding = np.linalg.norm(a.reshape(N, n, n ** (j - 1)), 2, axis=(1, 2))
    upper = unfolding * n ** (j * (0.5 - 1.0 / p))
    return value, upper, converged, witnesses


def op_norm(T, q=2.0, restarts=20, tol=1e-10, max_sweeps=1000, seed=0):
    """Operator norm of T with constraint vectors on the dual l_p sphere.

    The N = 1 case of op_norm_stack.  For order <= 2 with q = 2 the exact
    value is computed spectrally, and upper equals value.
    """
    a = T.array
    n, j = T.dim, T.order

    if q == 2.0 and j <= 2:
        if j == 1:
            g = a
            nrm = float(np.linalg.norm(g))
            v = g / nrm if nrm > 0 else np.eye(n)[0]
            return OpNormResult(nrm, [v], True, 0, nrm)
        w, V = np.linalg.eigh(a)
        i = int(np.argmax(np.abs(w)))
        val = float(abs(w[i]))
        u = V[:, i]
        v2 = u if w[i] >= 0 else -u
        return OpNormResult(val, [u, v2], True, 0, val)

    value, upper, converged, witnesses = op_norm_stack(
        a[None], q, restarts, tol, max_sweeps, seed)
    return OpNormResult(float(value[0]), list(witnesses[0]), bool(converged[0]),
                        restarts, float(upper[0]))


def _lp_grid_vectors(n, p, grid_per_angle):
    """Dense grid of unit-l_p vectors in dimension n (n <= 4)."""
    if np.isinf(p):
        return [np.array(s, dtype=float) for s in itertools.product([-1.0, 1.0], repeat=n)]
    # angular grid on the Euclidean sphere, renormalized to the l_p sphere
    if n == 1:
        return [np.array([1.0]), np.array([-1.0])]
    angles = [np.linspace(0, np.pi, grid_per_angle, endpoint=True) for _ in range(n - 2)]
    angles.append(np.linspace(0, 2 * np.pi, grid_per_angle, endpoint=False))
    out = []
    for combo in itertools.product(*angles):
        v = np.ones(n)
        for i, th in enumerate(combo):
            v[i] *= np.cos(th)
            v[i + 1:] *= np.sin(th)
        nv = np.sum(np.abs(v) ** p) ** (1.0 / p)
        if nv > 0:
            out.append(v / nv)
    return out


def op_norm_oracle(T, q=2.0, grid_per_angle=72):
    """Brute-force reference value for op_norm at tiny sizes.

    Exhaustively scans a dense angular (or sign-vertex) grid of the
    constraint spheres, then polishes the best grid point by alternating
    maximization.  Guarded to dim <= 4 and order <= 3.
    """
    if T.dim > 4 or T.order > 3:
        raise ValueError("oracle guarded to dim <= 4 and order <= 3")
    p = np.inf if q == 1.0 else q / (q - 1.0)
    a = T.array
    vectors = _lp_grid_vectors(T.dim, p, grid_per_angle)
    j = T.order
    best = 0.0
    best_vecs = None
    # scan grid for the first vector and maximize the rest alternately;
    # for order <= 3 also scan pairs to avoid bad basins
    if j == 1:
        for v in vectors:
            val = float(a @ v)
            if val > best:
                best, best_vecs = val, [v]
        return best
    for v1 in vectors:
        vecs = [v1] + [vectors[0]] * (j - 1)
        for _ in range(50):
            improved = False
            for s in range(1, j):
                g = _contract_all_but(a, vecs, s)
                vecs[s] = _lp_dual_maximizer(g, q, p)
            cur = contract(T, vecs)
            if cur > best + 1e-15:
                best, best_vecs = cur, [v.copy() for v in vecs]
                improved = True
            if not improved:
                break
    if best_vecs is None:
        return 0.0
    # local polish: alternate over all blocks from the best grid point
    vecs = best_vecs
    prev = best
    for _ in range(500):
        for s in range(j):
            g = _contract_all_but(a, vecs, s)
            vecs[s] = _lp_dual_maximizer(g, q, p)
        cur = contract(T, vecs)
        if cur - prev <= 1e-14 * max(1.0, abs(cur)):
            break
        prev = cur
    return float(max(best, contract(T, vecs)))
