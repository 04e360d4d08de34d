"""Seeded exact samplers for the catalog of underlying measures.

Covers i.i.d. Gaussians, p-generalized Gaussians, the uniform sphere, the
cone measure on l_p spheres, Haar-type measures on Stiefel and Grassmann
manifolds, and finite product-space distributions (alias method).

Generation is chunked; each chunk draws from a substream derived by hashing
(seed, chunk index), so output is a pure function of (descriptor, count,
seed) regardless of how chunks are scheduled.  Stiefel and Grassmann
chunks are orthonormalized as one stacked (m, n, k) block by a batched
eigh or inv, with the same draws and per-matrix arithmetic as generating
them row by row (the tests compare the two bit for bit).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleBatch",
    "sample_gaussian",
    "sample_pgen",
    "sample_sphere",
    "sample_cone_lp",
    "sample_stiefel",
    "sample_grassmann",
    "sample_finite",
]

_CHUNK = 4096
_MAGIC = b"CLABSAMP"


@dataclass(frozen=True)
class SampleBatch:
    """count x ambient-dimension sample matrix with its provenance.

    Stiefel/Grassmann rows are vectorized matrices.  Regenerating with the
    same seed and descriptor reproduces data bit-for-bit.
    """

    data: np.ndarray = field(repr=False)
    seed: int
    descriptor: dict

    @property
    def count(self):
        return self.data.shape[0]

    def to_csv(self, path):
        np.savetxt(path, self.data, delimiter=",", newline="\n")

    def to_binary(self, path):
        rows, cols = self.data.shape
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQ", rows, cols))
            fh.write(np.ascontiguousarray(self.data, dtype=np.float64).tobytes())

    @staticmethod
    def read_binary(path):
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _MAGIC:
                raise ValueError("bad magic header")
            rows, cols = struct.unpack("<QQ", fh.read(16))
            data = np.frombuffer(fh.read(rows * cols * 8), dtype=np.float64)
        return data.reshape(rows, cols)


def _chunk_rngs(seed, count):
    """Per-chunk generators derived by hashing (seed, chunk index)."""
    nchunks = (count + _CHUNK - 1) // _CHUNK
    for ci in range(nchunks):
        lo = ci * _CHUNK
        hi = min(count, lo + _CHUNK)
        ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1), spawn_key=(ci,))
        yield np.random.default_rng(ss), hi - lo


def _gaussian_matrix(n, count, seed):
    out = np.empty((count, n))
    row = 0
    for rng, m in _chunk_rngs(seed, count):
        out[row:row + m] = rng.standard_normal((m, n))
        row += m
    return out


def sample_gaussian(n, count, seed):
    """i.i.d. standard normal entries."""
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    data = _gaussian_matrix(n, count, seed)
    data.setflags(write=False)
    return SampleBatch(data, int(seed), {"tag": "gaussian", "n": n})


def _gamma_mt(rng, shape, size):
    """Marsaglia-Tsang gamma sampler, unit scale.

    Uses the squeeze/accept loop for shape >= 1 and the U^{1/a} boost for
    shape < 1.  Vectorized rejection: regenerate only unaccepted slots.
    """
    a = float(shape)
    boost = None
    if a < 1.0:
        boost = rng.random(size) ** (1.0 / a)
        a = a + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(size)
    todo = np.arange(size)
    while todo.size:
        x = rng.standard_normal(todo.size)
        v = (1.0 + c * x) ** 3
        u = rng.random(todo.size)
        ok = v > 0
        x2 = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = ok & (
                (u < 1.0 - 0.0331 * x2 * x2)
                | (np.log(u) < 0.5 * x2 + d * (1.0 - v + np.log(np.where(ok, v, 1.0))))
            )
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    if boost is not None:
        out *= boost
    return out


def sample_pgen(p, n, count, seed):
    """i.i.d. p-generalized Gaussian entries: X = sign * (p G)^{1/p}.

    G is Gamma(1/p, 1); the resulting density is proportional to
    exp(-|x|^p / p).  p = 2 recovers the standard normal.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    out = np.empty((count, n))
    row = 0
    for rng, m in _chunk_rngs(seed, count):
        g = _gamma_mt(rng, 1.0 / p, m * n)
        eps = np.where(rng.random(m * n) < 0.5, -1.0, 1.0)
        out[row:row + m] = (eps * (p * g) ** (1.0 / p)).reshape(m, n)
        row += m
    out.setflags(write=False)
    return SampleBatch(out, int(seed), {"tag": "pgen", "p": float(p), "n": n})


def sample_sphere(n, count, seed):
    """Uniform on the Euclidean unit sphere: normalized Gaussian vectors."""
    if n < 2:
        raise ValueError("sphere needs n >= 2")
    z = _gaussian_matrix(n, count, seed)
    data = z / np.linalg.norm(z, axis=1, keepdims=True)
    data.setflags(write=False)
    return SampleBatch(data, int(seed), {"tag": "sphere", "n": n})


def sample_cone_lp(p, n, count, seed):
    """Cone measure on the l_p sphere: p-generalized vectors, l_p-normalized."""
    if n < 2:
        raise ValueError("cone needs n >= 2")
    z = sample_pgen(p, n, count, seed).data
    norms = np.sum(np.abs(z) ** p, axis=1) ** (1.0 / p)
    data = z / norms[:, None]
    data.setflags(write=False)
    return SampleBatch(data, int(seed), {"tag": "cone_lp", "p": float(p), "n": n})


def _frames(n, k, count, seed, stacked, width):
    """Rows of stacked(G) for Gaussian (m, n, k) blocks G, one per chunk.

    stacked raises FloatingPointError or LinAlgError when a Gram matrix
    G^T G of the block is singular.  That chunk's generator is then rewound
    and the chunk redone row by row, a singular row taking the next draw
    instead, which is the draw order of row-by-row generation.
    """
    out = np.empty((count, width))
    row = 0
    for rng, m in _chunk_rngs(seed, count):
        start = rng.bit_generator.state
        try:
            out[row:row + m] = stacked(rng.standard_normal((m, n, k))).reshape(m, width)
        except (FloatingPointError, np.linalg.LinAlgError):
            rng.bit_generator.state = start
            for r in range(row, row + m):
                try:
                    out[r] = stacked(rng.standard_normal((1, n, k))).ravel()
                except (FloatingPointError, np.linalg.LinAlgError):
                    out[r] = stacked(rng.standard_normal((1, n, k))).ravel()
        row += m
    out.setflags(write=False)
    return out


def _stiefel_block(g):
    """A = G (G^T G)^{-1/2} for every G of an (m, n, k) block, by batched eigh."""
    w, v = np.linalg.eigh(np.swapaxes(g, -1, -2) @ g)
    if np.min(w) <= 0:
        raise FloatingPointError("singular Gram matrix")
    return g @ ((v * (1.0 / np.sqrt(w))[:, None, :]) @ np.swapaxes(v, -1, -2))


def _grassmann_block(g):
    """P = G (G^T G)^{-1} G^T for every G of an (m, n, k) block, by batched inv."""
    gt = np.swapaxes(g, -1, -2)
    return g @ np.linalg.inv(gt @ g) @ gt


def sample_stiefel(n, k, count, seed):
    """Haar-type measure on n x k orthonormal frames; rows are vec(A)."""
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    data = _frames(n, k, count, seed, _stiefel_block, n * k)
    return SampleBatch(data, int(seed), {"tag": "stiefel", "n": n, "k": k})


def sample_grassmann(n, k, count, seed):
    """Rank-k projection matrices P = G (G^T G)^{-1} G^T; rows are vec(P)."""
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    data = _frames(n, k, count, seed, _grassmann_block, n * n)
    return SampleBatch(data, int(seed), {"tag": "grassmann", "n": n, "k": k})


class _AliasTable:
    """Vose alias table for O(1) draws from a finite distribution."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        m = probs.size
        scaled = probs * m
        self.prob = np.ones(m)
        self.alias = np.arange(m)
        small = [i for i in range(m) if scaled[i] < 1.0]
        large = [i for i in range(m) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            (small if scaled[l] < 1.0 else large).append(l)
        for i in small + large:
            self.prob[i] = 1.0

    def draw(self, rng, size):
        m = self.prob.size
        idx = rng.integers(0, m, size=size)
        accept = rng.random(size) < self.prob[idx]
        return np.where(accept, idx, self.alias[idx])


def sample_finite(space, count, seed):
    """i.i.d. configurations from a finite product-space joint table.

    Rows hold label vectors (each coordinate's alphabet value, the points a
    statistic sees in an exhaustive check), drawn by the alias method over
    the flattened configuration space.
    """
    table = _AliasTable(space.joint.ravel())
    shape = space.joint.shape
    out = np.empty((count, len(shape)))
    row = 0
    for rng, m in _chunk_rngs(seed, count):
        idx = np.unravel_index(table.draw(rng, m), shape)
        out[row:row + m] = np.column_stack([np.take(a, i) for a, i in zip(space.alphabets, idx)])
        row += m
    out.setflags(write=False)
    return SampleBatch(
        out, int(seed), {"tag": "finite", "shape": list(shape)}
    )
