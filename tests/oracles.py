"""From-the-definition oracles for the vectorized kernels.

The difference-field oracles work at one configuration x (a tuple of
alphabet indices) by plain loops over replacement values and
observed/replacement subsets.  The polynomial oracles loop over a
{exponent tuple: coefficient} dict one point at a time, and the Stiefel
and Grassmann oracles orthonormalize one Gaussian matrix per row.  The
DLSI search oracle is the former coordinate ascent: a Brent line search on
every table entry, recomputing d_field at each evaluation.  The operator
norm oracle is the former per-tensor, per-restart loop of alternating
sweeps.  None of them shares code with the kernels it checks.
"""

import itertools

import numpy as np
from scipy.optimize import minimize_scalar

from conclab.discrete import d_field
from conclab.tensor import OpNormResult, SymTensor, _contract_all_but, contract


def iterated_difference_sup(table, idx, x):
    """sup over replacements of |prod_s (Id - T_{i_s}) f| at x.

    The observed values x stay fixed; T_i replaces coordinate i by a
    replacement value.
    """
    best = 0.0
    for repl in itertools.product(*(range(table.shape[i]) for i in idx)):
        total = 0.0
        for subset in itertools.product((0, 1), repeat=len(idx)):
            y = list(x)
            sign = 1.0
            for s, bit in enumerate(subset):
                if bit:
                    y[idx[s]] = repl[s]
                    sign = -sign
            total += sign * table[tuple(y)]
        best = max(best, abs(total))
    return best


def h_tensor_oracle(table, j, x):
    """Order-j iterated-difference tensor at x, entry by entry.

    Order 1 also takes the sup over the observed value of the coordinate;
    orders j >= 2 keep the observed values fixed.  Entries with repeated
    indices are zero.
    """
    n = table.ndim
    out = np.zeros((n,) * j)
    for idx in itertools.product(range(n), repeat=j):
        if len(set(idx)) < j:
            continue
        if j == 1:
            i = idx[0]
            out[idx] = max(
                iterated_difference_sup(table, idx, x[:i] + (b,) + x[i + 1:])
                for b in range(table.shape[i])
            )
        else:
            out[idx] = iterated_difference_sup(table, idx, x)
    return out


def conditional_std(table, joint, x):
    """d_i f at x: the standard deviation of f in coordinate i given the rest."""
    out = np.empty(table.ndim)
    for i in range(table.ndim):
        section = x[:i] + (slice(None),) + x[i + 1:]
        w = joint[section] / joint[section].sum()
        vals = table[section]
        mean = float(w @ vals)
        out[i] = np.sqrt(max(0.0, float(w @ (vals - mean) ** 2)))
    return out


# ---------------------------------------------------------------------------
# operator norm: one tensor, one restart, one vector at a time


def _dual_maximizer(g, q, p):
    """argmax of <g, v> over the unit l_p sphere for one vector g."""
    if np.all(g == 0):
        v = np.zeros_like(g)
        v[0] = 1.0
        return v
    if np.isinf(p):
        return np.where(g >= 0, 1.0, -1.0)
    w = np.sign(g) * np.abs(g) ** (q - 1.0)
    nrm = np.sum(np.abs(w) ** p) ** (1.0 / p)
    if nrm == 0:
        v = np.zeros_like(g)
        v[0] = 1.0
        return v
    return w / nrm


def _start(rng, n, p):
    if np.isinf(p):
        return rng.choice([-1.0, 1.0], size=n)
    v = rng.standard_normal(n)
    nv = np.sum(np.abs(v) ** p) ** (1.0 / p)
    while nv == 0:
        v = rng.standard_normal(n)
        nv = np.sum(np.abs(v) ** p) ** (1.0 / p)
    return v / nv


def op_norm_oracle_loop(T, q=2.0, restarts=20, tol=1e-10, max_sweeps=1000, seed=0):
    """Alternating maximization of one tensor, restart after restart, with
    the same starts, stopping rule and upper bound as op_norm_stack."""
    p = np.inf if q == 1.0 else q / (q - 1.0)
    a, n, j = T.array, T.dim, T.order
    rng = np.random.default_rng(seed)
    best_val, best_vecs, best_conv = -np.inf, None, False
    for _ in range(restarts):
        vecs = [_start(rng, n, p) for _ in range(j)]
        prev = contract(T, vecs)
        conv = False
        for _sweep in range(max_sweeps):
            for s in range(j):
                vecs[s] = _dual_maximizer(_contract_all_but(a, vecs, s), q, p)
            cur = contract(T, vecs)
            if cur - prev <= tol * max(1.0, abs(cur)):
                conv = True
                break
            prev = cur
        cur = contract(T, vecs)
        if cur > best_val:
            best_val, best_vecs, best_conv = cur, [v.copy() for v in vecs], conv
    unfolding = np.linalg.svd(a.reshape(n, -1), compute_uv=False)[0]
    upper = float(unfolding) * (n ** (0.5 - 1.0 / p)) ** j
    return OpNormResult(max(float(best_val), 0.0), best_vecs, best_conv, restarts, upper)


# ---------------------------------------------------------------------------
# polynomials: dict-of-monomials loops, one point at a time


def poly_eval_oracle(monomials, x):
    """sum c prod x_i^e_i over a {exponent tuple: coefficient} dict."""
    total = 0.0
    for exps, coef in monomials.items():
        term = coef
        for xi, e in zip(x, exps):
            if e:
                term *= xi ** e
        total += term
    return total


def _partial_oracle(monomials, i):
    out = {}
    for exps, coef in monomials.items():
        if exps[i]:
            key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[key] = out.get(key, 0.0) + coef * exps[i]
    return {e: c for e, c in out.items() if c != 0.0}


def derivative_tensor_oracle(monomials, n, j, x):
    """Order-j partial-derivative tensor at x, one index tuple at a time."""
    out = np.zeros((n,) * j)
    for idx in itertools.product(range(n), repeat=j):
        terms = monomials
        for i in sorted(idx):
            terms = _partial_oracle(terms, i)
        out[idx] = poly_eval_oracle(terms, x)
    return out


def _spherical_diff_oracle(terms, k):
    out = {}
    for beta, c in terms.items():
        if beta[k] > 0:
            key = beta[:k] + (beta[k] - 1,) + beta[k + 1:]
            out[key] = out.get(key, 0.0) + c * beta[k]
        key = beta[:k] + (beta[k] + 1,) + beta[k + 1:]
        out[key] = out.get(key, 0.0) - c * sum(beta)
    return {e: c for e, c in out.items() if c != 0.0}


def spherical_derivative_tensor_oracle(monomials, j, theta):
    """D_{i1..ij} f(theta) for every index tuple, through the 0-homogeneous
    extension sum c x^beta |x|^{-|beta|} of each level, evaluated on the sphere."""
    n = len(theta)
    out = np.zeros((n,) * j)
    for idx in itertools.product(range(n), repeat=j):
        terms = monomials
        for k in idx:
            terms = _spherical_diff_oracle(terms, k)
        out[idx] = poly_eval_oracle(terms, theta)
    return out


def level_norm_oracle(T):
    """|T|_op of one derivative tensor: Euclidean, spectral, then the
    alternating loop."""
    if T.ndim == 1:
        return float(np.linalg.norm(T))
    if T.ndim == 2:
        return float(np.linalg.norm(T, 2))
    return op_norm_oracle_loop(SymTensor(T.ndim, T.shape[0], T, symmetrize=False)).value


def polynomial_level_coefficients_oracle(monomials, n, data, d):
    """K_j = mean |f^(j)(x)|_op + 3 standard errors (j < d), row by row, and
    the top level |f^(d)(0)|_op."""
    K = []
    for j in range(1, d):
        vals = np.array([level_norm_oracle(derivative_tensor_oracle(monomials, n, j, x))
                         for x in data])
        K.append(float(vals.mean()) + 3.0 * float(vals.std(ddof=1)) / np.sqrt(vals.size))
    K.append(level_norm_oracle(derivative_tensor_oracle(monomials, n, d, np.zeros(n))))
    return K


# ---------------------------------------------------------------------------
# Stiefel and Grassmann samplers: one Gaussian matrix per row

CHUNK = 4096


def _row_sampler_oracle(n, k, count, seed, frame, fail_rows):
    """Row-by-row frames from per-chunk generators hashed from (seed, chunk).

    A row whose Gram matrix is singular takes the next draw instead; the
    rows in fail_rows treat their first draw as singular.
    """
    out = []
    for ci in range((count + CHUNK - 1) // CHUNK):
        ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1), spawn_key=(ci,))
        rng = np.random.default_rng(ss)
        for row in range(ci * CHUNK, min(count, (ci + 1) * CHUNK)):
            g = rng.standard_normal((n, k))
            try:
                if row in fail_rows:
                    raise FloatingPointError("forced singular Gram matrix")
                a = frame(g)
            except (FloatingPointError, np.linalg.LinAlgError):
                g = rng.standard_normal((n, k))
                a = frame(g)
            out.append(a.ravel())
    return np.array(out).reshape(count, -1)


def _orthonormalize(g):
    s = g.T @ g
    w, v = np.linalg.eigh(s)
    if np.min(w) <= 0:
        raise FloatingPointError("singular Gram matrix")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    return g @ inv_sqrt


def _projection(g):
    return g @ np.linalg.inv(g.T @ g) @ g.T


def sample_stiefel_oracle(n, k, count, seed, fail_rows=()):
    """A = G (G^T G)^{-1/2} per row, by one eigh each."""
    return _row_sampler_oracle(n, k, count, seed, _orthonormalize, set(fail_rows))


def sample_grassmann_oracle(n, k, count, seed, fail_rows=()):
    """P = G (G^T G)^{-1} G^T per row, by one inv each."""
    return _row_sampler_oracle(n, k, count, seed, _projection, set(fail_rows))


# ---------------------------------------------------------------------------
# DLSI ratio search: entry-by-entry coordinate ascent


def _dlsi_ratio_oracle(g, space):
    """Ent(g^2) / (2 E|dg|^2), with the variance/energy quotient for an
    essentially constant g and 0 when the energy vanishes."""
    w = space.joint
    ms = float(np.sum(w * g ** 2))
    if ms <= 1e-300:
        return 0.0
    u = g ** 2 / ms - 1.0
    den2 = float(np.sum(w * (d_field(g, space) ** 2).sum(axis=0)))
    if den2 <= 1e-300:
        return 0.0
    if np.max(np.abs(u)) < 1e-6:
        mean = float(np.sum(w * g))
        var = float(np.sum(w * (g - mean) ** 2))
        return var / den2
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(u > -1.0, (1.0 + u) * np.log1p(np.maximum(u, -1.0)) - u, 1.0)
    num = float(np.sum(w * phi))
    return num * ms / (2.0 * den2)


def dlsi_search_oracle(space, search_budget=5, seed=0, sweeps=60):
    """Best entropy ratio of a Brent line search on every table entry.

    Restart 0 starts near the constant function, the others from seeded
    Gaussian tables; a sweep visits every entry and the restart stops at
    the first sweep without improvement.
    """
    rng = np.random.default_rng(seed)
    shape = space.shape
    best = 0.0
    for restart in range(search_budget):
        if restart == 0:
            g = 1.0 + 1e-4 * rng.standard_normal(shape)
        else:
            g = rng.standard_normal(shape)
        cur = _dlsi_ratio_oracle(g, space)
        for _ in range(sweeps):
            improved = False
            for idx in np.ndindex(*shape):
                def ratio_at(v, idx=idx):
                    g[idx] = v
                    return -_dlsi_ratio_oracle(g, space)

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
            scale = np.max(np.abs(g))
            if scale > 0:
                g /= scale
            if not improved:
                break
        best = max(best, cur)
    return best
