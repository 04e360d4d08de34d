"""Symmetric tensors and their operator norms.

Builds small symmetric tensors, computes Hilbert-Schmidt and operator
norms (the latter by alternating power iteration over lp spheres, with an
upper bracket from the unfolded tensor), and cross-checks against the
dense grid oracle.
"""

import numpy as np

from conclab.tensor import SymTensor, contract, hs_norm, op_norm, op_norm_oracle, op_norm_stack

# ---------------------------------------------------------------------
# 1. order 2 reduces to linear algebra: op norm = spectral norm
A = SymTensor(2, 2, [[1.0, 0.0], [0.0, -2.0]])
res = op_norm(A)
print("diag(1,-2): op =", res.value, " hs =", hs_norm(A))

# ---------------------------------------------------------------------
# 2. an order-3 all-ones tensor on R^2: the maximizer is the diagonal
#    direction, giving 2^{3/2}
T = SymTensor(3, 2, np.ones((2, 2, 2)))
res = op_norm(T)
print("all-ones 2x2x2: op = %.6f (expected %.6f)" % (res.value, 2.0 ** 1.5))
print("witnesses reproduce the value:",
      np.isclose(contract(T, res.witnesses), res.value))

# ---------------------------------------------------------------------
# 3. the q parameter constrains the test vectors to lp unit spheres;
#    q=1 tests against the l_infinity ball and grows the norm
M = SymTensor(2, 2, np.ones((2, 2)))
print("all-ones 2x2: q=2 ->", op_norm(M, q=2.0).value,
      " q=1 ->", op_norm(M, q=1.0).value)

# ---------------------------------------------------------------------
# 4. random tensors: alternating iteration vs the grid oracle, and the
#    bracket value <= |T|_op <= upper <= hs at q = 2
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(10):
    j = int(rng.integers(2, 4))
    n = int(rng.integers(2, 4))
    T = SymTensor(j, n, rng.standard_normal((n,) * j))
    res = op_norm(T)
    o = op_norm_oracle(T)
    worst = max(worst, abs(res.value - o) / o)
    assert res.value <= res.upper <= hs_norm(T) + 1e-10
print("max relative gap vs oracle over 10 random tensors: %.2e" % worst)

# ---------------------------------------------------------------------
# 5. one call for a whole stack: every tensor and every restart run
#    together, from the starts op_norm would use on each tensor alone
Ts = [SymTensor(3, 3, rng.standard_normal((3, 3, 3))) for _ in range(8)]
value, upper, converged, _ = op_norm_stack(np.array([T.array for T in Ts]))
print("stack of 8: matches op_norm:",
      np.allclose(value, [op_norm(T).value for T in Ts], rtol=1e-12),
      " all converged:", bool(converged.all()),
      " largest upper/value: %.3f" % (upper / value).max())
