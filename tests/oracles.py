"""From-the-definition oracles for the vectorized difference fields.

Each oracle works at one configuration x (a tuple of alphabet indices) by
plain loops over replacement values and observed/replacement subsets, so
it shares no code with the field kernels it checks.
"""

import itertools

import numpy as np


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
