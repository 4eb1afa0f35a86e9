"""Reference dual coordinate descent loop for exact-iterate tests.

The plainest form of the solver loop: every coordinate step reads and
writes numpy scalars and calls the min/max builtins. The trainer must
reproduce its weights, dual coefficients and epoch count bitwise for the
same inputs, so any change to the trainer's floating-point operations or
their order shows up as a test failure. Shares no code with the trainer.
"""

import numpy as np


def reference_dcd(rows, y, dim, config):
    """Returns (augmented weights, dual coefficients, epochs)."""
    n = len(rows)
    if config.loss == "hinge":
        upper, diag = config.C, 0.0
    else:
        upper, diag = np.inf, 1.0 / (2.0 * config.C)
    qii = np.array([len(r) + 1 + diag for r in rows], dtype=np.float64)
    w = np.zeros(dim + 1, dtype=np.float64)
    alpha = np.zeros(n, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    epochs = 0
    for _ in range(config.max_iter):
        epochs += 1
        violation = 0.0
        for i in rng.permutation(n):
            idx = rows[i]
            yi = y[i]
            g = yi * (w[idx].sum() + w[dim]) - 1.0 + diag * alpha[i]
            if alpha[i] <= 0.0:
                pg = min(g, 0.0)
            elif alpha[i] >= upper:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                violation = max(violation, abs(pg))
                new_alpha = min(max(alpha[i] - g / qii[i], 0.0), upper)
                delta = (new_alpha - alpha[i]) * yi
                if delta != 0.0:
                    w[idx] += delta
                    w[dim] += delta
                alpha[i] = new_alpha
        if violation < config.tol:
            break
    return w, alpha, epochs
