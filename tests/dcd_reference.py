"""Reference dual coordinate descent loop for exact-iterate tests.

The plainest form of the shrinking solver loop (Hsieh et al., ICML 2008,
section 3.3, as in LIBLINEAR's solve_l2r_l1l2_svc): every coordinate step
reads and writes numpy scalars and calls the min/max builtins. The trainer
must reproduce its weights, dual coefficients and epoch count bitwise for
the same inputs, so any change to the trainer's floating-point operations,
their order or its visiting order shows up as a test failure. Shares no
code with the trainer: the visiting order is computed here with Python
ints, masked to 64 bits, from its definition in ``stancelab.order``.
"""

import numpy as np

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z):
    """Steele, Lea & Flood's splitmix64 finalizer of one 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def epoch_order(seed, epoch, active):
    """The coordinates of active sorted by their keys for (seed, epoch)."""
    base = splitmix64_finalizer((splitmix64_finalizer(seed) + epoch) & MASK)
    return sorted(
        active,
        key=lambda i: splitmix64_finalizer((base + (int(i) + 1) * GAMMA) & MASK),
    )


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
    active = np.arange(n)
    pg_max_old, pg_min_old = np.inf, -np.inf
    epochs = 0
    for _ in range(config.max_iter):
        epochs += 1
        pg_max_new, pg_min_new = -np.inf, np.inf
        kept = []
        for i in epoch_order(config.seed, epochs, active):
            idx = rows[i]
            yi = y[i]
            g = yi * (w[idx].sum() + w[dim]) - 1.0 + diag * alpha[i]
            # Shrink: drop the coordinate until the next reset.
            if alpha[i] <= 0.0 and g > pg_max_old:
                continue
            if alpha[i] >= upper and g < pg_min_old:
                continue
            kept.append(i)
            if alpha[i] <= 0.0:
                pg = min(g, 0.0)
            elif alpha[i] >= upper:
                pg = max(g, 0.0)
            else:
                pg = g
            pg_max_new = max(pg_max_new, pg)
            pg_min_new = min(pg_min_new, pg)
            if pg != 0.0:
                new_alpha = min(max(alpha[i] - g / qii[i], 0.0), upper)
                delta = (new_alpha - alpha[i]) * yi
                if delta != 0.0:
                    w[idx] += delta
                    w[dim] += delta
                alpha[i] = new_alpha
        if max(pg_max_new, -pg_min_new) < config.tol:
            if len(kept) == n:
                break
            # Converged on the shrunk set: check again over all n.
            active = np.arange(n)
            pg_max_old, pg_min_old = np.inf, -np.inf
            continue
        active = np.array(kept, dtype=np.int64)
        pg_max_old = pg_max_new if pg_max_new > 0.0 else np.inf
        pg_min_old = pg_min_new if pg_min_new < 0.0 else -np.inf
    return w, alpha, epochs
