#!/usr/bin/env python3
"""Pick spline knots by generalized cross-validation.

A fixed uniform knot grid wastes degrees of freedom where the curve is flat
and starves it where the curve bends. The greedy eliminate-and-add search
scores candidate knot sets by GCV and usually lands on a small set placed
where the data need it. Here the target has a sharp shoulder at t = 3.
"""

import numpy as np

from gradmatch import KnotPolicy, eval_fit, select_knots


def bumpy(t):
    return np.sin(t) + 2.0 / (1.0 + np.exp(-8.0 * (t - 3.0)))


def main():
    rng = np.random.default_rng(21)
    n = 250
    interval = (0.0, 6.0)
    times = np.linspace(*interval, n)
    y = bumpy(times) + 0.05 * rng.standard_normal(n)

    result = select_knots(times, y, interval, KnotPolicy())
    print("candidates offered: %d interior knots" % len(result.candidates))
    print("selected:           %d interior knots" % len(result.selected_knots))
    print("knots:", np.round(result.selected_knots, 2))
    print("gcv score: %.6g, effective parameters: %d" % (result.gcv_value, result.effective_params))
    print()

    # compare against a uniform grid with the same number of knots (uniform_knots places them)
    uniform = select_knots(times, y, interval, KnotPolicy(len(result.selected_knots), selection="fixed-uniform"))
    dense = np.linspace(*interval, 1500)
    for name, fit in [("selected", result.fit), ("uniform", uniform.fit)]:
        err = eval_fit(fit, dense)[:, 0] - bumpy(dense)
        print("%-8s knots: max curve error %.4f, rms %.4f"
              % (name, np.abs(err).max(), np.sqrt(np.mean(err**2))))


if __name__ == "__main__":
    main()
