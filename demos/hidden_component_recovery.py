#!/usr/bin/env python3
"""Recover an unobserved state component that enters linearly.

An oscillator u'' = -omega^2 u written as a first-order system has states
(u, v) with v = u'. Suppose only the position u is measured. Because the
hidden velocity enters the observed equation linearly (u' = v) and its own
dynamics are linear in v (v' = -omega^2 u), the hidden path can be written
with the variation-of-constants formula and eliminated from the criterion.
What remains is a low-dimensional search over the frequency parameter and
the hidden initial value.
"""

import numpy as np

from gradmatch import (
    BSplineBasis,
    CriterionConfig,
    KnotSequence,
    PartiallyLinearSystem,
    WeightFunction,
    fit_least_squares,
    fit_partially_observed,
    uniform_knots,
)


def main():
    omega_sq, u0, v0 = 1.69, 1.0, 0.5
    n, t_end, sigma = 240, 10.0, 0.02
    rng = np.random.default_rng(12)

    omega = np.sqrt(omega_sq)
    times = np.arange(n) * (t_end / n)
    u_true = u0 * np.cos(omega * times) + (v0 / omega) * np.sin(omega * times)
    y = (u_true + sigma * rng.standard_normal(n))[:, None]

    interval = (0.0, times[-1])
    knots = KnotSequence(interval, tuple(uniform_knots(interval, 12)), order=4)
    u_fit = fit_least_squares(BSplineBasis(knots), times, y)

    system = PartiallyLinearSystem(
        d_hidden=1,
        g=lambda u, v, eta: v,              # observed equation: u' = v
        h=lambda u, eta: -eta[0] * u,       # hidden equation:   v' = -eta * u
    )
    est = fit_partially_observed(
        u_fit,
        system,
        eta0=np.array([1.0]),
        a0=np.zeros((1, 1)),
        v0_guess=np.array([0.0]),
        config=CriterionConfig(weight=WeightFunction.boundary_vanishing(interval)),
        estimate_v0=True,
    )

    print("observed: position of an oscillator, n=%d, noise sd %.2f" % (n, sigma))
    print("hidden:   velocity, reconstructed by variation of constants")
    print()
    print("frequency^2: estimate %.4f, true %.2f" % (est.eta[0], omega_sq))
    print("hidden v(0): estimate %.4f, true %.2f" % (est.v0[0], v0))
    print("converged: %s after %d iterations" % (est.converged, est.iterations))


if __name__ == "__main__":
    main()
