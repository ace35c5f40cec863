#!/usr/bin/env python3
"""Estimate predator-prey dynamics without ever solving the ODE in the fit.

The two-step estimator first smooths the noisy observations with a regression
spline, then picks the parameter vector whose vector field best matches the
spline's derivative in weighted L2. For the generalized Lotka-Volterra family
the criterion is quadratic in the parameters, so the minimizer is a weighted
least-squares solve: no iterations, no integration, no initial guess.

The script also prints the asymptotic diagnostics. The boundary term gamma_b
is exactly zero under the boundary-vanishing weight, which is the reason that
weight restores the fast convergence rate.
"""

import numpy as np

from gradmatch import (
    WEIGHT_NAMES,
    CriterionConfig,
    KnotPolicy,
    WeightFunction,
    estimate_weights,
    get_model_spec,
    integrate,
    select_knots,
)

THETA_STAR = np.array([0.0, -1.5, 1.0, 2.0, 0.0, -1.5])


def main():
    rng = np.random.default_rng(3)
    spec = get_model_spec("glv")
    model = spec.build({"a1": 0.0, "b2": 0.0})

    n, sigma = 400, 0.2
    times = np.arange(n) * (20.0 / n)
    truth = integrate(model, THETA_STAR, np.array([1.0, 2.0]), times, tol=1e-10)
    y = truth.states + sigma * rng.standard_normal(truth.states.shape)

    interval = (0.0, 20.0)
    selection = select_knots(times, y, interval, KnotPolicy())
    fit = selection.fit  # least squares on the chosen knots
    print("smoothed %d noisy observations with %d interior knots"
          % (n, len(selection.selected_knots)))
    print()

    free = [i for i, name in enumerate(model.param_names) if name not in ("a1", "b2")]
    print("              " + "".join("%9s" % model.param_names[i] for i in free))
    print("true          " + "".join("%9.3f" % THETA_STAR[i] for i in free))
    # both weights read one sample of the spline path; the model is linear, so each is a closed form
    criteria = {name: CriterionConfig(weight=WeightFunction.named(name, interval)) for name in WEIGHT_NAMES}
    estimates = estimate_weights(fit, model, criteria)
    for name, est in estimates.items():
        print("%-13s" % (name + " w") + "".join("%9.3f" % est.theta_hat[i] for i in free))

    est = estimates["boundary"]
    print()
    print("diagnostics at the boundary-weighted estimate:")
    print("  criterion value:        %.5f" % est.criterion_value)
    print("  hessian condition:      %.2f" % est.jstar_condition)
    print("  |gamma_s| (smooth term):  %s" % np.array2string(np.abs(est.gamma_s), precision=3))
    print("  gamma_b (boundary term):  %s" % np.array2string(est.gamma_b, precision=3))


if __name__ == "__main__":
    main()
