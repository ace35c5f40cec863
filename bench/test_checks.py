"""The benchmark's checks pass on gradmatch's outputs and fail on corrupted ones.

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from gradmatch import (  # noqa: E402
    BSplineBasis,
    CriterionConfig,
    KnotPolicy,
    KnotSequence,
    WeightFunction,
    fit_least_squares,
    fit_linear_in_theta,
    get_model_spec,
    ks_normality,
    select_knots,
)

THETA = (0.0, -1.5, 1.0, 2.0, 0.0, -1.5)
FIXED = {"a1": 0.0, "b2": 0.0}
X0 = (1.0, 2.0)
INTERVAL = (0.0, 20.0)
N = 100


@pytest.fixture(scope="module")
def program():
    """One cycle-design dataset taken through gradmatch's knot search, spline fit and closed form."""
    times = np.arange(N) * (INTERVAL[1] / N)
    truth = checks.glv_truth(THETA, X0, times)
    ys = truth + 0.2 * np.random.default_rng(3).standard_normal(truth.shape)
    knots = select_knots(times, ys, INTERVAL, KnotPolicy()).selected_knots
    fit = fit_least_squares(BSplineBasis(KnotSequence(INTERVAL, knots, 4)), times, ys)
    model = get_model_spec("glv").build(FIXED)
    estimate = fit_linear_in_theta(fit, model, CriterionConfig(weight=WeightFunction.boundary_vanishing(INTERVAL)))
    return {"times": times, "ys": ys, "truth": truth, "knots": knots, "fit": fit, "estimate": estimate}


def verdicts_for(program, knots=None, theta_hat=None, gamma_b=None):
    """Run the replication checks on the program's outputs, with any one of them replaced."""
    verdicts = checks.Verdicts()
    times, ys = program["times"], program["ys"]
    knots = program["knots"] if knots is None else knots
    checks.check_local_gcv_minimum(verdicts, "test", times, ys, INTERVAL, knots)
    coef = checks.check_spline(verdicts, "test", times, ys, INTERVAL, program["knots"], program["fit"].coefficients)
    reference = checks.glv_wls(INTERVAL, program["knots"], coef, "boundary", THETA, FIXED)
    estimate = program["estimate"]
    checks.check_theta(verdicts, "test", estimate.theta_hat if theta_hat is None else theta_hat, reference)
    checks.check_boundary_term(verdicts, "test", estimate.gamma_b if gamma_b is None else gamma_b)
    return verdicts


def test_program_outputs_pass(program):
    verdicts = verdicts_for(program)
    assert verdicts.correct, verdicts.failures
    assert verdicts.passed == 5


def test_perturbed_theta_fails(program):
    theta = program["estimate"].theta_hat.copy()
    theta[2] += 1e-6
    verdicts = verdicts_for(program, theta_hat=theta)
    assert [f.split(":")[1].strip() for f in verdicts.failures] == ["theta vs weighted least squares"]


def test_dropped_knot_fails(program):
    knots = program["knots"][:3] + program["knots"][4:]
    verdicts = verdicts_for(program, knots=knots)
    assert [f.split(":")[1].strip() for f in verdicts.failures] == ["GCV local minimum"]


def test_knot_off_the_candidate_grid_fails(program):
    knots = (program["knots"][0] + 0.01,) + program["knots"][1:]
    verdicts = verdicts_for(program, knots=knots)
    assert [f.split(":")[1].strip() for f in verdicts.failures] == ["knots on candidate grid"]


def test_nonzero_boundary_term_fails(program):
    gamma_b = np.array(program["estimate"].gamma_b, dtype=float)
    gamma_b[0] = np.nextafter(0.0, 1.0)
    verdicts = verdicts_for(program, gamma_b=gamma_b)
    assert [f.split(":")[1].strip() for f in verdicts.failures] == ["gamma_b under the boundary weight"]


def test_perturbed_spline_fails(program):
    verdicts = checks.Verdicts()
    coef = program["fit"].coefficients.copy()
    coef[0, 5] += 1e-7
    checks.check_spline(verdicts, "test", program["times"], program["ys"], INTERVAL, program["knots"], coef)
    assert not verdicts.correct


def test_truth_and_noise_checks(program):
    verdicts = checks.Verdicts()
    checks.check_truth(verdicts, "test", program["truth"], checks.glv_truth(THETA, X0, program["times"]), theta=THETA)
    checks.check_noise(verdicts, "test", program["ys"] - program["truth"], 0.2)
    assert verdicts.correct, verdicts.failures

    shifted = program["truth"] + np.array([1e-6, 0.0])
    checks.check_truth(verdicts, "shifted", shifted, program["truth"], theta=THETA)
    checks.check_noise(verdicts, "doubled", 2.0 * (program["ys"] - program["truth"]), 0.2)
    assert [f.split(":")[0] for f in verdicts.failures] == ["shifted", "shifted", "doubled"]


def test_ks_statistic(program):
    sample = np.random.default_rng(5).standard_normal(60)
    statistic = ks_normality(sample).statistic
    verdicts = checks.Verdicts()
    checks.check_ks(verdicts, "exact", sample, statistic)
    checks.check_ks(verdicts, "perturbed", sample, statistic + 1e-9)
    assert [f.split(":")[0] for f in verdicts.failures] == ["perturbed"]
