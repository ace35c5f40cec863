"""Acceptance gate: ten numbered criteria, one test per criterion.

The criteria cover the spline layer, the integrators, the two estimator
entry points, the asymptotic diagnostics, and the replicated simulation
studies. Each test computes a verdict, records it on the shared scoreboard
(see conftest.py), and asserts it; the scoreboard prints one PASS/FAIL line
per criterion at the end of the run.

The Monte Carlo fixtures are module scoped and shared between criteria so
the whole gate stays inside its runtime budgets on a single core.
"""

import time

import numpy as np
import pytest

from gradmatch import (
    BSplineBasis,
    CriterionConfig,
    ExperimentConfig,
    IdentifiabilityError,
    KnotPolicy,
    KnotSequence,
    VectorFieldModel,
    WeightFunction,
    boundary_functional,
    criterion_hessian,
    damped_linear_field,
    design_matrix,
    duhamel_solve,
    eval_basis,
    eval_basis_derivative,
    eval_fit,
    fit_least_squares,
    fit_linear_in_theta,
    fit_nonlinear,
    glv_field,
    integrate,
    run_experiment,
    select_knots,
    simulate_data,
    uniform_knots,
)

REPS = 200
SEED = 20260815
FREE = [1, 2, 3, 5]

# coexistence design: no self-coupling, closed cycles around (1.5, 0.667)
CYCLE_THETA = (0.0, -1.5, 1.0, 2.0, 0.0, -1.5)
CYCLE_FIXED = {"a1": 0.0, "b2": 0.0}
CYCLE_X0 = (1.0, 2.0)

# damped design: prey self-limitation, spiral into (1.444, 0.667)
DAMPED_THETA = (0.0, -1.5, 1.0, 1.5, -1.0, -1.5)
DAMPED_FIXED = {"a1": 0.0, "b2": -1.0}
DAMPED_X0 = (4.0, 2.0)

# anchor values for the free components (a2, a3, b1, b3) of the coexistence
# design at n=500, fixed in advance from a 1000-replication reference study
REFERENCE_MEANS = np.array([-1.42, 0.95, 1.90, -1.44])
REFERENCE_STDS = np.array([0.06, 0.05, 0.08, 0.06])


def run_study(theta_star, fixed, x0, n, weights=("boundary", "uniform")):
    config = ExperimentConfig(
        model="glv",
        theta_star=theta_star,
        fixed=fixed,
        x0=x0,
        n=n,
        sigma=0.2,
        weights=weights,
        replications=REPS,
        seed=SEED,
    )
    start = time.perf_counter()
    table = run_experiment(config, n_jobs=1)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def cycle_study_n500():
    return run_study(CYCLE_THETA, CYCLE_FIXED, CYCLE_X0, 500)


@pytest.fixture(scope="module")
def damped_study_n500():
    return run_study(DAMPED_THETA, DAMPED_FIXED, DAMPED_X0, 500)


@pytest.fixture(scope="module")
def cycle_rate_studies():
    return {
        n: run_study(CYCLE_THETA, CYCLE_FIXED, CYCLE_X0, n, weights=("boundary",))
        for n in (200, 800)
    }


def random_basis(rng, order=None, min_gap=False):
    if order is None:
        order = int(rng.integers(2, 7))
    lo = float(rng.uniform(-5.0, 5.0))
    span = float(rng.uniform(0.5, 10.0))
    hi = lo + span
    m = int(rng.integers(0, 13)) if not min_gap else int(rng.integers(2, 9))
    if min_gap:
        # jittered uniform grid: gaps stay above 0.4 of the mean spacing
        slot = span / (m + 1)
        interior = lo + slot * (np.arange(1, m + 1) + rng.uniform(-0.3, 0.3, m))
    else:
        interior = np.unique(rng.uniform(lo + 1e-3 * span, hi - 1e-3 * span, m))
    return BSplineBasis(KnotSequence((lo, hi), tuple(interior), order))


def test_criterion_01_spline_property_suite(criteria):
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    # partition of unity over 1e4 random (basis, t) pairs, orders 2 through 6
    worst_unity = 0.0
    for _ in range(100):
        basis = random_basis(rng)
        lo, hi = basis.knots.interval
        rows = eval_basis(basis, rng.uniform(lo, hi, 100))
        worst_unity = max(worst_unity, float(np.max(np.abs(rows.sum(axis=1) - 1.0))))

    # analytic derivative against a fourth-order central difference, with
    # every stencil kept strictly inside one polynomial piece
    worst_deriv = 0.0
    for _ in range(20):
        basis = random_basis(rng, min_gap=True)
        lo, hi = basis.knots.interval
        h = 1e-4 * (hi - lo)
        breaks = np.concatenate(([lo], basis.knots.interior_knots, [hi]))
        pts = np.concatenate(
            [rng.uniform(a + 5 * h, b - 5 * h, 4) for a, b in zip(breaks[:-1], breaks[1:])]
        )
        exact = eval_basis_derivative(basis, pts, 1)
        fd = (
            -eval_basis(basis, pts + 2 * h)
            + 8 * eval_basis(basis, pts + h)
            - 8 * eval_basis(basis, pts - h)
            + eval_basis(basis, pts - 2 * h)
        ) / (12 * h)
        scale = np.max(np.abs(exact), axis=1)
        worst_deriv = max(worst_deriv, float(np.max(np.max(np.abs(fd - exact), axis=1) / scale)))

    # least-squares fits against the lstsq oracle on small problems
    worst_ls = 0.0
    for _ in range(20):
        order = int(rng.integers(2, 5))
        m = int(rng.integers(0, 11 - order))
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(1.0, 5.0))
        interior = tuple(uniform_knots((lo, hi), m))
        basis = BSplineBasis(KnotSequence((lo, hi), interior, order))
        n = int(rng.integers(basis.dimension + 3, 31))
        times = np.linspace(lo, hi, n) + rng.uniform(-0.3, 0.3, n) * (hi - lo) / n
        times = np.clip(np.sort(times), lo, hi)
        y = rng.normal(size=(n, 2))
        fit = fit_least_squares(basis, times, y)
        design = design_matrix(basis, times)
        oracle = np.linalg.lstsq(design, y, rcond=None)[0]
        worst_ls = max(worst_ls, float(np.max(np.abs(fit.coefficients.T - oracle))))

    elapsed = time.perf_counter() - start
    passed = worst_unity <= 1e-10 and worst_deriv <= 1e-6 and worst_ls <= 1e-8 and elapsed < 10
    criteria.check(
        1,
        passed,
        f"unity {worst_unity:.1e}, derivative {worst_deriv:.1e}, "
        f"least-squares {worst_ls:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_first_integral_conserved(criteria):
    start = time.perf_counter()
    theta = np.array(CYCLE_THETA)
    model = glv_field()
    ts = np.linspace(0.0, 20.0, 501)
    path = integrate(model, theta, np.array(CYCLE_X0), ts, tol=1e-9)
    x, y = path.states[:, 0], path.states[:, 1]
    # with no self-coupling the system is separable and conserves
    # b1*x + b3*log(x) - a2*y - a3*log(y) along every orbit
    a2, a3, b1, b3 = theta[1], theta[2], theta[3], theta[5]
    v = b1 * x + b3 * np.log(x) - a2 * y - a3 * np.log(y)
    drift = float(np.max(np.abs(v - v[0])))
    elapsed = time.perf_counter() - start
    passed = drift <= 1e-6 and elapsed < 1.0
    criteria.check(2, passed, f"max drift {drift:.2e}, {elapsed:.2f}s")


def test_criterion_03_closed_form_matches_iterative(criteria):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for sigma in (0.1, 0.2):
        config = ExperimentConfig(
            model="glv",
            theta_star=CYCLE_THETA,
            fixed=CYCLE_FIXED,
            x0=CYCLE_X0,
            n=300,
            sigma=sigma,
            replications=25,
            seed=SEED,
        )
        model = config.build_model()
        policy = KnotPolicy()
        for rep in range(25):
            times, y = simulate_data(config, rep)
            selection = select_knots(times, y, config.interval, policy)
            knots = KnotSequence(config.interval, selection.selected_knots, policy.order)
            fit = fit_least_squares(BSplineBasis(knots), times, y)
            weight = (
                WeightFunction.boundary_vanishing(config.interval)
                if rep % 2 == 0
                else WeightFunction.uniform(config.interval)
            )
            crit_config = CriterionConfig(weight=weight)
            closed = fit_linear_in_theta(fit, model, crit_config)
            iterative = fit_nonlinear(
                fit, model, theta_init=np.array(CYCLE_THETA), config=crit_config
            )
            worst = max(worst, float(np.max(np.abs(closed.theta_hat - iterative.theta_hat))))
            count += 1
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and count == 50 and elapsed < 30
    criteria.check(3, passed, f"50 fits, max gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_04_duhamel_matches_direct_integration(criteria):
    start = time.perf_counter()
    rng = np.random.default_rng(404)

    class _Forced:
        def __init__(self, a, forcing):
            self.a, self.forcing = a, forcing

        def field(self, t, x, theta):
            return self.a @ x + self.forcing(t)

    worst = 0.0
    for dim in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3):
        m = rng.normal(size=(dim, dim))
        a = m - (np.max(np.linalg.eigvals(m).real) + rng.uniform(0.3, 1.0)) * np.eye(dim)
        freq = rng.uniform(0.5, 3.0, size=dim)
        phase = rng.uniform(0.0, 2 * np.pi, size=dim)
        forcing = lambda t, f=freq, p=phase: np.cos(f * t + p)
        v0 = rng.normal(size=dim)
        ts = np.linspace(0.0, 5.0, 101)
        got = duhamel_solve(a, forcing, v0, ts, substeps=128)
        ref = integrate(_Forced(a, forcing), np.zeros(0), v0, ts, tol=1e-10)
        worst = max(worst, float(np.max(np.abs(got - ref.states))))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and elapsed < 5
    criteria.check(4, passed, f"sup error {worst:.1e} over 10 systems, {elapsed:.1f}s")


def test_criterion_05_mean_and_spread_at_n500(criteria, cycle_study_n500):
    table, elapsed = cycle_study_n500
    summary = table.weight_summary("boundary")
    mean_gap = np.abs(summary.mean[FREE] - REFERENCE_MEANS)
    std_ratio = summary.std[FREE] / REFERENCE_STDS
    passed = (
        bool(np.all(mean_gap <= 0.08))
        and bool(np.all((std_ratio >= 0.5) & (std_ratio <= 2.0)))
        and elapsed < 300
    )
    criteria.check(
        5,
        passed,
        f"max mean gap {mean_gap.max():.3f} (<=0.08), "
        f"std ratios {std_ratio.min():.2f}..{std_ratio.max():.2f} (in [0.5,2]), {elapsed:.0f}s",
    )


def test_criterion_06_weighting_reduces_error_on_damped_system(criteria, damped_study_n500):
    table, elapsed = damped_study_n500
    rmse_weighted = table.weight_summary("boundary").param_rmse
    rmse_uniform = table.weight_summary("uniform").param_rmse
    passed = rmse_weighted < rmse_uniform and elapsed < 300
    criteria.check(
        6,
        passed,
        f"rmse weighted {rmse_weighted:.3f} < uniform {rmse_uniform:.3f}, {elapsed:.0f}s",
    )


def test_criterion_07_root_n_rate_of_the_weighted_estimator(criteria, cycle_rate_studies):
    (small, t_small), (large, t_large) = cycle_rate_studies[200], cycle_rate_studies[800]
    std_small = small.weight_summary("boundary").std[FREE]
    std_large = large.weight_summary("boundary").std[FREE]
    ratios = std_small / std_large
    passed = bool(np.all((ratios >= 1.4) & (ratios <= 2.9)))
    criteria.check(
        7,
        passed,
        f"std ratios n=200/n=800 in {ratios.min():.2f}..{ratios.max():.2f} "
        f"(target [1.4,2.9] around 2), {t_small + t_large:.0f}s",
    )


def test_criterion_08_estimates_pass_normality_check(criteria, cycle_study_n500):
    table, _ = cycle_study_n500
    summary = table.weight_summary("boundary")
    free_names = {"a2", "a3", "b1", "b3"}
    results = [(name, res) for name, res in summary.ks if name in free_names]
    accepted = sum(1 for _, res in results if not res.reject)
    passed = len(results) == 4 and accepted >= 3
    criteria.check(8, passed, f"{accepted} of {len(results)} components consistent with normal")


def test_criterion_09_boundary_term_vanishes(criteria):
    rng = np.random.default_rng(909)
    all_zero = True
    worst_uniform = 0.0
    for trial in range(100):
        model = glv_field() if trial % 2 == 0 else damped_linear_field()
        theta = rng.normal(size=model.n_params)
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(1.0, 10.0))
        interior = tuple(uniform_knots((lo, hi), int(rng.integers(3, 9))))
        basis = BSplineBasis(KnotSequence((lo, hi), interior, 4))
        times = np.linspace(lo, hi, 40)
        fit = fit_least_squares(basis, times, rng.normal(size=(40, model.dim)))

        vanishing = boundary_functional(
            fit, model, theta, WeightFunction.boundary_vanishing((lo, hi))
        )
        if not np.all(vanishing == 0.0):
            all_zero = False

        got = boundary_functional(fit, model, theta, WeightFunction.uniform((lo, hi)))
        ends = np.array([lo, hi])
        states = eval_fit(fit, ends)
        jac = np.asarray(model.jacobian_param(ends, states, theta), dtype=float)
        oracle = jac[1].T @ states[1] - jac[0].T @ states[0]
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst_uniform = max(worst_uniform, float(np.max(np.abs(got - oracle))) / scale)
    passed = all_zero and worst_uniform <= 1e-12
    criteria.check(
        9,
        passed,
        f"vanishing weight exact zero: {all_zero}; "
        f"uniform vs endpoint assembly {worst_uniform:.1e}",
    )


def duplicated_param_model():
    """Two parameters multiply the same scalar function: never identifiable."""

    def g(t, state):
        return np.cos(t)[..., None] + state**2

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return (theta[0] + theta[1]) * g(t, state)

    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return ((theta[0] + theta[1]) * 2 * state)[..., None]

    def jacobian_param(t, state, theta):
        col = g(t, state)
        return np.concatenate([col[..., None], col[..., None]], axis=-1)

    return VectorFieldModel(
        dim=1,
        n_params=2,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=("k1", "k2"),
        linear=True,
    )


def test_criterion_10_identifiability_diagnostic(criteria):
    mask = np.array([True, False, False, False, True, False])
    details = []
    well_posed = True
    for theta, x0 in ((CYCLE_THETA, CYCLE_X0), (DAMPED_THETA, DAMPED_X0)):
        theta = np.array(theta)
        model = glv_field(fixed_mask=mask, fixed_values=np.where(mask, theta, 0.0))
        ts = np.linspace(0.0, 20.0, 1200)
        truth = integrate(model, theta, np.array(x0), ts, tol=1e-10)
        knots = KnotSequence((0.0, 20.0), tuple(uniform_knots((0.0, 20.0), 60)), 4)
        fit = fit_least_squares(BSplineBasis(knots), ts, truth.states)
        jstar, cond = criterion_hessian(
            fit, model, theta, WeightFunction.boundary_vanishing((0.0, 20.0)),
            np.linspace(0.0, 20.0, 4001),
        )
        eigs = np.linalg.eigvalsh(jstar)
        well_posed = well_posed and eigs.min() > 0 and cond < 1e6
        details.append(f"cond {cond:.3g}")

    dup = duplicated_param_model()
    interval = (0.0, 3.0)
    basis = BSplineBasis(KnotSequence(interval, (1.0, 2.0), 4))
    times = np.linspace(0.0, 3.0, 25)
    rng = np.random.default_rng(10)
    path = fit_least_squares(basis, times, rng.normal(size=(25, 1)))
    try:
        fit_linear_in_theta(
            path, dup, CriterionConfig(weight=WeightFunction.uniform(interval))
        )
        degenerate_flagged = False
    except IdentifiabilityError:
        degenerate_flagged = True

    passed = well_posed and degenerate_flagged
    criteria.check(
        10,
        passed,
        f"hessians PSD ({', '.join(details)}, both < 1e6); "
        f"degenerate model flagged: {degenerate_flagged}",
    )
