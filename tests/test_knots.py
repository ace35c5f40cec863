"""Tests for GCV scoring and the elimination/addition knot search."""

import dataclasses
import itertools

import numpy as np
import pytest

from gradmatch import DegreesOfFreedomError, GradMatchError
from gradmatch import knots
from gradmatch.knots import (
    KnotPolicy,
    SelectionResult,
    default_knot_count,
    effective_params,
    elim_add,
    gcv_score,
    select_knots,
    uniform_knots,
)
from gradmatch.montecarlo import ExperimentConfig, simulate_data
from gradmatch import splines
from gradmatch.splines import BSplineBasis, KnotSequence, design_matrix, fit_least_squares

from conftest import truncated_power_design

CYCLE = dict(theta_star=(0.0, -1.5, 1.0, 2.0, 0.0, -1.5), fixed={"a1": 0.0, "b2": 0.0}, x0=(1.0, 2.0))
DAMPED = dict(theta_star=(0.0, -1.5, 1.0, 1.5, -1.0, -1.5), fixed={"a1": 0.0, "b2": -1.0}, x0=(4.0, 2.0))
STUDY_SEED = 20260815


def reference_elim_add(times, y, interval, candidate_count, order=4, max_sweeps=10):
    """The elimination/addition walk with every trial scored by gcv_score.

    It is the oracle for elim_add; its trials counts its gcv_score calls.
    """
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    grid = uniform_knots(interval, candidate_count)
    calls = 0

    def score(idx):
        nonlocal calls
        calls += 1
        try:
            return gcv_score(ts, ys, grid[np.asarray(idx, dtype=int)], order, interval)
        except DegreesOfFreedomError:
            return np.inf

    current = list(range(candidate_count))
    current_score = score(current)
    best_subset, best_score = list(current), current_score

    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        changed = False

        while current:
            drop_pos, drop_score = None, np.inf
            for pos in range(len(current)):
                s = score(current[:pos] + current[pos + 1 :])
                if s < drop_score:
                    drop_pos, drop_score = pos, s
            forced = not np.isfinite(current_score)
            if drop_pos is None:
                drop_pos = 0  # everything scored +inf; still shrink deterministically
            if forced or drop_score < current_score:
                current = current[:drop_pos] + current[drop_pos + 1 :]
                current_score = drop_score
                changed = True
                if current_score < best_score:
                    best_subset, best_score = list(current), current_score
            else:
                break

        while True:
            pool = [j for j in range(candidate_count) if j not in current]
            add_j, add_score = None, np.inf
            for j in pool:
                s = score(sorted(current + [j]))
                if s < add_score:
                    add_j, add_score = j, s
            if add_j is not None and add_score < current_score:
                current = sorted(current + [add_j])
                current_score = add_score
                changed = True
                if current_score < best_score:
                    best_subset, best_score = list(current), current_score
            else:
                break

        if not changed:
            break

    if not np.isfinite(best_score):
        raise DegreesOfFreedomError(f"no scoreable knot subset for n = {ts.size}")
    return SelectionResult(
        selected_knots=tuple(float(v) for v in grid[np.asarray(best_subset, dtype=int)]),
        gcv_value=float(best_score),
        effective_params=effective_params(len(best_subset)),
        candidates=tuple(float(v) for v in grid),
        trials=calls,
        sweeps=sweeps,
    )


def study_datasets(design, n, reps):
    """Observations of replications 0 .. reps-1 of an acceptance-style study."""
    config = ExperimentConfig(model="glv", n=n, sigma=0.2, replications=reps, seed=STUDY_SEED, **design)
    for rep in range(reps):
        times, ys = simulate_data(config, rep)
        yield rep, times, ys, config.interval


class TestDefaults:
    def test_calibrated_sizes(self):
        assert default_knot_count(20) == 15
        assert default_knot_count(30) == 15
        assert default_knot_count(50) == 20
        assert default_knot_count(100) == 30
        assert default_knot_count(500) == 30
        assert default_knot_count(1000) == 30

    def test_bracketing(self):
        # nearest calibrated size, ties toward the smaller sample size
        assert default_knot_count(24) == 15   # nearer 20
        assert default_knot_count(25) == 15   # tie 20/30 -> 20
        assert default_knot_count(40) == 15   # tie 30/50 -> 30
        assert default_knot_count(41) == 20   # nearer 50
        assert default_knot_count(75) == 20   # tie 50/100 -> 50
        assert default_knot_count(76) == 30   # nearer 100

    def test_too_small(self):
        with pytest.raises(GradMatchError, match="need at least 10 observations"):
            default_knot_count(9)

    def test_uniform_grid(self):
        np.testing.assert_allclose(uniform_knots((0.0, 20.0), 3), [5.0, 10.0, 15.0])
        grid = uniform_knots((0.0, 20.0), 15)
        np.testing.assert_allclose(grid, np.arange(1, 16) * 20.0 / 16)

    def test_effective_params(self):
        assert effective_params(0) == 1
        assert effective_params(15) == 46


class TestGCVScore:
    def test_hand_computation(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 1.0, 40)
        y = np.sin(2 * np.pi * times) + 0.1 * rng.normal(size=40)
        subset = (0.25, 0.5, 0.75)
        got = gcv_score(times, y, subset, 4, (0.0, 1.0))
        basis = BSplineBasis(KnotSequence((0.0, 1.0), subset, 4))
        design = design_matrix(basis, times)
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        rss = float(np.sum((y - design @ coef) ** 2))
        d = 3 * 3 + 1
        want = (rss / 40) / (1 - d / 40) ** 2
        assert got == pytest.approx(want, rel=1e-12)

    def test_sums_over_dimensions(self):
        rng = np.random.default_rng(1)
        times = np.linspace(0.0, 1.0, 50)
        y = rng.normal(size=(50, 2))
        subset = (0.5,)
        total = gcv_score(times, y, subset, 4, (0.0, 1.0))
        parts = [gcv_score(times, y[:, i], subset, 4, (0.0, 1.0)) for i in range(2)]
        assert total == pytest.approx(sum(parts), rel=1e-12)

    def test_dof_guard(self):
        times = np.linspace(0.0, 1.0, 10)
        with pytest.raises(DegreesOfFreedomError):
            gcv_score(times, np.zeros(10), tuple(uniform_knots((0.0, 1.0), 3)), 4, (0.0, 1.0))


def exhaustive_best(times, y, interval, grid, order=4):
    """Brute-force oracle: best GCV over all subsets of the candidate grid."""
    best, best_subset = np.inf, ()
    for m in range(len(grid) + 1):
        for combo in itertools.combinations(range(len(grid)), m):
            subset = tuple(grid[list(combo)])
            try:
                s = gcv_score(times, y, subset, order, interval)
            except DegreesOfFreedomError:
                continue
            if s < best:
                best, best_subset = s, subset
    return best, best_subset


class TestElimAdd:
    def test_matches_exhaustive_on_small_grids(self):
        # greedy is a heuristic, but on easy smooth targets with few
        # candidates it should land on the global GCV optimum
        rng = np.random.default_rng(2)
        times = np.linspace(0.0, 1.0, 60)
        y = np.sin(2 * np.pi * times) + 0.05 * rng.normal(size=60)
        grid = uniform_knots((0.0, 1.0), 5)
        result = elim_add(times, y, (0.0, 1.0), 5)
        best, best_subset = exhaustive_best(times, y, (0.0, 1.0), grid)
        assert result.gcv_value == pytest.approx(best, rel=1e-10)
        np.testing.assert_allclose(result.selected_knots, best_subset)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 20.0, 100)
        y = np.cos(times) + 0.2 * rng.normal(size=100)
        r1 = elim_add(times, y, (0.0, 20.0), 10)
        r2 = elim_add(times, y, (0.0, 20.0), 10)
        assert r1 == r2

    def test_selected_is_subset_of_grid(self):
        rng = np.random.default_rng(4)
        times = np.linspace(0.0, 1.0, 80)
        y = np.exp(times) + 0.1 * rng.normal(size=80)
        result = elim_add(times, y, (0.0, 1.0), 8)
        assert set(result.selected_knots) <= set(result.candidates)
        assert result.effective_params == 3 * len(result.selected_knots) + 1

    def test_never_worse_than_endpoints_of_walk(self):
        # returned subset is at least as good as both the full candidate grid
        # and the empty subset whenever those are scoreable
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 70)
        y = np.sin(3 * times) + 0.3 * rng.normal(size=70)
        result = elim_add(times, y, (0.0, 1.0), 6)
        full = gcv_score(times, y, tuple(result.candidates), 4, (0.0, 1.0))
        empty = gcv_score(times, y, (), 4, (0.0, 1.0))
        assert result.gcv_value <= full + 1e-12
        assert result.gcv_value <= empty + 1e-12

    def test_infeasible_start_forces_elimination(self):
        # n = 20 with 15 candidates gives 46 effective params >= n; the walk
        # must still return a feasible subset
        rng = np.random.default_rng(6)
        times = np.arange(20) * 20.0 / 20
        y = np.sin(times) + 0.2 * rng.normal(size=20)
        result = elim_add(times, y, (0.0, 20.0), 15)
        assert np.isfinite(result.gcv_value)
        assert result.effective_params < 20

    def test_multidimensional_shared_knots(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 1.0, 90)
        y = np.column_stack([np.sin(2 * np.pi * times), np.cos(2 * np.pi * times)])
        y = y + 0.05 * rng.normal(size=y.shape)
        result = elim_add(times, y, (0.0, 1.0), 6)
        assert np.isfinite(result.gcv_value)
        # a straight line cannot explain a full sine period: some knot survives
        assert len(result.selected_knots) >= 1


def walk_flips(got, want, bound=1e-13):
    """() when got made want's decisions and its gcv_value is within bound of want's (relative), else both.

    The walk scores trials by sweeps and the chosen fit on the grid's K rows,
    so gcv_value moves at rounding level from gcv_score's n-row solve.
    """
    same = (got.selected_knots, got.candidates, got.effective_params, got.trials, got.sweeps) == (
        want.selected_knots,
        want.candidates,
        want.effective_params,
        want.trials,
        want.sweeps,
    )
    if same and (got.gcv_value == want.gcv_value or abs(got.gcv_value - want.gcv_value) <= bound * want.gcv_value):
        return ()
    return (got.gcv_value, want.gcv_value)


def assert_same_walk(got, want, context=None, bound=1e-13):
    assert not walk_flips(got, want, bound), (context, got, want)


def project(times, y, basis):
    """JR, A, R_Y = Q_B' Y and the RSS outside the grid's span, from the basis' cached factor on times."""
    qb, _, jr, a = knots._grid_factor(basis, times.tobytes())
    ry = qb.T @ y
    return jr, a, ry, np.sum((y - qb @ ry) ** 2, axis=0)


def swept_case(rng, n, order, dims, candidate_count, moves=40):
    """A jittered sample, its grid's tables and W swept on a random set of knots by `moves` random drops and adds.

    Returns times, y, interval, grid, the dropped mask, W, rss0 and A.
    """
    interval = (0.0, 1.0)
    times = np.sort((np.arange(n) + rng.uniform(0.1, 0.9, n)) / n)
    y = np.sin(2 * np.pi * times)[:, None] * np.arange(1, dims + 1) + 0.1 * rng.normal(size=(n, dims))
    grid = uniform_knots(interval, candidate_count)
    basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
    jr, a, ry, rss0 = project(times, y, basis)
    w = knots._bordered(jr, a, ry)
    dropped = np.zeros(candidate_count, dtype=bool)
    room = min(candidate_count, (n - 5) // 3)  # the most knots a trial may keep and still be scoreable
    for _ in range(moves):
        kept = np.flatnonzero(~dropped)
        if kept.size > 1 and (kept.size + 1 >= room or rng.random() < 0.5):
            k = rng.choice(kept)
        else:
            k = rng.choice(np.flatnonzero(dropped))
        knots._sweep(w, k)
        dropped[k] = not dropped[k]
    return times, y, interval, grid, dropped, w, rss0, a


class TestSweptScores:
    """The swept scores against gcv_score, their definition."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_refinement_maps_subset_basis_into_grid_basis(self, order):
        interval, grid = (0.0, 1.0), uniform_knots((0.0, 1.0), 12)
        times = np.linspace(0.0, 1.0, 60)
        grid_basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        subset = BSplineBasis(KnotSequence(interval, tuple(grid[[1, 4, 5, 9]]), order))
        full = design_matrix(grid_basis, times)
        part = design_matrix(subset, times)
        np.testing.assert_allclose(full @ knots._refinement(grid_basis, subset), part, rtol=0, atol=1e-13)
        np.testing.assert_allclose(knots._refinement(grid_basis, grid_basis), np.eye(grid.size + order), atol=1e-14)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("n", [20, 60, 500])
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_drop_and_add_scores_match_gcv_score(self, order, n, dims):
        rng = np.random.default_rng(1000 * order + n + dims)
        candidates = {20: 8, 60: 15, 500: 30}[n]
        for _ in range(3):
            times, y, interval, grid, dropped, w, rss0, a = swept_case(rng, n, order, dims, candidates)
            y_in = y[:, 0] if dims == 1 else y
            idx = np.flatnonzero(~dropped)
            # the current subset's RSS, then each drop and each add
            rss = rss0 - w.diagonal()[candidates:]
            want = gcv_score(times, y_in, grid[idx], order, interval)
            assert knots._gcv(rss, n, idx.size) == pytest.approx(want, rel=1e-10, abs=0)
            for add, m in ((False, idx.size - 1), (True, idx.size + 1)):
                ks = np.flatnonzero(dropped == add)
                assert knots._pivots_pass(w, a, ks, add).all()  # the swept path, not the fallback
                rss = knots._toggled_rss(w, rss0, ks)
                subsets = [np.flatnonzero(dropped == (np.arange(candidates) == k)) for k in ks]
                want = [gcv_score(times, y_in, grid[s], order, interval) for s in subsets]
                np.testing.assert_allclose(knots._gcv(rss, n, m), want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [60, 500])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_moves_keep_w_the_sweep_of_its_dropped_set(self, order, n):
        # after 40 random drops and adds, W equals its closed form on the dropped set D and the kept set K
        rng = np.random.default_rng(7000 + 10 * order + n)
        candidates = {60: 15, 500: 30}[n]
        times, y, interval, grid, dropped, w, _, a = swept_case(rng, n, order, 2, candidates)
        jr, _, ry, _ = project(times, y, BSplineBasis(KnotSequence(interval, tuple(grid), order)))
        r = jr @ ry
        d, k = np.flatnonzero(dropped), np.flatnonzero(~dropped)
        assert d.size and k.size
        inv = np.linalg.inv(a[np.ix_(d, d)])
        want = np.zeros_like(w)
        want[np.ix_(d, d)] = -inv
        want[np.ix_(d, k)] = inv @ a[np.ix_(d, k)]
        want[np.ix_(k, d)] = want[np.ix_(d, k)].T
        want[np.ix_(k, k)] = a[np.ix_(k, k)] - a[np.ix_(k, d)] @ inv @ a[np.ix_(d, k)]
        want[d, candidates:] = inv @ r[d]
        want[k, candidates:] = r[k] - a[np.ix_(k, d)] @ inv @ r[d]
        want[candidates:, :candidates] = want[:candidates, candidates:].T
        want[candidates:, candidates:] = -r[d].T @ inv @ r[d]
        bound = (1e-14 + 1e-15 * np.linalg.cond(a[np.ix_(d, d)])) * np.abs(want).max()
        np.testing.assert_allclose(w, want, rtol=0, atol=bound)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_a_sweep_and_its_reverse_restore_w(self, order):
        rng = np.random.default_rng(order)
        *_, dropped, w, _, _ = swept_case(rng, 500, order, 2, 30)
        start = w.copy()
        ks = rng.permutation(30)[:12]
        for k in ks:
            knots._sweep(w, k)
        for k in ks[::-1]:
            knots._sweep(w, k)
        np.testing.assert_allclose(w, start, rtol=0, atol=1e-13 * np.abs(start).max())
        # one knot swept twice, with the signs of its row kept
        k = int(np.flatnonzero(dropped)[0])
        knots._sweep(w, k)
        knots._sweep(w, k)
        np.testing.assert_allclose(w, start, rtol=0, atol=1e-13 * np.abs(start).max())

    @pytest.mark.parametrize("add", [False, True])
    def test_a_pivot_under_the_cutoff_fails(self, add):
        *_, dropped, w, _, a = swept_case(np.random.default_rng(3), 60, 4, 1, 15)
        ks = np.flatnonzero(dropped == add)
        assert knots._pivots_pass(w, a, ks, add).all()
        # an A whose diagonal puts SV_CUTOFF A[k, k] just over, then just under, the pivot of the sweep's last knot
        k = ks[-1]
        pivot = -1.0 / w[k, k] if add else w[k, k]
        scaled = a.copy()
        scaled[k, k] = 1.01 * pivot / splines.SV_CUTOFF
        assert knots._pivots_pass(w, scaled, ks, add).tolist() == [True] * (ks.size - 1) + [False]
        scaled[k, k] = 0.99 * pivot / splines.SV_CUTOFF
        assert knots._pivots_pass(w, scaled, ks, add).all()


class TestGridTables:
    def test_cached_tables_are_read_only_and_equal_a_fresh_build(self):
        interval, order = (0.0, 20.0), 4
        basis = BSplineBasis(KnotSequence(interval, tuple(uniform_knots(interval, 30)), order))
        fresh = knots._grid_tables.__wrapped__(basis)
        first = knots._grid_tables(basis)
        assert knots._grid_tables(BSplineBasis(KnotSequence(interval, tuple(uniform_knots(interval, 30)), order))) is first
        names = ("jumps", "sites", "collocate")
        assert len(fresh) == len(first) == len(names)
        for name, got, want in zip(names, first, fresh):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = 0.0

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_collocation_gives_truncated_power_coefficients(self, order):
        interval = (0.0, 2.0)
        grid = uniform_knots(interval, 7)
        ts = np.linspace(0.0, 2.0, 301)
        basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        _, sites, collocate = knots._grid_tables(basis)
        coef = collocate @ truncated_power_design(interval, grid, order, sites)[:, order:]
        want = truncated_power_design(interval, grid, order, ts)[:, order:]
        np.testing.assert_allclose(design_matrix(basis, ts) @ coef, want, rtol=0, atol=1e-13)

    def test_cached_factor_is_read_only_and_equals_its_definition(self):
        interval, order = (0.0, 20.0), 4
        grid = uniform_knots(interval, 30)
        basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        ts = np.linspace(0.0, 20.0, 200)
        tables = knots._grid_factor(basis, ts.tobytes())
        qb, rb, jr, a = tables
        want = design_matrix(basis, ts)
        assert qb.shape == want.shape and rb.shape == (want.shape[1],) * 2
        np.testing.assert_allclose(qb @ rb, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(qb.T @ qb, np.eye(rb.shape[0]), rtol=0, atol=1e-14)
        jumps = knots._grid_tables(basis)[0]
        np.testing.assert_allclose(jr @ rb, jumps, rtol=0, atol=1e-12 * np.abs(jumps).max())
        assert a.tobytes() == (jr @ jr.T).tobytes()
        for array in (qb, rb, jr, a):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        # built once per grid and times
        assert knots._grid_factor(basis, ts.copy().tobytes()) is tables
        assert knots._grid_factor(basis, ts[:-1].tobytes()) is not tables
        assert knots._grid_factor.cache_info().maxsize is not None

    def test_a_warm_search_builds_no_design(self, monkeypatch):
        interval = (0.0, 20.0)
        ts = np.linspace(0.0, 20.0, 200)
        y = np.sin(ts)
        elim_add(ts, y, interval, 30)
        calls = []
        for module in (knots, splines):
            real = module.design_matrix
            monkeypatch.setattr(module, "design_matrix", lambda *args, real=real: calls.append(args) or real(*args))
        elim_add(ts, np.cos(ts), interval, 30)
        assert calls == []
        # the fixed grid is fit by fit_least_squares' own n-row solve
        select_knots(ts, y, interval, KnotPolicy(candidate_count=30, selection="fixed-uniform"))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "times, rank_deficient",
        [
            # no observations in (0.3, 0.7): the full grid is rank-deficient
            (np.concatenate((np.linspace(0.0, 0.3, 40), np.linspace(0.7, 1.0, 40))), True),
            # fewer times than basis functions
            (np.linspace(0.0, 1.0, 12), True),
            (np.linspace(0.0, 1.0, 80), False),
        ],
        ids=["gap", "n-below-K", "regular"],
    )
    def test_the_sweep_tables_are_none_where_r_b_is_rank_deficient(self, times, rank_deficient):
        basis = BSplineBasis(KnotSequence((0.0, 1.0), tuple(uniform_knots((0.0, 1.0), 9)), 4))
        qb, rb, jr, a = knots._grid_factor(basis, times.tobytes())
        assert (jr is None and a is None) == rank_deficient
        np.testing.assert_allclose(qb @ rb, design_matrix(basis, times), rtol=0, atol=1e-14)


def irregular_design(seed):
    """Seeded irregular sample on (0, 1): times uniform at random, clustered with gaps, or repeated.

    n from 15 to 300, d from 1 to 3, 5 to 30 candidates.  The clustered times
    leave the grid rank-deficient on most seeds; seed 176's repeated times make
    a drop sweep with a pivot under the cutoff.
    """
    rng = np.random.default_rng(seed)
    n, d, count = int(rng.integers(15, 301)), int(rng.integers(1, 4)), int(rng.integers(5, 31))
    kind = ("uniform", "clustered", "repeated")[seed % 3]
    if kind == "uniform":
        times = rng.uniform(0.0, 1.0, n)
    elif kind == "clustered":
        centres = rng.uniform(0.0, 1.0, int(rng.integers(2, 6)))
        times = np.clip(centres[rng.integers(0, centres.size, n)] + 0.03 * rng.normal(size=n), 0.0, 1.0)
    else:
        times = np.repeat(rng.uniform(0.0, 1.0, -(-n // 3)), 3)[:n]
    freq = rng.uniform(1.0, 4.0, d)
    times = np.sort(times)
    y = np.sin(2 * np.pi * freq * times[:, None]) + 0.1 * rng.normal(size=(n, d))
    return times, y, (0.0, 1.0), count


def assert_irregular_designs_walk_as_the_reference(seeds):
    for seed in seeds:
        times, y, interval, count = irregular_design(seed)
        try:
            want = reference_elim_add(times, y, interval, count)
        except DegreesOfFreedomError as err:
            with pytest.raises(DegreesOfFreedomError, match=str(err).split(" and ")[0]):
                elim_add(times, y, interval, count)
            continue
        # repeated and clustered times leave designs of condition up to 3.1e9, where
        # the K-row and n-row solves agree to 1.4 eps cond; 1e-15 cond bounds that
        basis = BSplineBasis(KnotSequence(interval, want.selected_knots, 4))
        bound = max(1e-13, 1e-15 * np.linalg.cond(design_matrix(basis, times)))
        assert_same_walk(elim_add(times, y, interval, count), want, seed, bound)


class TestMatchesReferenceWalk:
    @pytest.mark.parametrize("n", [20, 50, 200, 1000])
    @pytest.mark.parametrize("design", [CYCLE, DAMPED], ids=["cycle", "damped"])
    def test_study_replications(self, design, n):
        # same knots, as many scored subsets as the reference makes gcv_score
        # calls, and the gcv_value within rounding
        for rep, times, ys, interval in study_datasets(design, n, 10):
            count = default_knot_count(n)
            want = reference_elim_add(times, ys, interval, count)
            assert_same_walk(elim_add(times, ys, interval, count), want, rep)

    @pytest.mark.parametrize("n", [20, 50, 200, 1000])
    @pytest.mark.parametrize("design", [CYCLE, DAMPED], ids=["cycle", "damped"])
    def test_one_factorization_per_search(self, design, n, monkeypatch):
        # a study's replications share the grid and the times: its first search factors
        # the grid's design, every later one reads that factor, and each accepted move is one sweep
        knots._grid_factor.cache_clear()
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append("qr") or qr(*a, **k))
        monkeypatch.setattr(knots, "gcv_score", lambda *a: calls.append("gcv_score") or gcv_score(*a))
        swept = []
        sweep = knots._sweep
        monkeypatch.setattr(knots, "_sweep", lambda w, k: swept.append(k) or sweep(w, k))
        count = default_knot_count(n)
        for rep, times, ys, interval in study_datasets(design, n, 10):
            swept.clear()
            result = elim_add(times, ys, interval, count)
            assert calls == ["qr"], rep
            info = knots._grid_factor.cache_info()
            assert (info.misses, info.hits) == (1, rep), rep
            # a knot dropped and added back is swept twice
            net = count - len(result.selected_knots)
            assert len(swept) >= net and (len(swept) - net) % 2 == 0, rep

    # ten of the slow gate's designs: the first nine and the one whose pivot rule trips
    @pytest.mark.parametrize("seed", [*range(9), 176])
    def test_irregular_designs(self, seed):
        assert_irregular_designs_walk_as_the_reference([seed])

    @pytest.mark.parametrize("seed, tables", [(1, False), (176, True)])
    def test_irregular_designs_reach_both_fallbacks(self, seed, tables, monkeypatch):
        # seed 1's clustered times leave R_B rank-deficient; seed 176's repeated times make a pivot under the cutoff
        times, y, interval, count = irregular_design(seed)
        basis = BSplineBasis(KnotSequence(interval, tuple(uniform_knots(interval, count)), 4))
        assert (knots._grid_factor(basis, times.tobytes())[3] is not None) == tables
        calls = []
        monkeypatch.setattr(knots, "gcv_score", lambda *a: calls.append(a) or gcv_score(*a))
        result = elim_add(times, y, interval, count)
        # a grid without sweep tables scores every trial but the unscoreable ones by gcv_score; a pivot, one sweep
        assert 0 < len(calls) < result.trials / 2 if tables else len(calls) > result.trials / 2

    def test_w_is_dropped_at_a_move_whose_pivot_fails(self, monkeypatch):
        # seed 1094's repeated times make the walk accept a drop whose own pivot fails: W is
        # not read after it, and every score read before it is the toggled subset's
        # gcv_score to 7e-11 (a sweep on that pivot would put later reads 4e-2 off)
        seed = 1094
        times, y, interval, count = irregular_design(seed)
        grid = uniform_knots(interval, count)
        checks, reads = [], []
        pivots_pass, toggled_rss = knots._pivots_pass, knots._toggled_rss

        def spy_pass(w, a, ks, add):
            out = pivots_pass(w, a, ks, add)
            # a move checks its one knot, a sweep's scores the whole array
            checks.append((np.ndim(ks) == 0, np.copy(ks), add, bool(out.all())))
            return out

        def spy_rss(w, rss0, ks):
            reads.append((len(checks) - 1, toggled_rss(w, rss0, ks)))
            return reads[-1][1]

        monkeypatch.setattr(knots, "_pivots_pass", spy_pass)
        monkeypatch.setattr(knots, "_toggled_rss", spy_rss)
        assert_same_walk(elim_add(times, y, interval, count), reference_elim_add(times, y, interval, count), seed)
        failed = [i for i, (move, _, _, ok) in enumerate(checks) if move and not ok]
        assert failed and reads and reads[-1][0] < failed[0]
        for i, rss in reads:
            _, ks, add, _ = checks[i]
            dropped = np.isin(np.arange(count), ks) == add
            subsets = [np.flatnonzero(dropped == (np.arange(count) == k)) for k in ks]
            want = [gcv_score(times, y, grid[idx], 4, interval) for idx in subsets]
            m = count - ks.size + 1 if add else ks.size - 1
            np.testing.assert_allclose(knots._gcv(rss, times.size, m), want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("design", [CYCLE, DAMPED], ids=["cycle", "damped"])
    def test_fine_grid_needs_no_gcv_score(self, design, monkeypatch):
        # 60 candidates at n = 1000: every trial is scored by sweeps
        for rep, times, ys, interval in study_datasets(design, 1000, 2):
            want = reference_elim_add(times, ys, interval, 60)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(knots, "gcv_score", lambda *a: calls.append(a) or gcv_score(*a))
                got = elim_add(times, ys, interval, 60)
            assert calls == [], rep
            assert_same_walk(got, want, rep)

    @pytest.mark.parametrize(
        "times",
        [
            # no observations in (0.3, 0.7): the full grid is rank-deficient
            np.concatenate((np.linspace(0.0, 0.3, 40), np.linspace(0.7, 1.0, 40))),
            # none beyond the last candidate, 0.9: the last B-spline vanishes on the data
            np.linspace(0.0, 0.88, 70),
        ],
        ids=["gap", "empty-tail"],
    )
    def test_rank_deficient_grids_fall_back_to_gcv_score(self, times, monkeypatch):
        rng = np.random.default_rng(9)
        y = np.cos(4 * times) + 0.05 * rng.normal(size=times.size)
        want = reference_elim_add(times, y, (0.0, 1.0), 9)
        calls = []
        monkeypatch.setattr(knots, "gcv_score", lambda *a: calls.append(a) or gcv_score(*a))
        assert_same_walk(elim_add(times, y, (0.0, 1.0), 9), want)
        # every trial but those with too many parameters, scored one by one
        assert 1 < len(calls) <= want.trials

    def test_sweeps_bounded_by_max_sweeps(self, monkeypatch):
        rng = np.random.default_rng(10)
        times = np.linspace(0.0, 1.0, 120)
        y = np.sin(6 * times) + 0.2 * rng.normal(size=120)
        for max_sweeps in (1, 2, 10):
            monkeypatch.setattr(knots, "_MAX_SWEEPS", max_sweeps)
            got = elim_add(times, y, (0.0, 1.0), 12)
            assert 1 <= got.sweeps <= max_sweeps
            want = reference_elim_add(times, y, (0.0, 1.0), 12, max_sweeps=max_sweeps)
            assert_same_walk(got, want)


@pytest.mark.slow
def test_knots_equal_reference_on_acceptance_studies():
    # every replication of the 200-replication cycle and damped studies at
    # n = 500, and of studies at n = 20 and n = 1000
    flips = []
    for design, name in ((CYCLE, "cycle"), (DAMPED, "damped")):
        for n in (20, 500, 1000):
            count = default_knot_count(n)
            for rep, times, ys, interval in study_datasets(design, n, 200):
                want = reference_elim_add(times, ys, interval, count)
                flip = walk_flips(elim_add(times, ys, interval, count), want)
                if flip:
                    flips.append((name, n, rep, *flip))
    assert not flips, flips


@pytest.mark.slow
def test_knots_equal_reference_on_fine_grid():
    # 60 candidates at n = 1000: 100 replications of each design
    flips = []
    for design, name in ((CYCLE, "cycle"), (DAMPED, "damped")):
        for rep, times, ys, interval in study_datasets(design, 1000, 100):
            want = reference_elim_add(times, ys, interval, 60)
            flip = walk_flips(elim_add(times, ys, interval, 60), want)
            if flip:
                flips.append((name, rep, *flip))
    assert not flips, flips


@pytest.mark.slow
def test_knots_equal_reference_on_irregular_designs():
    # 300 seeded irregular designs (see irregular_design)
    assert_irregular_designs_walk_as_the_reference(range(300))


class TestSelectKnots:
    def test_fixed_uniform_policy(self):
        times = np.linspace(0.0, 1.0, 200)
        y = np.sin(times)
        policy = KnotPolicy(candidate_count=4, selection="fixed-uniform")
        result = select_knots(times, y, (0.0, 1.0), policy)
        np.testing.assert_allclose(result.selected_knots, [0.2, 0.4, 0.6, 0.8])

    def test_default_count_from_sample_size(self):
        rng = np.random.default_rng(8)
        times = np.linspace(0.0, 1.0, 50)
        y = np.sin(2 * np.pi * times) + 0.1 * rng.normal(size=50)
        result = select_knots(times, y, (0.0, 1.0), KnotPolicy())
        assert len(result.candidates) == 20

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            KnotPolicy(candidate_count=-1)
        with pytest.raises(ValueError):
            KnotPolicy(selection="random")

    @pytest.mark.parametrize("selection", ["elim-add", "fixed-uniform"])
    @pytest.mark.parametrize("n", [20, 50, 100, 200, 500, 1000])
    @pytest.mark.parametrize("design", [CYCLE, DAMPED], ids=["cycle", "damped"])
    def test_fit_and_gcv_value_equal_their_definitions(self, design, n, selection):
        # a search's K-row solve of the chosen subset gives both: the fit within
        # 1e-12 relative (max-norm) of fit_least_squares', gcv_value within 1e-13
        # relative of gcv_score; the fixed grid is fit_least_squares' own solve, bit
        # for bit.  The grid path is within 1e-12 of the fit's coefficients refined by T_S
        policy = KnotPolicy(selection=selection)
        for rep, times, ys, interval in study_datasets(design, n, 3):
            result = select_knots(times, ys, interval, policy)
            basis = BSplineBasis(KnotSequence(interval, result.selected_knots, policy.order))
            got, want = result.fit, fit_least_squares(basis, times, ys)
            bound, gcv_bound = (1e-12, 1e-13) if selection == "elim-add" else (0.0, 0.0)

            def assert_close(got, want, context, bound=bound):
                assert got.shape == want.shape, context
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), context

            assert got.basis == want.basis, rep
            assert got.times.tobytes() == want.times.tobytes(), rep
            assert got.rank_deficient == want.rank_deficient, rep
            assert_close(got.coefficients, want.coefficients, (rep, "coefficients"))
            assert_close(got.residual_variance, want.residual_variance, (rep, "residual_variance"))
            grid_knots, g = got.grid_path
            grid_basis = BSplineBasis(grid_knots)
            assert grid_knots.interior_knots == result.candidates, rep
            assert_close(g, want.coefficients @ knots._refinement(grid_basis, basis).T, (rep, "grid path"), 1e-12)
            if result.effective_params < n:
                want_gcv = gcv_score(times, ys, result.selected_knots, policy.order, interval)
                assert abs(result.gcv_value - want_gcv) <= gcv_bound * want_gcv, rep
            else:
                assert result.gcv_value == np.inf, rep
                with pytest.raises(DegreesOfFreedomError):
                    gcv_score(times, ys, result.selected_knots, policy.order, interval)

    def test_fit_is_left_out_of_equality_and_repr(self):
        times = np.linspace(0.0, 1.0, 60)
        result = select_knots(times, np.sin(4 * times), (0.0, 1.0), KnotPolicy(candidate_count=5))
        assert result.fit is not None
        assert result == dataclasses.replace(result, fit=None)
        assert "fit=" not in repr(result)

    def test_result_is_plain_data(self):
        result = SelectionResult((0.5,), 1.0, 4, (0.25, 0.5, 0.75))
        assert result.selected_knots == (0.5,)
        assert (result.trials, result.sweeps) == (0, 0)
