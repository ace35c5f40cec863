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


def nested_case(rng, n, order, dims, candidate_count):
    """Jittered sample, its nested space, and a random knot subset with room to add."""
    interval = (0.0, 1.0)
    times = np.sort((np.arange(n) + rng.uniform(0.1, 0.9, n)) / n)
    y = np.sin(2 * np.pi * times)[:, None] * np.arange(1, dims + 1) + 0.1 * rng.normal(size=(n, dims))
    grid = uniform_knots(interval, candidate_count)
    space = knots._NestedSpace(times, y, interval, grid, order)
    size = rng.integers(1, min(candidate_count, (n - 5) // 3))
    idx = sorted(int(j) for j in rng.choice(candidate_count, size, replace=False))
    return times, y, interval, grid, space, space.factor(idx)


class TestNestedSpace:
    """The nested scores against gcv_score, their definition."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_refinement_maps_subset_basis_into_grid_basis(self, order):
        rng = np.random.default_rng(order)
        times, _, interval, grid, space, subset = nested_case(rng, 60, order, 1, 12)
        full = design_matrix(BSplineBasis(KnotSequence(interval, tuple(grid), order)), times)
        part = design_matrix(BSplineBasis(KnotSequence(interval, tuple(grid[subset.idx]), order)), times)
        np.testing.assert_allclose(full @ space.refinement(subset.idx), part, rtol=0, atol=1e-13)
        np.testing.assert_allclose(space.refinement(list(range(grid.size))), np.eye(grid.size + order), atol=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_collocation_gives_truncated_power_coefficients(self, order):
        interval = (0.0, 2.0)
        grid = uniform_knots(interval, 7)
        ts = np.linspace(0.0, 2.0, 301)
        space = knots._NestedSpace(ts, np.sin(ts)[:, None], interval, grid, order)
        coef = space.collocate @ truncated_power_design(interval, grid, order, space.sites)[:, order:]
        full = design_matrix(BSplineBasis(KnotSequence(interval, tuple(grid), order)), ts)
        want = truncated_power_design(interval, grid, order, ts)[:, order:]
        np.testing.assert_allclose(full @ coef, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("n", [20, 60, 500])
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_drop_and_add_scores_match_gcv_score(self, order, n, dims):
        rng = np.random.default_rng(1000 * order + n + dims)
        candidates = {20: 8, 60: 15, 500: 30}[n]
        for _ in range(3):
            times, y, interval, grid, space, subset = nested_case(rng, n, order, dims, candidates)
            y_in = y[:, 0] if dims == 1 else y
            assert subset.fit is not None  # the nested path, not the fallback
            idx = subset.idx
            want = [gcv_score(times, y_in, grid[idx[:p] + idx[p + 1 :]], order, interval) for p in range(len(idx))]
            np.testing.assert_allclose(space.drop_scores(subset), want, rtol=1e-10, atol=0)
            pool = [j for j in range(candidates) if j not in idx]
            want = [gcv_score(times, y_in, grid[sorted(idx + [j])], order, interval) for j in pool]
            np.testing.assert_allclose(space.add_scores(subset, pool), want, rtol=1e-10, atol=0)
            assert space.score(subset) == pytest.approx(gcv_score(times, y_in, grid[idx], order, interval), rel=1e-10)


def walked_case(rng, n, order, dims, candidate_count, moves=40):
    """A nested_case subset moved by random drops and adds, its basis updated at each move.

    Returns the case and the numbers of drops, adds and fresh factorizations made.
    """
    times, y, interval, grid, space, subset = nested_case(rng, n, order, dims, candidate_count)
    calls = []
    refinement = space.refinement
    space.refinement = lambda idx: calls.append(idx) or refinement(idx)
    room = min(candidate_count, (n - 5) // 3)
    drops = adds = 0
    for _ in range(moves):
        pool = [j for j in range(candidate_count) if j not in subset.idx]
        if len(subset.idx) > 1 and (len(subset.idx) + 1 >= room or rng.random() < 0.5):
            subset = space.drop(subset, int(rng.integers(len(subset.idx))))
            drops += 1
        else:
            subset = space.add(subset, int(rng.choice(pool)))
            adds += 1
    return (times, y, interval, grid, space, subset), drops, adds, len(calls)


class TestCarriedBasis:
    """The basis the walk updates per knot move, against a fresh factorization.

    An add's new column carries a relative rounding error of about eps |g_j| / |h_j|:
    the truncated power g_j is mostly in the span already.  So R_B C - q and the
    distance to the fresh span reach about 1e-11 after a walk, while q stays
    orthonormal to rounding level.
    """

    @pytest.mark.parametrize("n", [60, 500])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_updates_keep_basis_orthonormal_and_in_grid_coefficients(self, order, n):
        rng = np.random.default_rng(7000 + 10 * order + n)
        (_, _, _, _, space, subset), drops, adds, refactored = walked_case(rng, n, order, 2, {60: 15, 500: 30}[n])
        assert drops >= 15 and adds >= 15 and refactored == 0
        q, coef = subset.fit.q, subset.fit.coef
        assert q.shape[1] == len(subset.idx) + order
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2) <= 1e-12
        assert np.linalg.norm(space.rb @ coef - q, 2) <= 1e-10
        # the span of the subset's own B-splines
        fresh = space.factor(subset.idx).fit.q
        assert np.linalg.norm(fresh - q @ (q.T @ fresh), 2) <= 1e-10

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("n", [60, 500])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_scores_after_updates_match_gcv_score(self, order, n, dims):
        rng = np.random.default_rng(8000 + 100 * order + n + dims)
        candidates = {60: 15, 500: 30}[n]
        (times, y, interval, grid, space, subset), _, _, refactored = walked_case(rng, n, order, dims, candidates)
        assert refactored == 0
        y_in = y[:, 0] if dims == 1 else y
        idx = subset.idx
        want = [gcv_score(times, y_in, grid[idx[:p] + idx[p + 1 :]], order, interval) for p in range(len(idx))]
        np.testing.assert_allclose(space.drop_scores(subset), want, rtol=1e-10, atol=0)
        pool = [j for j in range(candidates) if j not in idx]
        want = [gcv_score(times, y_in, grid[sorted(idx + [j])], order, interval) for j in pool]
        np.testing.assert_allclose(space.add_scores(subset, pool), want, rtol=1e-10, atol=0)
        assert space.score(subset) == pytest.approx(gcv_score(times, y_in, grid[idx], order, interval), rel=1e-10)

    def test_moves_that_cannot_update_factor_afresh(self):
        # no observations beyond 0.88, so the direction of the last candidate, 0.9, vanishes on the data
        times = np.linspace(0.0, 0.88, 70)
        space = knots._NestedSpace(times, np.cos(4 * times)[:, None], (0.0, 1.0), uniform_knots((0.0, 1.0), 9), 4)
        calls = []
        refinement = space.refinement
        space.refinement = lambda idx: calls.append(idx) or refinement(idx)
        start = space.factor(list(range(8)))
        assert start.fit is not None
        full = space.add(start, 8)
        assert full.fit is None and calls[-1] == list(range(9))
        # a move away from a rank-deficient subset factors its successor
        dropped = space.drop(full, 3)
        assert dropped.fit is None and calls[-1] == [0, 1, 2, 4, 5, 6, 7, 8]
        assert space.add(dropped, 3).fit is None and calls[-1] == list(range(9))
        assert len(calls) == 4


class TestGridTables:
    def test_cached_tables_are_read_only_and_equal_a_fresh_build(self):
        interval, order = (0.0, 20.0), 4
        grid = uniform_knots(interval, 30)
        ts = np.linspace(0.0, 20.0, 200)
        first = knots._NestedSpace(ts, np.sin(ts)[:, None], interval, grid, order)
        second = knots._NestedSpace(ts, np.cos(ts)[:, None], interval, grid, order)
        basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        fresh = knots._grid_tables.__wrapped__(basis)
        names = ("jumps", "sites", "collocate", "powers", "full")
        assert len(fresh) == len(names)
        for name, want in zip(names, fresh):
            got = getattr(first, name)
            assert got is getattr(second, name), name  # built once per grid
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = 0.0

    def test_the_search_starts_from_the_tabulated_full_grid_refinement(self):
        interval, order = (0.0, 20.0), 4
        grid = uniform_knots(interval, 30)
        ts = np.linspace(0.0, 20.0, 200)
        space = knots._NestedSpace(ts, np.sin(ts)[:, None], interval, grid, order)
        full = knots._grid_tables(space.basis)[4]
        assert space.refinement(list(range(30))) is full
        # T_grid is the refinement of the grid in its own basis, with the bits a subset's would have
        assert full.tobytes() == knots._refinement(space.basis, space.basis).tobytes()

    def test_cached_design_is_read_only_and_equals_design_matrix(self, monkeypatch):
        interval, order = (0.0, 20.0), 4
        grid = uniform_knots(interval, 30)
        basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        ts = np.linspace(0.0, 20.0, 200)
        design = knots._grid_design(basis, ts.tobytes())
        want = design_matrix(basis, ts)
        assert design.shape == want.shape and design.tobytes() == want.tobytes()
        assert not design.flags.writeable
        with pytest.raises(ValueError):
            design[0, 0] = 1.0
        assert knots._grid_design(basis, ts.copy().tobytes()) is design
        assert knots._grid_design(basis, ts[:-1].tobytes()) is not design
        assert knots._grid_design.cache_info().maxsize is not None
        # a search on the same grid and times builds no design of its own
        calls = []
        monkeypatch.setattr(knots, "design_matrix", lambda *args: calls.append(args))
        knots._NestedSpace(ts, np.sin(ts)[:, None], interval, grid, order)
        assert calls == []

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_powers_are_the_truncated_powers_at_the_sites_bit_for_bit(self, order):
        for interval, count in (((0.0, 2.0), 7), ((0.0, 20.0), 30), ((0.0, 19.9), 0)):
            grid = uniform_knots(interval, count)
            _, sites, collocate, powers, _ = knots._grid_tables(BSplineBasis(KnotSequence(interval, tuple(grid), order)))
            want = collocate @ truncated_power_design(interval, grid, order, sites)[:, order:]
            assert want.shape == (grid.size + order, grid.size)
            assert np.array_equal(powers, want), (interval, count)


class TestMatchesReferenceWalk:
    @pytest.mark.parametrize("n", [20, 50, 200, 1000])
    @pytest.mark.parametrize("design", [CYCLE, DAMPED], ids=["cycle", "damped"])
    def test_study_replications(self, design, n):
        # same knots, same gcv_value, and as many scored subsets as the
        # reference makes gcv_score calls
        for rep, times, ys, interval in study_datasets(design, n, 10):
            count = default_knot_count(n)
            assert elim_add(times, ys, interval, count) == reference_elim_add(times, ys, interval, count), rep

    @pytest.mark.parametrize("n", [20, 50, 200, 1000])
    @pytest.mark.parametrize("design", [CYCLE, DAMPED], ids=["cycle", "damped"])
    def test_one_factorization_per_search(self, design, n, monkeypatch):
        # every accepted move updates the carried basis; none refactors
        counts = {"refinement": 0, "factor": 0}
        for name in counts:
            real = getattr(knots._NestedSpace, name)

            def counted(self, arg, name=name, real=real):
                counts[name] += 1
                return real(self, arg)

            monkeypatch.setattr(knots._NestedSpace, name, counted)
        for rep, times, ys, interval in study_datasets(design, n, 10):
            elim_add(times, ys, interval, default_knot_count(n))
            assert counts == {"refinement": rep + 1, "factor": rep + 1}, rep

    @pytest.mark.parametrize(
        "times",
        [
            # no observations in (0.3, 0.7): the full grid is rank-deficient
            np.concatenate((np.linspace(0.0, 0.3, 40), np.linspace(0.7, 1.0, 40))),
            # none beyond the last candidate, 0.9: adding it back gives a
            # direction that vanishes on the data
            np.linspace(0.0, 0.88, 70),
        ],
        ids=["gap", "empty-tail"],
    )
    def test_rank_deficient_subsets_fall_back_to_gcv_score(self, times, monkeypatch):
        rng = np.random.default_rng(9)
        y = np.cos(4 * times) + 0.05 * rng.normal(size=times.size)
        want = reference_elim_add(times, y, (0.0, 1.0), 9)
        calls = []
        monkeypatch.setattr(knots, "gcv_score", lambda *a: calls.append(a) or gcv_score(*a))
        assert elim_add(times, y, (0.0, 1.0), 9) == want
        assert len(calls) > 1  # trials of rank-deficient subsets, scored one by one

    def test_sweeps_bounded_by_max_sweeps(self, monkeypatch):
        rng = np.random.default_rng(10)
        times = np.linspace(0.0, 1.0, 120)
        y = np.sin(6 * times) + 0.2 * rng.normal(size=120)
        for max_sweeps in (1, 2, 10):
            monkeypatch.setattr(knots, "_MAX_SWEEPS", max_sweeps)
            got = elim_add(times, y, (0.0, 1.0), 12)
            assert 1 <= got.sweeps <= max_sweeps
            assert got == reference_elim_add(times, y, (0.0, 1.0), 12, max_sweeps=max_sweeps)


@pytest.mark.slow
def test_knots_equal_reference_on_acceptance_studies():
    # every replication of the 200-replication cycle and damped studies at
    # n = 500, and of studies at n = 20 and n = 1000
    flips = []
    for design, name in ((CYCLE, "cycle"), (DAMPED, "damped")):
        for n in (20, 500, 1000):
            count = default_knot_count(n)
            for rep, times, ys, interval in study_datasets(design, n, 200):
                got = elim_add(times, ys, interval, count)
                want = reference_elim_add(times, ys, interval, count)
                if got.selected_knots != want.selected_knots or got.gcv_value != want.gcv_value:
                    flips.append((name, n, rep, got.gcv_value, want.gcv_value))
    assert not flips, flips


@pytest.mark.slow
def test_knots_equal_reference_on_fine_grid():
    # 60 candidates at n = 1000: 100 replications of each design
    flips = []
    for design, name in ((CYCLE, "cycle"), (DAMPED, "damped")):
        for rep, times, ys, interval in study_datasets(design, 1000, 100):
            got = elim_add(times, ys, interval, 60)
            want = reference_elim_add(times, ys, interval, 60)
            if got.selected_knots != want.selected_knots or got.gcv_value != want.gcv_value:
                flips.append((name, rep, got.gcv_value, want.gcv_value))
    assert not flips, flips


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
        # one solve of the chosen subset gives both, bit for bit
        policy = KnotPolicy(selection=selection)
        for rep, times, ys, interval in study_datasets(design, n, 3):
            result = select_knots(times, ys, interval, policy)
            basis = BSplineBasis(KnotSequence(interval, result.selected_knots, policy.order))
            got, want = result.fit, fit_least_squares(basis, times, ys)
            assert got.basis == want.basis, rep
            for name in ("coefficients", "residual_variance", "times"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (rep, name)
            assert got.rank_deficient == want.rank_deficient, rep
            if result.effective_params < n:
                assert result.gcv_value == gcv_score(times, ys, result.selected_knots, policy.order, interval), rep
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
