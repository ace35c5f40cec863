"""Vector-field models, trajectory simulation, and linear-system helpers.

Model callables follow a batched convention: state input of shape (d,) with a
scalar time returns (d,); an (m, d) batch with an (m,) time vector returns the
batched result with the extra leading axis.  All registered models comply, and
the estimation code relies on it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowupError, GradMatchError
from .splines import read_only

_BLOWUP_NORM = 1e8  # a solved state larger than this in magnitude has escaped


@dataclass(frozen=True)
class VectorFieldModel:
    """A parametric vector field with its Jacobians.

    field(t, x, theta) evaluates the right-hand side; jacobian_state and
    jacobian_param are its derivatives in x and theta; n_params is
    len(param_names).  fixed_mask marks parameters held fixed during
    estimation (their values travel inside theta).
    linear declares the field affine in theta, so that
    field(theta) = jacobian_param[..., free] @ theta_free + field(theta_free = 0)
    with a jacobian_param that does not depend on theta; the closed-form
    estimator relies on that split.
    """

    dim: int
    field: Callable
    jacobian_state: Callable
    jacobian_param: Callable
    param_names: tuple[str, ...]
    fixed_mask: np.ndarray = None
    fixed_values: np.ndarray = None
    linear: bool = False

    def __post_init__(self):
        mask = self.fixed_mask
        if mask is None:
            mask = np.zeros(self.n_params, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_params,):
            raise ValueError(f"fixed_mask must have shape ({self.n_params},)")
        object.__setattr__(self, "fixed_mask", mask)
        vals = self.fixed_values
        vals = np.zeros(self.n_params) if vals is None else np.asarray(vals, dtype=float)
        if vals.shape != (self.n_params,):
            raise ValueError(f"fixed_values must have shape ({self.n_params},)")
        object.__setattr__(self, "fixed_values", vals)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def free_indices(self) -> np.ndarray:
        return np.nonzero(~self.fixed_mask)[0]

    @property
    def n_free(self) -> int:
        return int(np.sum(~self.fixed_mask))


def glv_field(fixed_mask=None, fixed_values=None) -> VectorFieldModel:
    """Generalized Lotka-Volterra model.

        x' = x (a1 x + a2 y + a3)
        y' = y (b1 x + b2 y + b3)

    The field is linear in all six parameters.  fixed_mask marks coordinates
    excluded from estimation; fixed_values (full length 6) gives their values.
    """

    def field(t, state, theta):
        a1, a2, a3, b1, b2, b3 = np.asarray(theta, dtype=float).tolist()
        # transposing twice puts the components back last; on a single state
        # the components are scalars, which keeps an integrator step cheap
        x, y = np.asarray(state).T
        return np.array([x * (a1 * x + a2 * y + a3), y * (b1 * x + b2 * y + b3)]).T

    # the Jacobians fill one array each, with the bits of stacking their entries
    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        x = state[..., 0]
        y = state[..., 1]
        out = np.empty(np.shape(x) + (2, 2))
        out[..., 0, 0] = 2 * theta[0] * x + theta[1] * y + theta[2]
        out[..., 0, 1] = theta[1] * x
        out[..., 1, 0] = theta[3] * y
        out[..., 1, 1] = theta[3] * x + 2 * theta[4] * y + theta[5]
        return out

    def jacobian_param(t, state, theta):
        state = np.asarray(state, dtype=float)
        x = state[..., 0]
        y = state[..., 1]
        xy = x * y
        out = np.zeros(x.shape + (2, 6))
        out[..., 0, 0] = x * x
        out[..., 0, 1] = xy
        out[..., 0, 2] = x
        out[..., 1, 3] = xy
        out[..., 1, 4] = y * y
        out[..., 1, 5] = y
        return out

    return VectorFieldModel(
        dim=2,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=("a1", "a2", "a3", "b1", "b2", "b3"),
        fixed_mask=fixed_mask,
        fixed_values=fixed_values,
        linear=True,
    )


def damped_linear_field(fixed_mask=None, fixed_values=None) -> VectorFieldModel:
    """Two-dimensional linear oscillator u' = v, v' = th1 u + th2 v.

    Doubles as the observed/hidden demo system: observing u alone leaves v as
    a hidden linear block.
    """

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        u = state[..., 0]
        v = state[..., 1]
        return np.stack([v, theta[0] * u + theta[1] * v], axis=-1)

    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.empty(np.shape(state[..., 0]) + (2, 2))
        out[..., 0, :] = (0.0, 1.0)
        out[..., 1, :] = theta[:2]
        return out

    def jacobian_param(t, state, theta):
        state = np.asarray(state, dtype=float)
        out = np.zeros(state.shape[:-1] + (2, 2))
        out[..., 1, :] = state[..., :2]
        return out

    return VectorFieldModel(
        dim=2,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=("th1", "th2"),
        fixed_mask=fixed_mask,
        fixed_values=fixed_values,
        linear=True,
    )


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: a model factory under its CLI name, with default fixed parameters."""

    name: str
    factory: Callable
    default_fixed: dict

    @property
    def dim(self) -> int:
        return self.factory().dim

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.factory().param_names

    def build(self, fixed: dict | None = None) -> VectorFieldModel:
        """Instantiate with fixed parameters given as a name -> value dict."""
        fixed = self.default_fixed if fixed is None else fixed
        names = self.param_names
        mask = np.zeros(len(names), dtype=bool)
        vals = np.zeros(len(names))
        for key, val in fixed.items():
            if key not in names:
                raise KeyError(f"unknown parameter {key!r} for model {self.name!r}")
            idx = names.index(key)
            mask[idx] = True
            vals[idx] = float(val)
        return self.factory(fixed_mask=mask, fixed_values=vals)


MODEL_REGISTRY = {
    "glv": ModelSpec(name="glv", factory=glv_field, default_fixed={"a1": 0.0, "b2": 0.0}),
    "custom-linear-partial": ModelSpec(
        name="custom-linear-partial", factory=damped_linear_field, default_fixed={}
    ),
}


def get_model_spec(name: str) -> ModelSpec:
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; registered models: {known}") from None


@dataclass(frozen=True)
class Trajectory:
    """A solution sampled on a finite, strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.states, dtype=float)
        if ts.size == 0:
            raise GradMatchError("trajectory needs at least one time point")
        if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0)):
            raise ValueError("trajectory times must be finite and strictly increasing")
        if xs.shape[0] != ts.size:
            raise ValueError("times and states disagree in length")
        if not np.all(np.isfinite(xs)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "states", xs)


def _escaped(state, bound) -> bool:
    """True when a state has a non-finite entry or one above the bound in magnitude."""
    size = np.abs(state).max(initial=0.0)  # NaN if any entry is NaN
    return not size <= bound or size == np.inf


# Dormand-Prince 5(4) tableau (Dormand & Prince 1980): nodes, stage weights,
# 5th-order weights, error weights (5th minus 4th order, incl. the FSAL stage)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    None,
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
# Shampine's (1986) quartic dense output: x(t0 + s h) = x0 + h sum_j s^(j+1) (P_j . K)
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
]).T
_STEP_TARGET = 0.01  # per-step error target, as a fraction of tol


@dataclass(frozen=True)
class DenseSolution:
    """The accepted steps of a dense-output solve, evaluable at any covered time.

    Step k starts at ``starts[k]`` in state ``states[k]``, has size
    ``sizes[k]`` and quartic coefficients ``coefficients[k]`` (4, d); it
    serves the times in (starts[k], starts[k] + sizes[k]].
    """

    starts: np.ndarray
    sizes: np.ndarray
    states: np.ndarray
    coefficients: np.ndarray
    t_end: float

    def __call__(self, times) -> np.ndarray:
        """States at the given times, shape (len(times), d).

        Each time is evaluated on its own by elementwise arithmetic, so a
        time gets the same bits whichever other times come with it.
        """
        ts = np.asarray(times, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise GradMatchError("evaluation times must be a non-empty 1-D array")
        if ts.min() < self.starts[0] or ts.max() > self.t_end:
            raise ValueError(f"times must lie in the solved span [{self.starts[0]:g}, {self.t_end:g}]")
        k = np.maximum(np.searchsorted(self.starts, ts, side="left") - 1, 0)
        h = self.sizes[k][:, None]
        s = (ts - self.starts[k])[:, None] / h
        q = self.coefficients[k]
        return self.states[k] + h * s * (q[:, 0] + s * (q[:, 1] + s * (q[:, 2] + s * q[:, 3])))


def _initial_step(fun, t0, x0, f0, scale) -> float:
    """First step size from x0 and f(x0) (Hairer, Norsett & Wanner, Sec. II.4)."""
    d0 = np.max(np.abs(x0) / scale, initial=0.0)
    d1 = np.max(np.abs(f0) / scale, initial=0.0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = fun(t0 + h0, x0 + h0 * f0)
    d2 = np.max(np.abs(f1 - f0) / scale, initial=0.0) / h0
    h1 = max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1)
    # an infinite probe gives h = 0; h0 then stands, and rejections shorten it
    return h if h > 0 else h0


def dense_solve(model, theta, x0, t0: float, t_end: float, tol: float = 1e-8) -> DenseSolution:
    """Solve x' = f(t, x, theta) from (t0, x0) past t_end by Dormand-Prince 5(4).

    Each step's local error estimate is held below 0.01 * tol * (1 + |x|),
    componentwise, with x the larger of the step's end states.  The step
    sequence depends only on the model, theta, x0, t0 and tol: the first step
    comes from x0 and f(x0), steps are never cut short at output times, and
    the last one may end past t_end.  So the states at a time t have the same
    bits whatever t_end or other output times a caller asks for.

    A trial step with a non-finite error estimate is rejected and retried
    shorter; overflow and invalid-value warnings are silenced during the
    solve, since such a step is not an error.  An accepted state that is not
    finite or exceeds 1e8 in magnitude, a non-finite f(x0), or a step shrunk
    below ten ulps of t raises BlowupError with the escape time.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not t_end > t0:
        raise ValueError(f"t_end = {t_end!r} must come after t0 = {t0!r}")
    theta = np.asarray(theta, dtype=float)
    fun = lambda t, x: np.asarray(model.field(t, x, theta), dtype=float)
    t = float(t0)
    x = np.asarray(x0, dtype=float)
    atol = _STEP_TARGET * tol
    starts, sizes, states, coefficients = [], [], [], []
    stages = np.empty((7, x.size))
    with np.errstate(invalid="ignore", over="ignore"):
        f = fun(t, x)
        if _escaped(f, np.inf):
            raise BlowupError(f"vector field is not finite at t = {t:.6g}", escape_time=t)
        h = float(_initial_step(fun, t, x, f, atol * (1.0 + np.abs(x))))
        failed_at = t
        rejected = False
        while t < t_end:
            if h < 10 * math.ulp(t):
                raise BlowupError(
                    f"step size underflow: the solution cannot be continued past t = {failed_at:.6g}",
                    escape_time=failed_at,
                )
            stages[0] = f
            for i in range(1, 6):
                stages[i] = fun(t + _DP_C[i] * h, x + h * (_DP_A[i] @ stages[:i]))
            x_new = x + h * (_DP_B @ stages[:6])
            stages[6] = f_new = fun(t + h, x_new)
            scale = atol * (1.0 + np.maximum(np.abs(x), np.abs(x_new)))
            ratio = float(np.max(np.abs(h * (_DP_E @ stages)) / scale, initial=0.0))
            if ratio <= 1.0:  # False for NaN
                starts.append(t)
                sizes.append(h)
                states.append(x)
                coefficients.append(_DP_P @ stages)
                t, x, f = t + h, x_new, f_new
                if _escaped(x, _BLOWUP_NORM):
                    raise BlowupError(
                        f"trajectory exceeded norm bound {_BLOWUP_NORM:g} near t = {t:.6g}",
                        escape_time=t,
                    )
                factor = 10.0 if ratio == 0.0 else min(10.0, 0.9 * ratio**-0.2)
                h *= min(1.0, factor) if rejected else factor
                rejected = False
            else:
                failed_at = t + h
                h *= max(0.2, 0.9 * ratio**-0.2) if math.isfinite(ratio) else 0.2
                rejected = True
    # a cached solution is shared by every caller
    return DenseSolution(*read_only(*(np.array(a) for a in (starts, sizes, states, coefficients))), t)


def integrate(model, theta, x0, t_grid, tol: float = 1e-8) -> Trajectory:
    """States of the model on t_grid, from x0 at t_grid[0], by ``dense_solve``.

    ``tol`` bounds the error of the returned states: each step's local error
    is held below 0.01 * tol * (1 + |x|), which on both study designs kept
    the max-norm global error below tol for tol from 1e-6 to 1e-12.  A
    grid's states are the dense output of one solve from t_grid[0], so they
    equal bit for bit the matching rows of any other grid with the same
    start.  Diverging solutions raise BlowupError with the escape time
    attached.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 2:
        raise GradMatchError("integration grid needs at least two points")
    solution = dense_solve(model, theta, x0, ts[0], ts[-1], tol=tol)
    return Trajectory(times=ts, states=solution(ts))


def matrix_exponential(a_matrix, t: float = 1.0) -> np.ndarray:
    """exp(t * A) by scaling-and-squaring with a truncated Taylor series.

    The scaled matrix has norm <= 0.25, so the series converges fast; terms
    are added until they fall below 1e-18 relative to the running sum.
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GradMatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GradMatchError("matrix exponential needs finite entries")
    b = t * a
    if b.size == 0:
        return np.zeros((0, 0))
    norm = np.linalg.norm(b, np.inf)
    squarings = 0 if norm <= 0.25 else int(np.ceil(np.log2(norm / 0.25)))
    c = b / (2.0**squarings)
    n = a.shape[0]
    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ c / k
        total = total + term
        if np.linalg.norm(term, np.inf) < 1e-18 * max(np.linalg.norm(total, np.inf), 1.0):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def duhamel_solve(
    a_matrix,
    forcing: Callable,
    v0,
    t_grid,
    substeps: int = 8,
) -> np.ndarray:
    """Solve v' = A v + f(t) by the variation-of-constants recursion.

    Between grid nodes the integral term uses ``substeps`` trapezoid cells
    (floor 8); each substep advances v_{i+1} = E v_i + (h/2)(E f(s_i) +
    f(s_{i+1})) with E = exp(h A) computed once per distinct step size.
    forcing maps a scalar time to a vector (batched array input is used when
    the callable supports it).  Returns states at the grid nodes, (m, d).
    A state that is not finite or exceeds 1e8 in magnitude raises
    BlowupError with the escape time.
    """
    a = np.asarray(a_matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise GradMatchError("Duhamel solve needs a finite matrix")
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0:
        raise GradMatchError("Duhamel grid is empty")
    substeps = max(int(substeps), 8)
    d = a.shape[0]

    # all substep nodes, laid out per interval
    nodes = np.concatenate(
        [np.linspace(ts[i], ts[i + 1], substeps + 1) for i in range(len(ts) - 1)]
    ) if ts.size > 1 else ts
    fvals = _eval_forcing(forcing, nodes, d)

    exp_cache: dict[float, np.ndarray] = {}

    def step_matrix(h):
        key = round(h, 15)
        if key not in exp_cache:
            exp_cache[key] = matrix_exponential(a, h)
        return exp_cache[key]

    out = np.empty((ts.size, d))
    v = np.asarray(v0, dtype=float).reshape(d)
    out[0] = v
    pos = 0
    for i in range(ts.size - 1):
        h = (ts[i + 1] - ts[i]) / substeps
        emat = step_matrix(h)
        for j in range(substeps):
            f0 = fvals[pos + j]
            f1 = fvals[pos + j + 1]
            v = emat @ v + 0.5 * h * (emat @ f0 + f1)
            if _escaped(v, _BLOWUP_NORM):
                raise BlowupError(
                    f"hidden state exceeded norm bound {_BLOWUP_NORM:g}",
                    escape_time=float(nodes[pos + j + 1]),
                )
        out[i + 1] = v
        pos += substeps + 1
    return out


def _eval_forcing(forcing, nodes, d):
    """Evaluate the forcing at all nodes, batched when the callable allows."""
    try:
        vals = np.asarray(forcing(nodes), dtype=float)
        if vals.shape == (len(nodes), d):
            return vals
    except (TypeError, ValueError, IndexError):
        # a forcing written for scalar t fails on a batch in one of these ways
        pass
    return np.array([np.asarray(forcing(t), dtype=float).reshape(d) for t in nodes])


@dataclass(frozen=True)
class PartiallyLinearSystem:
    """Observed block u' = G(u, v, eta); hidden linear block v' = A v + H(u, eta).

    g maps (u, v, eta) to the observed derivative, h maps (u, eta) to the
    hidden forcing; both follow the batched convention on u, v.  d_hidden = 0
    degenerates to a fully observed model.
    """

    d_hidden: int
    g: Callable
    h: Callable


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write t, y1, .., yd rows in full double precision."""
    d = trajectory.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"y{i + 1}" for i in range(d)])
        for t, row in zip(trajectory.times, trajectory.states):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t":
            raise ValueError(f"{path}: expected header starting with 't'")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise GradMatchError(f"{path}: no data rows")
    data = np.asarray(rows)
    return Trajectory(times=data[:, 0], states=data[:, 1:])
