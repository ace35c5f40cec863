"""Vector-field models, trajectory simulation, and linear-system helpers.

Model callables follow a batched convention: state input of shape (d,) with a
scalar time returns (d,); an (m, d) batch with an (m,) time vector returns the
batched result with the extra leading axis.  All registered models comply, and
the estimation code relies on it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowupError, EmptyInputError, InvalidMatrixError

DEFAULT_BLOWUP_NORM = 1e8

# parameter layout of the generalized Lotka-Volterra field
GLV_PARAM_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")


@dataclass(frozen=True)
class VectorFieldModel:
    """A parametric vector field with its Jacobians.

    field(t, x, theta) evaluates the right-hand side; jacobian_state and
    jacobian_param are its derivatives in x and theta.  fixed_mask marks
    parameters held fixed during estimation (their values travel inside theta).
    For fields affine in the free parameters, linear_basis/linear_offset give
    the exact decomposition field = linear_basis @ theta_free + linear_offset,
    with the fixed parameter values baked into the offset.
    """

    dim: int
    n_params: int
    field: Callable
    jacobian_state: Callable
    jacobian_param: Callable
    param_names: tuple[str, ...]
    fixed_mask: np.ndarray = None
    fixed_values: np.ndarray = None
    linear_basis: Callable = None
    linear_offset: Callable = None

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
        if len(self.param_names) != self.n_params:
            raise ValueError("param_names length must equal n_params")

    @property
    def free_indices(self) -> np.ndarray:
        return np.nonzero(~self.fixed_mask)[0]

    @property
    def n_free(self) -> int:
        return int(np.sum(~self.fixed_mask))

    @property
    def is_linear_in_params(self) -> bool:
        return self.linear_basis is not None


def _glv_param_jacobian(state):
    x = state[..., 0]
    y = state[..., 1]
    z = np.zeros_like(x)
    row0 = np.stack([x * x, x * y, x, z, z, z], axis=-1)
    row1 = np.stack([z, z, z, x * y, y * y, y], axis=-1)
    return np.stack([row0, row1], axis=-2)


def glv_field(fixed_mask=None, fixed_values=None) -> VectorFieldModel:
    """Generalized Lotka-Volterra model.

        x' = x (a1 x + a2 y + a3)
        y' = y (b1 x + b2 y + b3)

    The field is linear in all six parameters, so the decomposition is exact.
    fixed_mask marks coordinates excluded from estimation; fixed_values (full
    length 6, read only at masked positions) bakes their values into the
    linear offset.
    """
    mask = np.zeros(6, dtype=bool) if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
    vals = np.zeros(6) if fixed_values is None else np.asarray(fixed_values, dtype=float)
    free = np.nonzero(~mask)[0]
    fixed = np.nonzero(mask)[0]

    def field(t, state, theta):
        a1, a2, a3, b1, b2, b3 = np.asarray(theta, dtype=float).tolist()
        # transposing twice puts the components back last; on a single state
        # the components are scalars, which keeps an integrator step cheap
        x, y = np.asarray(state).T
        return np.array([x * (a1 * x + a2 * y + a3), y * (b1 * x + b2 * y + b3)]).T

    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        x = state[..., 0]
        y = state[..., 1]
        dxx = 2 * theta[0] * x + theta[1] * y + theta[2]
        dxy = theta[1] * x
        dyx = theta[3] * y
        dyy = theta[3] * x + 2 * theta[4] * y + theta[5]
        return np.stack(
            [np.stack([dxx, dxy], axis=-1), np.stack([dyx, dyy], axis=-1)], axis=-2
        )

    def jacobian_param(t, state, theta):
        return _glv_param_jacobian(np.asarray(state, dtype=float))

    def linear_basis(t, state):
        return _glv_param_jacobian(np.asarray(state, dtype=float))[..., :, free]

    def linear_offset(t, state):
        jac = _glv_param_jacobian(np.asarray(state, dtype=float))
        return jac[..., :, fixed] @ vals[fixed] if fixed.size else np.zeros(jac.shape[:-1])

    return VectorFieldModel(
        dim=2,
        n_params=6,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=GLV_PARAM_NAMES,
        fixed_mask=mask,
        fixed_values=vals,
        linear_basis=linear_basis,
        linear_offset=linear_offset,
    )


def damped_linear_field(fixed_mask=None, fixed_values=None) -> VectorFieldModel:
    """Two-dimensional linear oscillator u' = v, v' = th1 u + th2 v.

    Doubles as the observed/hidden demo system: observing u alone leaves v as
    a hidden linear block.
    """
    mask = np.zeros(2, dtype=bool) if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
    vals = np.zeros(2) if fixed_values is None else np.asarray(fixed_values, dtype=float)
    free = np.nonzero(~mask)[0]
    fixed = np.nonzero(mask)[0]

    def param_jacobian(state):
        u = state[..., 0]
        v = state[..., 1]
        z = np.zeros_like(u)
        row0 = np.stack([z, z], axis=-1)
        row1 = np.stack([u, v], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        u = state[..., 0]
        v = state[..., 1]
        return np.stack([v, theta[0] * u + theta[1] * v], axis=-1)

    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        u = state[..., 0]
        one = np.ones_like(u)
        z = np.zeros_like(u)
        return np.stack(
            [np.stack([z, one], axis=-1), np.stack([theta[0] * one, theta[1] * one], axis=-1)],
            axis=-2,
        )

    def jacobian_param(t, state, theta):
        return param_jacobian(np.asarray(state, dtype=float))

    def linear_basis(t, state):
        return param_jacobian(np.asarray(state, dtype=float))[..., :, free]

    def linear_offset(t, state):
        state = np.asarray(state, dtype=float)
        jac = param_jacobian(state)
        # u' = v carries no parameter, so it lives in the offset
        base = np.stack([state[..., 1], np.zeros_like(state[..., 1])], axis=-1)
        if fixed.size:
            base = base + jac[..., :, fixed] @ vals[fixed]
        return base

    return VectorFieldModel(
        dim=2,
        n_params=2,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=("th1", "th2"),
        fixed_mask=mask,
        fixed_values=vals,
        linear_basis=linear_basis,
        linear_offset=linear_offset,
    )


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: factory plus CLI-facing metadata."""

    name: str
    factory: Callable
    dim: int
    param_names: tuple[str, ...]
    default_fixed: dict

    def build(self, fixed: dict | None = None) -> VectorFieldModel:
        """Instantiate with fixed parameters given as a name -> value dict."""
        fixed = self.default_fixed if fixed is None else fixed
        mask = np.zeros(len(self.param_names), dtype=bool)
        vals = np.zeros(len(self.param_names))
        for key, val in fixed.items():
            if key not in self.param_names:
                raise KeyError(f"unknown parameter {key!r} for model {self.name!r}")
            idx = self.param_names.index(key)
            mask[idx] = True
            vals[idx] = float(val)
        return self.factory(fixed_mask=mask, fixed_values=vals)


MODEL_REGISTRY = {
    "glv": ModelSpec(
        name="glv",
        factory=glv_field,
        dim=2,
        param_names=GLV_PARAM_NAMES,
        default_fixed={"a1": 0.0, "b2": 0.0},
    ),
    "custom-linear-partial": ModelSpec(
        name="custom-linear-partial",
        factory=damped_linear_field,
        dim=2,
        param_names=("th1", "th2"),
        default_fixed={},
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
    """A solution sampled on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.states, dtype=float)
        if ts.size == 0:
            raise EmptyInputError("trajectory needs at least one time point")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if xs.shape[0] != ts.size:
            raise ValueError("times and states disagree in length")
        if not np.all(np.isfinite(xs)):
            raise ValueError("trajectory states must be finite")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "states", xs)


def _escaped(state, blowup_norm) -> bool:
    """True when a state has a non-finite entry or one above the bound in magnitude."""
    size = np.abs(state).max(initial=0.0)  # NaN if any entry is NaN
    return not size <= blowup_norm or size == np.inf


def _rk4_pass(fun, x0, t_grid, substeps, blowup_norm):
    d = len(x0)
    out = np.empty((len(t_grid), d))
    out[0] = x0
    x = np.asarray(x0, dtype=float)
    for i in range(len(t_grid) - 1):
        h = (t_grid[i + 1] - t_grid[i]) / substeps
        t = t_grid[i]
        for _ in range(substeps):
            k1 = fun(t, x)
            k2 = fun(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = fun(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = fun(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            if _escaped(x, blowup_norm):
                raise BlowupError(
                    f"trajectory exceeded norm bound {blowup_norm:g} near t = {t:.6g}",
                    escape_time=t,
                )
        out[i + 1] = x
    return out


def integrate(model, theta, x0, t_grid, tol: float = 1e-8, blowup_norm: float = DEFAULT_BLOWUP_NORM) -> Trajectory:
    """Integrate the model with classic fixed-step RK4 plus step doubling.

    The substep count per output interval doubles until another halving moves
    every output state by less than ``tol`` in the max norm.  Diverging
    solutions raise BlowupError with the escape time attached.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.size < 2:
        raise EmptyInputError("integration grid needs at least two points")
    theta = np.asarray(theta, dtype=float)
    fun = lambda t, x: np.asarray(model.field(t, x, theta), dtype=float)
    substeps = 4
    prev = _rk4_pass(fun, np.asarray(x0, dtype=float), ts, substeps, blowup_norm)
    max_substeps = 2**16
    while substeps <= max_substeps:
        substeps *= 2
        cur = _rk4_pass(fun, np.asarray(x0, dtype=float), ts, substeps, blowup_norm)
        if np.max(np.abs(cur - prev)) < tol:
            return Trajectory(times=ts, states=cur)
        prev = cur
    raise RuntimeError(f"RK4 step doubling did not reach tol = {tol:g} within {max_substeps} substeps")


def matrix_exponential(a_matrix, t: float = 1.0) -> np.ndarray:
    """exp(t * A) by scaling-and-squaring with a truncated Taylor series.

    The scaled matrix has norm <= 0.25, so the series converges fast; terms
    are added until they fall below 1e-18 relative to the running sum.
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("matrix exponential needs finite entries")
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
    blowup_norm: float = DEFAULT_BLOWUP_NORM,
) -> np.ndarray:
    """Solve v' = A v + f(t) by the variation-of-constants recursion.

    Between grid nodes the integral term uses ``substeps`` trapezoid cells
    (floor 8); each substep advances v_{i+1} = E v_i + (h/2)(E f(s_i) +
    f(s_{i+1})) with E = exp(h A) computed once per distinct step size.
    forcing maps a scalar time to a vector (batched array input is used when
    the callable supports it).  Returns states at the grid nodes, (m, d).
    """
    a = np.asarray(a_matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("Duhamel solve needs a finite matrix")
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0:
        raise EmptyInputError("Duhamel grid is empty")
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
            if _escaped(v, blowup_norm):
                raise BlowupError(
                    f"hidden state exceeded norm bound {blowup_norm:g}",
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

    d_obs: int
    d_hidden: int
    g: Callable
    h: Callable
    n_eta: int


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
        raise EmptyInputError(f"{path}: no data rows")
    data = np.asarray(rows)
    return Trajectory(times=data[:, 0], states=data[:, 1:])
