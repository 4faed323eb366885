"""Admissible paths: piecewise-constant controls, exact group-flow sampling, cost/length.

An admissible path solves gamma' = sum_k omega_k X_k(gamma) + Y(gamma) with
dt/ds = -1, so the time coordinate decreases with slope one along the path
while the controls steer the spatial coordinates through the model's fields.
The fields are left-invariant, so under a constant control the path is a
group translation of the model's closed-form flow and no ODE solver is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DomainError, Model

__all__ = [
    "ControlPath",
    "AdmissiblePath",
    "DomainExitError",
    "constant_control",
    "integrate_path",
    "path_cost",
    "path_length",
]


class DomainExitError(DomainError):
    """Raised when the integrated path leaves the model domain."""

    def __init__(self, message, exit_time):
        super().__init__(message)
        self.exit_time = exit_time


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant control on [0, T].

    grid    strictly increasing breakpoints, grid[0] = 0, grid[-1] = T > 0
    values  (len(grid)-1, m) control vectors, one per interval
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("control grid needs at least two breakpoints")
        if grid[0] != 0.0:
            raise ValueError("control grid must start at 0")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("control grid must be strictly increasing")
        if values.shape[0] != grid.size - 1:
            raise ValueError(
                f"need {grid.size - 1} control vectors, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def n_controls(self) -> int:
        return self.values.shape[1]

    def value_at(self, s: float) -> np.ndarray:
        """Control vector on the interval containing s (right-open)."""
        k = np.searchsorted(self.grid, s, side="right") - 1
        k = min(max(k, 0), self.values.shape[0] - 1)
        return self.values[k]


def constant_control(omega, horizon: float) -> ControlPath:
    """Single-interval control identically equal to omega on [0, horizon]."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return ControlPath(np.array([0.0, horizon]), omega[None, :])


@dataclass(frozen=True)
class AdmissiblePath:
    """Sampled admissible path: samples[i] has time exactly t0 - i*step."""

    samples: np.ndarray
    control: ControlPath
    step: float

    @property
    def start(self) -> np.ndarray:
        return self.samples[0]

    @property
    def endpoint(self) -> np.ndarray:
        return self.samples[-1]


def path_cost(omega: ControlPath) -> float:
    """Energy cost Phi(omega) = integral of |omega(s)|^2, exact for pc controls."""
    sq = np.sum(omega.values**2, axis=1)
    return float(np.dot(sq, np.diff(omega.grid)))


def path_length(omega: ControlPath) -> float:
    """Horizontal length ell(omega) = integral of |omega(s)|, exact for pc controls."""
    nrm = np.sqrt(np.sum(omega.values**2, axis=1))
    return float(np.dot(nrm, np.diff(omega.grid)))


def integrate_path(model: Model, z0, omega: ControlPath, step: float) -> AdmissiblePath:
    """Sample the admissible path from z0 under a piecewise-constant control.

    On each control interval the path is the exact group translation
    z_k o flow(omega_k, s) of the interval's start z_k, composed for all of
    the interval's samples at once.  Every control interval must be an
    integer multiple of `step`; sample times are t0 - i*step exactly.
    DomainExitError at the first sample that leaves the domain (the asian
    price underflows to zero).
    """
    z0 = model.check_point(z0)
    if omega.n_controls != model.n_controls:
        raise ValueError(
            f"{model.name} expects {model.n_controls} controls, got {omega.n_controls}"
        )
    if step <= 0:
        raise ValueError("step must be positive")
    intervals = np.diff(omega.grid)
    if step > intervals.min() + 1e-15:
        raise ValueError("step must not exceed the smallest control interval")
    counts = intervals / step
    if not np.allclose(counts, np.round(counts), rtol=0, atol=1e-9):
        raise ValueError("every control interval must be a multiple of step")
    counts = np.round(counts).astype(int)

    blocks = [z0[None, :]]
    done = 0
    for w, nk in zip(omega.values, counts):
        zk = blocks[-1][-1]
        flows = model.flow(w, step * np.arange(1, nk + 1))
        try:
            block = _translate(model, zk, flows)
        except DomainError as err:
            s = (done + _inside_prefix(model, zk, flows) + 1) * step
            raise DomainExitError(
                f"{model.name} path left its domain at path time {s}", s
            ) from err
        block[:, -1] = z0[-1] - step * np.arange(done + 1, done + nk + 1)
        blocks.append(block)
        done += nk
    return AdmissiblePath(np.concatenate(blocks), omega, float(step))


def _translate(model, zk, flows):
    """zk o flows, with every product checked against the model's domain."""
    block = model.compose(zk, flows)
    model._check_domain(block)
    return block


def _inside_prefix(model, zk, flows):
    """Number of leading flows whose translates by zk stay in the domain.

    A prefix translates cleanly exactly when each of its samples does, so
    the first sample to leave the domain is found by bisection on the prefix
    length.
    """
    inside, outside = 0, len(flows)
    while outside - inside > 1:
        mid = (inside + outside) // 2
        try:
            _translate(model, zk, flows[:mid])
            inside = mid
        except DomainError:
            outside = mid
    return inside
