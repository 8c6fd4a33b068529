"""Oracles that only the tests read: exact steady-flow data for the flow map and
a ladder member's norm history."""

import numpy as np

from lpflow import Grid, GridField, Trajectory, VectorField
from lpflow.euler import _spectra
from lpflow.iteration import IterationLadder
from lpflow.norms import _half_norms


def taylor_green_stream(grid: Grid) -> GridField:
    """Stream function of the 2D cellular vortex.

    The flow is steady, so particle paths stay on its level sets exactly;
    near a cell center the linearized flow is a unit-rate rotation with
    period 2 pi.  This is the flow-map orbit oracle.
    """
    if grid.d != 2:
        raise ValueError("the stream-function oracle is 2D")
    x = grid.meshes()
    return GridField(grid, np.sin(x[0]) * np.sin(x[1]), "physical")


def stream_values(points: np.ndarray) -> np.ndarray:
    """sin(x) sin(y) evaluated at points of shape (2, ...)."""
    return np.sin(points[0]) * np.sin(points[1])


def steady_trajectory(u: VectorField, T: float, cadence: float) -> Trajectory:
    """A constant-in-time trajectory (for kinematic flow-map studies)."""
    steps = round(T / cadence)
    if abs(steps * cadence - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer number of cadence intervals")
    times = tuple(i * cadence for i in range(steps + 1))
    return Trajectory(times, (_spectra(u),) * (steps + 1))


def member_norm_history(bank, ladder: IterationLadder, m: int) -> tuple[float, ...]:
    """||member m (t)|| in the ladder's norm at every recorded time."""
    return tuple(_half_norms(bank, s, (ladder.norm_spec,))[0] for s in ladder.members[m].spectra)
