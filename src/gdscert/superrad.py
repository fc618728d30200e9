"""Idealized superradiant cascade on the Dicke-level populations.

The populations obey linear rate equations: level n0 loses at rate
(n0+1) n1 and gains at rate n0 (n1+1) from level n0-1.  Evolution starts
from the maximally excited level (n1 = N).  The generator has pairwise
repeated rates (symmetric under n0 <-> N-n0-1), producing secular
tau*exp(-r tau) terms, so the propagator is computed by scaling-and-
squaring rather than eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import GDSState, _checked_int

# the explicit formulas suffer catastrophic cancellation near tau=0;
# negative entries this close to zero are floating-point residue, not physics
_CLOSED_FORM_ROUNDOFF = 1e-10


def _zero_roundoff(chi: np.ndarray) -> np.ndarray:
    return np.where((chi < 0.0) & (chi > -_CLOSED_FORM_ROUNDOFF), 0.0, chi)


@dataclass(frozen=True)
class Trajectory:
    """Superradiant populations on an ascending grid of dimensionless times."""

    n_qubits: int
    tau_grid: np.ndarray
    states: tuple  # GDSState per grid point

    def populations_table(self) -> np.ndarray:
        """(len(grid), N+1) array of chi rows, n0 ascending."""
        return np.array([s.populations for s in self.states])


def generator(n_qubits: int) -> np.ndarray:
    """Cascade rate matrix over the n0 index (lower bidiagonal, zero column
    sums), assembled in exact integers and returned read-only as floats."""
    n = _checked_int(n_qubits)
    mat = np.zeros((n + 1, n + 1), dtype=np.int64)
    for n0 in range(n + 1):
        n1 = n - n0
        mat[n0, n0] = -(n0 + 1) * n1
        if n0 >= 1:
            mat[n0, n0 - 1] = n0 * (n1 + 1)
    assert (mat.sum(axis=0) == 0).all()
    out = mat.astype(float)
    out.setflags(write=False)
    return out


def evolve(n_qubits: int, tau: float) -> GDSState:
    """Populations at dimensionless time tau, starting fully excited."""
    return trajectory(n_qubits, [tau]).states[0]


def closed_form_n4(tau: float) -> GDSState:
    """Explicit N=4 cascade populations, indexed by n0 ascending."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    e4 = np.exp(-4.0 * tau)
    e6 = np.exp(-6.0 * tau)
    chi = np.array([
        e4,
        2.0 * e4 - 2.0 * e6,
        6.0 * e6 * (-2.0 * tau - 1.0) + 6.0 * e4,
        36.0 * e4 * (tau - 1.0) + 36.0 * e6 * (tau + 1.0),
        e6 * (-24.0 * tau - 28.0) + e4 * (27.0 - 36.0 * tau) + 1.0,
    ])
    return GDSState(n_qubits=4, populations=_zero_roundoff(chi))


def closed_form_n8(tau: float) -> GDSState:
    """Explicit N=8 cascade populations, indexed by n0 ascending."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    t = tau
    e = np.exp
    chi = np.array([
        e(-8 * t),
        (4.0 / 3.0) * e(-14 * t) * (e(6 * t) - 1.0),
        (1.0 / 15.0) * e(-18 * t) * (-70.0 * e(4 * t) + 28.0 * e(10 * t) + 42.0),
        (14.0 / 5.0) * e(-20 * t) * (9.0 * e(2 * t) - 5.0 * e(6 * t) + e(12 * t) - 5.0),
        (14.0 / 3.0) * e(-20 * t)
        * (-60.0 * t + 54.0 * e(2 * t) - 10.0 * e(6 * t) + e(12 * t) - 45.0),
        (28.0 / 3.0) * e(-20 * t)
        * (75.0 * (4.0 * t + 5.0) - 25.0 * e(6 * t) + e(12 * t)
           + 27.0 * e(2 * t) * (20.0 * t - 13.0)),
        28.0 * e(-20 * t)
        * (-50.0 * e(6 * t) * (3.0 * t - 2.0) + e(12 * t)
           - 162.0 * e(2 * t) * (5.0 * t - 2.0) - 25.0 * (12.0 * t + 17.0)),
        (196.0 / 5.0) * e(-20 * t)
        * (125.0 * e(6 * t) * (2.0 * t - 1.0) + 125.0 * (2.0 * t + 3.0)
           + e(12 * t) * (10.0 * t - 7.0) + 81.0 * e(2 * t) * (10.0 * t - 3.0)),
        -800.0 * e(-14 * t) * (7.0 * t - 3.0) - 196.0 * e(-20 * t) * (20.0 * t + 31.0)
        + (49.0 / 5.0) * e(-8 * t) * (23.0 - 40.0 * t)
        + (1568.0 / 5.0) * e(-18 * t) * (11.0 - 45.0 * t) + 1.0,
    ])
    return GDSState(n_qubits=8, populations=_zero_roundoff(chi))


def trajectory(n_qubits: int, tau_grid) -> Trajectory:
    """Evaluate the cascade on an ascending nonnegative time grid."""
    # imported here, its only use: scipy doubles the memory and start-up
    # time of ``import gdscert``
    from scipy.linalg import expm

    n_qubits = _checked_int(n_qubits)
    grid = np.array(tau_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("tau_grid must be a nonempty 1-D sequence")
    if not np.isfinite(grid).all():
        raise ValueError("tau_grid must be finite")
    if grid[0] < 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("tau_grid must be ascending and nonnegative")
    gen = generator(n_qubits)
    chi0 = np.zeros(n_qubits + 1)
    chi0[0] = 1.0
    # one batched propagator; the product with chi0, unlike its column 0,
    # turns the propagator's -0.0 entries into 0.0.  At a tau so large that
    # tau * rate overflows, GDSState's finiteness check raises ValueError
    with np.errstate(over="ignore"):
        chis = expm(grid[:, None, None] * gen) @ chi0
    states = tuple(GDSState(n_qubits=n_qubits, populations=chi) for chi in chis)
    grid.setflags(write=False)
    return Trajectory(n_qubits=n_qubits, tau_grid=grid, states=states)
