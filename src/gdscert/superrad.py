"""Idealized superradiant cascade on the Dicke-level populations.

The populations obey linear rate equations: level n0 loses at rate
(n0+1) n1 and gains at rate n0 (n1+1) from level n0-1.  Evolution starts
from the maximally excited level (n1 = N).  The generator has pairwise
repeated rates (symmetric under n0 <-> N-n0-1), producing secular
tau*exp(-r tau) terms, so the propagator is computed by scaling and
squaring rather than eigendecomposition, with numpy alone.

With q the largest rate, P = I + G/q is a column-stochastic lower
bidiagonal matrix, and a short step is the uniformised series
exp(hG) = sum_k e^(-qh) (qh)^k / k! P^k (Jensen 1953), whose terms are all
nonnegative.  Each entry keeps its first 21 terms, which at qh <= 1/2 leave
out less than 2e-26 of it.  The step is squared back up to tau, and after
every squaring the diagonal is set to its exact value exp(t G_nn), as for
triangular matrices in Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009).  Nothing cancels and every intermediate entry lies in [0, 1], so
nothing overflows: a huge tau gives the ground state e_N exactly.  Against a
40-digit reference (N <= 12, tau from 1e-6 to 100) the populations are
within 1.7e-15, and within 5.1e-15 relatively wherever they exceed 1e-300
(scipy's general expm: 2.2e-15, but relative errors up to 73).
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


# terms of the uniformised series kept past each entry's first: at qh <= 1/2
# the rest is below (1/2)^21 / 21! * e^(1/2) = 1.5e-26 of the entry, so the
# truncation stays far below rounding through 2^20 squarings
_EXTRA_TERMS = 20


def _series_table(gen: np.ndarray, q: float) -> np.ndarray:
    """table[m, r, i] = (P^(m + r))[i + m, i], for P = I + gen / q.

    P^(m + r)[i + m, i] sums the ways to climb from level i to i + m in
    m + r steps: the product of the m climbing probabilities times h_r, the
    complete homogeneous polynomial of degree r in the staying
    probabilities of levels i..i+m.
    """
    dim = len(gen)
    # padded past the top level, so level i + m may run off it
    stay = np.zeros(2 * dim)
    stay[:dim] = 1.0 + np.diag(gen) / q
    climb = np.zeros(2 * dim)
    climb[1:dim] = np.diag(gen, -1) / q
    level = np.arange(dim)[:, None] + np.arange(dim)  # level[m, i] = i + m
    steps_up = climb[level]
    steps_up[0] = 1.0
    paths = np.cumprod(steps_up, axis=0)
    x = stay[level]
    h = np.empty((dim, _EXTRA_TERMS + 1, dim))
    h[:, 0] = 1.0
    for r in range(1, _EXTRA_TERMS + 1):
        # h_r(x_i..x_{i+m}) = sum over m' <= m of x_{i+m'} h_(r-1)(x_i..x_{i+m'})
        np.cumsum(x * h[:, r - 1], axis=0, out=h[:, r])
    return paths[:, None, :] * h


def _propagate(gen: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Rows exp(tau gen) e_0 for the ascending nonnegative grid; ``gen`` is
    a cascade generator (lower bidiagonal, zero column sums)."""
    dim = len(gen)
    rates = -np.diag(gen)
    q = rates.max()
    table = _series_table(gen, q)
    # tau = 2^s h with qh <= 1/2; s ascends with the grid
    with np.errstate(divide="ignore"):
        squarings = np.maximum(np.ceil(np.log2(2.0 * q) + np.log2(grid)), 0.0).astype(int)
    steps = np.ldexp(grid, -squarings)
    # Poisson weights e^(-qh) (qh)^k / k!, k = 0 .. N + _EXTRA_TERMS
    ratios = (q * steps)[:, None] / np.arange(1, dim + _EXTRA_TERMS)
    weights = np.cumprod(np.column_stack([np.exp(-q * steps), ratios]), axis=1)
    # band m of exp(hG) is the sum over r of weight m + r times table[m, r]
    terms = np.arange(dim)[:, None] + np.arange(_EXTRA_TERMS + 1)
    bands = weights[:, terms].transpose(1, 0, 2) @ table  # [m, tau, i]
    rows, cols = np.tril_indices(dim)
    prop = np.zeros((len(grid), dim, dim))
    prop[:, rows, cols] = bands[rows - cols, :, cols].T
    diag = np.arange(dim)
    # a time so large that t * rate overflows has exp(-t * rate) = 0
    with np.errstate(over="ignore"):
        for i in range(1, squarings[-1]):
            # the times that take more than i squarings
            later = np.searchsorted(squarings, i + 1)
            squared = prop[later:] @ prop[later:]
            squared[:, diag, diag] = np.exp(-np.ldexp(steps[later:], i)[:, None] * rates)
            prop[later:] = squared
        # the last squaring needs column 0 only
        chis = prop[:, :, 0].copy()
        first = np.searchsorted(squarings, 1)
        chis[first:] = np.einsum("tij,tj->ti", prop[first:], prop[first:, :, 0])
        chis[:, 0] = np.exp(-rates[0] * grid)
    # once the other levels hold less than half an ulp of 1, the ground level
    # is 1 to rounding; the squarings alone can leave it a few ulps off
    chis[chis[:, :-1].sum(axis=1) < 2.0 ** -54, -1] = 1.0
    return chis


def trajectory(n_qubits: int, tau_grid) -> Trajectory:
    """Evaluate the cascade on an ascending nonnegative time grid."""
    n_qubits = _checked_int(n_qubits)
    grid = np.array(tau_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("tau_grid must be a nonempty 1-D sequence")
    if not np.isfinite(grid).all():
        raise ValueError("tau_grid must be finite")
    if grid[0] < 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("tau_grid must be ascending and nonnegative")
    chis = _propagate(generator(n_qubits), grid)
    states = tuple(GDSState(n_qubits=n_qubits, populations=chi) for chi in chis)
    grid.setflags(write=False)
    return Trajectory(n_qubits=n_qubits, tau_grid=grid, states=states)
