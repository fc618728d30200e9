"""Dicke-basis construction and diagonal-symmetric state representations.

Population vectors are always indexed by n0 ascending: ``populations[n0]``
is the weight on the Dicke level with n0 qubits in |0> and n1 = N - n0
qubits in |1>.  Index 0 is therefore the maximally excited level and
index N the ground level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, comb

import numpy as np

MAX_DENSE_QUBITS = 12
SUM_TOL = 1e-10
NEG_TOL = 1e-12


class CapacityError(ValueError):
    """Requested dense computation exceeds the supported qubit count."""


def j_max(n_qubits: int) -> int:
    """Number of mixture terms in the separable ansatz for ``n_qubits``."""
    return ceil((n_qubits + 1) / 2)


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless ``tol`` >= 0.

    A NaN tolerance compares False with everything, so it would pass every
    verdict check.  +inf is allowed: it accepts every state, which makes a
    constant-true indicator for the volume estimators.
    """
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol!r}")


@dataclass(frozen=True)
class GDSState:
    """Diagonal-symmetric mixed state: N and the population vector chi.

    ``populations[n0]`` for n0 = 0..N; must be nonnegative (within
    -1e-12 for numerically produced states) and sum to 1 within 1e-10.
    """

    n_qubits: int
    populations: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be a positive integer")
        chi = np.asarray(self.populations, dtype=float)
        if chi.shape != (self.n_qubits + 1,):
            raise ValueError(
                f"populations must have length N+1={self.n_qubits + 1}, got {chi.shape}"
            )
        if not np.isfinite(chi).all():
            raise ValueError("populations must be finite")
        if chi.min() < -NEG_TOL:
            raise ValueError(f"negative population {chi.min():.3e} below tolerance")
        total = chi.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"populations sum to {total!r}, expected 1")
        chi.setflags(write=False)
        object.__setattr__(self, "populations", chi)

    def to_json_dict(self) -> dict:
        return {"n": self.n_qubits, "chi": [float(c) for c in self.populations]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GDSState":
        """Parse ``{"n": int, "chi": [number, ...]}``; bools and strings are
        rejected, and a float ``n`` is rejected rather than truncated."""
        n, chi = obj["n"], obj["chi"]
        if type(n) is not int:
            raise TypeError(f'"n" must be an integer, got {n!r}')
        if not isinstance(chi, list) or any(type(c) not in (int, float) for c in chi):
            raise TypeError('"chi" must be a list of numbers')
        return cls(n_qubits=n, populations=np.asarray(chi, dtype=float))


@dataclass(frozen=True)
class SDSParams:
    """Mixture parameters (x_j, y_j) of the separable ansatz.

    Exactly j_max = ceil((N+1)/2) terms; for even N the last term has its
    amplitude y pinned to 0.  Weights must sum to 1.
    """

    n_qubits: int
    terms: tuple = field()

    def __post_init__(self):
        jm = j_max(self.n_qubits)
        terms = tuple((float(x), float(y)) for x, y in self.terms)
        if len(terms) != jm:
            raise ValueError(f"expected {jm} terms for N={self.n_qubits}, got {len(terms)}")
        xs = np.array([t[0] for t in terms])
        ys = np.array([t[1] for t in terms])
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("all x_j and y_j must be finite")
        if abs(xs.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {xs.sum()!r}, expected 1")
        if xs.min() < 0 or xs.max() > 1 or ys.min() < 0 or ys.max() > 1:
            raise ValueError("all x_j and y_j must lie in [0, 1]")
        if self.n_qubits % 2 == 0 and terms[-1][1] != 0.0:
            raise ValueError("for even N the last term must have y = 0")
        object.__setattr__(self, "terms", terms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([t[0] for t in self.terms])

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([t[1] for t in self.terms])


@lru_cache(maxsize=None)
def binomials(n_qubits: int) -> np.ndarray:
    """The row C(N, 0..N) as floats; shared between callers, so read-only."""
    row = np.array([comb(n_qubits, k) for k in range(n_qubits + 1)], dtype=float)
    row.setflags(write=False)
    return row


def bernstein(n_qubits: int, ys) -> np.ndarray:
    """Bernstein table C(N, n0) y^n0 (1 - y)^(N - n0) of the amplitudes ``ys``.

    ``ys`` of shape (..., J) gives a (..., N+1, J) table: column j holds the
    populations of the product state with amplitude ys[..., j], and leading
    axes are batch axes.  Complex amplitudes are allowed, and 0**0
    evaluates to 1, so y = 0 and y = 1 give the unit columns e_0 and e_N.
    """
    ys = np.asarray(ys)[..., None, :]
    n0s = np.arange(n_qubits + 1)[:, None]
    return binomials(n_qubits)[:, None] * ys**n0s * (1.0 - ys) ** (n_qubits - n0s)


def _check_dense_capacity(n_qubits: int):
    if n_qubits > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense 2^N matrices are limited to N <= {MAX_DENSE_QUBITS}, got N={n_qubits}"
        )


def dicke_ket(n_qubits: int, n0: int) -> np.ndarray:
    """State vector of the symmetric level with n0 zeros (length 2^N, real)."""
    _check_dense_capacity(n_qubits)
    if not 0 <= n0 <= n_qubits:
        raise ValueError(f"n0 must be in 0..{n_qubits}, got {n0}")
    n1 = n_qubits - n0
    dim = 1 << n_qubits
    ket = np.zeros(dim)
    indices = [b for b in range(dim) if bin(b).count("1") == n1]
    ket[indices] = 1.0 / np.sqrt(comb(n_qubits, n1))
    return ket


def dicke_projector(n_qubits: int, n0: int) -> np.ndarray:
    """Rank-1 projector onto the Dicke level with n0 zeros, as a dense matrix."""
    ket = dicke_ket(n_qubits, n0)
    return np.outer(ket, ket)


def gds_density_matrix(state: GDSState) -> np.ndarray:
    """Dense computational-basis density matrix of a GDS state (real symmetric)."""
    _check_dense_capacity(state.n_qubits)
    dim = 1 << state.n_qubits
    rho = np.zeros((dim, dim))
    for n0, chi in enumerate(state.populations):
        if chi != 0.0:
            rho += chi * dicke_projector(state.n_qubits, n0)
    return rho


def sds_populations(params: SDSParams) -> GDSState:
    """Forward map from mixture parameters to Dicke-level populations.

    chi[n0] = sum_j x_j C(N, n0) y_j^n0 (1 - y_j)^n1, which is structurally
    nonnegative and sums to 1 by the binomial theorem.
    """
    chi = bernstein(params.n_qubits, params.amplitudes) @ params.weights
    return GDSState(n_qubits=params.n_qubits, populations=chi)


def single_qubit_projector(y: float, phase: float) -> np.ndarray:
    """Projector onto sqrt(y)|0> + sqrt(1-y) e^{i phase}|1>."""
    psi = np.array([np.sqrt(y), np.sqrt(1.0 - y) * np.exp(1j * phase)])
    return np.outer(psi, psi.conj())


def sds_density_matrix_phase_avg(params: SDSParams, n_phases: int) -> np.ndarray:
    """Density matrix of the mixture built by discrete uniform phase averaging.

    The integrand is a trigonometric polynomial of degree <= N in the phase,
    so any equispaced average with n_phases >= N+1 nodes reproduces the
    continuous phase integral exactly.
    """
    n = params.n_qubits
    _check_dense_capacity(n)
    if n_phases <= n:
        raise ValueError(f"n_phases must exceed N={n} for the average to be exact")
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    phases = 2.0 * np.pi * np.arange(n_phases) / n_phases
    for x, y in params.terms:
        if x == 0.0:
            continue
        for phi in phases:
            q = single_qubit_projector(y, phi)
            prod = q
            for _ in range(n - 1):
                prod = np.kron(prod, q)
            rho += (x / n_phases) * prod
    return rho


def random_sds_params(n_qubits: int, rng: np.random.Generator) -> SDSParams:
    """Draw valid mixture parameters: weights uniform on the simplex, y uniform."""
    jm = j_max(n_qubits)
    xs = rng.dirichlet(np.ones(jm))
    ys = rng.random(jm)
    if n_qubits % 2 == 0:
        ys[-1] = 0.0
    return SDSParams(n_qubits=n_qubits, terms=tuple(zip(xs, ys)))


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)
