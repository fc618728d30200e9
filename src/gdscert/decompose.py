"""Inversion of the separable ansatz: populations -> mixture parameters.

With p_n = chi[n] / C(N, n) the ansatz reads p_n = sum_j x_j y_j^n (1 - y_j)^(N - n),
so p is the Bernstein-basis moment sequence of the measure sum_j x_j delta_{y_j}
on [0, 1].  The nodes y_j are the eigenvalues of a symmetric pencil of two
Hankel matrices of p written in the Bernstein basis (a Gauss, or for even N
Gauss-Radau, quadrature rule; Golub & Welsch, Math. Comp. 23 (1969)); the
weights follow from a linear least-squares solve back in population space.
For even N one node is pinned at y = 0.

The ansatz is complete at every N: a Dicke-diagonal state is separable iff p
is the Bernstein moment sequence of a probability measure on [0, 1], whose
lower principal representation has at most j_max atoms, one at y = 0 for even
N (Karlin & Studden, Tchebycheff Systems, 1966); these are also the PPT
conditions (Yu, PRA 94, 060101(R) (2016)).  So ``NotCertified`` means
entangled, except within the tolerance of the separable boundary and for two
known endpoint failures, separable states with nodes crowded at one end of
[0, 1] (N = 24, draw 206 of default_rng(24); N = 27, draw 321 of default_rng(27)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .states import GDSState, bernstein, binomials, check_tolerance, j_max

VERDICT_CERTIFIED = "CertifiedSeparable"
VERDICT_NOT_CERTIFIED = "NotCertified"

REASON_OUT_OF_RANGE = "ParameterOutOfRange"
REASON_DEGENERATE = "SolverDegenerate"

DEFAULT_EPSILON = 1e-9
_NEGLIGIBLE_WEIGHT = 1e-12
_BOUND_ROUNDOFF = 1e-12


class SolverDegenerateError(RuntimeError):
    """No finite decomposition can be computed from the populations."""


@dataclass(frozen=True)
class SDSDecomposition:
    """Solved real mixture parameters with their reconstruction residual."""

    n_qubits: int
    terms: tuple  # ((x_j, y_j), ...) of Python floats, of length j_max
    residual: float

    def canonicalize(self) -> "SDSDecomposition":
        """Sort terms by descending weight (then amplitude), resolving the
        interchange ambiguity between mixture terms."""
        order = sorted(self.terms, key=lambda t: (-t[0], -t[1]))
        return SDSDecomposition(
            n_qubits=self.n_qubits,
            terms=tuple(order),
            residual=self.residual,
        )

    @property
    def weights(self) -> np.ndarray:
        return np.array([t[0] for t in self.terms])

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([t[1] for t in self.terms])

    def to_json_dict(self) -> dict:
        terms = [{"x": float(x), "y": float(y)} for x, y in self.terms]
        return {"terms": terms, "residual": float(self.residual)}


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of the test on the solved decomposition.

    ``NotCertified`` means entangled, up to the tolerance and the endpoint
    failures named in the module docstring.
    """

    verdict: str
    tolerance: float
    certificate: SDSDecomposition | None = None
    reason: str | None = None
    offending: tuple | None = None  # (parameter index, value) for out-of-range

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict}
        if self.certificate is not None:
            out.update(self.certificate.to_json_dict())
        if self.reason is not None:
            out["reason"] = self.reason
            if self.offending is not None:
                out["offending_index"] = int(self.offending[0])
                out["offending_value"] = repr(self.offending[1])
        return out


def to_power_moments(state: GDSState) -> np.ndarray:
    """Power moments m_r = sum_j x_j y_j^r for r = 0..N, computed from chi alone.

    m_r = sum_{i=0}^{N-r} C(N-r, i) p_{r+i} with p_k = chi[k] / C(N, k).
    """
    n = state.n_qubits
    p = state.populations / binomials(n)
    m = np.empty(n + 1)
    for r in range(n + 1):
        m[r] = sum(binomials(n - r) * p[r:])
    return m


def _assemble(n: int, nodes: np.ndarray, weights: np.ndarray, chi: np.ndarray) -> SDSDecomposition:
    # a term is droppable only if its largest possible contribution to any
    # population is negligible; |x| alone is not enough (a tiny weight on a
    # far-out node can still carry O(1) contribution)
    reach = np.maximum(np.maximum(np.abs(nodes), np.abs(1 - nodes)), 1.0) ** n
    drop = np.abs(weights) * reach * binomials(n).max() <= _NEGLIGIBLE_WEIGHT
    xy = np.zeros((2, j_max(n)))  # rows: weights, nodes; padded with (0, 0) terms
    xy[:, : len(nodes)] = np.where(drop, 0.0, (weights, nodes))
    residual = float(np.max(np.abs(bernstein(n, xy[1]) @ xy[0] - chi)))
    return SDSDecomposition(n_qubits=n, terms=tuple(zip(*xy.tolist())), residual=residual)


def solve_decomposition(state: GDSState) -> SDSDecomposition:
    """Solve the population equations for mixture parameters (x_j, y_j).

    With h = floor((N+1)/2) free nodes, s = 1 for even N and 0 for odd N,
    and c_i = C(h-1, i), take the h x h matrices A[i, j] = c_i c_j p_{i+j+s+1}
    and B[i, j] = c_i c_j p_{i+j+s}.  For the measure mu = sum_j x_j delta_{y_j},
    G = A + B is the Gram matrix of the Bernstein basis c_i y^i (1 - y)^(h-1-i)
    under y^s mu, and A is the same matrix with an extra factor y; the
    eigenvalues of the pencil (A, G) are therefore the nodes, exactly when the
    state has at most h free nodes and as the Gauss (odd N) or Gauss-Radau
    (even N, node pinned at 0) rule otherwise.  The rank of G is the number of
    nodes: eigenvalues of G at or below h * eps * max|g|, the
    ``numpy.linalg.matrix_rank`` cut, are dropped.
    The Bernstein basis sums to 1 on [0, 1], which keeps G far better
    conditioned than the unscaled Hankel matrices of p.  Nodes of an
    entangled state may fall outside [0, 1] and weights may be negative;
    judging them is the certifier's job.
    """
    n = state.n_qubits
    pinned = n % 2 == 0
    h = (n + 1) // 2
    p = state.populations / binomials(n)
    idx = np.add.outer(np.arange(h), np.arange(h)) + pinned
    scale = np.outer(binomials(h - 1), binomials(h - 1))
    localizing = scale * p[idx + 1]
    g, vecs = np.linalg.eigh(localizing + scale * p[idx])
    keep = g > h * np.finfo(float).eps * np.abs(g).max()
    u = vecs[:, keep] / np.sqrt(g[keep])
    nodes = np.linalg.eigvalsh(u.T @ localizing @ u)
    if pinned:
        nodes = np.append(nodes, 0.0)
    # an overflowed table would give NaN weights, and NaN passes every
    # comparison in certify
    with np.errstate(over="ignore", invalid="ignore"):
        table = bernstein(n, nodes)
    if not np.isfinite(table).all():
        raise SolverDegenerateError(f"nodes too far outside [0, 1] for N={n}")
    weights, *_ = np.linalg.lstsq(table, state.populations, rcond=None)
    return _assemble(n, nodes, weights, state.populations)


def certify(state: GDSState, epsilon: float = DEFAULT_EPSILON) -> CertificationResult:
    """Run the decomposition solver and apply the convexity sanity check.

    CertifiedSeparable iff the solved mixture reproduces chi within
    ``epsilon`` (max-norm residual) and every x_j, y_j lies in
    [-epsilon, 1+epsilon]; the certificate carries the values clamped to
    [0, 1].  The test is necessary as well as sufficient (see the module
    docstring).
    """
    check_tolerance(epsilon)
    try:
        dec = solve_decomposition(state)
    except SolverDegenerateError:
        dec = None
    if dec is None or dec.residual > epsilon:
        return CertificationResult(
            verdict=VERDICT_NOT_CERTIFIED, tolerance=epsilon, reason=REASON_DEGENERATE
        )
    params = np.array(dec.terms).T.ravel()  # x_1..x_J, y_1..y_J
    bad = np.flatnonzero((params < -epsilon) | (params > 1.0 + epsilon))
    if bad.size:
        i = int(bad[0])
        return CertificationResult(
            verdict=VERDICT_NOT_CERTIFIED,
            tolerance=epsilon,
            reason=REASON_OUT_OF_RANGE,
            offending=(i, float(params[i])),
        )
    clamped = np.clip(params, 0.0, 1.0).reshape(2, -1).tolist()
    certificate = SDSDecomposition(
        n_qubits=dec.n_qubits, terms=tuple(zip(*clamped)), residual=dec.residual
    ).canonicalize()
    return CertificationResult(
        verdict=VERDICT_CERTIFIED, tolerance=epsilon, certificate=certificate
    )


@lru_cache(maxsize=None)
def population_bound(n_qubits: int, n0: int) -> float:
    """Largest population of level n0 attainable by any separable GDS state:
    (n0^n0 / n0!) (n1^n1 / n1!) (N! / N^N), with 0^0 = 1."""
    if not 0 <= n0 <= n_qubits:
        raise ValueError(f"n0 must be in 0..{n_qubits}")
    n1 = n_qubits - n0
    exact = (
        Fraction(n0**n0, factorial(n0))
        * Fraction(n1**n1, factorial(n1))
        * Fraction(factorial(n_qubits), n_qubits**n_qubits)
    )
    return float(exact)


def check_population_bounds(state: GDSState) -> list:
    """Violations (n0, chi, bound) of the necessary separability bound.

    Any violation proves entanglement; an empty list proves nothing.
    """
    violations = []
    for n0, chi in enumerate(state.populations):
        bound = population_bound(state.n_qubits, n0)
        if chi > bound + _BOUND_ROUNDOFF:
            violations.append((n0, float(chi), bound))
    return violations
