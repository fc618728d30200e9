"""Inversion of the separable ansatz: populations -> mixture parameters.

With p_n = chi[n] / C(N, n) the ansatz reads p_n = sum_j x_j y_j^n (1 - y_j)^(N - n),
so p is the Bernstein-basis moment sequence of the measure sum_j x_j delta_{y_j}
on [0, 1].  The nodes y_j are the eigenvalues of a symmetric pencil of two
Hankel matrices of p written in the Bernstein basis (a Gauss, or for even N
Gauss-Radau, quadrature rule; Golub & Welsch, Math. Comp. 23 (1969)); the
weights follow from a linear least-squares solve back in population space.
For even N one node is pinned at y = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .states import GDSState, bernstein, binomials, check_tolerance, j_max

VERDICT_CERTIFIED = "CertifiedSeparable"
VERDICT_NOT_CERTIFIED = "NotCertified"

REASON_OUT_OF_RANGE = "ParameterOutOfRange"
REASON_DEGENERATE = "SolverDegenerate"

DEFAULT_EPSILON = 1e-9
_NEGLIGIBLE_WEIGHT = 1e-12


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
    """Outcome of the sufficiency test on the solved decomposition.

    ``NotCertified`` is NOT a proof of entanglement for N >= 5: the
    coincidence of this criterion with separability is proven only for
    N <= 4 and remains conjectural above that.
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
    max_binom = binomials(n).max()
    terms = []
    for x, y in zip(weights, nodes):
        # a term is droppable only if its largest possible contribution to
        # any population is negligible; |x| alone is not enough (a tiny
        # weight on a far-out node can still carry O(1) contribution)
        contrib = abs(x) * max(abs(y), abs(1 - y), 1.0) ** n * max_binom
        terms.append((0.0, 0.0) if contrib <= _NEGLIGIBLE_WEIGHT else (float(x), float(y)))
    while len(terms) < j_max(n):
        terms.append((0.0, 0.0))
    xs = np.array([t[0] for t in terms])
    ys = np.array([t[1] for t in terms])
    residual = float(np.max(np.abs(bernstein(n, ys) @ xs - chi)))
    return SDSDecomposition(n_qubits=n, terms=tuple(terms), residual=residual)


def solve_decomposition(state: GDSState) -> SDSDecomposition:
    """Solve the population equations for mixture parameters (x_j, y_j).

    With h free nodes (h = (N+1)/2 for odd N, N/2 for even N), s = 1 for
    even N and 0 for odd N, and c_i = C(h-1, i), take the h x h matrices
    A[i, j] = c_i c_j p_{i+j+s+1} and B[i, j] = c_i c_j p_{i+j+s}.  For the
    measure mu = sum_j x_j delta_{y_j}, G = A + B is the Gram matrix of the
    Bernstein basis c_i y^i (1 - y)^(h-1-i) under y^s mu, and A is the same
    matrix with an extra factor y; the eigenvalues of the pencil (A, G) are
    therefore the nodes, exactly when the state has at most h free nodes and
    as the Gauss (odd N) or Gauss-Radau (even N, node pinned at 0) rule
    otherwise.  The rank of G is the number of nodes: eigenvalues of G at or
    below h * eps * max|g|, the ``numpy.linalg.matrix_rank`` cut, are dropped.
    The Bernstein basis sums to 1 on [0, 1], which keeps G far better
    conditioned than the unscaled Hankel matrices of p.  Nodes of an
    entangled state may fall outside [0, 1] and weights may be negative;
    judging them is the certifier's job.
    """
    n = state.n_qubits
    pinned = n % 2 == 0
    h = n // 2 if pinned else (n + 1) // 2
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


def solve_n4_closed_form(state: GDSState) -> SDSDecomposition:
    """Closed-form decomposition for N = 4: explicit y+/-, x+/- expressions.

    Independent oracle for the general solver.  Raises on coincident nodes
    (vanishing discriminant denominators) and on complex nodes (negative
    discriminant, which only entangled states have); callers fall back to
    the general solver, which handles them.
    """
    if state.n_qubits != 4:
        raise ValueError("closed form applies to N=4 only")
    chi = state.populations
    c04, c13, c22, c31, c40 = (chi[0], chi[1], chi[2], chi[3], chi[4])

    den = 4 * c22**2 + 6 * (c31 - 4 * c40) * c22 + 9 * c31**2 - 9 * c13 * (c31 + 4 * c40)
    if abs(den) < 1e-14:
        raise SolverDegenerateError("node-formula denominator vanishes")
    num = 9 * c31**2 - 18 * c13 * c40 + 3 * c22 * (c31 - 8 * c40)
    rad = (
        324 * c13**2 * c40**2
        + 12 * c22 * (8 * c22**2 - 27 * c13 * c31) * c40
        - 27 * (c22**2 - 3 * c13 * c31) * c31**2
    )
    if rad < 0:
        raise SolverDegenerateError("negative discriminant: complex nodes")
    root = np.sqrt(rad)
    y_p = (num + root) / den
    y_m = (num - root) / den
    if abs(y_p - y_m) < 1e-12:
        raise SolverDegenerateError("coincident nodes y+ = y-")

    def x_for(y_this, y_other):
        d = 6 * y_this**2 * (y_this - y_other) * (y_this * (2 * y_other - 1) - y_other)
        if abs(d) < 1e-300:
            raise SolverDegenerateError("weight-formula denominator vanishes")
        return (y_other**2 * c22 - 6 * (y_other - 1) ** 2 * c40) / d

    x_p = x_for(y_p, y_m)
    x_m = x_for(y_m, y_p)
    x3 = 1.0 - x_p - x_m

    return _assemble(4, np.array([y_p, y_m, 0.0]), np.array([x_p, x_m, x3]), chi)


def certify(state: GDSState, epsilon: float = DEFAULT_EPSILON) -> CertificationResult:
    """Run the decomposition solver and apply the convexity sanity check.

    CertifiedSeparable iff the solved mixture reproduces chi within
    ``epsilon`` (max-norm residual) and every x_j, y_j lies in
    [-epsilon, 1+epsilon]; the certificate carries the values clamped to
    [0, 1].  For N >= 5 a NotCertified verdict is *not* a proof
    of entanglement (the completeness of the ansatz is conjectural there).
    """
    check_tolerance(epsilon)
    try:
        dec = solve_decomposition(state)
    except SolverDegenerateError:
        return CertificationResult(
            verdict=VERDICT_NOT_CERTIFIED, tolerance=epsilon, reason=REASON_DEGENERATE
        )
    if dec.residual > epsilon:
        return CertificationResult(
            verdict=VERDICT_NOT_CERTIFIED, tolerance=epsilon, reason=REASON_DEGENERATE
        )
    params = np.concatenate((dec.weights, dec.amplitudes))
    for i, v in enumerate(params):
        if v < -epsilon or v > 1.0 + epsilon:
            return CertificationResult(
                verdict=VERDICT_NOT_CERTIFIED,
                tolerance=epsilon,
                reason=REASON_OUT_OF_RANGE,
                offending=(i, float(v)),
            )
    jm = len(dec.terms)
    clamped = tuple(
        (float(np.clip(params[j], 0.0, 1.0)), float(np.clip(params[jm + j], 0.0, 1.0)))
        for j in range(jm)
    )
    certificate = SDSDecomposition(
        n_qubits=dec.n_qubits, terms=clamped, residual=dec.residual
    ).canonicalize()
    return CertificationResult(
        verdict=VERDICT_CERTIFIED, tolerance=epsilon, certificate=certificate
    )


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


def check_population_bounds(state: GDSState, tol: float = 1e-12) -> list:
    """Violations (n0, chi, bound) of the necessary separability bound.

    Any violation proves entanglement; an empty list proves nothing.
    """
    violations = []
    for n0, chi in enumerate(state.populations):
        bound = population_bound(state.n_qubits, n0)
        if chi > bound + tol:
            violations.append((n0, float(chi), bound))
    return violations
