"""Inversion of the separable ansatz: populations -> mixture parameters.

The population equations are linearized into a truncated moment problem:
m_r = sum_j x_j y_j^r.  Nodes y_j are recovered from a Hankel/Prony linear
system and a companion-matrix rooting step; weights follow from a linear
least-squares solve back in population space.  For even N one node is
pinned at y = 0 before the solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .states import GDSState, bernstein, binomials, j_max

VERDICT_CERTIFIED = "CertifiedSeparable"
VERDICT_NOT_CERTIFIED = "NotCertified"

REASON_COMPLEX = "ComplexParameters"
REASON_OUT_OF_RANGE = "ParameterOutOfRange"
REASON_DEGENERATE = "SolverDegenerate"

DEFAULT_EPSILON = 1e-9
_RANK_ACCEPT_RESIDUAL = 1e-11
_NEGLIGIBLE_WEIGHT = 1e-12


class SolverDegenerateError(RuntimeError):
    """The moment system is rank-deficient beyond the rank-reduction fallback."""


@dataclass(frozen=True)
class SDSDecomposition:
    """Solved mixture parameters, possibly complex, with reconstruction residual."""

    n_qubits: int
    terms: tuple  # ((x_j, y_j), ...) of length j_max; complex entries allowed
    residual: float

    def canonicalize(self) -> "SDSDecomposition":
        """Sort terms by descending weight (then amplitude), resolving the
        interchange ambiguity between mixture terms."""
        order = sorted(
            self.terms, key=lambda t: (-np.real(t[0]), -np.real(t[1]))
        )
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
        terms = []
        for x, y in self.terms:
            if np.iscomplexobj(np.asarray(x)) or np.iscomplexobj(np.asarray(y)):
                terms.append({"x": [float(np.real(x)), float(np.imag(x))],
                              "y": [float(np.real(y)), float(np.imag(y))]})
            else:
                terms.append({"x": float(x), "y": float(y)})
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
        # Python's sum adds left to right; a matrix product would reorder
        # the sum and change the last digits of the certificates
        m[r] = sum(binomials(n - r) * p[r:])
    return m


def _prony_nodes(s: np.ndarray, r0: int, rank: int) -> np.ndarray:
    """Recover ``rank`` nodes of a discrete measure from its moment sequence
    s[r0], s[r0+1], ..., via the annihilating-polynomial linear system."""
    if rank == 0:
        return np.zeros(0)
    n_rows = len(s) - r0 - rank
    if n_rows < 1:
        raise SolverDegenerateError("too few moments for the requested node count")
    a = np.empty((n_rows, rank))
    for i in range(n_rows):
        a[i, :] = s[r0 + i : r0 + i + rank]
    b = -s[r0 + rank : r0 + rank + n_rows]
    if n_rows == rank:
        try:
            coeffs = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    else:
        coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    # monic polynomial y^rank + c_{rank-1} y^{rank-1} + ... + c_0
    poly = np.concatenate(([1.0], coeffs[::-1]))
    return np.roots(poly)


def _assemble(n: int, nodes: np.ndarray, weights: np.ndarray, chi: np.ndarray) -> SDSDecomposition:
    max_binom = binomials(n).max()
    terms = []
    for x, y in zip(weights, nodes):
        # a term is droppable only if its largest possible contribution to
        # any population is negligible; |x| alone is not enough (a tiny
        # weight on a far-out node can still carry O(1) contribution)
        contrib = abs(x) * max(abs(y), abs(1 - y), 1.0) ** n * max_binom
        if contrib <= _NEGLIGIBLE_WEIGHT:
            terms.append((0.0, 0.0))
        elif abs(np.imag(x)) == 0.0 and abs(np.imag(y)) == 0.0:
            terms.append((float(np.real(x)), float(np.real(y))))
        else:
            terms.append((complex(x), complex(y)))
    while len(terms) < j_max(n):
        terms.append((0.0, 0.0))
    xs = np.array([t[0] for t in terms])
    ys = np.array([t[1] for t in terms])
    residual = float(np.max(np.abs(bernstein(n, ys) @ xs - chi)))
    return SDSDecomposition(n_qubits=n, terms=tuple(terms), residual=residual)


def solve_decomposition(state: GDSState) -> SDSDecomposition:
    """Solve the population equations for mixture parameters (x_j, y_j).

    Tries node counts from 0 up to the free maximum and keeps the smallest
    count whose reconstruction residual is negligible; mixtures with few
    distinct amplitudes are legitimate, not errors.  For even N one node is
    pinned at y = 0 and excluded from the moment sequence (its contribution
    vanishes for r >= 1).  Complex parameters are returned as-is; judging
    them is the certifier's job.
    """
    n = state.n_qubits
    pinned = n % 2 == 0
    n_free = n // 2 if pinned else (n + 1) // 2
    r0 = 1 if pinned else 0
    m = to_power_moments(state)

    best = None
    for rank in range(0, n_free + 1):
        if rank == 0 and not pinned:
            continue  # no nodes at all cannot reproduce a normalized chi
        try:
            nodes = _prony_nodes(m, r0, rank)
        except (SolverDegenerateError, np.linalg.LinAlgError):
            continue
        if not np.all(np.isfinite(nodes)):
            continue
        if pinned:
            nodes = np.concatenate((nodes, [0.0 if not np.iscomplexobj(nodes) else 0.0 + 0j]))
        table = bernstein(n, nodes)
        weights, *_ = np.linalg.lstsq(
            table, state.populations.astype(table.dtype), rcond=None
        )
        if not np.all(np.isfinite(weights)):
            continue
        candidate = _assemble(n, nodes, weights, state.populations)
        if best is None or candidate.residual < best.residual:
            best = candidate
        if candidate.residual <= _RANK_ACCEPT_RESIDUAL:
            break
    if best is None:
        raise SolverDegenerateError(
            f"no usable node set found for N={n}; Hankel system degenerate"
        )
    return best


def solve_n4_closed_form(state: GDSState) -> SDSDecomposition:
    """Closed-form decomposition for N = 4: explicit y+/-, x+/- expressions.

    Independent oracle for the general solver.  Raises on coincident nodes
    (vanishing discriminant denominators); callers fall back to the general
    solver with rank reduction.
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
    root = np.sqrt(complex(rad))
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

    nodes = np.array([y_p, y_m, 0.0 + 0j])
    weights = np.array([x_p, x_m, x3])
    if np.max(np.abs(np.imag(nodes))) == 0.0 and np.max(np.abs(np.imag(weights))) == 0.0:
        nodes = np.real(nodes)
        weights = np.real(weights)
    return _assemble(4, nodes, weights, chi)


def certify(state: GDSState, epsilon: float = DEFAULT_EPSILON) -> CertificationResult:
    """Run the decomposition solver and apply the convexity sanity check.

    CertifiedSeparable iff all solved x_j, y_j are real within ``epsilon``
    and lie in [-epsilon, 1+epsilon]; the certificate carries the values
    clamped to [0, 1].  For N >= 5 a NotCertified verdict is *not* a proof
    of entanglement (the completeness of the ansatz is conjectural there).
    """
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
    if np.max(np.abs(np.imag(params))) > epsilon:
        return CertificationResult(
            verdict=VERDICT_NOT_CERTIFIED, tolerance=epsilon, reason=REASON_COMPLEX
        )
    real = np.real(params)
    for i, v in enumerate(real):
        if v < -epsilon or v > 1.0 + epsilon:
            return CertificationResult(
                verdict=VERDICT_NOT_CERTIFIED,
                tolerance=epsilon,
                reason=REASON_OUT_OF_RANGE,
                offending=(i, float(v)),
            )
    jm = len(dec.terms)
    clamped = tuple(
        (float(np.clip(real[j], 0.0, 1.0)), float(np.clip(real[jm + j], 0.0, 1.0)))
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
