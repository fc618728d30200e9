"""Partial-transpose positivity tests for diagonal-symmetric states.

By permutation symmetry only the block sizes k = 1..floor(N/2) give
inequivalent bipartitions; for N=4 these are exactly the 1|3 and 2|2
splits, and both are needed (neither implies the other).

Verdicts never build a 2^N x 2^N matrix.  Write p_n = chi[n] / C(N, n).
For the split k | N-k, rho^{T_k} is orthogonally similar to

    (+)_{delta=-(N-k)..k} W_delta H_delta W_delta  (+)  0

with the Hankel block H_delta[a, a'] = p_{a+a'-delta} and the diagonal
W_delta = diag sqrt(C(k, a) C(N-k, a-delta)), where a runs over
max(0, delta)..min(k, N-k+delta) (a counts the |0> qubits of the first k,
a - delta those of the rest).  The zero block has dimension
2^N - (k+1)(N-k+1): it is the complement of Sym^k (x) Sym^(N-k), on which
the state has no support.  The spectrum is therefore exact, not merely
congruent, so a negative block eigenvalue is itself a negative eigenvalue
of rho^{T_k}; see Tura et al., Quantum 2, 45 (2018).  The dense
``partial_transpose`` of ``gds_density_matrix`` is kept as the test oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

# gds_density_matrix is re-exported: the dense oracle is reached through this
# module, and the traced benchmark run (perfbench/tracing.py) patches it here.
from .states import GDSState, binomials, check_tolerance, gds_density_matrix  # noqa: F401

DEFAULT_EIG_TOL = 1e-10


@dataclass(frozen=True)
class PptReport:
    """Minimum partial-transpose eigenvalue per bipartition block size."""

    n_qubits: int
    tolerance: float
    min_eigenvalues: dict  # k -> min eigenvalue of rho^{PT_k}

    @property
    def is_ppt(self) -> bool:
        return all(v >= -self.tolerance for v in self.min_eigenvalues.values())

    def to_json_dict(self) -> dict:
        return {
            "bipartitions": [
                {"k": int(k), "min_eig": float(v)}
                for k, v in sorted(self.min_eigenvalues.items())
            ],
            "ppt": self.is_ppt,
        }


def partial_transpose(rho: np.ndarray, k: int, n_qubits: int) -> np.ndarray:
    """Transpose the first k tensor factors of a 2^N x 2^N matrix."""
    dim = 1 << n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for N={n_qubits}, got {rho.shape}")
    if not 1 <= k <= n_qubits - 1:
        raise ValueError(f"k must be in 1..{n_qubits - 1}, got {k}")
    da = 1 << k
    db = dim // da
    return (
        rho.reshape(da, db, da, db).swapaxes(0, 2).reshape(dim, dim)
    )


@lru_cache(maxsize=None)
def _block_tables(n_qubits: int, k: int) -> tuple:
    """Index and weight tables of the Dicke blocks of rho^{T_k}.

    One ``(idx, w)`` pair per block size s, each of shape (c, s, s) for the
    c blocks of that size: block entries are ``p[idx] * w``.  The arrays
    are shared between callers and therefore read-only.
    """
    if not 1 <= k <= n_qubits - 1:
        raise ValueError(f"k must be in 1..{n_qubits - 1}, got {k}")
    rest = n_qubits - k
    by_size = defaultdict(lambda: ([], []))
    for delta in range(-rest, k + 1):
        a = np.arange(max(0, delta), min(k, rest + delta) + 1)
        w = np.sqrt([float(comb(k, i) * comb(rest, i - delta)) for i in a])
        idx, ws = by_size[len(a)]
        idx.append(a[:, None] + a[None, :] - delta)
        ws.append(np.outer(w, w))
    tables = []
    for size in sorted(by_size):
        idx, ws = (np.array(t) for t in by_size[size])
        idx.setflags(write=False)
        ws.setflags(write=False)
        tables.append((idx, ws))
    return tuple(tables)


def _pt_blocks(n_qubits: int, chis: np.ndarray, k: int) -> list:
    """The nonzero Dicke blocks of rho^{T_k} for each population row.

    ``chis`` is (m, N+1); returns one (m, c, s, s) stack per block size s.
    """
    p = np.asarray(chis, dtype=float) / binomials(n_qubits)
    return [p[:, idx] * w for idx, w in _block_tables(n_qubits, k)]


def pt_min_eigenvalues(n_qubits: int, chis: np.ndarray, k: int) -> np.ndarray:
    """Minimum eigenvalue of rho^{T_k} for each row of an (m, N+1) batch.

    Exact up to rounding: the minimum over the Dicke blocks, and over the
    zero block when (k+1)(N-k+1) < 2^N.
    """
    mins = None
    for blocks in _pt_blocks(n_qubits, chis, k):
        low = np.linalg.eigvalsh(blocks)[..., 0].min(axis=1)
        mins = low if mins is None else np.minimum(mins, low)
    if (k + 1) * (n_qubits - k + 1) < 1 << n_qubits:
        mins = np.minimum(mins, 0.0)
    return mins


def is_ppt(state: GDSState, tol: float = DEFAULT_EIG_TOL) -> PptReport:
    """Eigenvalue test of every inequivalent partial transpose of a GDS state."""
    check_tolerance(tol)
    n = state.n_qubits
    chis = state.populations[None, :]
    minima = {k: float(pt_min_eigenvalues(n, chis, k)[0]) for k in range(1, n // 2 + 1)}
    return PptReport(n_qubits=n, tolerance=tol, min_eigenvalues=minima)
