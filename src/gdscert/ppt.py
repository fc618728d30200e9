"""Partial-transpose positivity tests for diagonal-symmetric states.

By permutation symmetry only the block sizes k = 1..floor(N/2) give
inequivalent bipartitions; for N=4 these are the 1|3 and 2|2 splits.  For
these states the middle split decides all of them (see below).

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

Each block is congruent (W > 0 is diagonal) to a principal submatrix of
H0 = [p_{i+j}] or H1 = [p_{i+j+1}], which are themselves the delta = 0 and
delta = -1 blocks of the middle split k = floor(N/2): put a = b +
ceil(delta/2).  So PSD of those two blocks decides PPT for every split (Yu,
PRA 94, 060101(R) (2016)); it is also the truncated Hausdorff moment
condition, so PPT is separability here.

``pt_min_eigenvalues`` computes the block spectra (``is_ppt`` reports
them).  ``ppt_pass_mask`` decides "lambda_min >= -tol on the two
middle-split blocks" at tol = DEFAULT_EIG_TOL by a Cholesky elimination of
each + tol*I.  The elimination runs rows last on the lower triangle, the
smaller block first: each entry is one contiguous vector over the batch,
and a row leaves the batch at the first pivot that is not positive, so
later columns and the other block run only on the rows still passing.
Every row ``is_ppt`` passes at that tol passes the mask; the
converse can fail only where a smaller block's lambda_min lies in a thin
band below -tol, its weights differing from the middle split's.
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
def _block_tables(n_qubits: int, k: int, deltas: tuple) -> tuple:
    """Index and weight tables of the ``deltas`` Dicke blocks of rho^{T_k}.

    One ``(idx, w)`` pair per block size s, each of shape (c, s, s) for the
    c blocks of that size: block entries are ``p[idx] * w``.  The arrays
    are shared between callers and therefore read-only.
    """
    rest = n_qubits - k
    by_size = defaultdict(lambda: ([], []))
    for delta in deltas:
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
    if not 1 <= k <= n_qubits - 1:
        raise ValueError(f"k must be in 1..{n_qubits - 1}, got {k}")
    p = np.asarray(chis, dtype=float) / binomials(n_qubits)
    deltas = tuple(range(k - n_qubits, k + 1))
    return [p[:, idx] * w for idx, w in _block_tables(n_qubits, k, deltas)]


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


@lru_cache(maxsize=None)
def _mask_tables(n_qubits: int) -> tuple:
    """The two middle-split blocks as packed lower triangles, smaller first.

    One ``(idx, w, diag)`` per block of size s: ``p[idx] * w`` stacks the
    entries a[k:, k] of column k = 0..s-1 of the block, one row per entry
    (the tables of ``_block_tables``, packed), and ``diag`` indexes the s
    diagonal entries.  The arrays are shared between callers and therefore
    read-only.
    """
    tables = []
    for idx, w in _block_tables(n_qubits, n_qubits // 2, (0, -1)):
        cols, rows = np.triu_indices(idx.shape[1])  # the lower triangle, by column
        diag = np.flatnonzero(rows == cols)
        for block_idx, block_w in zip(idx, w):
            packed = (block_idx[rows, cols], block_w[rows, cols, None], diag)
            for t in packed:
                t.setflags(write=False)
            tables.append(packed)
    return tuple(tables)


def ppt_pass_mask(n_qubits: int, chis: np.ndarray) -> np.ndarray:
    """Batched PPT verdict (at ``DEFAULT_EIG_TOL``) of population rows.

    The contract is exactly "lambda_min >= -tol on the two middle-split
    blocks": delta = 0 and delta = -1 of k = floor(N/2), that is W H0 W and
    W H1 W, which decide PPT for every split (module docstring).  No
    eigenvalue is computed: lambda_min(B) >= -tol iff B + tol*I is positive
    definite (up to the measure-zero case of equality), i.e. iff every pivot
    of its Cholesky elimination is positive.

    ``chis`` is an (m, N+1) batch; the result is a bool (m,) mask.  The
    entries are (chi_n / C(N, n)) * (w_i w_k), plus tol on the diagonal.
    The elimination runs rows last on the lower triangle: every entry is
    one contiguous vector over the batch, and column j updates
    a[i, k] -= (a[i, j] / a[j, j]) * a[k, j] for i >= k > j.  A row whose
    pivot is not positive leaves the batch at that pivot, so later columns,
    and the larger block after the smaller one, run only on the rows still
    passing.  In exact arithmetic this is the square elimination that
    ``tests/test_ppt.py`` keeps as the reference; in floating point that
    one's two triangles differ in the last bits, so the pivots may too, and
    the test checks that the verdicts agree.  Rows are independent, so a
    row's verdict does not depend on the batch it comes in, and the caller
    sizes the batch (``volume._mc_estimate`` passes at most ``SLICE_ROWS`` rows).
    """
    chis = np.asarray(chis, dtype=float)
    if chis.ndim != 2 or chis.shape[1] != n_qubits + 1:
        raise ValueError(
            f"expected an (m, {n_qubits + 1}) array of population rows for "
            f"N={n_qubits}, got shape {chis.shape}"
        )
    m = len(chis)
    # rows on the last axis: every step below is a contiguous vector op
    p = np.empty((n_qubits + 1, m))
    np.divide(chis.T, binomials(n_qubits)[:, None], out=p)
    rows = np.arange(m)  # the rows of chis that p still holds
    for idx, w, diag in _mask_tables(n_qubits):
        a = p[idx]
        a *= w
        for d in diag:
            a[d] += DEFAULT_EIG_TOL
        kept = None  # the columns of p still passing this block
        for j in range(len(diag)):
            # a packs columns j..s-1: a[0] is the pivot a[j, j], a[1:t + 1]
            # the column below it and a[t + 1:] the trailing triangle
            passed = a[0] > 0
            if not passed.all():
                keep = np.flatnonzero(passed)
                if not len(keep):
                    return np.zeros(m, dtype=bool)
                kept = keep if kept is None else kept[keep]
                a = a.take(keep, axis=1)
            t = len(diag) - 1 - j  # rows below the pivot
            col = a[1:t + 1] / a[0]
            rest = a[t + 1:]
            start = 0
            for k in range(t):  # trailing column k: rows i = k..t-1
                rest[start:start + t - k] -= col[k:] * a[1 + k]
                start += t - k
            a = rest
        if kept is not None:
            p = p.take(kept, axis=1)
            rows = rows[kept]
    mask = np.zeros(m, dtype=bool)
    mask[rows] = True
    return mask


def is_ppt(state: GDSState, tol: float = DEFAULT_EIG_TOL) -> PptReport:
    """Eigenvalue test of every inequivalent partial transpose of a GDS state."""
    check_tolerance(tol)
    n = state.n_qubits
    chis = state.populations[None, :]
    minima = {k: float(pt_min_eigenvalues(n, chis, k)[0]) for k in range(1, n // 2 + 1)}
    return PptReport(n_qubits=n, tolerance=tol, min_eigenvalues=minima)
