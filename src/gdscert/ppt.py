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

``pt_min_eigenvalues`` returns lambda_min of every split in one pass, with
one eigensolve per block size over one table of every split's blocks
(``is_ppt`` reports them).  ``ppt_pass_mask`` decides "lambda_min >= -tol
on the two middle-split blocks" at tol = DEFAULT_EIG_TOL by a Cholesky
elimination of each + tol*I, packed straight from H0 and H1.  The
elimination runs rows last on the lower triangle, the smaller block first:
each entry is one contiguous vector over the batch, and a row leaves the
batch at the first pivot that is not positive, so later columns and the
other block run only on the rows still passing.  Every row ``is_ppt``
passes at that tol passes the mask; the converse can fail only where a
smaller block's lambda_min lies in a thin band below -tol, its weights
differing from the middle split's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

# gds_density_matrix is re-exported: the dense oracle is reached through this
# module, and the traced benchmark run (perfbench/tracing.py) patches it here.
from .states import gds_density_matrix  # noqa: F401
from .states import GDSState, _checked_int, binomials, check_tolerance

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
    dim = 1 << _checked_int(n_qubits)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for N={n_qubits}, got {rho.shape}")
    if _checked_int(k, "k") > n_qubits - 1:
        raise ValueError(f"k must be in 1..{n_qubits - 1}, got {k}")
    da = 1 << k
    db = dim // da
    return (
        rho.reshape(da, db, da, db).swapaxes(0, 2).reshape(dim, dim)
    )


def _dicke_blocks(n_qubits: int, k: int):
    """Yield ``(delta, idx, w)`` for delta = -(N-k)..k: the Dicke block W H W of
    the split k | N-k (module docstring) is ``p[idx] * w``, with the square
    Hankel index idx[a, a'] = a + a' - delta and the weights w = outer(W, W)."""
    rest = n_qubits - k
    for delta in range(-rest, k + 1):
        a = np.arange(max(0, delta), min(k, rest + delta) + 1)
        w = np.sqrt([float(comb(k, i) * comb(rest, i - delta)) for i in a])
        yield delta, a[:, None] + a[None, :] - delta, np.outer(w, w)


@lru_cache(maxsize=None)
def _block_tables(n_qubits: int) -> tuple:
    """Index and weight tables of every Dicke block of every split k = 1..N//2.

    One ``(idx, w, ks, starts)`` per block size s: ``idx`` and ``w`` are
    (c, s, s) for the c blocks of that size, ordered by split, and block
    entries are ``p[idx] * w``; ``ks`` holds the columns k - 1 of the splits
    with blocks of that size and ``starts`` the index of each one's first
    block.  The arrays are shared between callers and therefore read-only.
    """
    by_size = defaultdict(list)
    for k in range(1, n_qubits // 2 + 1):
        for _, idx, w in _dicke_blocks(n_qubits, k):
            by_size[len(idx)].append((idx, w, k - 1))
    tables = []
    for size in sorted(by_size):
        idx, w, splits = zip(*by_size[size])
        table = (np.array(idx), np.array(w), *np.unique(splits, return_index=True))
        for t in table:
            t.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _population_rows(n_qubits, chis) -> tuple:
    """N and ``chis`` as a checked int and an (m, N+1) float batch of rows."""
    n_qubits = _checked_int(n_qubits)
    chis = np.asarray(chis, dtype=float)
    if chis.ndim != 2 or chis.shape[1] != n_qubits + 1:
        raise ValueError(
            f"expected an (m, {n_qubits + 1}) array of population rows for "
            f"N={n_qubits}, got shape {chis.shape}"
        )
    return n_qubits, chis


def pt_min_eigenvalues(n_qubits: int, chis: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of rho^{T_k} for each row of an (m, N+1) batch.

    Returns (m, floor(N/2)): column k - 1 is the split k | N-k.  Exact up to
    rounding: the minimum over the Dicke blocks, and over the zero block
    where (k+1)(N-k+1) < 2^N, which is every split but N = 2's.
    """
    n_qubits, chis = _population_rows(n_qubits, chis)
    p = chis / binomials(n_qubits)
    mins = np.full((len(p), n_qubits // 2), np.inf)
    for idx, w, ks, starts in _block_tables(n_qubits):
        low = np.linalg.eigvalsh(p[:, idx] * w)[..., 0]
        mins[:, ks] = np.minimum(mins[:, ks], np.minimum.reduceat(low, starts, axis=1))
    # the zero block last, so that a block minimum of -0.0 reads 0.0
    return np.minimum(mins, 0.0) if n_qubits > 2 else mins


@lru_cache(maxsize=None)
def _mask_tables(n_qubits: int) -> tuple:
    """The two middle-split blocks as packed lower triangles, smaller first.

    One ``(idx, w, diag)`` per block: W H0 W (delta = 0) and W H1 W
    (delta = -1) of the split k = floor(N/2), as ``_dicke_blocks`` yields them.
    ``p[idx] * w`` stacks the entries a[j:, j] of column j = 0..s-1 of the
    block, one row per entry, and ``diag`` indexes the s diagonal entries.
    At odd N the sizes are equal and delta = 0 comes first.  The arrays are
    shared between callers and therefore read-only.
    """
    blocks = {delta: (idx, w) for delta, idx, w in _dicke_blocks(n_qubits, n_qubits // 2)}
    tables = []
    for idx, w in sorted([blocks[0], blocks[-1]], key=lambda block: len(block[0])):
        cols, rows = np.triu_indices(len(idx))  # the lower triangle, by column
        packed = (idx[rows, cols], w[rows, cols][:, None], np.flatnonzero(rows == cols))
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

    ``chis`` is an (m, N+1) batch, read fastest when F-ordered (the PPT
    volume's draw is); the result is a bool (m,) mask.  The entries are
    (chi_n / C(N, n)) * (w_i w_k), plus tol on the diagonal.  The
    elimination runs rows last on the lower triangle: every entry is
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
    n_qubits, chis = _population_rows(n_qubits, chis)
    m = len(chis)
    # rows on the last axis: every step below is a contiguous vector op
    p = np.empty((n_qubits + 1, m))
    np.divide(chis.T, binomials(n_qubits)[:, None], out=p)
    rows = np.arange(m)  # the rows of chis still passing
    for idx, w, diag in _mask_tables(n_qubits):
        a = (p if len(rows) == m else p.take(rows, axis=1))[idx]
        a *= w
        for d in diag:
            a[d] += DEFAULT_EIG_TOL
        for j in range(len(diag)):
            # a packs columns j..s-1: a[0] is the pivot a[j, j], a[1:t + 1]
            # the column below it and a[t + 1:] the trailing triangle
            passed = a[0] > 0
            n_passed = np.count_nonzero(passed)
            if n_passed < len(passed):
                if not n_passed:
                    return np.zeros(m, dtype=bool)
                keep = np.flatnonzero(passed)
                rows = rows[keep]
                a = a.take(keep, axis=1)
            t = len(diag) - 1 - j  # rows below the pivot
            col = a[1:t + 1] / a[0]
            rest = a[t + 1:]
            start = 0
            for k in range(t):  # trailing column k: rows i = k..t-1
                rest[start:start + t - k] -= col[k:] * a[1 + k]
                start += t - k
            a = rest
    mask = np.zeros(m, dtype=bool)
    mask[rows] = True
    return mask


def is_ppt(state: GDSState, tol: float = DEFAULT_EIG_TOL) -> PptReport:
    """Eigenvalue test of every inequivalent partial transpose of a GDS state."""
    check_tolerance(tol)
    n = state.n_qubits
    row = pt_min_eigenvalues(n, state.populations[None, :])[0]
    minima = dict(zip(range(1, n // 2 + 1), row.tolist()))
    return PptReport(n_qubits=n, tolerance=tol, min_eigenvalues=minima)
