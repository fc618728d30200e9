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

``ppt_segment_share`` integrates that verdict exactly along a segment that
holds every level but the last two, and their sum.  Only the last row of
each block moves along it, so the same elimination of every column but the
last leaves a 2 x 2 tail whose determinant is a concave quadratic (or a
linear function) of the position, and the part that passes is one interval
between roots.
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


def _packed(p, idx, w, diag, tol) -> np.ndarray:
    """The block of the rows-last batch ``p`` that a table of
    ``_mask_tables`` or ``_segment_tables`` packs as ``(idx, w, diag)``, plus
    ``tol`` (a scalar or one value per batch row) on its diagonal."""
    a = p[idx]
    a *= w
    for d in diag:
        a[d] += tol
    return a


def _eliminate(a: np.ndarray, size: int, last: int) -> tuple:
    """Check the pivots of columns 0..last of a batch of packed size x size
    lower triangles, eliminating the columns before ``last``, rows last;
    return ``(rest, keep)``.

    ``a`` packs the lower triangle by column, one entry per row and the batch
    on the last axis (``_mask_tables``).  Column j updates
    a[i, k] -= (a[i, j] / a[j, j]) * a[k, j] for i >= k > j, every entry one
    contiguous vector over the batch.  A batch row whose pivot is not
    positive leaves at that pivot, so later columns run only on the rows
    still passing.  ``rest`` packs columns last..size-1 of the Schur
    complement of the rows still passing, and ``keep`` indexes those rows in
    the batch ``a`` came in.
    """
    keep = np.arange(a.shape[1])
    for j in range(last + 1):
        # a packs columns j..s-1: a[0] is the pivot a[j, j], a[1:t + 1]
        # the column below it and a[t + 1:] the trailing triangle
        passed = a[0] > 0
        n_passed = np.count_nonzero(passed)
        if n_passed < len(passed):
            kept = np.flatnonzero(passed)
            keep = keep[kept]
            a = a.take(kept, axis=1)
            if not n_passed:
                break
        if j == last:
            break
        t = size - 1 - j  # rows below the pivot
        col = a[1:t + 1] / a[0]
        rest = a[t + 1:]
        start = 0
        for k in range(t):  # trailing column k: rows i = k..t-1
            rest[start:start + t - k] -= col[k:] * a[1 + k]
            start += t - k
        a = rest
    return a, keep


def ppt_pass_mask(n_qubits: int, chis: np.ndarray) -> np.ndarray:
    """Batched PPT verdict (at ``DEFAULT_EIG_TOL``) of population rows.

    The contract is exactly "lambda_min >= -tol on the two middle-split
    blocks": delta = 0 and delta = -1 of k = floor(N/2), that is W H0 W and
    W H1 W, which decide PPT for every split (module docstring).  No
    eigenvalue is computed: lambda_min(B) >= -tol iff B + tol*I is positive
    definite (up to the measure-zero case of equality), i.e. iff every pivot
    of its Cholesky elimination is positive.

    ``chis`` is an (m, N+1) batch; the result is a bool (m,) mask.  The
    entries are (chi_n / C(N, n)) * (w_i w_k), plus tol on the diagonal, and
    ``_eliminate`` runs every column of the smaller block, then of the larger
    one on the rows still passing.  In exact arithmetic this is the square
    elimination that ``tests/test_ppt.py`` keeps as the reference; in
    floating point that one's two triangles differ in the last bits, so the
    pivots may too, and the test checks that the verdicts agree.  Rows are
    independent, so a row's verdict does not depend on the batch it comes
    in, and the caller sizes the batch.
    """
    n_qubits, chis = _population_rows(n_qubits, chis)
    m = len(chis)
    # rows on the last axis: every step below is a contiguous vector op
    p = np.empty((n_qubits + 1, m))
    np.divide(chis.T, binomials(n_qubits)[:, None], out=p)
    rows = np.arange(m)  # the rows of chis still passing
    for idx, w, diag in _mask_tables(n_qubits):
        a = _packed(p if len(rows) == m else p.take(rows, axis=1), idx, w, diag, DEFAULT_EIG_TOL)
        _, keep = _eliminate(a, len(diag), len(diag) - 1)
        rows = rows[keep]
        if not len(rows):
            break
    mask = np.zeros(m, dtype=bool)
    mask[rows] = True
    return mask


@lru_cache(maxsize=None)
def _segment_tables(n_qubits: int) -> tuple:
    """``_mask_tables`` with the binomials folded into the weights, and the
    slopes of the block's last row along the segment.

    One ``(idx, w, diag, dq, dc)`` per block: ``e[idx] * w`` packs W H W of
    the unnormalised populations e (chi_n = e_n / sum(e)), that is
    e_n / C(N, n) times the Dicke weights.  Moving u from e_{N-1} to e_N
    changes only the last row: p_N sits in the corner (s-1, s-1) and p_{N-1}
    next to it, or in the corner of the block without p_N.  ``dq`` and ``dc``
    are d/du of the entries (s-1, s-2) and (s-1, s-1); ``dq`` is 0 for a
    1 x 1 block.  The arrays are shared between callers and therefore
    read-only.
    """
    binom = binomials(n_qubits)
    tables = []
    for idx, w, diag in _mask_tables(n_qubits):
        folded = w / binom[idx][:, None]
        folded.setflags(write=False)
        slope = folded[:, 0] * ((idx == n_qubits) * 1.0 - (idx == n_qubits - 1))
        dq = slope[-2] if len(diag) > 1 else 0.0
        tables.append((idx, folded, diag, float(dq), float(slope[-1])))
    return tuple(tables)


def _pass_interval(n_qubits: int, rows: np.ndarray) -> tuple:
    """``(alive, lo, hi)``: the rows of ``rows`` that may pass
    ``ppt_pass_mask`` on their segment, and for each one the open interval
    (lo, hi) of u in [-e_N, e_{N-1}] on which the row with e_{N-1} - u and
    e_N + u passes; it is empty where hi <= lo.

    ``rows`` is an (m, N+1) batch of nonnegative populations up to a
    positive factor per row, e.  Moving u keeps the row sum S, and tol*S on
    the diagonal is tol on the normalised row.  Every pivot but the last of
    each block is independent of u (``_segment_tables``), so ``_eliminate``
    checks every pivot but the last and leaves the tail [[P, q0 + dq u],
    [., c0 + dc u]] with P > 0.  It is positive definite iff
    f(u) = P (c0 + dc u) - (q0 + dq u)^2 > 0: on one side of a root where
    dq = 0 (the block whose corner is p_{N-1}), and between the roots of a
    concave quadratic otherwise.  A row leaves the batch at a failed pivot,
    and before the second block once its interval is empty.
    """
    n_qubits, e = _population_rows(n_qubits, rows)
    p = np.ascontiguousarray(e.T)  # rows last, as in ppt_pass_mask
    m = p.shape[1]
    tol = p.sum(axis=0)
    tol *= DEFAULT_EIG_TOL
    lo, hi = -p[n_qubits], p[n_qubits - 1].copy()
    alive = np.arange(m)
    for block, (idx, w, diag, dq, dc) in enumerate(_segment_tables(n_qubits)):
        if block:
            keep = np.flatnonzero(lo < hi)
            alive, lo, hi, tol = alive[keep], lo[keep], hi[keep], tol[keep]
        # packed in the call, so that the block is freed when _narrow returns
        keep, lo, hi = _narrow(_packed(p if len(alive) == m else p.take(alive, axis=1),
                                       idx, w, diag, tol), len(diag), dq, dc, lo, hi)
        if len(keep) < len(alive):
            alive, tol = alive[keep], tol[keep]
    return alive, lo, hi


def _narrow(a, size, dq, dc, lo, hi) -> tuple:
    """One block of ``_pass_interval``, packed in ``a``: ``(keep, lo, hi)``,
    the batch rows whose pivots before the tail pass and their interval
    narrowed to where the tail is positive definite; ``lo`` and ``hi`` may
    change in place."""
    a, keep = _eliminate(a, size, size - 2)
    if len(keep) < len(lo):
        lo, hi = lo[keep], hi[keep]
        if not len(keep):
            return keep, lo, hi
    pivot, q0, c0 = a if size > 1 else (1.0, 0.0, a[0])
    if dq:
        # with v = q0 + dq u, f = R^2 - (v - q0 - g)^2 for the g and R below
        g = pivot * (0.5 * dc / dq) - q0
        r = np.sqrt(np.maximum(g * g + (pivot * c0 - q0 * q0), 0.0))
        ends = (g - r, g + r) if dq > 0 else (g + r, g - r)
        np.maximum(lo, ends[0] / dq, out=lo)
        np.minimum(hi, ends[1] / dq, out=hi)
    else:
        root = (q0 * q0 / pivot - c0) / dc
        if dc > 0:
            np.maximum(lo, root, out=lo)
        else:
            np.minimum(hi, root, out=hi)
    return keep, lo, hi


def ppt_segment_share(n_qubits: int, rows: np.ndarray) -> np.ndarray:
    """The share of each row's segment that ``ppt_pass_mask`` passes.

    ``rows`` is an (m, N+1) batch of nonnegative populations up to a
    positive factor per row, e.  The segment keeps every level but N-1 and
    N and their sum s = e_{N-1} + e_N, and moves e_N over [0, s]; the result
    is the length of its part that passes (``_pass_interval``) divided by s,
    in [0, 1], and 0 where s = 0.  For a uniform draw on the simplex,
    (e_{N-1}, e_N) is uniform on the segment given the other levels, so the
    mean share is the PPT fraction, with a smaller variance than the mean of
    the mask.
    """
    alive, lo, hi = _pass_interval(n_qubits, rows)
    e = np.asarray(rows, dtype=float)
    share = np.zeros(len(e))
    share[alive] = np.maximum(hi - lo, 0.0) / (e[alive, -2] + e[alive, -1])
    return share


def is_ppt(state: GDSState, tol: float = DEFAULT_EIG_TOL) -> PptReport:
    """Eigenvalue test of every inequivalent partial transpose of a GDS state."""
    check_tolerance(tol)
    n = state.n_qubits
    row = pt_min_eigenvalues(n, state.populations[None, :])[0]
    minima = dict(zip(range(1, n // 2 + 1), row.tolist()))
    return PptReport(n_qubits=n, tolerance=tol, min_eigenvalues=minima)
