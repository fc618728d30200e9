"""Partial-transpose positivity tests for diagonal-symmetric states.

By permutation symmetry only the block sizes k = 1..floor(N/2) give
inequivalent bipartitions; for N=4 these are the 1|3 and 2|2 splits.

Verdicts never build a 2^N x 2^N matrix.  Write p_n = chi[n] / C(N, n).
For the split k | N-k, rho^{T_k} is orthogonally similar to

    (+)_{delta=-(N-k)..k} W_delta H_delta W_delta  (+)  0

where a = max(0, delta) + i counts the |0> qubits of the first k (a - delta
those of the rest), W_delta = diag sqrt(C(k, a) C(N-k, a-delta)) and
H_delta[i, j] = p_{|delta|+i+j}.  That is one window rule: H_delta is the
window at base |delta| of the Hankel matrix of p (``states.hankel_index``),
and ``_dicke_blocks`` yields the weights.  The zero block, of dimension
2^N - (k+1)(N-k+1), is the complement of Sym^k (x) Sym^(N-k), on which the
state has no support, so the spectrum is exact: a negative block eigenvalue
is a negative eigenvalue of rho^{T_k} (Tura et al., Quantum 2, 45 (2018)).
The dense ``partial_transpose`` of ``gds_density_matrix`` is the test oracle.

A window at an even base is a principal submatrix of H0 = [p_{i+j}], at an
odd one of H1 = [p_{i+j+1}]: the windows at bases 0 and 1, which are the
delta = 0 and -1 blocks of the middle split k = floor(N/2).  So PSD of those
two blocks decides PPT for every split (Yu, PRA 94, 060101(R) (2016)); it
is also the truncated Hausdorff moment condition, so PPT is separability
here.
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
from .states import GDSState, _checked_int, binomials, check_tolerance, hankel_index

DEFAULT_EIG_TOL = 1e-10
_STACK_ENTRIES = 1 << 18  # matrix entries per eigensolve stack: 2 MiB of floats


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
        pairs = sorted(self.min_eigenvalues.items())
        return {"bipartitions": [{"k": int(k), "min_eig": float(v)} for k, v in pairs],
                "ppt": self.is_ppt}


def partial_transpose(rho: np.ndarray, k: int, n_qubits: int) -> np.ndarray:
    """Transpose the first k tensor factors of a 2^N x 2^N matrix."""
    dim = 1 << _checked_int(n_qubits)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for N={n_qubits}, got {rho.shape}")
    if _checked_int(k, "k") > n_qubits - 1:
        raise ValueError(f"k must be in 1..{n_qubits - 1}, got {k}")
    da = 1 << k
    db = dim // da
    return rho.reshape(da, db, da, db).swapaxes(0, 2).reshape(dim, dim)


def _dicke_blocks(n_qubits: int, k: int):
    """Yield ``(delta, w)`` for delta = -(N-k)..k: the Dicke block of the
    split k | N-k is ``p[hankel_index(|delta|, len(w))] * outer(w, w)``, with
    w the diagonal of W_delta (module docstring)."""
    rest = n_qubits - k
    for delta in range(-rest, k + 1):
        a = range(max(0, delta), min(k, rest + delta) + 1)
        yield delta, np.sqrt([float(comb(k, i) * comb(rest, i - delta)) for i in a])


@lru_cache(maxsize=None)
def _window_tables(n_qubits: int) -> tuple:
    """Window bases and weights of every Dicke block of every split k = 1..N//2.

    One ``(bases, w, ks, starts)`` per block size s: the (c,) bases |delta|
    and (c, s) weights of the c blocks of that size, ordered by split; ``ks``
    holds the columns k - 1 of their splits and ``starts`` the index of each
    one's first block.  O(N^3) numbers, shared between callers, so read-only.
    """
    by_size = defaultdict(list)
    for k in range(1, n_qubits // 2 + 1):
        for delta, w in _dicke_blocks(n_qubits, k):
            by_size[len(w)].append((abs(delta), w, k - 1))
    tables = []
    for size in sorted(by_size):
        bases, w, splits = zip(*by_size[size])
        table = (np.array(bases), np.array(w), *np.unique(splits, return_index=True))
        for t in table:
            t.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _population_rows(n_qubits, chis, finite: bool = True) -> tuple:
    """N and ``chis`` as a checked int and an (m, N+1) float batch of rows,
    each entry finite unless ``finite`` is False."""
    n_qubits = _checked_int(n_qubits)
    chis = np.asarray(chis, dtype=float)
    if chis.ndim != 2 or chis.shape[1] != n_qubits + 1:
        raise ValueError(f"expected an (m, {n_qubits + 1}) array of population rows for "
                         f"N={n_qubits}, got shape {chis.shape}")
    if finite and not np.isfinite(chis).all():
        raise ValueError("population rows must be finite")
    return n_qubits, chis


def pt_min_eigenvalues(n_qubits: int, chis: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of rho^{T_k} for each row of an (m, N+1) batch.

    Returns (m, floor(N/2)): column k - 1 is the split k | N-k.  Exact up to
    rounding: the minimum over the Dicke blocks, and over the zero block
    where (k+1)(N-k+1) < 2^N, which is every split but N = 2's.  A row with
    a non-finite entry raises ValueError.  eigvalsh solves each matrix of a
    stack alone, so a row's result does not depend on the batch it comes in.
    """
    n_qubits, chis = _population_rows(n_qubits, chis)
    p = chis / binomials(n_qubits)
    mins = np.full((len(p), n_qubits // 2), np.inf)
    for bases, w, ks, starts in _window_tables(n_qubits):
        count, size = w.shape
        low = np.empty(len(p) * count)  # one per (row, block) pair, row-major
        step = max(1, _STACK_ENTRIES // size**2)  # matrices per eigensolve stack
        for start in range(0, len(low), step):
            r, b = np.divmod(np.arange(start, min(start + step, len(low))), count)
            # the window of row r at its base, as one index into flat p
            stack = p.take(hankel_index(r * (n_qubits + 1) + bases[b], size))
            stack *= w[b, :, None] * w[b, None, :]
            low[start:start + len(r)] = np.linalg.eigvalsh(stack)[:, 0]
        low = np.minimum.reduceat(low.reshape(len(p), count), starts, axis=1)
        mins[:, ks] = np.minimum(mins[:, ks], low)
    # the zero block last, so that a block minimum of -0.0 reads 0.0
    return np.minimum(mins, 0.0) if n_qubits > 2 else mins


@lru_cache(maxsize=None)
def _segment_tables(n_qubits: int) -> tuple:
    """The two middle-split blocks as packed lower triangles, smaller first,
    and the slopes of each block's last row along the segment.

    One ``(idx, w, diag, dq, dc)`` per block: W H0 W and W H1 W, the windows
    at bases 0 and 1 (delta = 0 and -1 of the split k = floor(N/2)), with
    the ``_dicke_blocks`` weights divided by the binomials.  ``e[idx] * w``
    stacks the entries a[j:, j] of column j = 0..s-1 of the block of the
    unnormalised populations e, one row per entry, and ``diag`` indexes the
    s diagonal entries.  At odd N the sizes are equal and delta = 0 comes
    first.  Moving u from e_{N-1} to e_N changes only the last row: p_N sits
    in the corner (s-1, s-1) and p_{N-1} next to it, or in the corner of the
    block without p_N.  ``dq`` and ``dc`` are d/du of the entries (s-1, s-2)
    and (s-1, s-1); ``dq`` is 0 for a 1 x 1 block.  The arrays are shared
    between callers and therefore read-only.
    """
    weights = dict(_dicke_blocks(n_qubits, n_qubits // 2))
    binom = binomials(n_qubits)
    tables = []
    for delta in sorted((0, -1), key=lambda delta: len(weights[delta])):
        w = weights[delta]
        cols, rows = np.triu_indices(len(w))  # the lower triangle, by column
        idx = hankel_index(-delta, len(w))[rows, cols]
        folded = (w[rows] * w[cols])[:, None] / binom[idx][:, None]
        diag = np.flatnonzero(rows == cols)
        for t in (idx, folded, diag):
            t.setflags(write=False)
        slope = folded[:, 0] * ((idx == n_qubits) * 1.0 - (idx == n_qubits - 1))
        dq = slope[-2] if len(w) > 1 else 0.0
        tables.append((idx, folded, diag, float(dq), float(slope[-1])))
    return tuple(tables)


def _packed(p, idx, w, diag, tol) -> np.ndarray:
    """The block of the rows-last batch ``p`` that a table of
    ``_segment_tables`` packs as ``(idx, w, diag)``, plus ``tol`` (one value
    per batch row) on its diagonal."""
    a = p[idx]
    a *= w
    for d in diag:
        a[d] += tol
    return a


def _eliminate(a: np.ndarray, size: int) -> tuple:
    """Check the pivots of every column but the last of a batch of packed
    size x size lower triangles, eliminating the columns before the trailing
    2 x 2 block, rows last; return ``(rest, keep)``.

    ``a`` packs the lower triangle by column, one entry per row and the batch
    on the last axis (``_segment_tables``).  Column j updates
    a[i, k] -= (a[i, j] / a[j, j]) * a[k, j] for i >= k > j, every entry one
    contiguous vector over the batch.  A batch row whose pivot is not
    positive leaves at that pivot, so later columns run only on the rows
    still passing.  ``rest`` packs the trailing 2 x 2 Schur complement (the
    1 x 1 block itself where size = 1) of the rows still passing, and
    ``keep`` indexes those rows in the batch ``a`` came in.
    """
    keep = np.arange(a.shape[1])
    for j in range(size - 1):
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
        if j == size - 2:
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


def _pass_interval(n_qubits: int, e: np.ndarray, lo, hi) -> tuple:
    """``(alive, lo, hi)``: the rows of ``e`` that may pass on their
    segment, and for each one the open interval (lo, hi) of u, within the
    given ``lo`` and ``hi``, on which the row with e_{N-1} - u and e_N + u
    passes; it is empty where hi <= lo.

    ``e`` is an (m, N+1) float batch of nonnegative populations up to a
    positive factor per row, checked by the caller, and ``lo`` and ``hi``
    are (m,) float arrays, which may change in place: (-e_N, e_{N-1}) for
    the segment, and (-inf, inf) for the row alone.  Moving u keeps the row
    sum S, and tol*S on the diagonal is tol on the normalised row.  Every
    pivot but the last of each block is independent of u
    (``_segment_tables``), so ``_eliminate`` checks every pivot but the last
    and leaves the tail [[P, q0 + dq u], [., c0 + dc u]] with P > 0.  It is
    positive definite iff f(u) = P (c0 + dc u) - (q0 + dq u)^2 > 0: on one
    side of a root where dq = 0 (the block whose corner is p_{N-1}), and
    between the roots of a concave quadratic otherwise.  A row leaves the
    batch at a failed pivot, and before the second block once its interval
    is empty.
    """
    p = np.ascontiguousarray(e.T)  # rows last: every step is a contiguous vector op
    m = p.shape[1]
    tol = p.sum(axis=0)
    tol *= DEFAULT_EIG_TOL
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
    a, keep = _eliminate(a, size)
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


def ppt_pass_mask(n_qubits: int, chis: np.ndarray) -> np.ndarray:
    """Batched PPT verdict (at ``DEFAULT_EIG_TOL`` times the row sum) of
    population rows.

    The contract is exactly "lambda_min >= -tol on the two middle-split
    blocks": delta = 0 and delta = -1 of k = floor(N/2), that is W H0 W and
    W H1 W, which decide PPT for every split (module docstring).  No
    eigenvalue is computed: lambda_min(B) >= -tol iff B + tol*I is positive
    definite (up to the measure-zero case of equality), i.e. iff every pivot
    of its Cholesky elimination is positive.

    ``chis`` is an (m, N+1) batch of finite populations up to a positive
    factor per row; the result is a bool (m,) mask, and a row with a
    non-finite entry raises ValueError.  A row is the point u = 0 of its own
    segment, so it passes iff 0 lies in its pass interval
    (``_pass_interval``) with the segment's ends left out.  In exact
    arithmetic this is the square elimination that ``tests/test_ppt.py``
    keeps as the reference; in floating point the pivots may differ in the
    last bits, and the test checks that the verdicts agree.  Rows are
    independent, so a row's verdict does not depend on the batch it comes
    in, and the caller sizes the batch.  Every row ``is_ppt`` passes at tol
    passes the mask; the converse can fail only where a smaller block's
    lambda_min lies in a thin band below -tol, its weights differing from
    the middle split's.
    """
    n_qubits, chis = _population_rows(n_qubits, chis)
    m = len(chis)
    alive, lo, hi = _pass_interval(n_qubits, chis, np.full(m, -np.inf), np.full(m, np.inf))
    mask = np.zeros(m, dtype=bool)
    mask[alive] = (lo < 0.0) & (hi > 0.0)
    return mask


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
    n_qubits, e = _population_rows(n_qubits, rows, finite=False)
    alive, lo, hi = _pass_interval(n_qubits, e, -e[:, -1], e[:, -2].copy())
    share = np.zeros(len(e))
    share[alive] = np.maximum(hi - lo, 0.0) / (e[alive, -2] + e[alive, -1])
    return share


def is_ppt(state: GDSState, tol: float = DEFAULT_EIG_TOL) -> PptReport:
    """Eigenvalue test of every inequivalent partial transpose of a GDS state."""
    check_tolerance(tol)
    row = pt_min_eigenvalues(state.n_qubits, state.populations[None, :])[0]
    return PptReport(state.n_qubits, tol, dict(enumerate(row.tolist(), start=1)))
