import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gdscert import (
    GDSState,
    certify,
    evolve,
    gds_density_matrix,
    is_ppt,
    partial_transpose,
    random_sds_params,
    sds_populations,
)
from gdscert import ppt, volume
from gdscert.ppt import DEFAULT_EIG_TOL, pt_min_eigenvalues
from gdscert.states import bernstein, binomials, is_hermitian
from gdscert.volume import ppt_pass_mask, sample_chis


def dense_pt_spectra(chi, ks):
    """Sorted spectra of the dense 2^N x 2^N rho^{T_k} for each k: the oracle."""
    n = len(chi) - 1
    rho = gds_density_matrix(GDSState(n, chi))
    return {k: np.linalg.eigvalsh(partial_transpose(rho, k, n)) for k in ks}


def dicke_blocks(chi, k):
    """The nonzero Dicke blocks of rho^{T_k}, one square matrix at a time,
    from the ``ppt`` module docstring: W_delta H_delta W_delta with
    H_delta[a, a'] = p_{a+a'-delta} and W_delta = diag sqrt(C(k, a)
    C(N-k, a-delta)), a = max(0, delta)..min(k, N-k+delta)."""
    n = len(chi) - 1
    p = np.asarray(chi, dtype=float) / binomials(n)
    blocks = []
    for delta in range(k - n, k + 1):
        a = np.arange(max(0, delta), min(k, n - k + delta) + 1)
        w = np.sqrt([float(comb(k, i) * comb(n - k, i - delta)) for i in a])
        blocks.append(p[a[:, None] + a - delta] * np.outer(w, w))
    return blocks


def has_zero_block(n, k):
    """rho^{T_k} vanishes off Sym^k (x) Sym^(N-k), of dimension (k+1)(N-k+1)."""
    return (k + 1) * (n - k + 1) < 1 << n


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(0)
        chi = rng.dirichlet(np.ones(5))
        rho = gds_density_matrix(GDSState(4, chi))
        for k in (1, 2, 3):
            np.testing.assert_allclose(
                partial_transpose(partial_transpose(rho, k, 4), k, 4), rho, atol=0
            )

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        rho1 = a @ a.T
        rho1 /= np.trace(rho1)
        b = rng.normal(size=(4, 4))
        rho2 = b @ b.T
        rho2 /= np.trace(rho2)
        rho = np.kron(rho1, rho2)
        pt = partial_transpose(rho, 2, 4)
        np.testing.assert_allclose(pt, np.kron(rho1.T, rho2), atol=1e-14)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-12
        )

    def test_hermiticity_and_trace_preserved(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6):
            chi = rng.dirichlet(np.ones(n + 1))
            rho = gds_density_matrix(GDSState(n, chi))
            for k in range(1, n):
                pt = partial_transpose(rho, k, n)
                assert is_hermitian(pt)
                assert abs(np.trace(pt) - 1.0) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(8), 1, 4)

    def test_block_size_out_of_range(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(16), 4, 4)


class TestIsPpt:
    def test_bell_type_minimum(self):
        report = is_ppt(GDSState(2, [0, 1, 0]))
        assert report.min_eigenvalues[1] == pytest.approx(-0.5, abs=1e-12)
        assert not report.is_ppt

    def test_n2_boundary_state(self):
        report = is_ppt(GDSState(2, [0.25, 0.5, 0.25]))
        assert report.is_ppt
        assert report.min_eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_pure_dicke_half_filling_npt(self):
        report = is_ppt(GDSState(4, [0, 0, 1, 0, 0]))
        assert not report.is_ppt

    def test_superradiant_sweep_is_ppt(self):
        for n in (4, 6):
            for tau in np.geomspace(1e-3, 10, 20):
                assert is_ppt(evolve(n, tau)).is_ppt

    def test_large_n_without_dense_matrices(self):
        for n in (12, 16, 20):
            for tau in np.geomspace(1e-3, 10, 8):
                assert is_ppt(evolve(n, tau)).is_ppt, (n, tau)
        chi = np.zeros(17)
        chi[8] = 1.0
        report = is_ppt(GDSState(16, chi))
        assert not report.is_ppt
        # 8|8 split: the delta = 1 block pairs a = 4, 5 through the entry
        # C(8,4) C(8,3) / C(16,8) = 0.3046 with zero diagonal
        assert report.min_eigenvalues[8] == pytest.approx(-3920 / 12870, abs=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-10, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            is_ppt(GDSState(2, [0, 1, 0]), tol=tol)

    def test_json_report(self):
        obj = is_ppt(GDSState(4, [0.2, 0.2, 0.2, 0.2, 0.2])).to_json_dict()
        assert {b["k"] for b in obj["bipartitions"]} == {1, 2}
        assert isinstance(obj["ppt"], bool)


class TestBipartitionStructure:
    def test_half_half_bipartition_is_witnessed_as_stronger(self):
        """Within 1e5 uniform N=4 samples the 2|2 transpose rejects states
        that the 1|3 transpose accepts.  The converse direction never
        occurs: for diagonal-symmetric states positivity under the balanced
        bipartition implies positivity under the smaller ones, so both
        tests agreeing is expected whenever k=2 passes."""
        rng = np.random.default_rng(123)
        chis = sample_chis(4, rng, 100_000)
        mins = pt_min_eigenvalues(4, chis)
        pass1 = mins[:, 0] >= -1e-10
        pass2 = mins[:, 1] >= -1e-10
        assert int((pass1 & ~pass2).sum()) > 0
        # outside a numerical boundary band, k=2 acceptance implies k=1
        solid = (mins[:, 0] < -1e-8) & (mins[:, 1] >= -1e-10)
        assert int(solid.sum()) == 0

    def test_certified_states_are_ppt(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                st = sds_populations(random_sds_params(n, rng))
                assert certify(st).certified
                assert is_ppt(st).is_ppt


def _boundary_chis(n, rng):
    """Rows on the simplex boundary or on the PPT boundary."""
    rows = [np.eye(n + 1)[n0] for n0 in range(n + 1)]  # pure Dicke levels
    rows.append(np.full(n + 1, 1.0 / (n + 1)))
    for y in (0.3, 0.5):  # dephased symmetric product states: PPT boundary
        rows.append(np.array([comb(n, j) * y**j * (1 - y) ** (n - j) for j in range(n + 1)]))
    sparse = rng.dirichlet(np.ones(n + 1))
    sparse[rng.random(n + 1) < 0.5] = 0.0
    if sparse.sum() > 0:
        rows.append(sparse / sparse.sum())
    rows.append(evolve(n, 0.7).populations)
    return rows


def _product_rows(n):
    """Symmetric product states, y = 0, 1, 1/2 and 97 more in between."""
    ys = np.concatenate([[0.0, 1.0, 0.5], np.linspace(0.01, 0.99, 97)])
    return bernstein(n, ys).T


def _sparse_rows(n, rng):
    """Simplex rows with about 60 % of the populations zeroed, and the Dicke
    levels."""
    chis = rng.dirichlet(np.ones(n + 1), size=400)
    chis[rng.random(chis.shape) < 0.6] = 0.0
    chis = np.concatenate([chis, np.eye(n + 1)])
    chis = chis[chis.sum(axis=1) > 0]
    return chis / chis.sum(axis=1, keepdims=True)


class TestDickeBlocks:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_block_spectrum_equals_dense_spectrum(self, n):
        rng = np.random.default_rng(100 + n)
        chis = [rng.dirichlet(np.ones(n + 1)) for _ in range(4)] + _boundary_chis(n, rng)
        for chi in chis:
            dense = dense_pt_spectra(chi, range(1, n))
            for k in range(1, n):
                blocks = [np.linalg.eigvalsh(b) for b in dicke_blocks(chi, k)]
                zeros = np.zeros((1 << n) - (k + 1) * (n - k + 1))
                spectrum = np.sort(np.concatenate(blocks + [zeros]))
                np.testing.assert_allclose(spectrum, dense[k], rtol=0, atol=1e-12)

    def test_min_eigenvalues_batch_matches_rows(self):
        rng = np.random.default_rng(7)
        chis = sample_chis(6, rng, 50)
        batch = pt_min_eigenvalues(6, chis)
        assert batch.shape == (50, 3)
        rows = [pt_min_eigenvalues(6, chi[None])[0] for chi in chis]
        np.testing.assert_array_equal(batch, rows)

    def test_one_qubit_has_no_split(self):
        chis = sample_chis(1, np.random.default_rng(8), 5)
        assert pt_min_eigenvalues(1, chis).shape == (5, 0)
        report = is_ppt(GDSState(1, chis[0]))
        assert report.to_json_dict() == {"bipartitions": [], "ppt": True}

    def test_two_qubits_have_no_zero_block(self):
        # (k+1)(N-k+1) = 4 = 2^N: rho^{T_1} is the sum of its Dicke blocks,
        # so a positive definite state's minimum is positive, not 0
        assert not has_zero_block(2, 1)
        low = pt_min_eigenvalues(2, np.array([[0.3, 0.4, 0.3]]))
        assert low.shape == (1, 1) and low[0, 0] > 0
        assert low[0, 0] == min(np.linalg.eigvalsh(b)[0] for b in dicke_blocks([0.3, 0.4, 0.3], 1))


@pytest.mark.parametrize("n", range(1, 41))
def test_both_tables_come_from_the_dicke_blocks(n):
    k = n // 2
    blocks = {delta: (idx, w) for delta, idx, w in ppt._dicke_blocks(n, k)}
    # smaller block first; at odd N the sizes are equal and delta = 0 leads
    order = (0, -1) if n % 2 else (-1, 0)
    for delta, (idx, w, diag) in zip(order, ppt._mask_tables(n), strict=True):
        size = len(diag)
        # column j packs the entries a[j:, j], starting at its diagonal entry
        lower_idx = np.zeros((size, size), dtype=idx.dtype)
        lower_w = np.zeros((size, size))
        for j, start in enumerate(diag):
            lower_idx[j:, j] = idx[start:start + size - j]
            lower_w[j:, j] = w[start:start + size - j, 0]
        np.testing.assert_array_equal(lower_idx, np.tril(blocks[delta][0]))
        np.testing.assert_array_equal(lower_w, np.tril(blocks[delta][1]))
    if n < 2:
        return  # k = 0 is no split, and the eigensolve table has none
    for delta in order:
        block_idx, block_w = blocks[delta]
        for idx, w, ks, starts in ppt._block_tables(n):
            if idx.shape[1] == len(block_idx) and k - 1 in ks:
                pos = list(ks).index(k - 1)
                split = range(starts[pos], starts[pos + 1] if pos + 1 < len(ks) else len(idx))
                assert any(np.array_equal(idx[i], block_idx) and np.array_equal(w[i], block_w)
                           for i in split)
                break
        else:
            pytest.fail(f"no {len(block_idx)}-row table holds split {k}")


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_min_eigenvalues_equal_per_block_reference(n, seed, ts):
    # exact equality: a batched eigvalsh solves each matrix as a lone call does
    chis = _separable_blend(n, seed, [0.0, *ts])  # t = 0: a simplex draw
    table = pt_min_eigenvalues(n, chis)
    assert table.shape == (len(chis), n // 2)
    for chi, row in zip(chis, table):
        for k in range(1, n // 2 + 1):
            low = min(np.linalg.eigvalsh(b)[0] for b in dicke_blocks(chi, k))
            assert row[k - 1] == (min(low, 0.0) if has_zero_block(n, k) else low)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=13, max_size=13),
    mix=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# a subnormal weight sum: (1 - mix) * weights underflows to 0 unless the
# weights are normalised first
@example(n=2, raw=[0.0, 5e-324] + [0.0] * 11, mix=0.5, seed=0)
def test_pass_mask_matches_dense_oracle(n, raw, mix, seed):
    weights = np.array(raw[: n + 1])
    assume(weights.sum() > 0.0)
    # mixing in a separable state reaches the PPT region, which simplex
    # points alone almost never hit for N >= 7
    separable = sds_populations(random_sds_params(n, np.random.default_rng(seed)))
    chi = (1.0 - mix) * (weights / weights.sum()) + mix * separable.populations
    splits = range(1, n // 2 + 1)
    if n <= 6:
        low = min(s[0] for s in dense_pt_spectra(chi, splits).values())
    else:
        # the dense spectra cost 2^N x 2^N eigensolves; the block spectra
        # equal them (TestDickeBlocks)
        low = pt_min_eigenvalues(n, chi[None])[0].min()
    margin = low + DEFAULT_EIG_TOL
    if abs(margin) > 1e-12:
        assert bool(ppt_pass_mask(n, chi[None])[0]) == (margin > 0)


class TestCholeskyMask:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_product_states_pass(self, n):
        # the Hankel blocks of one product state are rank 1: singular, so
        # only the tolerance makes their Cholesky pivots positive
        assert ppt_pass_mask(n, _product_rows(n)).all()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sparse_rows_raise_no_warning(self, n):
        chis = _sparse_rows(n, np.random.default_rng(200 + n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ppt_pass_mask(n, chis)
            ppt.ppt_segment_share(n, chis)

    def test_zero_pivot_raises_no_warning(self, monkeypatch):
        # 2|2 split, delta = 0 block W H W + tol I with p = (0, 1/16, 0, ...):
        # [[tol, 1/8, 0], [1/8, tol, ..], ..] has second pivot
        # tol - (1/8)^2 / tol = 0 exactly at tol = 1/8
        monkeypatch.setattr(ppt, "DEFAULT_EIG_TOL", 0.125)
        chi = np.array([[0.0, 0.25, 0.0, 0.5, 0.25]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not ppt_pass_mask(4, chi)[0]

    def test_large_n_raises_no_warning(self):
        # a row leaves the batch at the pivot it fails, so its block is not
        # updated after the failure; were it updated, later columns would grow
        # the block until the products overflow at N = 20
        chis = sample_chis(20, np.random.default_rng(7), 50_000)
        mask = ppt_pass_mask(20, chis)
        low = pt_min_eigenvalues(20, chis[:200]).min(axis=1)
        np.testing.assert_array_equal(mask[:200], low >= -DEFAULT_EIG_TOL)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_flips_at_dicke_noise_threshold(self, n):
        # (1 - t) |D_{N/2}> + t chi_u, chi_u = 1/(N+1), is separable iff its
        # Hankel pair H0 = [p_{i+j}], H1 = [p_{i+j+1}] is PSD, i.e. iff
        # t >= t* = -lam / (1 - lam) with lam the smallest generalised
        # eigenvalue of the Dicke state's pair against chi_u's
        dicke = np.eye(n + 1)[n // 2]
        uniform = np.full(n + 1, 1.0 / (n + 1))

        def hankel_pair(chi):
            p = chi / np.array([comb(n, j) for j in range(n + 1)])
            h0 = np.arange(n // 2 + 1)
            h1 = np.arange((n + 1) // 2)
            return p[h0[:, None] + h0], p[h1[:, None] + h1 + 1]

        lam = min(
            scipy.linalg.eigh(a, b, eigvals_only=True)[0]
            for a, b in zip(hankel_pair(dicke), hankel_pair(uniform))
        )
        t_star = -lam / (1.0 - lam)
        if n == 4:
            assert t_star == pytest.approx(10 / 11, rel=1e-12)
        chis = np.array([(1.0 - t) * dicke + t * uniform for t in (0.999 * t_star, 1.001 * t_star)])
        np.testing.assert_array_equal(ppt_pass_mask(n, chis), [False, True])

    def test_working_set(self):
        # 50,000 rows at N = 4 in one unsliced batch: the mask holds p and the
        # packed lower triangle of one middle-split block at a time, of the
        # rows still passing, not a stack per block size of every split
        chis = sample_chis(4, np.random.default_rng(1), 50_000)
        ppt_pass_mask(4, chis[:1])  # block tables are cached outside the window
        tracemalloc.start()
        try:
            ppt_pass_mask(4, chis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("n", [4, 7])
    def test_rows_across_slices(self, n):
        # two of the estimators' slices and 7 rows, split off the slice grid:
        # the mask eliminates each batch whole, and a row's verdict must not
        # depend on the batch it comes in
        rows = 2 * volume.SLICE_ROWS + 7
        chis = sample_chis(n, np.random.default_rng(300 + n), rows)
        half = volume.SLICE_ROWS + 3
        mask = ppt_pass_mask(n, chis)
        assert mask.shape == (rows,) and 0 < mask.sum() < rows
        np.testing.assert_array_equal(
            mask, np.concatenate([ppt_pass_mask(n, chis[:half]), ppt_pass_mask(n, chis[half:])])
        )


def _reference_pass_mask(n_qubits, chis, passed=None):
    """The square column elimination ``ppt_pass_mask`` ran before it went
    rows last, kept as its frozen reference.

    Every row goes through every column of both middle-split blocks; a
    failed row's column is zeroed so that its block stops changing.  If
    ``passed`` is a list, it receives one bool (m, s) array per block, in
    the order the mask takes them: column j says the row's pivots 0..j
    were all positive.
    """
    p = np.asarray(chis, dtype=float).T.copy()
    p /= binomials(n_qubits)[:, None]
    ok = np.ones(p.shape[1], dtype=bool)
    k, rest = n_qubits // 2, n_qubits - n_qubits // 2
    # W H0 W and W H1 W, smaller first (delta = 0 first at equal sizes)
    for delta, size in sorted([(0, k + 1), (-1, rest)], key=lambda block: block[1]):
        i = np.arange(size)
        w = np.sqrt([float(comb(k, j) * comb(rest, j - delta)) for j in range(size)])
        a = p[None, i[:, None] + i - delta]  # (1, s, s, m)
        a *= np.outer(w, w)[..., None]
        diag = np.arange(a.shape[1])
        a[:, diag, diag] += DEFAULT_EIG_TOL
        good = np.ones((len(a), p.shape[1]), dtype=bool)
        history = []
        for j in diag:
            good &= a[:, j, j] > 0
            history.append(good.copy())
            col = np.divide(a[:, j + 1:, j], a[:, j, None, j],
                            out=np.zeros_like(a[:, j + 1:, j]), where=good[:, None])
            a[:, j + 1:, j + 1:] -= col[:, :, None] * a[:, j, None, j + 1:]
        ok &= good.all(axis=0)
        if passed is not None:
            passed.extend(np.stack(history, axis=-1))
    return ok


def _exits(passed):
    """The (block, pivot) pairs at which failing rows leave the rows-last
    elimination: the first failed pivot of the first failed block."""
    alive = np.ones(len(passed[0]), dtype=bool)
    exits = set()
    for block, history in enumerate(passed):
        leaving = alive & ~history[:, -1]
        exits.update((block, int(j)) for j in np.argmin(history[leaving], axis=1))
        alive &= history[:, -1]
    return exits


def _leaving_rows(n, rng):
    """Rows that leave the elimination at every pivot of both blocks.

    Each is built from a mixture of r = 1..N/2+2 product states: one
    population lowered by a relative 1e-9 up to 2 (below zero), or a product
    state of amplitude y outside [0, 1] mixed in with a positive or a
    negative weight.  The latter keeps one Hankel block PSD and not the
    other: at even N, H0 = [p_{i+j}] is a Gram matrix under the mixture's
    measure mu and H1 = [p_{i+j+1}] one under y (1 - y) mu; at odd N they
    are under (1 - y) mu and y mu.  The weight moves the first failed pivot
    along the block.
    """
    rows = []
    ys = np.array([-0.1, -0.001, 1.001, 1.1])
    xs = np.geomspace(1e-12, 1, 7)[:, None, None] * np.array([1, -1])[:, None, None, None]
    lowered = 1 - np.geomspace(1e-9, 2, 7)[:, None, None]
    for r in range(1, n // 2 + 3):
        base = bernstein(n, rng.random(r)) @ rng.dirichlet(np.ones(r))
        rows.append(np.where(np.eye(n + 1, dtype=bool), base * lowered, base).reshape(-1, n + 1))
        rows.append((base + xs * bernstein(n, ys).T).reshape(-1, n + 1))
    return np.concatenate(rows)


def _mixture_rows(n, rng, size):
    """Mixtures of 1-3 product states with simplex weights, and their
    midpoints with uniform simplex draws."""
    rows = []
    for terms in (1, 2, 3):
        ys = rng.random((size, terms))
        xs = rng.dirichlet(np.ones(terms), size=size)
        mixtures = np.einsum("mt,nmt->mn", xs, bernstein(n, ys.ravel()).reshape(n + 1, size, terms))
        rows += [mixtures, 0.5 * (mixtures + sample_chis(n, rng, size))]
    return np.concatenate(rows)


class TestFrozenReference:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_equals_square_elimination(self, n):
        rng = np.random.default_rng(400 + n)
        leaving = _leaving_rows(n, rng)
        passed = []
        np.testing.assert_array_equal(
            ppt_pass_mask(n, leaving), _reference_pass_mask(n, leaving, passed)
        )
        assert _exits(passed) == {(b, j) for b, h in enumerate(passed) for j in range(h.shape[1])}
        for chis in (
            sample_chis(n, rng, 500),
            _mixture_rows(n, rng, 200),
            _sparse_rows(n, rng),
            _product_rows(n),
        ):
            np.testing.assert_array_equal(ppt_pass_mask(n, chis), _reference_pass_mask(n, chis))

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
    def test_empty_all_fail_and_all_pass_batches(self, n):
        rng = np.random.default_rng(500 + n)
        fail_first = -sample_chis(n, rng, 50)  # every row fails the first pivot
        leaving = _leaving_rows(n, rng)
        fail_later = leaving[~_reference_pass_mask(n, leaving)]
        for chis, want in (
            (np.empty((0, n + 1)), np.ones(0, dtype=bool)),
            (fail_first, np.zeros(50, dtype=bool)),
            (fail_later, np.zeros(len(fail_later), dtype=bool)),
            (_product_rows(n), np.ones(100, dtype=bool)),
        ):
            mask = ppt_pass_mask(n, chis)
            assert mask.shape == (len(chis),) and mask.dtype == bool
            np.testing.assert_array_equal(mask, want)

    @pytest.mark.parametrize("shape", [(5,), (0,), (3, 4), (3, 6), (2, 5, 1)])
    def test_malformed_batch_names_the_expected_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(m, 5\)"):
            ppt_pass_mask(4, np.full(shape, 0.2))


def _separable_blend(n, seed, ts):
    """Rows (1 - t) * uniform draw + t * separable state, one per t: small t
    leaves the elimination early, large t late or never."""
    rng = np.random.default_rng(seed)
    separable = sds_populations(random_sds_params(n, rng)).populations
    t = np.array(ts)[:, None]
    return (1.0 - t) * sample_chis(n, rng, len(ts)) + t * separable


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40),
)
def test_pass_mask_of_batch_is_stacked_row_masks(n, seed, ts):
    chis = _separable_blend(n, seed, ts)
    rows = [ppt_pass_mask(n, chi[None])[0] for chi in chis]
    np.testing.assert_array_equal(ppt_pass_mask(n, chis), np.array(rows, dtype=bool))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40),
)
def test_pass_mask_commutes_with_row_permutations(n, seed, ts):
    chis = _separable_blend(n, seed, ts)
    perm = np.random.default_rng(seed).permutation(len(chis))
    np.testing.assert_array_equal(ppt_pass_mask(n, chis[perm]), ppt_pass_mask(n, chis)[perm])


def _segment_rows(n, rng):
    """Rows whose segments cross the PPT boundary: mixtures of product
    states and their midpoints with uniform draws, uniform draws, and
    product states."""
    return np.concatenate([_mixture_rows(n, rng, 20), sample_chis(n, rng, 40), _product_rows(n)[::10]])


class TestSegmentShare:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_midpoint_rule_of_pass_mask(self, n):
        # the part of a segment that passes is one interval, so a k-point
        # midpoint rule of the mask along it is within 1/k of its share
        k = 400
        chis = _segment_rows(n, np.random.default_rng(600 + n))
        share = ppt.ppt_segment_share(n, chis)
        seg = chis[:, -2] + chis[:, -1]
        top = np.outer(seg, (np.arange(k) + 0.5) / k).ravel()  # chi_N at the midpoints
        points = np.repeat(chis, k, axis=0)
        points[:, -2], points[:, -1] = np.repeat(seg, k) - top, top
        midpoint = ppt_pass_mask(n, points).reshape(-1, k).mean(axis=1)
        # a segment of length 0 has no share (the product state y = 0)
        point = seg == 0.0
        assert np.abs(share - midpoint)[~point].max() <= 1 / k + 1e-12
        assert np.all(share[point] == 0.0)
        assert n == 1 or ((share > 0) & (share < 1)).any()

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_scale_invariant(self, n):
        # the rows are populations up to a positive factor, and tol scales
        # with them.  _mixture_rows is left out: a mixture of two or three
        # product states has Hankel blocks singular but for tol, so its tail
        # cancels, and at N = 7 its share moves by up to 2e-11 under scaling
        rng = np.random.default_rng(700 + n)
        e = np.concatenate([
            rng.standard_exponential((400, n + 1)),
            _separable_blend(n, 700 + n, np.linspace(0.0, 1.0, 200)),
            _product_rows(n),
        ])
        share = ppt.ppt_segment_share(n, e)
        for factor in (1e-3, 1e3):
            np.testing.assert_allclose(ppt.ppt_segment_share(n, factor * e), share, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=13, max_size=13),
    mix=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_segment_interval_holds_the_row_verdict(n, raw, mix, seed):
    # the row itself is the point u = 0 of its segment
    weights = np.array(raw[: n + 1])
    assume(weights.sum() > 0.0)
    separable = sds_populations(random_sds_params(n, np.random.default_rng(seed)))
    chi = ((1.0 - mix) * (weights / weights.sum()) + mix * separable.populations)[None]
    share = ppt.ppt_segment_share(n, chi)
    assert share.shape == (1,) and 0.0 <= share[0] <= 1.0
    passed = bool(ppt_pass_mask(n, chi)[0])
    alive, lo, hi = ppt._pass_interval(n, chi)
    band = 1e-9
    if len(alive):
        if min(abs(lo[0]), abs(hi[0])) > band:
            assert passed == (lo[0] < 0.0 < hi[0])
    elif min(chi[0, -2], chi[0, -1]) > band:
        assert not passed
