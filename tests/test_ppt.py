from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from gdscert.ppt import DEFAULT_EIG_TOL, _pt_blocks, pt_min_eigenvalues
from gdscert.states import is_hermitian
from gdscert.volume import ppt_pass_mask, sample_chis


def dense_pt_spectra(chi, ks):
    """Sorted spectra of the dense 2^N x 2^N rho^{T_k} for each k: the oracle."""
    n = len(chi) - 1
    rho = gds_density_matrix(GDSState(n, chi))
    return {k: np.linalg.eigvalsh(partial_transpose(rho, k, n)) for k in ks}


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

    @pytest.mark.parametrize("tol", [float("nan"), -1e-10])
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
        mins = {}
        for k in (1, 2):
            mins[k] = pt_min_eigenvalues(4, chis, k)
        pass1 = mins[1] >= -1e-10
        pass2 = mins[2] >= -1e-10
        assert int((pass1 & ~pass2).sum()) > 0
        # outside a numerical boundary band, k=2 acceptance implies k=1
        solid = (mins[1] < -1e-8) & (mins[2] >= -1e-10)
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


class TestDickeBlocks:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_block_spectrum_equals_dense_spectrum(self, n):
        rng = np.random.default_rng(100 + n)
        chis = [rng.dirichlet(np.ones(n + 1)) for _ in range(4)] + _boundary_chis(n, rng)
        for chi in chis:
            dense = dense_pt_spectra(chi, range(1, n))
            for k in range(1, n):
                blocks = [np.linalg.eigvalsh(b).ravel() for b in _pt_blocks(n, chi[None], k)]
                zeros = np.zeros((1 << n) - (k + 1) * (n - k + 1))
                spectrum = np.sort(np.concatenate(blocks + [zeros]))
                np.testing.assert_allclose(spectrum, dense[k], rtol=0, atol=1e-12)

    def test_min_eigenvalues_batch_matches_rows(self):
        rng = np.random.default_rng(7)
        chis = sample_chis(6, rng, 50)
        for k in (1, 2, 3):
            batch = pt_min_eigenvalues(6, chis, k)
            rows = [pt_min_eigenvalues(6, chi[None], k)[0] for chi in chis]
            np.testing.assert_array_equal(batch, rows)

    def test_split_out_of_range(self):
        with pytest.raises(ValueError):
            pt_min_eigenvalues(4, np.full((1, 5), 0.2), 4)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=7, max_size=7),
)
def test_pass_mask_matches_dense_oracle(n, raw):
    weights = np.array(raw[: n + 1])
    assume(weights.sum() > 0.0)
    chi = weights / weights.sum()
    dense_min = min(s[0] for s in dense_pt_spectra(chi, range(1, n // 2 + 1)).values())
    margin = dense_min + DEFAULT_EIG_TOL
    if abs(margin) > 1e-12:
        assert bool(ppt_pass_mask(n, chi[None])[0]) == (margin > 0)
