from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from scipy.integrate import quad

from gdscert import (
    gds_volume,
    j_max,
    merge_estimates,
    ppt_gds_volume,
    sample_gds_simplex,
    sds_volume_formula,
    sds_volume_mc,
)
from gdscert.volume import (
    _estimate_from_sums,
    jacobian_general,
    jacobian_n4,
    ppt_pass_mask,
    sample_chis,
)


class TestSimplexSampling:
    def test_component_means(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            chis = sample_chis(n, rng, 100_000)
            target = 1.0 / (n + 1)
            # component std on the simplex: sqrt(n) / ((n+1) sqrt(n+2)) per coord
            sigma = np.sqrt(n) / ((n + 1) * np.sqrt(n + 2)) / np.sqrt(len(chis))
            assert np.abs(chis.mean(axis=0) - target).max() < 3 * sigma + 1e-4

    def test_samples_are_valid_states(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            st = sample_gds_simplex(5, rng)
            assert abs(st.populations.sum() - 1.0) <= 1e-12
            assert st.populations.min() >= 0.0


class TestAnalyticVolumes:
    def test_gds_volume(self):
        assert gds_volume(1) == 1
        assert gds_volume(3) == Fraction(1, 6)
        assert gds_volume(4) == Fraction(1, 24)

    def test_sds_formula_values(self):
        assert sds_volume_formula(1) == 1
        assert sds_volume_formula(2) == Fraction(1, 3)
        assert sds_volume_formula(3) == Fraction(1, 20)
        assert sds_volume_formula(4) == Fraction(2, 525)

    def test_sds_formula_is_moment_space_volume(self):
        # prod_k C(N,k) * prod_k B(k,k), with B(k,k) = ((k-1)!)^2 / (2k-1)!
        for n in range(1, 31):
            derived = Fraction(1)
            for k in range(1, n + 1):
                derived *= comb(n, k) * Fraction(factorial(k - 1) ** 2, factorial(2 * k - 1))
            assert sds_volume_formula(n) == derived, n


class TestPptVolume:
    def test_constant_true_indicator_recovers_simplex_volume(self):
        est = ppt_gds_volume(4, 50_000, seed=3, tol=np.inf)
        assert est.mean == pytest.approx(1 / 24, abs=1e-15)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("tol", [float("nan"), -1e-10])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            ppt_pass_mask(2, np.array([[0.0, 1.0, 0.0]]), tol=tol)

    def test_n2_against_exact_integral(self):
        # PPT region of the N=2 simplex: chi0 chi2 >= chi1^2 / 4.  In
        # (s, d) = (chi0 + chi2, chi0 - chi2) coordinates the region is
        # |d| <= sqrt(2s - 1), giving area \int_{1/2}^1 sqrt(2s-1) ds.
        exact, err = quad(lambda s: np.sqrt(2 * s - 1), 0.5, 1.0)
        assert err < 1e-12
        est = ppt_gds_volume(2, 400_000, seed=4)
        assert abs(est.mean - exact) <= 4 * est.std_error
        # and the exact value is the separable-volume formula, 1/3
        assert exact == pytest.approx(float(sds_volume_formula(2)), abs=1e-12)

    def test_n4_magnitude(self):
        est = ppt_gds_volume(4, 300_000, seed=5)
        assert abs(est.mean - 3808e-6) <= 4 * np.sqrt(est.std_error**2 + (2e-6) ** 2)

    def test_n4_estimate_pinned(self):
        # the value the dense 2^N eigensolves gave for these arguments
        assert ppt_gds_volume(4, 50_000, seed=20260823).mean == 0.0038541666666666663

    def test_reproducibility(self):
        a = ppt_gds_volume(3, 60_000, seed=9)
        b = ppt_gds_volume(3, 60_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_bad_chunk_size_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            ppt_gds_volume(4, 10, seed=1, chunk_size=chunk_size)

    def test_chunk_merge_matches_single_run(self):
        n, total, chunk = 3, 90_000, 30_000
        full = ppt_gds_volume(n, total, seed=11, chunk_size=chunk)
        parts = []
        for ss in np.random.SeedSequence(11).spawn(3):
            rng = np.random.default_rng(ss)
            chis = sample_chis(n, rng, chunk)
            n_pass = int(ppt_pass_mask(n, chis).sum())
            parts.append(_estimate_from_sums(
                float(n_pass), float(n_pass), chunk, float(gds_volume(n)),
                11, "MC-indicator",
            ))
        merged = merge_estimates(parts)
        assert merged.mean == full.mean
        assert merged.std_error == full.std_error
        assert merged.n_samples == full.n_samples


class TestJacobian:
    def test_closed_form_matches_determinant_after_relabeling(self):
        # the published N=4 density and the raw determinant are related by
        # the measure-preserving relabeling y -> 1-y of both amplitudes
        rng = np.random.default_rng(6)
        xs = rng.dirichlet(np.ones(3), size=300)
        ys = rng.random((300, 2))
        closed = jacobian_n4(xs[:, 0], xs[:, 1], ys[:, 0], ys[:, 1])
        det = jacobian_general(4, xs, 1.0 - ys)
        np.testing.assert_allclose(closed, det, atol=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        xs = rng.dirichlet(np.ones(3), size=1000)
        ys = rng.random((1000, 2))
        assert jacobian_n4(xs[:, 0], xs[:, 1], ys[:, 0], ys[:, 1]).min() >= 0.0
        assert jacobian_general(4, xs, ys).min() >= 0.0

    def test_coincident_amplitudes_vanish(self):
        y = np.full((5, 2), 0.4)
        xs = np.tile([0.3, 0.3, 0.4], (5, 1))
        assert np.abs(jacobian_n4(xs[:, 0], xs[:, 1], y[:, 0], y[:, 1])).max() == 0.0
        assert np.abs(jacobian_general(4, xs, y)).max() < 1e-14


    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_product_rule_determinant(self, n):
        jm = j_max(n)
        n_free = jm - 1 if n % 2 == 0 else jm
        rng = np.random.default_rng(100 + n)
        xs = rng.dirichlet(np.ones(jm), size=300)
        # one amplitude per stratum of [0, 1], kept apart so the determinant
        # is well conditioned; the outer ones are moved onto 0 and 1
        ys = (np.arange(n_free) + 0.25 + 0.5 * rng.random((300, n_free))) / n_free
        ys[0::2, -1] = 1.0
        # even N has y = 0 in its pinned term, which a free 0 would duplicate
        if n % 2:
            ys[1::2, 0] = 0.0
        np.testing.assert_allclose(
            jacobian_general(n, xs, ys), _product_rule_jacobian(n, xs, ys), rtol=1e-10
        )


def _product_rule_jacobian(n, xs, ys):
    """Reference |det|: d chi / d y_j by the product rule on y^n0 (1 - y)^n1."""
    jm = j_max(n)
    n_free = ys.shape[1]
    n0s = np.arange(n + 1)
    binoms = np.array([comb(n, k) for k in n0s], dtype=float)
    y_full = np.concatenate([ys, np.zeros((len(xs), jm - n_free))], axis=1)[:, :, None]
    jac = np.empty((len(xs), n + 1, n + 1))
    jac[:, :jm, :] = binoms * y_full**n0s * (1.0 - y_full) ** (n - n0s)
    yf = ys[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dpow = np.where(n0s > 0, n0s * yf ** np.maximum(n0s - 1, 0), 0.0)
        dcpow = np.where(n - n0s > 0, (n - n0s) * (1.0 - yf) ** np.maximum(n - n0s - 1, 0), 0.0)
    deriv = dpow * (1.0 - yf) ** (n - n0s) - yf**n0s * dcpow
    jac[:, jm:, :] = binoms * xs[:, :n_free, None] * deriv
    return np.abs(np.linalg.det(jac))


class TestSdsVolumeMc:
    def test_n4_matches_formula(self):
        est = sds_volume_mc(4, 400_000, seed=8)
        assert abs(est.mean - 2 / 525) <= 4 * est.std_error

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_general_n_matches_formula(self, n):
        est = sds_volume_mc(n, 200_000, seed=10)
        target = float(sds_volume_formula(n))
        assert abs(est.mean - target) <= 4 * est.std_error + 1e-12

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_bad_chunk_size_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            sds_volume_mc(4, 10, seed=1, chunk_size=chunk_size)

    def test_reproducibility(self):
        a = sds_volume_mc(4, 50_000, seed=12)
        b = sds_volume_mc(4, 50_000, seed=12)
        assert a == b


def test_volume_ordering():
    # separable <= PPT <= all, in the population metric
    for n in (2, 3, 4):
        ppt_est = ppt_gds_volume(n, 150_000, seed=13)
        sds = float(sds_volume_formula(n))
        assert sds <= ppt_est.mean + 3 * ppt_est.std_error
        assert ppt_est.mean <= float(gds_volume(n)) + 1e-15


def test_merge_rejects_mixed_methods():
    a = ppt_gds_volume(2, 10_000, seed=1)
    b = sds_volume_mc(2, 10_000, seed=1)
    with pytest.raises(ValueError):
        merge_estimates([a, b])
