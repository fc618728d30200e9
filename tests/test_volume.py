import json
import sys
from fractions import Fraction
from math import comb, factorial, hypot, prod, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gdscert import (
    GDSState,
    gds_volume,
    j_max,
    ppt_gds_volume,
    sds_volume_formula,
    sds_volume_mc,
)
from gdscert import ppt, volume
from gdscert.volume import (
    jacobian_general,
    jacobian_n4,
    ppt_pass_mask,
    sample_chis,
)


class TestSimplexSampling:
    def test_matches_normalised_exponentials(self):
        # the normalised exponential spacings, bit for bit
        for n, size in ((1, 10), (4, 5000), (9, 777)):
            got = sample_chis(n, np.random.default_rng(n), size)
            e = np.random.default_rng(n).exponential(size=(size, n + 1))
            np.testing.assert_array_equal(got, e / e.sum(axis=1, keepdims=True))

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
            st = GDSState(5, sample_chis(5, rng, 1)[0])
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


def _rebuilt_estimate(n, chunks, seed):
    """``ppt_gds_volume`` rebuilt by hand: chunk i of ``chunks`` samples from
    stream i of SeedSequence(seed), drawn from that one generator in slices
    of SLICE_ROWS columns of N + 1 exponentials, summed per slice."""
    acc_sum = acc_sumsq = 0.0
    for m, ss in zip(chunks, np.random.SeedSequence(seed).spawn(len(chunks))):
        rng = np.random.default_rng(ss)
        for start in range(0, m, volume.SLICE_ROWS):
            e = rng.standard_exponential(size=(n + 1, min(volume.SLICE_ROWS, m - start)))
            share = ppt.ppt_segment_share(n, e.T)
            acc_sum += float(share.sum())
            acc_sumsq += float((share**2).sum())
    total = sum(chunks)
    mean = acc_sum / total
    scale = float(gds_volume(n))
    return scale * mean, scale * sqrt(max(acc_sumsq / total - mean**2, 0.0) / total)


def _indicator_estimate(n, n_samples, seed):
    """The PPT volume as the mean of ``ppt_pass_mask``'s 0/1 verdict on
    ``sample_chis`` draws, the estimator that the segment share replaced:
    the reference its estimates must agree with."""
    frac = ppt_pass_mask(n, sample_chis(n, np.random.default_rng(seed), n_samples)).mean()
    scale = float(gds_volume(n))
    return scale * frac, scale * sqrt(frac * (1.0 - frac) / n_samples)


class TestPptVolume:
    def test_constant_true_indicator_recovers_simplex_volume(self, monkeypatch):
        monkeypatch.setattr(volume, "ppt_segment_share", lambda n, rows: np.ones(len(rows)))
        est = ppt_gds_volume(4, 50_000, seed=3)
        assert est.mean == pytest.approx(1 / 24, abs=1e-15)
        assert est.std_error == 0.0
        assert est.method == "MC-segment"

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
        # criterion 4's arguments; the 0/1 verdict gave 0.0038541666666666663
        # with a standard error 1.9 times as large
        est = ppt_gds_volume(4, 50_000, seed=20260823)
        assert (est.mean, est.std_error) == (0.003762987756056262, 2.772565309749118e-05)

    PINNED = {
        2: (0.3332788557978137, 0.0003221283499336956),
        5: (0.00015570458060437344, 1.7490215925854303e-06),
        7: (5.032273335066654e-08, 4.0687653284499585e-09),
        8: (4.76442324112743e-10, 1.3260827957546228e-10),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_estimates_pinned_across_chunk_sizes(self, n):
        # one chunk of DEFAULT_CHUNK samples at every N
        est = ppt_gds_volume(n, 100_000, seed=3)
        assert (est.mean, est.std_error) == self.PINNED[n]
        assert type(est.mean) is float and type(est.std_error) is float

    def test_reproducibility(self):
        a = ppt_gds_volume(3, 60_000, seed=9)
        b = ppt_gds_volume(3, 60_000, seed=9)
        assert a == b

    def test_multi_chunk_estimate_pinned(self):
        # two chunks of 100_000 samples and one of 50_001, so this pins how
        # the chunks' sums combine
        est = ppt_gds_volume(6, 250_001, seed=20261018)
        assert est.mean == 3.7513461800860884e-06
        assert est.std_error == 6.463885127309804e-08

    def test_slices_continue_the_chunk_generator(self):
        # 50_001 samples are one chunk at N = 4, drawn from one generator in
        # slices of SLICE_ROWS that do not divide it
        n, total, seed = 4, 50_001, 20261019
        assert total % volume.SLICE_ROWS
        est = ppt_gds_volume(n, total, seed=seed)
        assert (est.mean, est.std_error) == _rebuilt_estimate(n, [total], seed)

    def test_chunk_merge_matches_single_run(self):
        # N = 3 runs in chunks of 100_000, 100_000 and 50_000 samples, each
        # drawn from its own stream of SeedSequence(seed)
        n, total, seed = 3, 250_000, 11
        full = ppt_gds_volume(n, total, seed=seed)
        assert (full.mean, full.std_error) == _rebuilt_estimate(n, [100_000, 100_000, 50_000], seed)
        assert full.n_samples == total

    @pytest.mark.parametrize("n", range(2, 7))
    def test_agrees_with_indicator_reference(self, n):
        # the share has the 0/1 verdict's mean and a smaller variance
        est = ppt_gds_volume(n, 200_000, seed=40 + n)
        ref_mean, ref_se = _indicator_estimate(n, 200_000, 40 + n)
        assert abs(est.mean - ref_mean) <= 4 * hypot(est.std_error, ref_se)
        assert est.std_error < ref_se


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

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matches_exact_product(self, n):
        # C_N passes the float range at N = 40; the float inputs are exact
        # rationals
        jm = j_max(n)
        n_free = jm - 1 if n % 2 == 0 else jm
        rng = np.random.default_rng(400 + n)
        xs = np.array([np.full(jm, 1.0 / jm), rng.dirichlet(np.ones(jm)), rng.dirichlet(np.ones(jm))])
        ys = np.array([
            # spread: normal up to N = 54, the data product alone underflows from N = 36
            (np.arange(n_free) + 0.5) / n_free,
            rng.random(n_free),
            0.5 + 1e-3 * rng.random(n_free),  # clustered: below the normal range from N = 15
        ])
        got = jacobian_general(n, xs, ys)
        for value, x, y in zip(got, xs, ys):
            exact = _exact_jacobian(n, x, y)
            if exact >= sys.float_info.min:
                assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
            else:
                assert 0.0 <= value < sys.float_info.min

    @pytest.mark.parametrize("n", range(1, 16, 2))
    def test_odd_n_invariant_under_reflection(self, n):
        # at odd N every amplitude factor is a difference, so y -> 1 - y
        # leaves the density unchanged (sds_volume_mc reflects only at even N)
        jm = j_max(n)
        rng = np.random.default_rng(500 + n)
        xs = rng.dirichlet(np.ones(jm), size=200)
        ys = rng.random((200, jm))
        np.testing.assert_allclose(
            jacobian_general(n, xs, 1.0 - ys), jacobian_general(n, xs, ys),
            rtol=1e-9, atol=sys.float_info.min,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_invariant_under_pair_permutations(self, n, data):
        jm = j_max(n)
        n_free = jm - 1 if n % 2 == 0 else jm
        unit = st.floats(min_value=0.0, max_value=1.0)
        xs = np.array([data.draw(st.lists(unit, min_size=jm, max_size=jm))])
        ys = np.array([data.draw(st.lists(unit, min_size=n_free, max_size=n_free))])
        perm = data.draw(st.permutations(range(n_free)))
        xs_perm = xs.copy()
        xs_perm[:, :n_free] = xs[:, perm]
        # below the normal range the result has no relative precision
        np.testing.assert_allclose(
            jacobian_general(n, xs_perm, ys[:, perm]), jacobian_general(n, xs, ys),
            rtol=1e-12, atol=sys.float_info.min,
        )


def _exact_jacobian(n, x, y):
    """The closed form of ``jacobian_general`` in exact rational arithmetic."""
    xs = [Fraction(v) for v in x[: len(y)]]
    ys = [Fraction(v) for v in y]
    out = prod(comb(n, k) for k in range(n + 1)) * prod(xs)
    for i, yi in enumerate(ys):
        out *= prod((yi - yj) ** 4 for yj in ys[i + 1:])
    if n % 2 == 0:
        out *= prod(v * v for v in ys)
    return out


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_general_n_matches_formula(self, n):
        est = sds_volume_mc(n, 200_000, seed=10)
        target = float(sds_volume_formula(n))
        assert abs(est.mean - target) <= 4 * est.std_error + 1e-12

    def test_multi_chunk_estimate_pinned(self):
        # two chunks of 100_000 samples and one of 50_001
        est = sds_volume_mc(5, 250_001, seed=20261018)
        assert est.mean == 0.00016042879354445538
        assert est.std_error == 1.641795150853594e-06
        assert type(est.std_error) is float

    @pytest.mark.parametrize("n, bound", [(4, 0.0025), (8, 0.012)])
    def test_relative_standard_error(self, n, bound):
        # every row counts (no ordering indicator) and even N averages over
        # y -> 1 - y: 0.0018 at N = 4 and 0.0070 at N = 8 at criterion 4's
        # seed (0.0038 and 0.049 with the indicator and no reflection)
        est = sds_volume_mc(n, 1_000_000, seed=20260824)
        assert est.std_error / est.mean < bound

    @pytest.mark.parametrize("n", range(20, 41, 2))
    def test_large_n_estimate_is_nonzero(self, n):
        # every row is evaluated, so a few samples give a non-zero mean and
        # standard error (the estimate is heavy-tailed here, far below the
        # formula)
        est = sds_volume_mc(n, 2_000, seed=1)
        assert est.mean > 0.0 and est.std_error > 0.0

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



@pytest.mark.parametrize("estimator", [ppt_gds_volume, sds_volume_mc])
def test_numpy_integer_seed_is_json_integer(estimator):
    # numpy counts and seeds are stored as int, so the estimate serialises
    est = estimator(np.int64(4), np.int64(100), seed=np.int64(3)).to_json_dict()
    assert json.loads(json.dumps(est))["n_samples"] == 100
    assert type(est["n_samples"]) is int and est["seed"] == 3 and type(est["seed"]) is int


@pytest.mark.parametrize("estimator", [ppt_gds_volume, sds_volume_mc])
def test_zero_samples_rejected(estimator):
    with pytest.raises(ValueError, match="n_samples must be a positive integer, got 0"):
        estimator(4, 0, seed=1)


_BAD_QUBIT_COUNTS = [0, -2, True, 2.0]
# None would draw fresh entropy, so the estimate would not be reproducible
_BAD_SEEDS = [None, True, np.True_, 1.0, -1, [1, 2]]


@pytest.mark.parametrize(
    "fn, args",
    [(fn, (n,)) for fn in (gds_volume, sds_volume_formula) for n in _BAD_QUBIT_COUNTS]
    + [(fn, (n, 100, 1)) for fn in (ppt_gds_volume, sds_volume_mc) for n in _BAD_QUBIT_COUNTS]
    + [(fn, (4, 100, seed)) for fn in (ppt_gds_volume, sds_volume_mc) for seed in _BAD_SEEDS],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_bad_qubit_count_or_seed_rejected(fn, args):
    with pytest.raises(ValueError, match="n_qubits must be a positive integer|seed must be a"):
        fn(*args)
