"""Acceptance suite: one test per exit criterion, each printing a summary line.

Criterion 4 runs its full 1e7-sample Monte-Carlo volumes (about 2-3 s on a
2-core x86 machine).
"""

import time

import numpy as np
import pytest

from gdscert import (
    GDSState,
    certify,
    check_population_bounds,
    closed_form_n4,
    closed_form_n8,
    evolve,
    gds_density_matrix,
    is_ppt,
    ppt_gds_volume,
    random_sds_params,
    sds_density_matrix_phase_avg,
    sds_populations,
    sds_volume_formula,
    sds_volume_mc,
    trajectory,
)
from gdscert.volume import sample_chis

TAU_GRID_200 = np.geomspace(1e-3, 10, 200)
VOLUME_SAMPLES = 10_000_000


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_closed_form_superradiance_match():
    t0 = time.time()
    worst = 0.0
    for tau in TAU_GRID_200:
        worst = max(worst, np.max(np.abs(
            evolve(4, tau).populations - closed_form_n4(tau).populations)))
        worst = max(worst, np.max(np.abs(
            evolve(8, tau).populations - closed_form_n8(tau).populations)))
    assert worst <= 1e-9
    _report(1, f"evolve vs closed forms, max error {worst:.2e} "
               f"({time.time() - t0:.2f}s)")


def test_criterion_2_perpetual_certification():
    t0 = time.time()
    eps = 1e-9
    for n in range(2, 9):
        for state in trajectory(n, TAU_GRID_200).states:
            result = certify(state, epsilon=eps)
            assert result.certified, (n, result.reason, result.offending)
            params = np.concatenate(
                [result.certificate.weights, result.certificate.amplitudes])
            assert params.min() >= 0.0 and params.max() <= 1.0
    _report(2, f"N=2..8 superradiance certified at 200 tau-points each "
               f"({time.time() - t0:.1f}s)")


def test_criterion_3_ppt_of_superradiance():
    t0 = time.time()
    grid = np.geomspace(1e-3, 10, 50)
    worst = 0.0
    for n in range(2, 11):
        for state in trajectory(n, grid).states:
            report = is_ppt(state, tol=1e-10)
            worst = min(worst, min(report.min_eigenvalues.values()))
            assert report.is_ppt, (n, report.min_eigenvalues)
    _report(3, f"superradiance PPT for N=2..10 at 50 tau-points, "
               f"worst min eigenvalue {worst:.2e} ({time.time() - t0:.1f}s)")


def test_criterion_4_volume_reproduction_n4():
    t0 = time.time()
    ppt_est = ppt_gds_volume(4, VOLUME_SAMPLES, seed=20260823)
    sds_est = sds_volume_mc(4, VOLUME_SAMPLES, seed=20260824)
    exact = sds_volume_formula(4)
    assert exact == pytest.approx(2 / 525, abs=0) and exact.numerator == 2 \
        and exact.denominator == 525

    # published PPT volume (3808 +- 2) x 1e-6, combined 3 sigma
    band_pub = 3 * np.sqrt(ppt_est.std_error**2 + (2e-6) ** 2)
    assert abs(ppt_est.mean - 3808e-6) <= band_pub

    band_sds = 3 * sds_est.std_error
    assert abs(sds_est.mean - float(exact)) <= band_sds

    band_lemma = 3 * np.sqrt(ppt_est.std_error**2 + sds_est.std_error**2)
    assert abs(ppt_est.mean - sds_est.mean) <= band_lemma
    _report(4, f"PPT vol {ppt_est.mean:.6e}+-{ppt_est.std_error:.1e}, "
               f"SDS MC {sds_est.mean:.6e}+-{sds_est.std_error:.1e}, "
               f"formula 2/525, {VOLUME_SAMPLES} samples "
               f"({time.time() - t0:.0f}s)")


def test_criterion_5_certify_vs_ppt_small_n():
    t0 = time.time()
    rng = np.random.default_rng(55)
    band = 1e-8
    hard = 0
    checked = 0
    for n in (2, 3):
        for chi in sample_chis(n, rng, 10_000):
            state = GDSState(n, chi)
            cert = certify(state).certified
            report = is_ppt(state)
            ppt_verdict = report.is_ppt
            if cert != ppt_verdict:
                # tolerate disagreements only inside the boundary band
                margin = min(abs(v) for v in report.min_eigenvalues.values())
                if margin > band:
                    hard += 1
            checked += 1
    assert hard == 0
    _report(5, f"certify vs PPT agree on {checked} states at N=2,3 "
               f"(band {band:.0e}) ({time.time() - t0:.1f}s)")


def test_criterion_6_round_trip_property():
    t0 = time.time()
    rng = np.random.default_rng(66)
    for n in range(2, 9):
        for _ in range(10_000):
            # certify solves once and copies the solver's residual into the
            # certificate
            result = certify(sds_populations(random_sds_params(n, rng)))
            assert result.certified, (n, result.reason)
            assert result.certificate.residual <= 1e-9
    _report(6, f"1e4 round trips per N=2..8, all certified with residual "
               f"<= 1e-9 ({time.time() - t0:.0f}s)")


def test_criterion_7_necessary_bound_consistency():
    t0 = time.time()
    rng = np.random.default_rng(77)
    chis = sample_chis(4, rng, 100_000)
    bound_22 = 3 / 8
    n_checked = 0
    for chi in chis:
        violations = check_population_bounds(GDSState(4, chi))
        if violations:
            # a violated necessary bound must never be certified
            result = certify(GDSState(4, chi))
            assert not result.certified
            n_checked += 1
    # positive direction on a subsample: certified implies bounds hold
    for chi in chis[:20_000]:
        state = GDSState(4, chi)
        if certify(state).certified:
            assert check_population_bounds(state) == []
            assert chi[2] <= bound_22 + 1e-12
    _report(7, f"bound consistency on 1e5 samples "
               f"({n_checked} bound violators, none certified) "
               f"({time.time() - t0:.0f}s)")


def test_criterion_8_phase_average_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    for n in range(1, 7):
        for _ in range(100):
            params = random_sds_params(n, rng)
            avg = sds_density_matrix_phase_avg(params, n + 1)
            direct = gds_density_matrix(sds_populations(params))
            worst = max(worst, float(np.max(np.abs(avg - direct))))
    assert worst <= 1e-12
    _report(8, f"phase-average equals population construction for N<=6, "
               f"max entry error {worst:.2e} ({time.time() - t0:.1f}s)")
