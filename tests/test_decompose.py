from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gdscert import (
    GDSState,
    SDSDecomposition,
    SolverDegenerateError,
    certify,
    check_population_bounds,
    evolve,
    j_max,
    population_bound,
    random_sds_params,
    sds_populations,
    solve_decomposition,
    to_power_moments,
    trajectory,
)
from gdscert.decompose import (
    DEFAULT_EPSILON,
    REASON_DEGENERATE,
    REASON_OUT_OF_RANGE,
    VERDICT_CERTIFIED,
    _assemble,
)
from gdscert.ppt import _dicke_blocks
from gdscert.states import bernstein, binomials, hankel_index
from gdscert.volume import ppt_pass_mask, sample_chis


def solve_n4_closed_form(state: GDSState) -> SDSDecomposition:
    """Closed-form decomposition for N = 4: explicit y+/-, x+/- expressions.

    Independent oracle for the general solver, ``solve_decomposition``.
    Raises on coincident nodes (vanishing discriminant denominators) and on
    complex nodes (negative discriminant, which only entangled states have);
    callers fall back to the general solver, which handles them.
    """
    if state.n_qubits != 4:
        raise ValueError("closed form applies to N=4 only")
    chi = state.populations
    c04, c13, c22, c31, c40 = (chi[0], chi[1], chi[2], chi[3], chi[4])

    den = 4 * c22**2 + 6 * (c31 - 4 * c40) * c22 + 9 * c31**2 - 9 * c13 * (c31 + 4 * c40)
    if abs(den) < 1e-14:
        raise SolverDegenerateError("node-formula denominator vanishes")
    num = 9 * c31**2 - 18 * c13 * c40 + 3 * c22 * (c31 - 8 * c40)
    rad = (
        324 * c13**2 * c40**2
        + 12 * c22 * (8 * c22**2 - 27 * c13 * c31) * c40
        - 27 * (c22**2 - 3 * c13 * c31) * c31**2
    )
    if rad < 0:
        raise SolverDegenerateError("negative discriminant: complex nodes")
    root = np.sqrt(rad)
    y_p = (num + root) / den
    y_m = (num - root) / den
    if abs(y_p - y_m) < 1e-12:
        raise SolverDegenerateError("coincident nodes y+ = y-")

    def x_for(y_this, y_other):
        d = 6 * y_this**2 * (y_this - y_other) * (y_this * (2 * y_other - 1) - y_other)
        if abs(d) < 1e-300:
            raise SolverDegenerateError("weight-formula denominator vanishes")
        return (y_other**2 * c22 - 6 * (y_other - 1) ** 2 * c40) / d

    x_p = x_for(y_p, y_m)
    x_m = x_for(y_m, y_p)
    x3 = 1.0 - x_p - x_m

    return _assemble(4, np.array([y_p, y_m, 0.0]), np.array([x_p, x_m, x3]), chi)


def _sorted_terms(dec):
    return dec.canonicalize().terms


def _max_term_diff(a, b):
    ta, tb = _sorted_terms(a), _sorted_terms(b)
    return max(
        max(abs(x1 - x2), abs(y1 - y2)) for (x1, y1), (x2, y2) in zip(ta, tb)
    )


class TestPowerMoments:
    def test_balanced_mixture(self):
        st = GDSState(4, np.array([1, 4, 6, 4, 1]) / 16)
        np.testing.assert_allclose(
            to_power_moments(st), [1, 0.5, 0.25, 0.125, 0.0625], atol=1e-15
        )

    def test_ground(self):
        st = GDSState(5, [0, 0, 0, 0, 0, 1])
        np.testing.assert_allclose(to_power_moments(st), np.ones(6), atol=1e-15)

    def test_excited(self):
        st = GDSState(5, [1, 0, 0, 0, 0, 0])
        expected = np.zeros(6)
        expected[0] = 1.0
        np.testing.assert_allclose(to_power_moments(st), expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_exact_double_sum(self, n):
        chi = np.random.default_rng(n).dirichlet(np.ones(n + 1))
        p = [Fraction(c) / comb(n, k) for k, c in enumerate(chi)]
        exact = [sum(comb(n - r, i) * p[r + i] for i in range(n - r + 1))
                 for r in range(n + 1)]
        np.testing.assert_allclose(
            to_power_moments(GDSState(n, chi)), [float(v) for v in exact], rtol=1e-13
        )


class TestSolveDecomposition:
    def test_single_node(self):
        st = GDSState(4, np.array([1, 4, 6, 4, 1]) / 16)
        dec = solve_decomposition(st).canonicalize()
        assert dec.residual <= 1e-12
        x, y = dec.terms[0]
        assert abs(x - 1.0) < 1e-10 and abs(y - 0.5) < 1e-10
        for x, y in dec.terms[1:]:
            assert x == 0.0 and y == 0.0

    def test_fully_excited_lands_on_pinned_node(self):
        st = GDSState(4, [1, 0, 0, 0, 0])
        dec = solve_decomposition(st).canonicalize()
        assert dec.residual <= 1e-12
        assert abs(dec.terms[0][0] - 1.0) < 1e-12
        assert abs(dec.terms[0][1]) < 1e-12

    def test_matches_closed_form_on_superradiance(self):
        for tau in np.geomspace(1e-2, 3, 25):
            st = evolve(4, tau)
            general = solve_decomposition(st)
            oracle = solve_n4_closed_form(st)
            assert _max_term_diff(general, oracle) <= 1e-8

    def test_matches_closed_form_on_random_ppt_states(self):
        rng = np.random.default_rng(14)
        chis = sample_chis(4, rng, 6000)
        chis = chis[ppt_pass_mask(4, chis)][:400]
        degenerate = 0
        for chi in chis:
            st = GDSState(4, chi)
            general = solve_decomposition(st)
            try:
                oracle = solve_n4_closed_form(st)
            except SolverDegenerateError:
                degenerate += 1
                continue
            assert _max_term_diff(general, oracle) <= 1e-8
        assert degenerate <= 2  # degenerate set has measure zero

    def test_round_trip_random_params(self):
        rng = np.random.default_rng(15)
        for n in range(2, 9):
            for _ in range(100):
                params = random_sds_params(n, rng)
                dec = solve_decomposition(sds_populations(params))
                assert dec.residual <= 1e-9

    @pytest.mark.parametrize("n", range(1, 13))
    def test_assemble_matches_per_term_rule(self, n):
        # per-term reference: a term is dropped iff its largest possible
        # contribution to a population is negligible, then (0, 0) pads to j_max
        max_binom = float(comb(n, n // 2))
        rng = np.random.default_rng(n)
        chi = sample_chis(n, rng, 1)[0]
        dropped = kept = 0
        for k in range(1, j_max(n) + 1):  # a rank-deficient pencil gives fewer nodes
            for _ in range(50):
                nodes = rng.uniform(-3.0, 4.0, k)
                weights = rng.choice([1.0, 1e-9, 1e-13, 1e-17, 1e-25], k) * rng.normal(size=k)
                expected = [
                    (0.0, 0.0)
                    if abs(x) * max(abs(y), abs(1 - y), 1.0) ** n * max_binom <= 1e-12
                    else (float(x), float(y))
                    for x, y in zip(weights, nodes)
                ]
                dropped += expected.count((0.0, 0.0))
                kept += k - expected.count((0.0, 0.0))
                expected += [(0.0, 0.0)] * (j_max(n) - k)
                xs, ys = np.array(expected).T
                dec = _assemble(n, nodes, weights, chi)
                assert dec.terms == tuple(expected)
                assert dec.residual == float(np.max(np.abs(bernstein(n, ys) @ xs - chi)))
        assert dropped and kept


class TestClosedFormN4:
    def test_early_time_branch(self):
        # just after the fully excited start all nodes cluster near y = 0
        # (the weight split among near-coincident nodes is unconstrained),
        # but the decomposition itself must stay exact and physical
        dec = solve_n4_closed_form(evolve(4, 1e-4))
        xs = [t[0] for t in dec.terms]
        ys = [t[1] for t in dec.terms]
        assert max(abs(y) for y in ys) < 1e-3
        assert all(0.0 <= x <= 1.0 for x in xs)
        assert abs(sum(xs) - 1.0) < 1e-9
        assert dec.residual <= 1e-12

    def test_coincident_nodes_guarded(self):
        st = GDSState(4, np.array([1, 4, 6, 4, 1]) / 16)
        with pytest.raises(SolverDegenerateError):
            solve_n4_closed_form(st)
        # the general solver still resolves it as a single node
        dec = solve_decomposition(st).canonicalize()
        assert abs(dec.terms[0][1] - 0.5) < 1e-10

    def test_round_trip_generating_params(self):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 60:
            xs = rng.dirichlet(np.ones(3))
            ys = rng.random(2)
            # stay away from the measure-zero degenerate set
            if xs.min() < 0.05 or abs(ys[0] - ys[1]) < 0.05 or ys.min() < 0.05:
                continue
            params = ((xs[0], ys[0]), (xs[1], ys[1]), (xs[2], 0.0))
            from gdscert import SDSParams

            st = sds_populations(SDSParams(4, params))
            dec = solve_n4_closed_form(st).canonicalize()
            expected = sorted(params, key=lambda t: (-t[0], -t[1]))
            diff = max(
                max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                for a, b in zip(dec.terms, expected)
            )
            assert diff <= 1e-8
            checked += 1

    def test_rejects_other_n(self):
        with pytest.raises(ValueError):
            solve_n4_closed_form(GDSState(2, [0.25, 0.5, 0.25]))

    def test_complex_nodes_raise(self):
        # an entangled state whose discriminant is negative: the nodes would
        # be a complex-conjugate pair
        with pytest.raises(SolverDegenerateError):
            solve_n4_closed_form(GDSState(4, [0, 0, 0.5, 0.5, 0]))


class TestCertify:
    @pytest.mark.parametrize("tau", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_superradiant_n4_certified(self, tau):
        result = certify(evolve(4, tau))
        assert result.verdict == VERDICT_CERTIFIED
        params = np.concatenate(
            [result.certificate.weights, result.certificate.amplitudes]
        )
        assert params.min() >= 0.0 and params.max() <= 1.0

    def test_pure_dicke_not_certified(self):
        result = certify(GDSState(4, [0, 0, 0, 1, 0]))
        assert not result.certified
        assert result.reason in (REASON_OUT_OF_RANGE, REASON_DEGENERATE)

    def test_generic_entangled_reasons(self):
        # interior NPT states are caught by the range or residual checks
        rng = np.random.default_rng(17)
        chis = sample_chis(4, rng, 2000)
        npt = chis[~ppt_pass_mask(4, chis)]
        reasons = set()
        for chi in npt[:200]:
            result = certify(GDSState(4, chi))
            assert not result.certified
            reasons.add(result.reason)
        assert reasons <= {REASON_OUT_OF_RANGE, REASON_DEGENERATE}
        assert REASON_OUT_OF_RANGE in reasons

    def test_n2_boundary_product_state(self):
        result = certify(GDSState(2, [0.25, 0.5, 0.25]))
        assert result.certified

    def test_certificate_reconstructs_input(self):
        rng = np.random.default_rng(18)
        for n in (3, 4, 5):
            st = sds_populations(random_sds_params(n, rng))
            result = certify(st)
            assert result.certified
            assert result.certificate.residual <= 1e-9
            assert abs(result.certificate.weights.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("epsilon", [float("nan"), -1e-9, np.inf])
    def test_bad_tolerance_rejected(self, epsilon):
        # a NaN tolerance makes every range check False and an infinite one
        # makes every check pass, so the entangled |D_2> would come back certified
        with pytest.raises(ValueError):
            certify(GDSState(4, [0, 0, 1, 0, 0]), epsilon=epsilon)


class TestLargeN:
    """Separable states beyond N = 10, where monomial moments are too ill-conditioned."""

    @pytest.mark.parametrize("n", [14, 16, 18, 20, 22, 24])
    def test_separable_round_trips_certify(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            result = certify(sds_populations(random_sds_params(n, rng)))
            assert result.certified
            assert result.certificate.residual <= 1e-9

    @pytest.mark.parametrize("n", range(11, 17))
    def test_superradiance_certifies(self, n):
        grid = np.geomspace(1e-3, 10, 200)
        for tau, state in zip(grid, trajectory(n, grid).states):
            assert certify(state).certified, tau

    @pytest.mark.parametrize("n, draw", [
        pytest.param(24, 206, marks=pytest.mark.xfail(
            strict=True, reason="ParameterOutOfRange, offending (0, -0.00636)")),
        pytest.param(27, 321, marks=pytest.mark.xfail(
            strict=True, reason="ParameterOutOfRange, offending (27, 1.00300)")),
    ])
    def test_endpoint_failures_certify(self, n, draw):
        # the two known failures of the lower principal representation, with
        # true amplitudes crowded at one end of [0, 1] (0-based draw index)
        rng = np.random.default_rng(n)
        for _ in range(draw):
            random_sds_params(n, rng)
        assert certify(sds_populations(random_sds_params(n, rng))).certified


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=11, max_size=11),
    mix=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# a subnormal weight sum: (1 - mix) * weights underflows to 0 unless the
# weights are normalised first
@example(n=2, raw=[0.0, 5e-324] + [0.0] * 9, mix=0.5, seed=0)
def test_certify_matches_ppt(n, raw, mix, seed):
    weights = np.array(raw[: n + 1])
    assume(weights.sum() > 0.0)
    # mixing in a separable state reaches the PPT region, which simplex
    # points alone almost never hit for N >= 7
    separable = sds_populations(random_sds_params(n, np.random.default_rng(seed)))
    chi = (1.0 - mix) * (weights / weights.sum()) + mix * separable.populations
    result = certify(GDSState(n, chi))
    # smallest eigenvalue over the Dicke blocks of every rho^{T_k}, each the
    # Hankel window at base |delta| weighted by W; the zero block of
    # rho^{T_k} is left out, it pins the minimum of a PPT state at 0
    p = chi / binomials(n)
    margin = min(np.linalg.eigvalsh(p[hankel_index(abs(delta), len(w))] * np.outer(w, w))[0]
                 for k in range(1, n // 2 + 1) for delta, w in _dicke_blocks(n, k))
    if abs(margin) > 1e-8:
        assert result.certified == bool(ppt_pass_mask(n, chi[None])[0])
    if result.certified:
        cert = result.certificate
        assert np.abs(bernstein(n, cert.amplitudes) @ cert.weights - chi).max() <= 1e-9


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=17, max_size=17),
)
def test_decompositions_are_real(n, raw):
    weights = np.array(raw[: n + 1])
    assume(weights.sum() > 0.0)
    state = GDSState(n, weights / weights.sum())
    try:
        dec = solve_decomposition(state)
    except SolverDegenerateError:
        pass
    else:
        assert all(type(x) is float and type(y) is float for x, y in dec.terms)
    assert certify(state).reason in (None, REASON_OUT_OF_RANGE, REASON_DEGENERATE)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=17, max_size=17),
    mix=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# a subnormal weight sum: (1 - mix) * weights underflows to 0 unless the
# weights are normalised first
@example(n=1, raw=[0.0, 5e-324] + [0.0] * 15, mix=0.5, seed=0)
def test_offending_parameter_and_certificate_shape(n, raw, mix, seed):
    weights = np.array(raw[: n + 1])
    assume(weights.sum() > 0.0)
    separable = sds_populations(random_sds_params(n, np.random.default_rng(seed)))
    state = GDSState(n, (1.0 - mix) * (weights / weights.sum()) + mix * separable.populations)
    result = certify(state)
    if result.reason == REASON_OUT_OF_RANGE:
        # the first of (x_1..x_J, y_1..y_J) outside [-eps, 1 + eps], by a scalar scan
        terms = solve_decomposition(state).terms
        params = [x for x, _ in terms] + [y for _, y in terms]
        eps = DEFAULT_EPSILON
        i = next(k for k, v in enumerate(params) if v < -eps or v > 1.0 + eps)
        assert result.offending == (i, params[i])
        assert type(result.offending[0]) is int and type(result.offending[1]) is float
    if result.certified:
        terms = result.certificate.terms
        assert len(terms) == j_max(n)
        assert all(type(v) is float and 0.0 <= v <= 1.0 for term in terms for v in term)
        assert list(terms) == sorted(terms, key=lambda t: (-t[0], -t[1]))


class TestPopulationBound:
    def test_half_filling_n4(self):
        assert population_bound(4, 2) == pytest.approx(3 / 8, abs=1e-15)

    def test_excited_level_unbounded(self):
        for n in (2, 5, 9):
            assert population_bound(n, 0) == pytest.approx(1.0, abs=1e-15)

    def test_n4_three_zeros(self):
        assert population_bound(4, 3) == pytest.approx(27 / 64, abs=1e-15)

    def test_violation_detected(self):
        violations = check_population_bounds(GDSState(4, [0, 0, 1, 0, 0]))
        assert violations == [(2, 1.0, 0.375)]

    def test_sds_outputs_satisfy_bounds(self):
        rng = np.random.default_rng(19)
        for n in (2, 4, 6):
            for _ in range(50):
                st = sds_populations(random_sds_params(n, rng))
                assert check_population_bounds(st) == []

    def test_superradiant_sweep_satisfies_bounds(self):
        for tau in np.geomspace(1e-3, 10, 30):
            assert check_population_bounds(evolve(4, tau)) == []

    def test_certified_implies_bounds(self):
        rng = np.random.default_rng(20)
        chis = sample_chis(4, rng, 1500)
        for chi in chis:
            st = GDSState(4, chi)
            if certify(st).certified:
                assert check_population_bounds(st) == []
