from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdscert import (
    CapacityError,
    GDSState,
    SDSParams,
    dicke_projector,
    evolve,
    gds_density_matrix,
    generator,
    is_ppt,
    partial_transpose,
    population_bound,
    ppt_gds_volume,
    pt_min_eigenvalues,
    random_sds_params,
    sds_density_matrix_phase_avg,
    sds_populations,
    sds_volume_mc,
    trajectory,
)
from gdscert.states import bernstein, binomials, dicke_ket, is_hermitian
from gdscert.volume import ppt_pass_mask, sample_chis


class TestDickeProjector:
    def test_n4_single_excitation(self):
        # (|0001> + |0010> + |0100> + |1000>) / 2
        ket = np.zeros(16)
        ket[[1, 2, 4, 8]] = 0.5
        expected = np.outer(ket, ket)
        np.testing.assert_allclose(dicke_projector(4, 3), expected, atol=1e-15)

    def test_single_qubit_excited(self):
        np.testing.assert_allclose(dicke_projector(1, 0), [[0, 0], [0, 1]], atol=1e-15)

    def test_n2_triplet(self):
        expected = np.zeros((4, 4))
        expected[np.ix_([1, 2], [1, 2])] = 0.5
        np.testing.assert_allclose(dicke_projector(2, 1), expected, atol=1e-15)

    def test_rank_one_unit_trace(self):
        p = dicke_projector(5, 2)
        assert abs(np.trace(p) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(p) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_orthonormality(self, n):
        kets = [dicke_ket(n, n0) for n0 in range(n + 1)]
        gram = np.array([[a @ b for b in kets] for a in kets])
        np.testing.assert_allclose(gram, np.eye(n + 1), atol=1e-12)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            dicke_projector(13, 0)

    def test_n0_out_of_range(self):
        with pytest.raises(ValueError):
            dicke_projector(4, 5)


class TestGDSState:
    def test_rejects_negative_population(self):
        with pytest.raises(ValueError):
            GDSState(2, [0.6, 0.5, -0.1])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            GDSState(2, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_population(self, bad):
        with pytest.raises(ValueError):
            GDSState(2, [bad, 0.5, 0.5])

    def test_tolerates_tiny_negative(self):
        GDSState(2, [0.5 + 1e-13, 0.5, -1e-13])

    def test_caller_array_stays_writable(self):
        chi = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        st = GDSState(4, chi)
        chi[0] = 0.5
        assert st.populations[0] == 0.25
        assert not st.populations.flags.writeable

    @pytest.mark.parametrize("n, chi", [(4.0, [0.2] * 5), (True, [0.5, 0.5])])
    def test_rejects_float_or_bool_qubit_count(self, n, chi):
        with pytest.raises(ValueError, match="n_qubits"):
            GDSState(n, chi)

    def test_numpy_integer_qubit_count_stored_as_int(self):
        assert type(GDSState(np.int64(4), [0.2] * 5).n_qubits) is int

    def test_json_round_trip(self):
        st = GDSState(3, [0.1, 0.2, 0.3, 0.4])
        again = GDSState.from_json_dict(st.to_json_dict())
        np.testing.assert_allclose(again.populations, st.populations)


class TestGDSDensityMatrix:
    def test_ground_state_projector(self):
        # all population at n0=N: the all-|0> computational state
        st = GDSState(3, [0, 0, 0, 1])
        rho = gds_density_matrix(st)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_n2_binomial_mixture(self):
        st = GDSState(2, [0.25, 0.5, 0.25])
        rho = gds_density_matrix(st)
        expected = np.diag([0.25, 0.25, 0.25, 0.25]).astype(float)
        expected[1, 2] = expected[2, 1] = 0.25
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_eigenvalues_are_populations(self):
        rng = np.random.default_rng(0)
        chi = rng.dirichlet(np.ones(6))
        rho = gds_density_matrix(GDSState(5, chi))
        eigs = np.linalg.eigvalsh(rho)
        expected = np.sort(np.concatenate([chi, np.zeros(32 - 6)]))
        np.testing.assert_allclose(np.sort(eigs), expected, atol=1e-12)
        assert is_hermitian(rho)
        assert abs(np.trace(rho) - 1.0) < 1e-12


class TestSDSParams:
    def test_term_count_enforced(self):
        with pytest.raises(ValueError):
            SDSParams(4, ((1.0, 0.5),))

    def test_even_n_pinned_amplitude(self):
        with pytest.raises(ValueError):
            SDSParams(2, ((0.5, 0.3), (0.5, 0.7)))

    @pytest.mark.parametrize("terms", [((np.nan, 0.3), (1.0, 0.7)),
                                       ((0.5, np.nan), (0.5, 0.7))])
    def test_rejects_non_finite_parameters(self, terms):
        with pytest.raises(ValueError):
            SDSParams(3, terms)

    def test_weight_normalization(self):
        with pytest.raises(ValueError):
            SDSParams(3, ((0.5, 0.3), (0.4, 0.7)))

    @pytest.mark.parametrize("n, terms", [(3.0, ((0.5, 0.3), (0.5, 0.7))),
                                          (True, ((1.0, 0.3),))])
    def test_rejects_float_or_bool_qubit_count(self, n, terms):
        with pytest.raises(ValueError, match="n_qubits"):
            SDSParams(n, terms)

    def test_numpy_integer_qubit_count_stored_as_int(self):
        assert type(SDSParams(np.int64(3), ((0.5, 0.3), (0.5, 0.7))).n_qubits) is int


class TestSDSPopulations:
    def test_balanced_single_node(self):
        p = SDSParams(4, ((1.0, 0.5), (0.0, 0.0), (0.0, 0.0)))
        chi = sds_populations(p).populations
        np.testing.assert_allclose(chi, np.array([1, 4, 6, 4, 1]) / 16, atol=1e-15)

    def test_all_ground(self):
        p = SDSParams(3, ((1.0, 1.0), (0.0, 0.0)))
        chi = sds_populations(p).populations
        np.testing.assert_allclose(chi, [0, 0, 0, 1], atol=1e-15)

    def test_all_excited(self):
        p = SDSParams(3, ((1.0, 0.0), (0.0, 0.0)))
        chi = sds_populations(p).populations
        np.testing.assert_allclose(chi, [1, 0, 0, 0], atol=1e-15)

    def test_normalization_random(self):
        rng = np.random.default_rng(42)
        for n in range(2, 11):
            for _ in range(150):
                chi = sds_populations(random_sds_params(n, rng)).populations
                assert abs(chi.sum() - 1.0) <= 1e-12
                assert chi.min() >= 0.0


class TestPhaseAverage:
    def test_matches_population_construction(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            p = random_sds_params(n, rng)
            avg = sds_density_matrix_phase_avg(p, n + 1)
            direct = gds_density_matrix(sds_populations(p))
            np.testing.assert_allclose(avg, direct, atol=1e-12)

    def test_node_count_independent(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            p = random_sds_params(n, rng)
            a = sds_density_matrix_phase_avg(p, n + 1)
            b = sds_density_matrix_phase_avg(p, 4 * n + 3)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_pure_ground_term(self):
        p = SDSParams(3, ((1.0, 1.0), (0.0, 0.0)))
        rho = sds_density_matrix_phase_avg(p, 7)
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_single_qubit_dephased(self):
        y0 = 0.37
        p = SDSParams(1, ((1.0, y0),))
        rho = sds_density_matrix_phase_avg(p, 2)
        np.testing.assert_allclose(rho, np.diag([y0, 1 - y0]), atol=1e-14)

    def test_too_few_phases_rejected(self):
        p = SDSParams(2, ((1.0, 0.5), (0.0, 0.0)))
        with pytest.raises(ValueError):
            sds_density_matrix_phase_avg(p, 2)


def test_sds_states_are_ppt():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            st = sds_populations(random_sds_params(n, rng))
            report = is_ppt(st)
            assert min(report.min_eigenvalues.values()) >= -1e-10


class TestBernsteinKernel:
    def test_binomials_row_is_read_only(self):
        row = binomials(6)
        np.testing.assert_array_equal(row, [1, 6, 15, 20, 15, 6, 1])
        assert not row.flags.writeable

    def test_batch_axes(self):
        ys = np.random.default_rng(3).random((2, 3, 4))
        table = bernstein(5, ys)
        assert table.shape == (2, 3, 6, 4)
        np.testing.assert_array_equal(table[1, 2], bernstein(5, ys[1, 2]))

    def test_complex_amplitudes_sum_to_one(self):
        table = bernstein(7, [0.3 + 0.4j, 1.5 - 2j])
        assert table.dtype == complex
        np.testing.assert_allclose(table.sum(axis=0), 1.0, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    ys=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                min_size=1, max_size=6),
)
def test_bernstein_entries_and_column_sums(n, ys):
    table = bernstein(n, ys)
    expected = [[comb(n, k) * y**k * (1 - y) ** (n - k) for y in ys] for k in range(n + 1)]
    np.testing.assert_allclose(table, expected, rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(table.sum(axis=0), 1.0, rtol=1e-12)


def _one_rule_cases():
    """One pytest.param(call, args, message) per public entry point that takes
    a count or a seed, and per bad value."""
    params = SDSParams(2, ((0.5, 0.3), (0.5, 0.0)))
    rng = np.random.default_rng(0)
    cases = []

    def case(fn, args, name, bad, message=None):
        message = message or f"{name} must be a positive integer, got {bad!r}"
        cases.append(pytest.param(fn, args, message, id=f"{fn.__name__}-{name}={bad!r}"))

    for n in (0, -2, True, 2.0):
        case(pt_min_eigenvalues, (n, [[1.0]]), "n_qubits", n)
        case(ppt_pass_mask, (n, [[1.0]]), "n_qubits", n)
        case(partial_transpose, (np.eye(1), 1, n), "n_qubits", n)
        case(generator, (n,), "n_qubits", n)
        case(trajectory, (n, [0.5]), "n_qubits", n)
        case(evolve, (n, 0.5), "n_qubits", n)
        case(population_bound, (n, 0), "n_qubits", n)
        case(dicke_ket, (n, 0), "n_qubits", n)
        case(dicke_projector, (n, 0), "n_qubits", n)
        case(random_sds_params, (n, rng), "n_qubits", n)
    for bad in (True, 1.5, -1):
        nonnegative = f"n0 must be a nonnegative integer, got {bad!r}"
        case(population_bound, (4, bad), "n0", bad, nonnegative)
        case(dicke_ket, (4, bad), "n0", bad, nonnegative)
        case(partial_transpose, (np.eye(16), bad, 4), "k", bad)
    for bad in (True, 2.0, -1):
        # N = 0 is allowed: sds_volume_mc draws N = 1's single weight with it
        for name, args in (("n_qubits", (bad, rng, 2)), ("size", (2, rng, bad))):
            case(sample_chis, args, name, bad, f"{name} must be a nonnegative integer, got {bad!r}")
    for samples in (True, 2.5, -3):
        case(ppt_gds_volume, (4, samples, 1), "n_samples", samples)
        case(sds_volume_mc, (4, samples, 1), "n_samples", samples)
    for phases in (7.5, True):
        case(sds_density_matrix_phase_avg, (params, phases), "n_phases", phases)
    for shape in ((5,), (3, 4)):
        case(pt_min_eigenvalues, (4, np.full(shape, 0.2)), "shape", shape, r"\(m, 5\)")
    for bad in (np.nan, np.inf):
        # NaN would fail inside LAPACK, and inf give NaN minima that read as "not PPT"
        case(pt_min_eigenvalues, (4, [[0.2, 0.2, bad, 0.2, 0.2]]), "entry", bad, "must be finite")
        # an unchecked mask would pass [0.2, 0.2, 0.2, 0.2, inf] as PPT
        case(ppt_pass_mask, (4, [[0.2, 0.2, 0.2, 0.2, bad]]), "entry", bad, "must be finite")
    return cases


@pytest.mark.parametrize("fn, args, message", _one_rule_cases())
def test_counts_and_batches_follow_one_rule(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_trajectory_keeps_a_python_int():
    traj = trajectory(np.int64(3), [0.5])
    assert type(traj.n_qubits) is int and type(traj.states[0].n_qubits) is int


def test_binomials_stop_where_floats_overflow():
    # C(1029, 514) is about 1.4e308, just below the largest float
    assert np.isfinite(binomials(1029)).all()
    assert binomials(1029)[514] == float(comb(1029, 514))
    with pytest.raises(ValueError, match="N=1030 is too large"):
        binomials(1030)


def test_bool_qubit_count_misses_the_bound_cache():
    # True == 1 and hash(True) == hash(1): an untyped cache would return N = 1's value
    population_bound(1, 0)
    with pytest.raises(ValueError, match="n_qubits must be a positive integer, got True"):
        population_bound(True, 0)


def test_rejected_qubit_count_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_qubits"):
        random_sds_params(2.0, rng)
    assert rng.bit_generator.state == before
