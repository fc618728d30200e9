import numpy as np
import pytest
from scipy.linalg import expm

from gdscert import (
    closed_form_n4,
    closed_form_n8,
    evolve,
    generator,
    trajectory,
)


class TestGenerator:
    def test_n4_diagonal(self):
        mat = generator(4)
        np.testing.assert_allclose(np.diag(mat), [-4, -6, -6, -4, 0])

    def test_single_qubit(self):
        np.testing.assert_allclose(generator(1), [[-1, 0], [1, 0]])

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_column_sums_zero(self, n):
        assert np.abs(generator(n).sum(axis=0)).max() == 0.0

    def test_matrix_is_read_only_float(self):
        mat = generator(3)
        assert mat.dtype == np.float64
        assert not mat.flags.writeable

    def test_sign_structure(self):
        mat = generator(6)
        assert np.all(np.diag(mat) <= 0)
        off = mat - np.diag(np.diag(mat))
        assert np.all(off >= 0)


class TestEvolve:
    def test_initial_condition(self):
        for n in (1, 4, 7):
            chi = evolve(n, 0.0).populations
            assert chi[0] == pytest.approx(1.0, abs=1e-14)
            assert np.abs(chi[1:]).max() < 1e-14

    def test_excited_population_decay_rate(self):
        chi = evolve(4, 0.1).populations
        assert chi[0] == pytest.approx(0.670320046, abs=1e-9)
        assert chi[0] == pytest.approx(np.exp(-0.4), rel=1e-12)

    def test_long_time_ground_state(self):
        chi = evolve(4, 50.0).populations
        assert chi[-1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            evolve(3, -0.1)

    def test_semigroup(self):
        gen = generator(5)
        for t1, t2 in [(0.2, 0.7), (1.5, 0.05)]:
            direct = evolve(5, t1 + t2).populations
            stepped = expm(t2 * gen) @ evolve(5, t1).populations
            np.testing.assert_allclose(direct, stepped, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_conservation_and_positivity(self, n):
        for tau in np.geomspace(1e-3, 10, 25):
            chi = evolve(n, tau).populations
            assert abs(chi.sum() - 1.0) <= 1e-10
            assert chi.min() >= -1e-12


class TestClosedForms:
    def test_n4_initial(self):
        np.testing.assert_allclose(
            closed_form_n4(0.0).populations, [1, 0, 0, 0, 0], atol=1e-14
        )

    def test_n4_normalized(self):
        for tau in np.geomspace(1e-3, 10, 40):
            assert abs(closed_form_n4(tau).populations.sum() - 1.0) <= 1e-12

    def test_n4_matches_evolve(self):
        for tau in (0.05, 0.5, 1.7, 6.0):
            np.testing.assert_allclose(
                closed_form_n4(tau).populations,
                evolve(4, tau).populations,
                atol=1e-12,
            )

    def test_n8_initial(self):
        chi = closed_form_n8(0.0).populations
        assert chi[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(chi[1:]).max() < 1e-10

    def test_n8_normalized(self):
        for tau in np.linspace(0.0, 5.0, 26):
            assert abs(closed_form_n8(tau).populations.sum() - 1.0) <= 1e-9

    def test_n8_matches_evolve(self):
        for tau in (0.1, 0.3, 1.0, 4.0):
            np.testing.assert_allclose(
                closed_form_n8(tau).populations,
                evolve(8, tau).populations,
                atol=1e-9,
            )


class TestTrajectory:
    def test_ground_population_monotone(self):
        traj = trajectory(4, np.geomspace(1e-3, 10, 80))
        ground = traj.populations_table()[:, -1]
        assert np.all(np.diff(ground) >= -1e-12)

    def test_populations_in_unit_interval(self):
        table = trajectory(8, np.geomspace(1e-3, 10, 40)).populations_table()
        assert table.min() >= -1e-12 and table.max() <= 1.0 + 1e-12

    def test_peaks_fill_in_sequence(self):
        grid = np.geomspace(1e-3, 10, 400)
        table = trajectory(4, grid).populations_table()
        peaks = [grid[np.argmax(table[:, n0])] for n0 in (1, 2, 3)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_caller_grid_stays_writable(self):
        grid = np.array([0.1, 0.5])
        traj = trajectory(3, grid)
        grid[0] = 0.2
        assert traj.tau_grid[0] == 0.1
        assert not traj.tau_grid.flags.writeable

    @pytest.mark.parametrize("grid", [[np.nan], [0.1, np.inf]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="tau_grid"):
            trajectory(3, grid)

    def test_overflowing_propagator_raises_value_error(self):
        # tau * rate overflows to inf: the populations are not finite, which
        # is a ValueError, not a RuntimeWarning (an error under -W error)
        with pytest.raises(ValueError, match="finite"):
            trajectory(2, [1e308])

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            trajectory(3, [0.5, 0.2])
        with pytest.raises(ValueError):
            trajectory(3, [-1.0, 1.0])
        with pytest.raises(ValueError):
            trajectory(3, [])
