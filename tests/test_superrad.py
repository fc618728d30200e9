from decimal import Context, Decimal, localcontext

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
            assert chi.min() >= 0.0


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

    def test_huge_tau_gives_ground_state_exactly(self):
        # every intermediate entry lies in [0, 1], so nothing overflows and
        # every finite tau is a cascade time
        for n in (1, 2, 4, 10, 30):
            ground = np.zeros(n + 1)
            ground[-1] = 1.0
            table = trajectory(n, [1.0, 1e40, 1e308]).populations_table()
            np.testing.assert_array_equal(table[1:], [ground, ground])

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            trajectory(3, [0.5, 0.2])
        with pytest.raises(ValueError):
            trajectory(3, [-1.0, 1.0])
        with pytest.raises(ValueError):
            trajectory(3, [])


def decimal_cascade(n, tau):
    """Populations at tau to 40 digits, from the rates (n0+1)(N-n0) alone.

    With q the largest rate, P = I + G/q is stochastic and exp(tau G) e_0 is
    the Poisson mixture sum_k Pois(k; q tau) P^k e_0, whose terms are all
    nonnegative.  The sum runs over 2 q tau + N + 120 terms: a stop rule on
    the weight alone would cut off the top levels at small tau.
    """
    with localcontext(Context(prec=40, Emin=-10**8, Emax=10**8)):
        rates = [(n0 + 1) * (n - n0) for n0 in range(n + 1)]
        q = max(rates)
        lam = q * Decimal(float(tau))
        stay = [1 - Decimal(r) / q for r in rates]
        climb = [Decimal(r) / q for r in rates]
        vec = [Decimal(1)] + [Decimal(0)] * n
        weight = (-lam).exp()
        total = [weight * v for v in vec]
        for k in range(1, int(2 * lam) + n + 120):
            vec = [stay[0] * vec[0]] + [stay[i] * vec[i] + climb[i - 1] * vec[i - 1]
                                        for i in range(1, n + 1)]
            weight = weight * lam / k
            total = [t + weight * v for t, v in zip(total, vec)]
        return [float(t) for t in total]


class TestDecimalReference:
    GRID = np.sort(np.concatenate([np.geomspace(1e-3, 10, 12), [1e-6, 30.0, 100.0]]))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_40_digit_series(self, n):
        # tiny populations too: each is relatively accurate down to 1e-300
        table = trajectory(n, self.GRID).populations_table()
        ref = np.array([decimal_cascade(n, tau) for tau in self.GRID])
        err = np.abs(table - ref)
        assert err.max() <= 5e-15
        tracked = ref >= 1e-300
        assert (err[tracked] / ref[tracked]).max() <= 1e-13
