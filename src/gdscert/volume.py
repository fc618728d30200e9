"""State-space volumes in the population-coordinate metric.

All volumes use the flat measure on the population simplex (an
unconventional metric chosen for tractability, not a canonical state-space
measure).  A Monte-Carlo estimator splits its samples into chunks of a
fixed size, and chunk i draws from the i-th child stream of the seed's
``SeedSequence``.  The chunk sizes and the seed therefore fix every sample,
so identical (seed, args) reproduce bit-identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from numbers import Integral

import numpy as np

# partial_transpose and ppt_pass_mask are re-exported: the traced benchmark
# run (perfbench/tracing.py) patches them here.
from .ppt import partial_transpose, ppt_pass_mask  # noqa: F401
from .states import GDSState, bernstein, j_max

METHOD_INDICATOR = "MC-indicator"
METHOD_JACOBIAN = "MC-jacobian"
METHOD_ANALYTIC = "analytic"

DEFAULT_CHUNK = 100_000


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo volume: the scaled sample mean and its standard error.

    ``seed`` is the caller's seed and ``method`` names the integrand
    (``METHOD_INDICATOR`` or ``METHOD_JACOBIAN``).
    """

    mean: float
    std_error: float
    n_samples: int
    seed: object
    method: str

    def to_json_dict(self) -> dict:
        seed = self.seed
        if seed is not None:
            seed = int(seed) if isinstance(seed, Integral) else str(seed)
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": seed,
            "method": self.method,
        }


def _mc_estimate(n_samples, chunk_size, seed, scale, method, draw) -> VolumeEstimate:
    """Mean and standard error of ``draw`` over ``n_samples`` samples, scaled.

    ``draw(rng, m)`` returns the integrand at m fresh samples.  Chunk i has
    ``chunk_size`` samples (the last one the remainder) and its own
    generator on stream i of ``SeedSequence(seed)``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    full, rem = divmod(n_samples, chunk_size)
    chunks = [chunk_size] * full + ([rem] if rem else [])
    acc_sum = acc_sumsq = 0.0
    for m, ss in zip(chunks, np.random.SeedSequence(seed).spawn(len(chunks))):
        values = draw(np.random.default_rng(ss), m)
        acc_sum += float(values.sum())
        acc_sumsq += float((values**2).sum())
    mean_raw = acc_sum / n_samples
    var_raw = max(acc_sumsq / n_samples - mean_raw**2, 0.0)
    return VolumeEstimate(
        mean=scale * mean_raw,
        std_error=scale * sqrt(var_raw / n_samples),
        n_samples=n_samples,
        seed=seed,
        method=method,
    )


def sample_chis(n_qubits: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, N+1) populations uniform on the standard simplex, via
    normalized exponential spacings."""
    e = rng.exponential(size=(size, n_qubits + 1))
    return e / e.sum(axis=1, keepdims=True)


def sample_gds_simplex(n_qubits: int, rng: np.random.Generator) -> GDSState:
    """One state drawn uniformly (flat population measure) from the simplex."""
    return GDSState(n_qubits=n_qubits, populations=sample_chis(n_qubits, rng, 1)[0])


def gds_volume(n_qubits: int) -> Fraction:
    """Volume of all GDS states in the population metric: 1/N!."""
    return Fraction(1, factorial(n_qubits))


def sds_volume_formula(n_qubits: int) -> Fraction:
    """Exact separable volume: prod_z z^(z-1) (z-1)!/(2z-1)!.

    Derivation.  A separable GDS state is a mixture of symmetric product
    states, so chi[n] = C(N, n) p_n with p_n = int y^n (1-y)^(N-n) dmu(y)
    for a probability measure mu on [0, 1].  Expanding (1-y)^(N-n) gives
    p_n = m_n + sum_{j>n} c_nj m_j in the power moments m_j = int y^j dmu,
    a unit-triangular linear map of (m_1..m_N) onto (p_1..p_N), and
    chi_n = C(N, n) p_n scales coordinate n by C(N, n).  The separable set
    is therefore the image of the moment space of [0, 1], whose volume is
    prod_{k=1..N} B(k, k) = prod ((k-1)!)^2 / (2k-1)! (Karlin & Shapley,
    Geometry of Moment Spaces, 1953), so its volume in (chi_1..chi_N) is

        prod_{k=1..N} C(N, k) * prod_{k=1..N} B(k, k).

    Collecting powers of each integer, both this and the product below
    equal (N!)^(N-1) / prod_z (2z-1)!.
    """
    out = Fraction(1)
    for z in range(1, n_qubits + 1):
        out *= Fraction(z ** (z - 1) * factorial(z - 1), factorial(2 * z - 1))
    return out


def ppt_gds_volume(n_qubits: int, n_samples: int, seed: int) -> VolumeEstimate:
    """Monte-Carlo volume of the PPT region of GDS states.

    Fraction of uniform simplex samples that ``ppt_pass_mask`` passes (the
    two middle-split Dicke blocks have lambda_min >= -DEFAULT_EIG_TOL, which
    decides PPT for every split), scaled by the simplex volume 1/N!.
    """
    def draw(rng, m):
        chis = sample_chis(n_qubits, rng, m)
        return ppt_pass_mask(n_qubits, chis).astype(float)

    # The chunk sizes fix which samples each per-chunk seed stream draws,
    # so changing this rule would change every estimate at N >= 5,
    # although the Dicke blocks need no memory bound.
    dim = 1 << n_qubits
    chunk_size = max(1_000, min(DEFAULT_CHUNK, (1 << 25) // (dim * dim)))
    return _mc_estimate(n_samples, chunk_size, seed, float(gds_volume(n_qubits)),
                        METHOD_INDICATOR, draw)


def jacobian_n4(x1, x2, y1, y2):
    """Closed-form change-of-variable density for N=4 (nonnegative by
    construction)."""
    return 96.0 * x1 * x2 * (1.0 - y1) ** 2 * (1.0 - y2) ** 2 * (y1 - y2) ** 4


def jacobian_general(n_qubits: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|det| of the map from mixture parameters to populations, batched.

    ``xs``: (m, j_max) full weight rows; ``ys``: (m, n_free) free amplitudes
    (the pinned y = 0 of even N excluded).  Rows of the Jacobian are
    derivatives with respect to every x_j and every free y_j; columns are
    the N+1 populations.

    d chi / d x_j is the Bernstein column b^N(y_j), and d chi / d y_j is
    x_j times d/dy b^N_n = N (b^(N-1)_(n-1) - b^(N-1)_n), with the
    out-of-range b^(N-1)_(-1) = b^(N-1)_N = 0.
    """
    n = n_qubits
    jm = j_max(n)
    n_free = ys.shape[1]
    m = xs.shape[0]
    y_full = np.concatenate([ys, np.zeros((m, jm - n_free))], axis=1)
    d_dy = -n * np.diff(bernstein(n - 1, ys), axis=1, prepend=0.0, append=0.0)

    jac = np.empty((m, n + 1, n + 1))
    jac[:, :jm, :] = bernstein(n, y_full).swapaxes(1, 2)
    jac[:, jm:, :] = xs[:, :n_free, None] * d_dy.swapaxes(1, 2)
    return np.abs(np.linalg.det(jac))


def sds_volume_mc(n_qubits: int, n_samples: int, seed: int) -> VolumeEstimate:
    """Monte-Carlo separable volume in mixture coordinates.

    Integrates the change-of-variable density over weights on the simplex
    and free amplitudes on the unit cube; a descending-weight indicator
    keeps the parameter-to-population map one-to-one.  Uses the closed-form
    density at N=4 and a numerical Jacobian determinant otherwise.
    """
    n = n_qubits
    jm = j_max(n)
    pinned = n % 2 == 0
    n_free = jm - 1 if pinned else jm

    def draw(rng, m):
        # the weight eliminated by the normalization constraint is the
        # pinned term's for even N and the last free one's for odd N
        x_sampled = rng.random((m, jm - 1))
        x_last = 1.0 - x_sampled.sum(axis=1)
        xs = np.concatenate([x_sampled, x_last[:, None]], axis=1)
        ys = rng.random((m, n_free))
        inside = x_last >= 0.0
        # one-to-one ordering over the interchangeable (x, y) pairs
        ordered = np.all(np.diff(xs[:, :n_free], axis=1) <= 0.0, axis=1)
        mask = inside & ordered
        values = np.zeros(m)
        if mask.any():
            if n == 4:
                values[mask] = jacobian_n4(
                    xs[mask, 0], xs[mask, 1], ys[mask, 0], ys[mask, 1]
                )
            else:
                values[mask] = jacobian_general(n, xs[mask], ys[mask])
        return values

    return _mc_estimate(n_samples, DEFAULT_CHUNK, seed, 1.0, METHOD_JACOBIAN, draw)
