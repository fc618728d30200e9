"""State-space volumes in the population-coordinate metric.

All volumes use the flat measure on the population simplex (an
unconventional metric chosen for tractability, not a canonical state-space
measure).  Both Monte-Carlo estimators leave the partition of their samples
to ``_mc_estimate``: chunks of ``DEFAULT_CHUNK`` samples, chunk i drawn from
stream i of ``SeedSequence(seed)`` in slices of at most ``SLICE_ROWS`` rows.
The seed therefore fixes every sample, so identical (seed, args) reproduce
bit-identical numbers.

The PPT estimator draws ``sample_chis``'s populations bit for bit, but
rows last (``_sample_chis_rows_last``), so that ``ppt_pass_mask`` reads each
level as one contiguous row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, factorial, prod, sqrt

import numpy as np

# partial_transpose and ppt_pass_mask are re-exported: the traced benchmark
# run (perfbench/tracing.py) patches them here.
from .ppt import partial_transpose, ppt_pass_mask  # noqa: F401
from .states import _checked_int, j_max

METHOD_INDICATOR = "MC-indicator"
METHOD_JACOBIAN = "MC-jacobian"
METHOD_ANALYTIC = "analytic"

DEFAULT_CHUNK = 100_000
# rows an estimator draws and evaluates at once, so a slice stays in cache
SLICE_ROWS = 4096


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo volume: the scaled sample mean and its standard error.

    ``seed`` is the caller's seed and ``method`` names the integrand
    (``METHOD_INDICATOR`` or ``METHOD_JACOBIAN``).
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int
    method: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _mc_estimate(n_samples, seed, scale, method, draw) -> VolumeEstimate:
    """Mean and standard error of ``draw`` over ``n_samples`` samples, scaled.

    ``draw(rng, m)`` returns the integrand at m fresh samples (an indicator
    may return its bool mask).  Chunk i has ``DEFAULT_CHUNK`` samples (the
    last one the remainder) and its own generator on stream i of
    ``SeedSequence(seed)``, whatever the integrand and N.  Each chunk is
    drawn in slices of at most ``SLICE_ROWS`` samples from that one
    generator.  Both draws take row r of a slice from the r-th run of N + 1
    exponentials in that generator's stream, whether they store it row-major
    (``sample_chis``) or rows last (``_sample_chis_rows_last``), so they give
    the same rows sliced or whole, and an integrand of 0s and 1s, whose sums
    are exact, gives the same estimate either way.  A bool indicator is
    summed once, since it is its own square.  ``seed`` must be a
    nonnegative integer: None would draw fresh entropy.
    """
    n_samples = _checked_int(n_samples, "n_samples")
    seed = _checked_int(seed, "seed", minimum=0)
    full, rem = divmod(n_samples, DEFAULT_CHUNK)
    chunks = [DEFAULT_CHUNK] * full + ([rem] if rem else [])
    acc_sum = acc_sumsq = 0.0
    for m, ss in zip(chunks, np.random.SeedSequence(seed).spawn(len(chunks))):
        rng = np.random.default_rng(ss)
        for start in range(0, m, SLICE_ROWS):
            values = draw(rng, min(SLICE_ROWS, m - start))
            s = float(values.sum())
            acc_sum += s
            acc_sumsq += s if values.dtype == bool else float((values**2).sum())
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
    normalized exponential spacings.  N may be 0 (one weight of 1)."""
    n_qubits = _checked_int(n_qubits, minimum=0)
    size = _checked_int(size, "size", minimum=0)
    e = rng.standard_exponential(size=(size, n_qubits + 1))
    e /= e.sum(axis=1, keepdims=True)
    return e


def _sample_chis_rows_last(n_qubits: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``sample_chis(n_qubits, rng, size)`` bit for bit, stored rows last.

    The same exponentials in the same stream order are copied to one
    contiguous row per level, summed by ``_pairwise_row_sum`` and divided in
    place.  The result is the F-ordered (size, N+1) view of that (N+1, size)
    array, so a consumer that reads ``chis.T`` (``ppt_pass_mask``) reads
    contiguous rows.
    """
    e = rng.standard_exponential(size=(size, n_qubits + 1))
    t = e.T.copy()
    t /= _pairwise_row_sum(t)
    return t.T


def _pairwise_row_sum(t: np.ndarray) -> np.ndarray:
    """The m column sums of a (k, m) array, each added in the order numpy's
    pairwise summation adds k contiguous terms, so they equal
    ``e.sum(axis=1)`` of the row-major (m, k) batch ``e`` that ``t``
    transposes, bit for bit: a left fold below 8 terms, eight running sums
    combined as a tree up to 128, and above that two halves split at a
    multiple of 8 (``tests/test_volume.py`` checks the equality for 1..300
    terms)."""
    k = len(t)
    if k < 8:
        s = t[0].copy()
        for row in t[1:]:
            s += row
        return s
    if k <= 128:
        r = t[:8].copy()
        end = k - k % 8
        for i in range(8, end, 8):
            r += t[i:i + 8]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in t[end:]:
            s += row
        return s
    half = k // 2 - (k // 2) % 8
    return _pairwise_row_sum(t[:half]) + _pairwise_row_sum(t[half:])


def gds_volume(n_qubits: int) -> Fraction:
    """Volume of all GDS states in the population metric: 1/N!."""
    return Fraction(1, factorial(_checked_int(n_qubits)))


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
    for z in range(1, _checked_int(n_qubits) + 1):
        out *= Fraction(z ** (z - 1) * factorial(z - 1), factorial(2 * z - 1))
    return out


def ppt_gds_volume(n_qubits: int, n_samples: int, seed: int) -> VolumeEstimate:
    """Monte-Carlo volume of the PPT region of GDS states.

    Fraction of uniform simplex samples that ``ppt_pass_mask`` passes (the
    two middle-split Dicke blocks have lambda_min >= -DEFAULT_EIG_TOL, which
    decides PPT for every split), scaled by the simplex volume 1/N!.  The
    samples are ``sample_chis``'s, drawn rows last.
    """
    n_qubits = _checked_int(n_qubits)

    def draw(rng, m):
        return ppt_pass_mask(n_qubits, _sample_chis_rows_last(n_qubits, rng, m))

    return _mc_estimate(n_samples, seed, float(gds_volume(n_qubits)), METHOD_INDICATOR, draw)


def jacobian_n4(x1, x2, y1, y2):
    """Closed-form change-of-variable density for N=4 (nonnegative by
    construction)."""
    return 96.0 * x1 * x2 * (1.0 - y1) ** 2 * (1.0 - y2) ** 2 * (y1 - y2) ** 4


def jacobian_general(n_qubits: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|det J| of the map from mixture parameters to populations, batched.

    ``xs``: (m, j_max) full weight rows; ``ys``: (m, n_free) free amplitudes
    (the pinned y = 0 of even N excluded), all in [0, 1].  J has one column
    per parameter: d chi / d x_j is the Bernstein column b^N(y_j), and
    d chi / d y_j is x_j d/dy b^N(y_j).

    Closed form (Karlin & Studden, Tchebycheff Systems, 1966).  Since
    b^N_k(y) = C(N, k) y^k (1 - y)^(N - k) = C(N, k) (y^k + higher powers),
    the change from the monomial to the Bernstein basis is triangular with
    diagonal C(N, k).  In the monomial basis the columns b(y_j) and
    d/dy b(y_j) form a confluent Vandermonde matrix: every free node y_j is
    doubled, and the pinned y = 0 of even N is a single node.  Its
    determinant is the product over node pairs of their difference to the
    power of the product of their multiplicities, so

        |det J| = C_N prod_j x_j prod_{i<j} (y_i - y_j)^4 [N even] prod_j y_j^2

    with C_N = prod_{k=0..N} C(N, k) and i, j over the free terms.

    C_N passes the float range at N = 40, and the product of the data
    factors can underflow where |det J| is still a normal float, so C_N is
    applied last, by ``ldexp``, and a row whose data product is not a normal
    float is evaluated again with its exponent kept apart.  The result is 0
    or subnormal only where the exact value is.
    """
    c = prod(comb(n_qubits, k) for k in range(n_qubits + 1))
    # C_N = c_scaled * 2^shift with c_scaled < 2^1000, so that c_scaled times
    # a number in [0, 1] cannot overflow
    shift = max(c.bit_length() - 1000, 0)
    c_scaled = c / (1 << shift)
    g = np.ones(len(xs))
    for f, k in _density_factors(n_qubits, xs, ys):
        for _ in range(k):
            g *= f
    out = np.ldexp(g * c_scaled, shift)
    # every factor is in [0, 1], so a normal g met no underflow on the way
    low = g < np.finfo(float).tiny
    if low.any():
        mant = np.ones(low.sum())
        exps = np.zeros(low.sum(), dtype=np.int64)
        for f, k in _density_factors(n_qubits, xs[low], ys[low]):
            m, e = np.frexp(f)
            for _ in range(k):
                mant *= m
            mant, e_mant = np.frexp(mant)
            exps += k * e + e_mant
        out[low] = np.ldexp(mant * c_scaled, exps + shift)
    return out


def _density_factors(n_qubits: int, xs: np.ndarray, ys: np.ndarray):
    """The data factors of ``jacobian_general`` as (row values, power) pairs;
    each value raised to its power lies in [0, 1]."""
    n_free = ys.shape[1]
    y = np.asarray(ys, dtype=float).T.copy()  # one contiguous row per amplitude
    for j in range(n_free):
        yield xs[:, j], 1
    if n_qubits % 2 == 0:
        for row in y:
            yield row, 2
    for i in range(n_free - 1):
        for row in y[i] - y[i + 1:]:
            yield row, 4


def sds_volume_mc(n_qubits: int, n_samples: int, seed: int) -> VolumeEstimate:
    """Monte-Carlo separable volume in mixture coordinates.

    Integrates the change-of-variable density ``jacobian_general`` over the
    j_max weights on the simplex and the free amplitudes on the unit cube.
    The weights are drawn uniformly on the simplex (``sample_chis``), whose
    density in the j_max - 1 independent weights is (j_max - 1)!.  The
    density is symmetric in the n_free interchangeable (x_j, y_j) pairs, so
    the parameter-to-population map covers each separable state n_free!
    times; every row is evaluated and the sample mean is scaled by
    1/((j_max - 1)! n_free!).

    At even N the integrand is averaged over the reflection y -> 1 - y of
    the free amplitudes, which maps the cube onto itself (it relabels
    |0> <-> |1>), so the integral is unchanged and the variance falls.  At
    odd N the density depends on the amplitudes only through their
    differences, so the reflection would change nothing.

    From N of about 20 the density is heavy-tailed: almost all of the
    integral sits in rare rows, so the estimate falls far below
    ``sds_volume_formula`` and its standard error understates the error.
    """
    n = _checked_int(n_qubits)
    jm = j_max(n)
    n_free = jm - 1 if n % 2 == 0 else jm

    def draw(rng, m):
        xs = sample_chis(jm - 1, rng, m)
        ys = rng.random((m, n_free))
        values = jacobian_general(n, xs, ys)
        if n % 2 == 0:
            values += jacobian_general(n, xs, 1.0 - ys)
            values *= 0.5
        return values

    return _mc_estimate(n_samples, seed, 1 / (factorial(jm - 1) * factorial(n_free)),
                        METHOD_JACOBIAN, draw)
