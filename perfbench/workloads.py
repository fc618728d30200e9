"""The four benchmark workloads, their timed passes and correctness gates.

Every workload does a fixed amount of work per pass, built from the seed
before timing starts, so passes repeat exactly and a pass's wall time is
comparable between commits.  Layer entry points are always reached through
their module attribute (``decompose.certify``, ``ppt.is_ppt``, ...), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

import numpy as np

from gdscert import cli, decompose, ppt, states, superrad, volume

CERT_TOL = 1e-9  # certificate reconstruction and [0, 1] range tolerance
PPT_MARGIN = 1e-8  # certify vs dense PPT disagreements inside this band are tolerated
TARGET_REL_SE = 1e-3  # relative standard error for mc_time_to_target_s
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it


@dataclass
class Pass:
    """Timings and outputs of one pass of a workload's fixed work."""

    wall_s: float
    verdict_latency_ms: np.ndarray  # one entry per verdict
    verdict_s: float  # seconds spent producing those verdicts
    samples: int  # input states or Monte-Carlo samples processed
    time_to_target_s: float
    outputs: list | None = field(repr=False)
    signature: list | None = field(default=None, repr=False)  # outputs that must repeat


def tail_percentile(n: int) -> float:
    """p99, or the highest percentile that leaves TAIL_BEYOND samples beyond it."""
    return min(99.0, 100.0 * (1.0 - TAIL_BEYOND / n))


def invoke_cli(args):
    """Run ``gdscert <args>`` in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="gdscert")
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


def reconstruct(n: int, xs, ys) -> np.ndarray:
    """chi[n0] = sum_j x_j C(N, n0) y_j^n0 (1 - y_j)^(N - n0), the forward map."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n0s = np.arange(n + 1)
    binoms = np.array([comb(n, k) for k in n0s], dtype=float)
    table = ys[None, :] ** n0s[:, None] * (1.0 - ys[None, :]) ** (n - n0s)[:, None]
    return binoms * (table @ xs)


def certificate_error(n: int, chi, xs, ys) -> str | None:
    """Why a certificate does not prove chi separable, or None if it does."""
    params = np.concatenate([xs, ys])
    if not np.all(np.isfinite(params)) or params.min() < 0.0 or params.max() > 1.0:
        return "parameter outside [0, 1]"
    err = float(np.max(np.abs(reconstruct(n, xs, ys) - chi)))
    if err > CERT_TOL:
        return f"reconstruction error {err:.3e}"
    return None


def check_result(n, chi, result, failures, label):
    if result.certified:
        cert = result.certificate
        why = certificate_error(n, chi, cert.weights, cert.amplitudes)
        if why is not None:
            failures.append(f"{label}: certificate {why}")


class SuperradSweep:
    """The paper's experiment through the CLI: certify and ppt for N = 2..10."""

    name = "superrad-sweep"
    ns = range(2, 11)
    certify_ns = range(2, 9)  # criterion 2: superradiance certifies for N <= 8

    def __init__(self, seed: int, smoke: bool):
        # the grid is deterministic: the seed does not change this workload's inputs.
        # Six points give 108 verdicts, so the tail percentile (p90.7) falls in
        # the BLAS-bound N = 9 ppt call, not on the noisy small N = 7 one.
        self.points = 1 if smoke else 6
        self.spec = f"1e-3:10:{self.points}:geom"
        self.calls = [(cmd, n) for n in self.ns for cmd in ("certify", "ppt")]

    def run_pass(self) -> Pass:
        outputs, latency = [], []
        t0 = perf_counter()
        for cmd, n in self.calls:
            c0 = perf_counter()
            code, text = invoke_cli([cmd, "--n", str(n), "--superrad-tau", self.spec])
            dt = perf_counter() - c0
            outputs.append((cmd, n, code, text))
            latency += [1e3 * dt / self.points] * self.points
        wall = perf_counter() - t0
        return Pass(wall, np.array(latency), wall, len(self.ns) * self.points, wall, outputs)

    def signature(self, p: Pass):
        return [(cmd, n, code, text) for cmd, n, code, text in p.outputs]

    def check(self, p: Pass):
        grid = np.geomspace(1e-3, 10, self.points)
        failures, wrong, exit_codes = [], 0, {}
        for cmd, n, code, text in p.outputs:
            exit_codes[f"{cmd}.n{n}"] = code
            traj = superrad.trajectory(n, grid)
            if cmd == "certify":
                rows = [line.split(",") for line in text.strip().splitlines()[1:]]
                jm = states.j_max(n)
                certified = [r[-1] == decompose.VERDICT_CERTIFIED for r in rows]
                for row, ok, st in zip(rows, certified, traj.states):
                    vals = [float(v) for v in row[1:-1]]
                    why = ok and certificate_error(n, st.populations, vals[:jm], vals[jm:])
                    if why:
                        failures.append(f"certify N={n} tau={row[0]}: {why}")
                all_certified = len(rows) == self.points and all(certified)
                if (code == 0) != all_certified:
                    failures.append(f"certify N={n}: exit code {code} disagrees with verdicts")
                if n in self.certify_ns:
                    wrong += self.points - sum(certified)
            else:
                rows = json.loads(text)
                all_ppt = len(rows) == self.points and all(r["ppt"] for r in rows)
                if (code == 0) != all_ppt:
                    failures.append(f"ppt N={n}: exit code {code} disagrees with verdicts")
                wrong += self.points - sum(r["ppt"] for r in rows)
        if wrong:
            failures.append(f"{wrong} wrong verdicts (criteria 2 and 3)")
        verdicts = 2 * len(self.ns) * self.points
        return failures, wrong, verdicts, {"exit_codes": exit_codes}


class CertifySep:
    """certify on states that are separable by construction, N up to 20."""

    name = "certify-sep"
    ns = (4, 8, 12, 16, 20)

    def __init__(self, seed: int, smoke: bool):
        per_n = 20 if smoke else 300
        self.states = []
        for n in self.ns:
            rng = np.random.default_rng([seed, n])
            self.states += [states.sds_populations(states.random_sds_params(n, rng))
                            for _ in range(per_n)]

    def run_pass(self) -> Pass:
        results, latency = [], []
        t0 = perf_counter()
        for st in self.states:
            c0 = perf_counter()
            results.append(decompose.certify(st))
            latency.append(perf_counter() - c0)
        wall = perf_counter() - t0
        return Pass(wall, 1e3 * np.array(latency), wall, len(self.states), wall, results)

    def signature(self, p: Pass):
        return [(r.verdict, r.reason) for r in p.outputs]

    def check(self, p: Pass):
        failures, not_certified = [], {}
        for st, res in zip(self.states, p.outputs):
            n = st.n_qubits
            check_result(n, st.populations, res, failures, f"N={n}")
            if not res.certified:
                key = f"n{n}.{res.reason}"
                not_certified[key] = not_certified.get(key, 0) + 1
        # a separable-by-construction state left uncertified is a wrong verdict
        # (a known solver defect at high N), not a broken gate
        wrong = sum(not_certified.values())
        return failures, wrong, len(self.states), {"not_certified": not_certified}


class CertifySimplex:
    """Bound check and certify on uniform simplex draws at N = 3, 4."""

    name = "certify-simplex"
    # unequal counts put the median latency inside the N = 4 group, not in the
    # gap between the N = 3 and N = 4 latency distributions
    draws = {3: 1000, 4: 3000}

    def __init__(self, seed: int, smoke: bool):
        scale = 20 if smoke else 1
        self.inputs = [(n, chi) for n, count in self.draws.items()
                       for chi in volume.sample_chis(n, np.random.default_rng([seed, n]),
                                                     count // scale)]

    def run_pass(self) -> Pass:
        outputs, latency = [], []
        t0 = perf_counter()
        for n, chi in self.inputs:
            c0 = perf_counter()
            st = states.GDSState(n, chi)
            violations = decompose.check_population_bounds(st)
            result = decompose.certify(st)
            latency.append(perf_counter() - c0)
            outputs.append((violations, result))
        wall = perf_counter() - t0
        return Pass(wall, 1e3 * np.array(latency), wall, len(self.inputs), wall, outputs)

    def signature(self, p: Pass):
        return [(len(v), r.verdict, r.reason) for v, r in p.outputs]

    def check(self, p: Pass):
        failures, hard, bound_certified = [], 0, 0
        reasons = {}
        for (n, chi), (violations, result) in zip(self.inputs, p.outputs):
            check_result(n, chi, result, failures, f"N={n}")
            key = decompose.VERDICT_CERTIFIED if result.certified else result.reason
            reasons[key] = reasons.get(key, 0) + 1
            if violations and result.certified:
                bound_certified += 1
            # dense PPT is the oracle: PPT equals separability for N <= 4
            report = ppt.is_ppt(states.GDSState(n, chi))
            if report.is_ppt != result.certified:
                margin = min(abs(v) for v in report.min_eigenvalues.values())
                hard += margin > PPT_MARGIN
        wrong = hard + bound_certified
        if hard:
            failures.append(f"{hard} hard disagreements with dense PPT")
        if bound_certified:
            failures.append(f"{bound_certified} bound-violating states certified")
        return failures, wrong, len(self.inputs), {"verdicts": reasons}


@dataclass(frozen=True)
class Estimator:
    label: str
    kind: str  # "ppt" or "sds"
    n: int
    samples: int
    seed: int


# Criterion 4 reference values at N = 4: published PPT volume (3808 +- 2)e-6
# and the exact separable volume 2/525.
PPT_N4_REF, PPT_N4_REF_ERR = 3808e-6, 2e-6


class McVolume:
    """PPT and separable Monte-Carlo volumes; N = 4 is gated by criterion 4."""

    name = "mc-volume"

    def __init__(self, seed: int, smoke: bool):
        scale = 10 if smoke else 1
        s6, s8 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        # the N = 4 estimators keep criterion 4's own seeds, so their 3-sigma
        # gates and standard errors do not depend on the run's seed
        self.estimators = [
            Estimator("ppt_n4", "ppt", 4, 50_000 // scale, 20260823),
            Estimator("ppt_n6", "ppt", 6, 2_000 // scale, s6),
            Estimator("sds_n4", "sds", 4, 1_000_000 // scale, 20260824),
            Estimator("sds_n8", "sds", 8, 1_000_000 // scale, s8),
        ]

    def run_pass(self) -> Pass:
        outputs = []
        t0 = perf_counter()
        for e in self.estimators:
            fn = volume.ppt_gds_volume if e.kind == "ppt" else volume.sds_volume_mc
            c0 = perf_counter()
            est = fn(e.n, e.samples, e.seed)
            outputs.append((e, est, perf_counter() - c0))
        wall = perf_counter() - t0
        # each PPT sample gets a verdict; spread the call's time over its samples
        ppt_calls = [(e.samples, dt) for e, _, dt in outputs if e.kind == "ppt"]
        latency = np.concatenate([np.full(m, 1e3 * dt / m) for m, dt in ppt_calls])
        to_target = sum(dt * (est.std_error / est.mean / TARGET_REL_SE) ** 2
                        for e, est, dt in outputs if e.n == 4)
        return Pass(wall, latency, sum(dt for _, dt in ppt_calls),
                    sum(e.samples for e in self.estimators), to_target, outputs)

    def signature(self, p: Pass):
        return [(est.mean, est.std_error) for _, est, _ in p.outputs]

    def check(self, p: Pass):
        failures, details = [], {}
        by_label = {e.label: est for e, est, _ in p.outputs}
        for e, est, dt in p.outputs:
            if est.n_samples != e.samples or not np.isfinite(est.mean):
                failures.append(f"{e.label}: bad estimate {est}")
            ref = float(volume.sds_volume_formula(e.n))
            z = (est.mean - ref) / est.std_error if est.std_error > 0 else None
            details[e.label] = {"mean": est.mean, "std_error": est.std_error,
                                "n_samples": est.n_samples, "seed": e.seed,
                                "formula": ref, "z_vs_formula": z, "seconds": dt}
        ppt4, sds4 = by_label["ppt_n4"], by_label["sds_n4"]
        bands = {
            "ppt_n4_vs_published": (abs(ppt4.mean - PPT_N4_REF),
                                    3 * np.hypot(ppt4.std_error, PPT_N4_REF_ERR)),
            "sds_n4_vs_formula": (abs(sds4.mean - float(volume.sds_volume_formula(4))),
                                  3 * sds4.std_error),
            "ppt_n4_vs_sds_n4": (abs(ppt4.mean - sds4.mean),
                                 3 * np.hypot(ppt4.std_error, sds4.std_error)),
        }
        for label, (dev, band) in bands.items():
            if not dev <= band:
                failures.append(f"criterion 4 band {label}: |dev| {dev:.3e} > {band:.3e}")
        details["bands"] = {k: {"deviation": d, "band_3sigma": b} for k, (d, b) in bands.items()}
        verdicts = sum(e.samples for e in self.estimators if e.kind == "ppt")
        # no single sample verdict can be checked; the estimators are gated instead
        return failures, 0, verdicts, details


WORKLOADS = {w.name: w for w in (SuperradSweep, CertifySep, CertifySimplex, McVolume)}
