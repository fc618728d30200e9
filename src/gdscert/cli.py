"""Command-line front end: one subcommand per reproducible experiment.

Every CSV column header names the n0 index explicitly (``chi_n0_<k>``);
floats are printed with 17 significant digits so files round-trip exactly.
Monte-Carlo subcommands require an explicit --seed.
"""

from __future__ import annotations

import json
import os
import sys
from decimal import Decimal
from pathlib import Path

import click
import numpy as np

from . import decompose, ppt, superrad, volume
from .states import GDSState, binomials, check_tolerance, j_max

OUTDIR_ENV = "GDSCERT_OUTDIR"


def _csv(header, rows) -> str:
    """CSV text of ``header`` and ``rows``; a cell that is not a str is a
    number, printed with 17 significant digits, or None, printed as nan."""
    def cell(v):
        if isinstance(v, str):
            return v
        return "nan" if v is None else f"{float(v):.17g}"

    lines = [header] + [[cell(v) for v in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _trajectory(n_qubits: int, spec: str) -> superrad.Trajectory:
    """The cascade on the time grid ``spec``, min:max:points:lin|geom; every
    finite tau is a cascade time, and a huge one gives the ground state."""
    try:
        lo_s, hi_s, pts_s, kind = spec.split(":")
        lo, hi, pts = float(lo_s), float(hi_s), int(pts_s)
    except ValueError:
        raise click.UsageError(f"bad --tau spec {spec!r}; expected min:max:points:lin|geom")
    if pts < 1 or not np.isfinite([lo, hi]).all() or hi <= lo or lo < 0:
        raise click.UsageError(f"bad --tau range in {spec!r}")
    if kind not in ("lin", "geom"):
        raise click.UsageError(f"unknown grid spacing {kind!r} (use lin or geom)")
    if kind == "geom" and lo <= 0:
        raise click.UsageError("geometric grids need min > 0")
    grid = (np.linspace if kind == "lin" else np.geomspace)(lo, hi, pts)
    try:
        return superrad.trajectory(n_qubits, grid)
    except ValueError as exc:
        raise click.UsageError(f"cannot evaluate the cascade on {spec!r}: {exc}")


def _check_tol(ctx, param, value: float) -> float:
    try:
        check_tolerance(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))
    return value


def _check_binomials(n_qubits: int):
    """A usage error from N = 1030 on, where C(N, n) overflows floats."""
    try:
        binomials(n_qubits)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_state(chi_file: str, n_qubits: int | None) -> GDSState:
    """The state in ``chi_file``; its N must equal ``n_qubits`` unless that is None."""
    try:
        with open(chi_file) as fh:
            state = GDSState.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise click.UsageError(f"cannot read state from {chi_file}: {exc}")
    if n_qubits is not None and state.n_qubits != n_qubits:
        raise click.UsageError("--n disagrees with the state file")
    return state


def _tested_states(n_qubits, chi_file, tau_spec) -> list:
    """The (tau, state) pairs ``certify`` and ``ppt`` test: one pair with tau
    None for ``--chi-file``, the cascade's points for ``--superrad-tau``."""
    if (chi_file is None) == (tau_spec is None):
        raise click.UsageError("provide exactly one of --chi-file or --superrad-tau")
    if chi_file is not None:
        state = _load_state(chi_file, n_qubits)
        _check_binomials(state.n_qubits)
        return [(None, state)]
    if n_qubits is None:
        raise click.UsageError("--superrad-tau needs --n")
    _check_binomials(n_qubits)
    traj = _trajectory(n_qubits, tau_spec)
    return list(zip(traj.tau_grid, traj.states))


def _emit(out: str | None, text: str):
    """Write ``text`` to stdout, or to ``--out``: a relative path resolves against
    ``$GDSCERT_OUTDIR`` when that is set, and an unwritable path is a usage error."""
    if out is None:
        # Streams are passed explicitly: for a default stream, click caches a
        # wrapper that keeps every redirected sys.stdout (and all it holds)
        # alive, so each in-process call would leak its output.
        click.echo(text, nl=False, file=sys.stdout)
        return
    # an absolute ``out`` replaces the base
    path = Path(os.environ.get(OUTDIR_ENV, ""), out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


@click.group()
def main():
    """Separability certification for diagonal-symmetric qubit states."""


@main.command("superrad")
@click.option("--n", "n_qubits", type=click.IntRange(min=1), required=True,
              help="Number of qubits.")
@click.option("--tau", "tau_spec", default="1e-3:10:200:geom", show_default=True,
              help="Time grid as min:max:points:lin|geom.")
@click.option("--out", default=None, help="Output file (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def cmd_superrad(n_qubits, tau_spec, out, fmt):
    """Superradiant populations on a time grid (plot-ready data)."""
    traj = _trajectory(n_qubits, tau_spec)
    grid = traj.tau_grid
    if fmt == "csv":
        header = ["tau"] + [f"chi_n0_{k}" for k in range(n_qubits + 1)]
        rows = [[tau, *row] for tau, row in zip(grid, traj.populations_table())]
        _emit(out, _csv(header, rows))
    else:
        payload = [
            {"tau": float(tau), **s.to_json_dict()} for tau, s in zip(grid, traj.states)
        ]
        _emit(out, json.dumps(payload, indent=2) + "\n")


@main.command("certify")
@click.option("--n", "n_qubits", type=click.IntRange(min=1), default=None,
              help="Number of qubits.")
@click.option("--chi-file", default=None, help="JSON state file {'n':..,'chi':[..]}.")
@click.option("--superrad-tau", "tau_spec", default=None,
              help="Certify the superradiant sweep on this grid (min:max:points:lin|geom).")
@click.option("--tol", type=float, default=decompose.DEFAULT_EPSILON, show_default=True,
              callback=_check_tol, help="Residual and [0, 1] range tolerance.")
@click.option("--out", default=None, help="Output file (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True,
              help="Format of a --superrad-tau sweep; a --chi-file result is always JSON.")
def cmd_certify(n_qubits, chi_file, tau_spec, tol, out, fmt):
    """Certify separability of a state or a superradiant sweep."""
    results = [(tau, decompose.certify(state, epsilon=tol))
               for tau, state in _tested_states(n_qubits, chi_file, tau_spec)]
    if chi_file is not None:
        text = json.dumps(results[0][1].to_json_dict(), indent=2) + "\n"
    else:
        jm = j_max(n_qubits)
        rows = []
        for tau, result in results:
            # an uncertified point has no parameters: nan in CSV, null in JSON
            xs = ys = [None] * jm
            if result.certified:
                xs = result.certificate.weights.tolist()
                ys = result.certificate.amplitudes.tolist()
            rows.append((tau, xs, ys, result.verdict))
        if fmt == "csv":
            header = (["tau"] + [f"x_{j + 1}" for j in range(jm)]
                      + [f"y_{j + 1}" for j in range(jm)] + ["verdict"])
            text = _csv(header, [[tau, *xs, *ys, verdict] for tau, xs, ys, verdict in rows])
        else:
            payload = [{"tau": float(tau), "x": xs, "y": ys, "verdict": verdict}
                       for tau, xs, ys, verdict in rows]
            text = json.dumps(payload, indent=2) + "\n"
    _emit(out, text)
    sys.exit(0 if all(result.certified for _, result in results) else 1)


@main.command("ppt")
@click.option("--n", "n_qubits", type=click.IntRange(min=1), default=None,
              help="Number of qubits.")
@click.option("--chi-file", default=None, help="JSON state file.")
@click.option("--superrad-tau", "tau_spec", default=None,
              help="Test the superradiant sweep on this grid.")
@click.option("--tol", type=float, default=ppt.DEFAULT_EIG_TOL, show_default=True,
              callback=_check_tol)
@click.option("--out", default=None, help="Output file (default: stdout).")
def cmd_ppt(n_qubits, chi_file, tau_spec, tol, out):
    """Partial-transpose eigenvalue test of a state or a superradiant sweep."""
    taus, states = zip(*_tested_states(n_qubits, chi_file, tau_spec))
    n = states[0].n_qubits
    # the whole sweep in one call, where is_ppt would test one state per call
    mins = ppt.pt_min_eigenvalues(n, [state.populations for state in states])
    reports = [ppt.PptReport(n, tol, dict(enumerate(row, start=1))) for row in mins.tolist()]
    if chi_file is not None:
        payload = reports[0].to_json_dict()
    else:
        payload = [{"tau": float(tau), **report.to_json_dict()}
                   for tau, report in zip(taus, reports)]
    _emit(out, json.dumps(payload, indent=2) + "\n")
    sys.exit(0 if all(report.is_ppt for report in reports) else 1)


@main.command("volume")
@click.option("--estimator", type=click.Choice(["ppt", "sds-mc", "sds-formula", "gds"]),
              required=True)
@click.option("--n", "n_qubits", type=click.IntRange(min=1), required=True)
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="Monte-Carlo sample count.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="RNG seed (required for MC).")
@click.option("--out", default=None, help="Output file (default: stdout).")
def cmd_volume(estimator, n_qubits, samples, seed, out):
    """State-space volume estimates in the population metric."""
    if estimator in ("ppt", "sds-mc"):
        if seed is None:
            raise click.UsageError(f"--seed is mandatory for --estimator {estimator}")
        if samples is None:
            raise click.UsageError(f"--samples is mandatory for --estimator {estimator}")
        if estimator == "ppt":
            _check_binomials(n_qubits)
        mc = volume.ppt_gds_volume if estimator == "ppt" else volume.sds_volume_mc
        payload = mc(n_qubits, samples, seed).to_json_dict()
    else:
        exact = volume.sds_volume_formula if estimator == "sds-formula" else volume.gds_volume
        val = exact(n_qubits)
        # Decimal prints an int of any length; str(int) stops at 4300 digits
        exact_text = f"{Decimal(val.numerator)}/{Decimal(val.denominator)}"
        payload = {"mean": float(val), "exact": exact_text,
                   "method": volume.METHOD_ANALYTIC}
    _emit(out, json.dumps(payload, indent=2) + "\n")


@main.command("bound")
@click.option("--n", "n_qubits", type=click.IntRange(min=1), required=True)
@click.option("--chi-file", default=None, help="Optional state to check.")
@click.option("--out", default=None, help="Output file (default: stdout).")
def cmd_bound(n_qubits, chi_file, out):
    """Maximum separable population per level, plus an optional state check."""
    payload = {
        "bounds": [
            {"n0": n0, "max_separable": decompose.population_bound(n_qubits, n0)}
            for n0 in range(n_qubits + 1)
        ]
    }
    exit_code = 0
    if chi_file is not None:
        state = _load_state(chi_file, n_qubits)
        violations = decompose.check_population_bounds(state)
        payload["violations"] = [
            {"n0": n0, "chi": chi, "bound": bound} for n0, chi, bound in violations
        ]
        if violations:
            exit_code = 1
    _emit(out, json.dumps(payload, indent=2) + "\n")
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
