"""Command-line front end: one subcommand per reproducible experiment.

Every CSV column header names the n0 index explicitly (``chi_n0_<k>``);
floats are printed with 17 significant digits so files round-trip exactly.
Monte-Carlo subcommands require an explicit --seed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import decompose, ppt, superrad, volume
from .states import GDSState, j_max

OUTDIR_ENV = "GDSCERT_OUTDIR"


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get(OUTDIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_tau_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, pts_s, kind = spec.split(":")
        lo, hi, pts = float(lo_s), float(hi_s), int(pts_s)
    except ValueError:
        raise click.UsageError(
            f"bad --tau spec {spec!r}; expected min:max:points:lin|geom"
        )
    if pts < 1 or not np.isfinite([lo, hi]).all() or hi <= lo or lo < 0:
        raise click.UsageError(f"bad --tau range in {spec!r}")
    if kind == "lin":
        return np.linspace(lo, hi, pts)
    if kind == "geom":
        if lo <= 0:
            raise click.UsageError("geometric grids need min > 0")
        return np.geomspace(lo, hi, pts)
    raise click.UsageError(f"unknown grid spacing {kind!r} (use lin or geom)")


def _check_tol(ctx, param, value: float) -> float:
    # NaN compares False with everything, so it would pass every verdict check
    if not 0.0 <= value < np.inf:
        raise click.BadParameter(f"must be finite and >= 0, got {value!r}")
    return value


def _load_state(chi_file: str) -> GDSState:
    try:
        with open(chi_file) as fh:
            obj = json.load(fh)
        return GDSState.from_json_dict(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"cannot read state from {chi_file}: {exc}")


def _emit(path: Path | None, text: str):
    # Streams are passed explicitly: for a default stream, click caches a
    # wrapper that keeps every redirected sys.stdout (and all it holds)
    # alive, so each in-process call would leak its output.
    if path is None:
        click.echo(text, nl=False, file=sys.stdout)
    else:
        path.write_text(text)


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
    grid = _parse_tau_grid(tau_spec)
    traj = superrad.trajectory(n_qubits, grid)
    table = traj.populations_table()
    drift = float(np.max(np.abs(table.sum(axis=1) - 1.0)))
    if drift > 1e-9:
        click.echo(f"normalization drift {drift:.3e} exceeds 1e-9", file=sys.stderr)
        sys.exit(1)
    if fmt == "csv":
        header = ["tau"] + [f"chi_n0_{k}" for k in range(n_qubits + 1)]
        lines = [",".join(header)]
        for tau, row in zip(grid, table):
            lines.append(",".join([_fmt(tau)] + [_fmt(v) for v in row]))
        _emit(_resolve_out(out), "\n".join(lines) + "\n")
    else:
        payload = [
            {"tau": float(tau), **s.to_json_dict()} for tau, s in zip(grid, traj.states)
        ]
        _emit(_resolve_out(out), json.dumps(payload, indent=2) + "\n")


def _certify_caveat(n_qubits: int):
    if n_qubits >= 5:
        click.echo(
            f"note: for N={n_qubits} >= 5 a NotCertified verdict is not a proof "
            "of entanglement (criterion completeness is conjectural)",
            file=sys.stderr,
        )


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
              show_default=True)
def cmd_certify(n_qubits, chi_file, tau_spec, tol, out, fmt):
    """Certify separability of a state or a superradiant sweep."""
    if (chi_file is None) == (tau_spec is None):
        raise click.UsageError("provide exactly one of --chi-file or --superrad-tau")
    if chi_file is not None:
        state = _load_state(chi_file)
        _certify_caveat(state.n_qubits)
        result = decompose.certify(state, epsilon=tol)
        _emit(_resolve_out(out), json.dumps(result.to_json_dict(), indent=2) + "\n")
        sys.exit(0 if result.certified else 1)

    if n_qubits is None:
        raise click.UsageError("--superrad-tau needs --n")
    _certify_caveat(n_qubits)
    grid = _parse_tau_grid(tau_spec)
    jm = j_max(n_qubits)
    rows = []
    all_ok = True
    for tau, state in zip(grid, superrad.trajectory(n_qubits, grid).states):
        result = decompose.certify(state, epsilon=tol)
        all_ok &= result.certified
        if result.certified:
            xs = result.certificate.weights
            ys = result.certificate.amplitudes
        else:
            xs = ys = [float("nan")] * jm
        rows.append((tau, xs, ys, result.verdict))
    if fmt == "csv":
        header = (["tau"] + [f"x_{j + 1}" for j in range(jm)]
                  + [f"y_{j + 1}" for j in range(jm)] + ["verdict"])
        lines = [",".join(header)]
        for tau, xs, ys, verdict in rows:
            lines.append(",".join(
                [_fmt(tau)] + [_fmt(v) for v in xs] + [_fmt(v) for v in ys] + [verdict]
            ))
        _emit(_resolve_out(out), "\n".join(lines) + "\n")
    else:
        payload = [
            {"tau": float(tau), "x": [float(v) for v in xs],
             "y": [float(v) for v in ys], "verdict": verdict}
            for tau, xs, ys, verdict in rows
        ]
        _emit(_resolve_out(out), json.dumps(payload, indent=2) + "\n")
    sys.exit(0 if all_ok else 1)


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
    if (chi_file is None) == (tau_spec is None):
        raise click.UsageError("provide exactly one of --chi-file or --superrad-tau")
    if chi_file is not None:
        report = ppt.is_ppt(_load_state(chi_file), tol=tol)
        _emit(_resolve_out(out), json.dumps(report.to_json_dict(), indent=2) + "\n")
        sys.exit(0 if report.is_ppt else 1)
    if n_qubits is None:
        raise click.UsageError("--superrad-tau needs --n")
    grid = _parse_tau_grid(tau_spec)
    payload = []
    all_ok = True
    for tau, state in zip(grid, superrad.trajectory(n_qubits, grid).states):
        report = ppt.is_ppt(state, tol=tol)
        all_ok &= report.is_ppt
        payload.append({"tau": float(tau), **report.to_json_dict()})
    _emit(_resolve_out(out), json.dumps(payload, indent=2) + "\n")
    sys.exit(0 if all_ok else 1)


@main.command("volume")
@click.option("--estimator", type=click.Choice(["ppt", "sds-mc", "sds-formula", "gds"]),
              required=True)
@click.option("--n", "n_qubits", type=click.IntRange(min=1), required=True)
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="Monte-Carlo sample count.")
@click.option("--seed", type=int, default=None, help="RNG seed (required for MC).")
@click.option("--out", default=None, help="Output file (default: stdout).")
def cmd_volume(estimator, n_qubits, samples, seed, out):
    """State-space volume estimates in the population metric."""
    if estimator in ("ppt", "sds-mc"):
        if seed is None:
            raise click.UsageError(f"--seed is mandatory for --estimator {estimator}")
        if samples is None:
            raise click.UsageError(f"--samples is mandatory for --estimator {estimator}")
        if estimator == "ppt":
            est = volume.ppt_gds_volume(n_qubits, samples, seed)
        else:
            est = volume.sds_volume_mc(n_qubits, samples, seed)
        payload = est.to_json_dict()
    else:
        exact = volume.sds_volume_formula if estimator == "sds-formula" else volume.gds_volume
        val = exact(n_qubits)
        payload = {"mean": float(val), "exact": f"{val.numerator}/{val.denominator}",
                   "method": volume.METHOD_ANALYTIC}
    _emit(_resolve_out(out), json.dumps(payload, indent=2) + "\n")


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
        state = _load_state(chi_file)
        if state.n_qubits != n_qubits:
            raise click.UsageError("--n disagrees with the state file")
        violations = decompose.check_population_bounds(state)
        payload["violations"] = [
            {"n0": n0, "chi": chi, "bound": bound} for n0, chi, bound in violations
        ]
        if violations:
            exit_code = 1
    _emit(_resolve_out(out), json.dumps(payload, indent=2) + "\n")
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
