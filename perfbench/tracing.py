"""Spans and counts recorded from outside the gdscert package.

The traced run replaces public functions of each gdscert module with
wrappers that time the call and note what it computed.  Nothing inside
``src/`` is edited: the wrappers are installed on the module attributes the
package itself looks up at call time, and removed again afterwards.

A span's self time is its duration minus the time covered by the spans it
caused (its children), so summing self times over all layers never counts
an interval twice.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from gdscert import decompose, ppt, states, superrad, volume


class Tracer:
    """Aggregated spans (calls and self seconds, also per key) and counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.keyed_self_s = defaultdict(float)  # (span, key) -> self seconds
        self.counts = Counter()
        self._stack = []  # child seconds accumulated per open span
        self._patched = []

    def wrap(self, name, fn, key=None, after=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``key(args)`` names a sub-total the span's self time is also added to.

        ``after(tracer, args, kwargs, result)`` records counts from the call's
        arguments and result; it runs outside the span's timed interval.
        """

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if key is not None:
                    self.keyed_self_s[name, key(args)] += dt - child
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, key=None, after=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, key, after))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _by_n(args):
    return f"n{args[0].n_qubits}"


def _after_density(tracer, args, kwargs, rho):
    # the matrix itself plus one dense projector per nonzero Dicke level
    levels = int(np.count_nonzero(args[0].populations))
    tracer.counts["states.gds_density_matrix.bytes_computed"] += rho.nbytes * (1 + levels)


def _after_partial_transpose(tracer, args, kwargs, out):
    tracer.counts["ppt.dense_bytes_computed"] += out.nbytes


def _after_is_ppt(tracer, args, kwargs, report):
    dim = 1 << args[0].n_qubits
    solves = len(report.min_eigenvalues)
    tracer.counts["ppt.eigensolves"] += solves
    tracer.counts[f"ppt.eigensolves.d{dim}"] += solves
    tracer.counts["ppt.eig_ops_computed"] += solves * dim**3


def _after_certify(tracer, args, kwargs, result):
    reason = decompose.VERDICT_CERTIFIED if result.certified else result.reason
    tracer.counts[f"decompose.verdict.{reason}"] += 1


def _after_solve(tracer, args, kwargs, dec):
    tracer.counts["decompose.solves"] += 1
    tracer.counts["decompose.terms_used_sum"] += sum(1 for x, _ in dec.terms if x != 0)


def _after_pass_mask(tracer, args, kwargs, mask):
    n_qubits, chis = args[0], args[1]
    bases = kwargs.get("bases")
    n_bases = n_qubits // 2 if bases is None else len(bases)
    matrices = len(chis) * n_bases
    tracer.counts["volume.ppt_pass_mask.matrices"] += matrices
    tracer.counts["volume.ppt_pass_mask.eig_ops_computed"] += matrices * (1 << n_qubits) ** 3


def _after_jacobian(tracer, args, kwargs, values):
    tracer.counts["volume.sds_volume_mc.accepted"] += len(values)


def _after_sds_mc(tracer, args, kwargs, est):
    tracer.counts["volume.sds_volume_mc.drawn"] += est.n_samples


def install(tracer: Tracer, bench_module) -> None:
    """Wrap every layer entry point the workloads reach.

    A function imported by name into another module is wrapped there too,
    because that module's binding is what its callers look up.
    ``bench_module.invoke_cli`` is the benchmark's own in-process CLI call;
    its span is the ``cli`` layer.
    """
    p = tracer.patch
    # states: the dataclass __init__ is shared by every module's GDSState
    p(states.GDSState, "__init__", "states.GDSState")
    for owner in (states, ppt):
        p(owner, "gds_density_matrix", "states.gds_density_matrix", after=_after_density)
    p(superrad, "trajectory", "superrad.trajectory")
    p(decompose, "certify", "decompose.certify", key=_by_n, after=_after_certify)
    p(decompose, "solve_decomposition", "decompose.solve_decomposition", key=_by_n,
      after=_after_solve)
    p(decompose, "to_power_moments", "decompose.to_power_moments", key=_by_n)
    p(decompose, "check_population_bounds", "decompose.check_population_bounds")
    p(ppt, "is_ppt", "ppt.is_ppt", after=_after_is_ppt)
    for owner in (ppt, volume):
        p(owner, "partial_transpose", "ppt.partial_transpose", after=_after_partial_transpose)
    p(volume, "sample_chis", "volume.sample_chis")
    p(volume, "ppt_pass_mask", "volume.ppt_pass_mask", after=_after_pass_mask)
    p(volume, "jacobian_n4", "volume.jacobian_n4", after=_after_jacobian)
    p(volume, "jacobian_general", "volume.jacobian_general", after=_after_jacobian)
    p(volume, "ppt_gds_volume", "volume.ppt_gds_volume")
    p(volume, "sds_volume_mc", "volume.sds_volume_mc", after=_after_sds_mc)
    p(bench_module, "invoke_cli", "cli")


def layer_values(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics: self times, calls and counts divided by ``passes``."""
    out = {}
    for name in tracer.calls:
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.self_s"] = tracer.self_s[name] / passes
        out[f"{name}.self_ms"] = 1e3 * tracer.self_s[name] / passes
    for (name, key), seconds in tracer.keyed_self_s.items():
        out[f"{name}.self_ms.{key}"] = 1e3 * seconds / passes
    for name, value in tracer.counts.items():
        out[name] = value / passes
    solves = tracer.counts["decompose.solves"]
    out["decompose.terms_used"] = tracer.counts["decompose.terms_used_sum"] / solves if solves else 0.0
    drawn = tracer.counts["volume.sds_volume_mc.drawn"]
    out["volume.sds_volume_mc.accept_ratio"] = (
        tracer.counts["volume.sds_volume_mc.accepted"] / drawn if drawn else 0.0
    )
    return out
