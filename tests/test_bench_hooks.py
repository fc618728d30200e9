"""The traced benchmark run can still wrap every layer entry point.

``perfbench/tracing.py`` patches gdscert functions by module attribute
name, so deleting or renaming one of them (an unused-looking re-export,
say) would otherwise only show up as a crash of
``perfbench/run.py --trace 1``.
"""

from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
N_PATCHES = 18  # entry points wrapped by tracing.install, the CLI span included


def test_tracing_installs_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, SimpleNamespace(invoke_cli=lambda args: (0, "")))
        patched = list(tracer._patched)
        assert len(patched) == N_PATCHES
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
