"""The program attributes the benchmark's layer probe wraps still exist and
are still called.

``perfbench/layers.py`` counts calls by replacing ``invariant._smul``,
``algebra._smul`` and ``algebra._Context.mon_mul``/``left_x_mon`` by name.
A refactor that drops one of those names, or stops calling it, breaks the
benchmark's per-layer metrics; this test fails on it without running the
benchmark.  It only imports ``perfbench``, it changes nothing there.
"""

from pathlib import Path

from knotoidal import algebra, invariant, measure, rt
from knotoidal.diagram import fixtures
from knotoidal.series import Caps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_probe_counts_a_cold_evaluation_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerProbe
    from tracer import Tracer

    # empty tables, so that the evaluation fills them as a cold one does
    monkeypatch.setattr(algebra, "_CONTEXTS", {})
    monkeypatch.setattr(invariant, "_TABLES", {})
    owners = (invariant, algebra, algebra._Context, measure, rt)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer("test")
    probe = LayerProbe(tracer)
    probe.install()
    try:
        invariant.evaluate_Z(fixtures()["5_7"][1], Caps(1, 4))
    finally:
        tracer.restore()
    metrics = probe.metrics(cold_fill_s=0.0)
    assert metrics["algebra.mon_mul_calls"] > 0
    assert metrics["series.smul_calls.walk"] > 0
    assert [dict(vars(owner)) for owner in owners] == before
