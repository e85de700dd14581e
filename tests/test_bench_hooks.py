"""The program attributes the benchmark's layer probe wraps still exist and
are still called.

``perfbench/layers.py`` counts calls by replacing ``invariant._smul``,
``algebra._smul`` and ``algebra._Context.mon_mul``/``left_x_mon`` by name.
It also spans ``rt.rt_evaluate``, which ``rt.recovery_check`` must call
through the module attribute.  A refactor that drops one of those names, or
stops calling it, breaks the benchmark's per-layer metrics; these tests fail
on it without running the benchmark.  They only import ``perfbench``, they
change nothing there.
"""

from pathlib import Path

from knotoidal import algebra, invariant, measure, rt
from knotoidal.diagram import fixtures, parse_decomposition
from knotoidal.series import Caps, ScalarSeries

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


def test_layer_probe_spans_the_state_sum_of_a_recovery_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import LayerProbe
    from tracer import Tracer

    # the worked two-crossing knotoid with the 1-dimensional rep of acceptance 8
    caps = Caps(1, 3)
    zero = ScalarSeries.zero(caps)
    rho = {
        "a": [[ScalarSeries.one(caps)]],
        "b": [[ScalarSeries.term(caps, -1, 1, 0)]],
        "x": [[zero]],
        "y": [[zero]],
    }
    rep = rt.derive_rep(caps, rho)
    ev = rt.EndpointVectors([ScalarSeries.term(caps, 2)], [ScalarSeries.term(caps, 3)])
    example = parse_decomposition("labels 5; R+ 1 4; R+ 5 2; C- 3")
    before = dict(vars(rt))
    tracer = Tracer("test")
    probe = LayerProbe(tracer)
    probe.install()
    try:
        assert rt.recovery_check(example, rep, rho, ev).passed
    finally:
        tracer.restore()
    assert probe.metrics(cold_fill_s=0.0)["rt.rt_evaluate_s"] > 0
    assert dict(vars(rt)) == before
