"""The program attributes a traced run wraps, and the per-layer metrics
computed from its spans and counters.

Wrapped attributes (each restored by ``Tracer.restore``):

* ``invariant._smul`` and ``algebra._smul``: counters and summed time.  The
  first binding is the walk's deposit-times-state products in
  ``evaluate_Z``; the second covers everything in ``algebra``: the
  rewriting tables, ``elem_mul``, and ``_eadd_into``, which scales every
  rewritten product the walk accumulates.
* ``algebra._Context.mon_mul`` and ``left_x_mon``: counters, memo misses
  and summed time.
* ``invariant.evaluate_Z``, ``rt.rt_evaluate``, ``measure.project`` and
  ``measure.simplify_gauss``: one span per call.  The benchmark adds its
  own spans around each operation and each ``rt.recovery_check``.
"""

from __future__ import annotations

import math

from knotoidal import algebra, invariant, measure, rt
from knotoidal.errors import DegenerateDirection
from metrics import OTHER_REJECTION, REJECTION_SLUGS


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 for an empty one."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Installs the wrappers on a tracer and turns what they saw into metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.z_inputs: set = set()

    def install(self) -> None:
        t = self.tracer
        t.patch(invariant, "_smul", t.kernel("smul.walk"))
        t.patch(algebra, "_smul", t.kernel("smul.rewrite"))
        t.patch(algebra._Context, "mon_mul", t.kernel("mon_mul", miss=lambda a: (a[1], a[2]) not in a[0].mul))
        t.patch(algebra._Context, "left_x_mon", t.kernel("left_x", miss=lambda a: a[1] not in a[0].left_x))
        t.patch(invariant, "evaluate_Z", t.spanned("invariant.evaluate_Z", self._after_evaluate))
        t.patch(rt, "rt_evaluate", t.spanned("rt.rt_evaluate"))
        t.patch(measure, "project", t.spanned("measure.project", self._after_project))
        t.patch(measure, "simplify_gauss", t.spanned("measure.simplify_gauss", self._after_simplify))

    def _after_evaluate(self, args, result, exc) -> None:
        self.z_inputs.add((args[0], args[1]))

    def _after_project(self, args, result, exc) -> None:
        counts = self.tracer.counts
        if isinstance(exc, DegenerateDirection):
            counts["rejected." + REJECTION_SLUGS.get(exc.args[0], OTHER_REJECTION)] += 1
        elif result is not None:
            counts["project.accepted"] += 1
            counts["project.crossings"] += len(result.code)

    def _after_simplify(self, args, result, exc) -> None:
        if result is not None:
            self.tracer.counts["simplify.in"] += len(args[0])
            self.tracer.counts["simplify.out"] += len(result)

    def metrics(self, cold_fill_s: float) -> dict[str, float]:
        t = self.tracer
        counts, kernel_s = t.counts, t.kernel_s
        z_spans = t.spans_named("invariant.evaluate_Z")
        project_s = sorted(sp.duration for sp in t.spans_named("measure.project"))
        out = {
            "series.smul_calls.walk": counts["smul.walk"],
            "series.smul_calls.rewrite": counts["smul.rewrite"],
            "series.smul_s": kernel_s["smul.walk"] + kernel_s["smul.rewrite"],
            "algebra.mon_mul_calls": counts["mon_mul"],
            "algebra.mon_mul_misses": counts["mon_mul.miss"],
            "algebra.mon_mul_hit_ratio": ratio(counts["mon_mul"] - counts["mon_mul.miss"], counts["mon_mul"]),
            "algebra.left_x_misses": counts["left_x.miss"],
            "algebra.mon_mul_s": kernel_s["mon_mul"],
            "algebra.cold_fill_s": cold_fill_s,
            "invariant.evaluate_Z_calls": len(z_spans),
            "invariant.evaluate_Z_s": t.total_s("invariant.evaluate_Z"),
            "invariant.evaluate_Z_self_s": t.total_s("invariant.evaluate_Z", own=True),
            "invariant.distinct_input_ratio": ratio(len(self.z_inputs), len(z_spans)),
            "rt.rt_evaluate_s": t.total_s("rt.rt_evaluate"),
            "rt.contract_s": t.total_s("rt.recovery_check", own=True),
            "measure.project_calls": len(project_s),
            "measure.project_s": sum(project_s, 0.0),
            "measure.project_ms_p50": 1e3 * percentile(project_s, 0.50),
            "measure.project_ms_p99": 1e3 * percentile(project_s, 0.99),
            "measure.crossings_per_sample": ratio(counts["project.crossings"], counts["project.accepted"]),
            "measure.simplify_s": t.total_s("measure.simplify_gauss"),
            "measure.simplify_removed_ratio": ratio(
                counts["simplify.in"] - counts["simplify.out"], counts["simplify.in"]
            ),
        }
        for slug in [*REJECTION_SLUGS.values(), OTHER_REJECTION]:
            out[f"measure.rejected.{slug}"] = counts["rejected." + slug]
        return out
