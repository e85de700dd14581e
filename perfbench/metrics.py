"""Metric names, units and bounds; ``BENCHMARK.json`` lists the same.

This module imports nothing from the program, so ``run.py`` can use it.
"""

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may get worse before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_op_s", "s", "lower", 0.25),
    ("warm_op_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# DegenerateDirection reasons raised by measure.project
REJECTION_SLUGS = {
    "segment parallel to view direction": "parallel_segment",
    "near-parallel segment overlap": "near_parallel_overlap",
    "crossing within tol of a vertex": "crossing_near_vertex",
    "depth tie at crossing": "depth_tie",
    "two crossings within tol (triple point)": "triple_point",
    "endpoint within tol of a strand": "endpoint_grazing",
    "projection folds back (cusp)": "cusp",
    "turning ambiguous at half rotation": "ambiguous_turning",
    "winding center on the path": "winding_center_on_path",
}
OTHER_REJECTION = "other"

PER_LAYER = [
    ("series.smul_calls.walk", "count", "lower"),
    ("series.smul_calls.rewrite", "count", "lower"),
    ("series.smul_s", "s", "lower"),
    ("algebra.mon_mul_calls", "count", "lower"),
    ("algebra.mon_mul_misses", "count", "lower"),
    ("algebra.mon_mul_hit_ratio", "ratio", "higher"),
    ("algebra.left_x_misses", "count", "lower"),
    ("algebra.mon_mul_s", "s", "lower"),
    ("algebra.cold_fill_s", "s", "lower"),
    ("invariant.evaluate_Z_calls", "count", "lower"),
    ("invariant.evaluate_Z_s", "s", "lower"),
    ("invariant.evaluate_Z_self_s", "s", "lower"),
    ("invariant.distinct_input_ratio", "ratio", "higher"),
    ("rt.rt_evaluate_s", "s", "lower"),
    ("rt.contract_s", "s", "lower"),
    ("measure.project_calls", "count", "lower"),
    ("measure.project_s", "s", "lower"),
    ("measure.project_ms_p50", "ms", "lower"),
    ("measure.project_ms_p99", "ms", "lower"),
    ("measure.crossings_per_sample", "count", "lower"),
    ("measure.simplify_s", "s", "lower"),
    ("measure.simplify_removed_ratio", "ratio", "higher"),
    *(
        (f"measure.rejected.{slug}", "count", "lower")
        for slug in [*REJECTION_SLUGS.values(), OTHER_REJECTION]
    ),
    ("trace_overhead_ratio", "ratio", "lower"),
]
