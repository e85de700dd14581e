"""The mutation catalogue: one-edit mutants of the package, each with the
tier-1 test that must kill it.

Each entry names a file under the checkout, an ``old`` text, the ``new``
text that replaces it, and one tier-1 test, as pytest names it, that must
fail once the edit is made.  ``python3 mutants/run.py`` applies the entries
one at a time to a temporary copy of the checkout.

An entry is stale when its ``old`` text no longer occurs exactly once in
its file, or when its test no longer exists.  The runner reports a stale
entry as ``stale`` and fails, and ``tests/test_mutants.py`` fails on one in
tier-1, so a change that moves or rewrites the mutated code must also
update the entry: restate it on the new code, or delete it and say why.
A change that claims "mutation X fails test Y" adds the entry here.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    test: str


MEASURE = "src/knotoidal/measure.py"
DIAGRAM = "src/knotoidal/diagram.py"
INVARIANT = "src/knotoidal/invariant.py"
ALGEBRA = "src/knotoidal/algebra.py"
SERIES = "src/knotoidal/series.py"

CATALOGUE = [
    # zmean's integer sums
    Mutant(
        "zmean-drops-zero-totals",
        MEASURE,
        "for (_, h), total in sd.items()]",
        "for (_, h), total in sd.items() if total]",
        "tests/test_measure.py::test_zmean_keeps_a_component_whose_total_cancels",
    ),
    Mutant(
        "zmean-adds-each-reduced-key-once",
        MEASURE,
        "zsums[k] = zsums.get(k, 0) + count * c",
        "zsums[k] = zsums.get(k, 0) + c",
        "tests/test_measure.py::test_zmean_mean_is_the_fraction_sum_of_its_keys",
    ),
    Mutant(
        "zmean-eps-filter-widened",
        MEASURE,
        "if k % tables.S // (caps.hbar_order + 1) == 1:",
        "if k % tables.S // (caps.hbar_order + 1) <= 1:",
        "tests/test_measure.py::test_zmean_mean_is_the_fraction_sum_of_its_keys",
    ),
    Mutant(
        "key-takes-the-marks-of-the-wrong-pass",
        MEASURE,
        "for (c, role), m in zip(code.passes, marks)",
        "for (c, role), m in zip(code.passes, marks[1:] + marks[:1])",
        "tests/test_measure.py::test_projected_key_is_the_reference_walk_key",
    ),
    Mutant(
        "code-hash-follows-the-sign-order",
        DIAGRAM,
        "hash((self.passes, tuple(sorted(self.signs.items()))))",
        "hash((self.passes, tuple(self.signs.items())))",
        "tests/test_diagram.py::test_equal_codes_hash_equal_however_built",
    ),
    # keys
    Mutant(
        "walk-key-rho-first-less-second",
        DIAGRAM,
        "rhos.append(mark - first[crossing])",
        "rhos.append(first[crossing] - mark)",
        "tests/test_measure.py::test_projected_key_is_the_reference_walk_key",
    ),
    Mutant(
        "walk-key-slot-from-the-end",
        DIAGRAM,
        "slot = pending.index(crossing)",
        "slot = len(pending) - 1 - pending.index(crossing)",
        "tests/test_diagram.py::test_walk_and_key_match_the_reference_encoders",
    ),
    Mutant(
        "project-r-head-to-leg",
        MEASURE,
        "r = turns(lifted[0], lifted[-1])",
        "r = turns(lifted[-1], lifted[0])",
        "tests/test_measure.py::test_projected_key_is_the_reference_walk_key",
    ),
    Mutant(
        "project-crossing-sign-mirrored",
        MEASURE,
        "sign = 1 if (denom > 0) == over_first else -1",
        "sign = 1 if (denom < 0) == over_first else -1",
        "tests/test_project_digests.py::test_projections_match_the_pinned_digests",
    ),
    # project's sweep and guards
    Mutant(
        "sweep-keeps-one-order-of-a-pair",
        MEASURE,
        "(j > i + 1 or i > j + 1)",
        "j > i + 1",
        "tests/test_measure.py::test_project_matches_all_pairs",
    ),
    Mutant(
        "no-depth-tie-guard",
        MEASURE,
        "if abs(za - zb) < tol:",
        "if abs(za - zb) < 0:",
        "tests/test_measure.py::test_degenerate_reason",
    ),
    Mutant(
        "no-cusp-guard",
        MEASURE,
        "if min(lengths) < tol:",
        "if min(lengths) < 0:",
        "tests/test_measure.py::test_degenerate_reason",
    ),
    # project's fixed-cost fast paths
    Mutant(
        "basis-tie-goes-past-x",
        MEASURE,
        "if ax <= ay and ax <= az:",
        "if ax < ay and ax <= az:",
        "tests/test_measure.py::test_plane_basis_is_the_reference_on_ties",
    ),
    Mutant(
        "boxes-left-unsorted",
        MEASURE,
        "    boxes.sort()\n",
        "",
        "tests/test_measure.py::test_project_matches_all_pairs_on_trefoil",
    ),
    Mutant(
        "grazing-scan-ends-the-check",
        MEASURE,
        "if left > px:\n                break",
        "if left > px:\n                return",
        "tests/test_measure.py::test_head_grazing_is_checked_after_the_legs_scan_stops",
    ),
    Mutant(
        "triple-points-need-three-crossings",
        MEASURE,
        "if len(crossings) > 1:",
        "if len(crossings) > 2:",
        "tests/test_measure.py::test_two_crossings_within_tol_are_a_triple_point",
    ),
    # the sampler draws half of the sphere
    Mutant(
        "sampler-z-in-0-1",
        MEASURE,
        "z = 2.0 * _unit_float(rand64(seed, 2 * index)) - 1.0",
        "z = _unit_float(rand64(seed, 2 * index))",
        "tests/test_measure.py::test_estimate_golden_counts",
    ),
    Mutant(
        "sampler-theta-in-0-pi",
        MEASURE,
        "theta = 2.0 * math.pi * _unit_float(",
        "theta = math.pi * _unit_float(",
        "tests/test_measure.py::test_estimate_golden_counts",
    ),
    # the sampler over-weights the lower half of the sphere
    Mutant(
        "sampler-z-skewed-down",
        MEASURE,
        "z = 2.0 * _unit_float(rand64(seed, 2 * index)) - 1.0",
        "z = 2.0 * _unit_float(rand64(seed, 2 * index)) ** 2 - 1.0",
        "tests/test_measure.py::test_bracket_frequencies_are_within_four_sigma_of_cell_areas",
    ),
    # the simplifier
    Mutant(
        "simplify-seeds-no-kinks",
        MEASURE,
        "            seeds.append(p)\n",
        "            pass\n",
        "tests/test_measure.py::test_simplify_matches_rescanning_reference_on_projected_walks",
    ),
    Mutant(
        "simplify-seeds-need-three-meetings",
        MEASURE,
        "if len(junctions) > 1",
        "if len(junctions) > 2",
        "tests/test_measure.py::test_simplify_matches_rescanning_reference_on_projected_walks",
    ),
    Mutant(
        "bigon-needs-the-first-over-pass-first",
        MEASURE,
        "top = o1 if nxt[o1] == o2 else o2 if nxt[o2] == o1 else -1",
        "top = o1 if nxt[o1] == o2 else -1",
        "tests/test_measure.py::test_simplify_matches_rescanning_reference_on_projected_walks",
    ),
    Mutant(
        "knot-opens-before-pass-arc",
        MEASURE,
        "rotated = passes[arc + 1 :] + passes[: arc + 1]",
        "rotated = passes[arc:] + passes[:arc]",
        "tests/test_measure.py::test_trefoil_opens_at_the_gap_after_pass_arc",
    ),
    Mutant(
        "writhe-negated",
        DIAGRAM,
        "return sum(code.signs.values())",
        "return -sum(code.signs.values())",
        "tests/test_diagram.py::test_writhe_examples",
    ),
    # the walk
    Mutant(
        "left-factor-memo-without-budget",
        ALGEBRA,
        "key = (j1, k1, l1, i2, N)",
        "key = (j1, k1, l1, i2)",
        "tests/test_algebra.py::test_products_on_one_context_are_the_truncated_products",
    ),
    Mutant(
        "left-factor-memo-without-l1",
        ALGEBRA,
        "key = (j1, k1, l1, i2, N)",
        "key = (j1, k1, i2, N)",
        "tests/test_algebra.py::test_products_on_one_context_are_the_truncated_products",
    ),
    Mutant(
        "fill-drops-a-part-at-its-reach",
        INVARIANT,
        "if d > reach:",
        "if d >= reach:",
        "tests/test_invariant.py::test_walk_matches_fraction_walker_on_fixtures",
    ),
    Mutant(
        "cut-keeps-one-h-too-many",
        INVARIANT,
        "top, emax, shift = N1 - 1 - h + h0,",
        "top, emax, shift = N1 - h + h0,",
        "tests/test_invariant.py::test_cut_rows_are_their_full_rows_cut_on_fixtures",
    ),
    Mutant(
        "twist-by-minus-rho",
        INVARIANT,
        "plan.setdefault(at, []).append((slot, rho))",
        "plan.setdefault(at, []).append((slot, -rho))",
        "tests/test_invariant.py::test_walk_matches_fraction_walker_with_rotations_inside_crossings",
    ),
    # the reducer
    Mutant(
        "reducer-curl-at-minus-rho-star",
        INVARIANT,
        "if rho[c] == star:",
        "if rho[c] == -star:",
        "tests/test_reduce.py::test_reducing_keeps_the_value",
    ),
    Mutant(
        "reducer-reversed-bigon-rho-swapped",
        INVARIANT,
        "rho[c] - rho[d] == star",
        "rho[d] - rho[c] == star",
        "tests/test_reduce.py::test_the_reducer_deletes_exactly_the_bigons_that_are_rotations",
    ),
    # series
    Mutant(
        "smul-keeps-h-past-the-cap",
        SERIES,
        "if e > K or h > N:",
        "if e > K:",
        "tests/test_series.py::test_mul_matches_brute_force",
    ),
    Mutant(
        "power-sum-one-term-too-many",
        SERIES,
        "for c in islice(coeffs, K + N + 1):",
        "for c in islice(coeffs, K + N + 2):",
        "tests/test_series.py::test_power_sums_stop_after_k_plus_n_plus_one_terms",
    ),
]
