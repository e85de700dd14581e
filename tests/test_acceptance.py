"""Acceptance suite: one check per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6e (rotation elements central) is implemented exactly as stated and
is expected to fail at eps order 1: the rotation element is group-like but
conjugation by it scales the x and y generators by q^(-1) and q, so it is
central only in the eps-degree-0 quotient.  See the repository notes for the
analysis; the assertion is kept faithful rather than weakened.
"""

import random
import statistics
import time
from fractions import Fraction

import pytest

import conftest
from conftest import random_element
from knotoidal.algebra import (
    DElement,
    DTensor,
    antipode,
    r_inverse,
    r_matrix,
    rotation_element,
)
from knotoidal.diagram import (
    chain_decompositions,
    fixtures,
    parse_decomposition,
    reverse_decomposition,
    table_rows,
    writhe,
)
from knotoidal.invariant import compare, evaluate_Z
from knotoidal.measure import (
    OpenCurve3D,
    TRIVIAL_CLASS,
    builtin_curve_path,
    estimate_measure,
    load_curve,
)
from knotoidal.rt import EndpointVectors, derive_rep, recovery_check
from knotoidal.series import Caps, ScalarSeries

from algebra_reference import yang_baxter_holds
from measure_reference import perturbed

FIXTURE_NAMES = ("5_7", "5_421", "5_9", "5_561", "5_12", "5_593")


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


@pytest.fixture(scope="module")
def decomps():
    return {name: decomp for name, (_, decomp) in fixtures().items()}


@pytest.fixture(scope="module")
def values_16(decomps):
    caps = Caps(1, 6)
    out = {}
    for name in FIXTURE_NAMES:
        out[name] = evaluate_Z(decomps[name], caps)
    for name in ("5_9", "5_12"):
        out["rev_" + name] = evaluate_Z(reverse_decomposition(decomps[name]), caps)
    return out


@pytest.fixture(scope="module")
def values_14(decomps):
    caps = Caps(1, 4)
    out = {}
    for name in FIXTURE_NAMES:
        out[name] = evaluate_Z(decomps[name], caps)
        out["rev_" + name] = evaluate_Z(reverse_decomposition(decomps[name]), caps)
    return out


def test_criterion_1_distinguishing_pairs(decomps):
    """Both previously unresolved pairs split, including under reversal."""
    verdicts = {}
    timings = {}
    for hbar_cap in (6, 8, 10):
        caps = Caps(1, hbar_cap)
        start = time.perf_counter()
        distinct = True
        for first, second in (("5_9", "5_561"), ("5_12", "5_593")):
            za = evaluate_Z(decomps[first], caps)
            zb = evaluate_Z(decomps[second], caps)
            zra = evaluate_Z(reverse_decomposition(decomps[first]), caps)
            verdicts[(first, second)] = compare(za, zb)
            verdicts[("rev " + first, second)] = compare(zra, zb)
            distinct = distinct and not verdicts[(first, second)].equal
            distinct = distinct and not verdicts[("rev " + first, second)].equal
        timings[hbar_cap] = time.perf_counter() - start
        if distinct:
            break
    detail = "; ".join(f"{a} vs {b}: {c.describe()}" for (a, b), c in verdicts.items())
    report(
        "1",
        all(not c.equal for c in verdicts.values()),
        f"hbar cap {hbar_cap}, {timings[hbar_cap]:.1f}s total; {detail}",
    )


def test_criterion_2_undistinguished_pair(values_16):
    verdict = compare(values_16["5_7"], values_16["5_421"])
    report("2", verdict.equal, "5_7 vs 5_421 at caps (1,6): " + verdict.describe())


def test_criterion_3_eps_structure_of_difference(values_16):
    eps0_equal = values_16["5_12"].element.epsilon_part(0) == values_16[
        "5_593"
    ].element.epsilon_part(0)
    eps1_differ = values_16["5_12"].element.epsilon_part(1) != values_16[
        "5_593"
    ].element.epsilon_part(1)
    report(
        "3",
        eps0_equal and eps1_differ,
        f"eps^0 equal: {eps0_equal}, eps^1 differ: {eps1_differ}",
    )


def test_criterion_4_reversal_law(values_14):
    failures = [
        name
        for name in FIXTURE_NAMES
        if values_14["rev_" + name].element != antipode(values_14[name].element)
    ]
    report("4", not failures, f"caps (1,4), failures: {failures or 'none'}")


def test_criterion_5_antipode_squared_fixes_values(values_14):
    failures = [
        name
        for name in FIXTURE_NAMES
        if antipode(antipode(values_14[name].element)) != values_14[name].element
    ]
    report("5", not failures, f"caps (1,4), failures: {failures or 'none'}")


def test_criterion_6a_yang_baxter():
    report("6a", yang_baxter_holds(Caps(1, 3)), "caps (1,3), exact")


def test_criterion_6b_r_matrix_inverse():
    caps = Caps(1, 6)
    ok = (
        r_matrix(caps) * r_inverse(caps) == DTensor.unit(caps)
        and r_inverse(caps) * r_matrix(caps) == DTensor.unit(caps)
    )
    report("6b", ok, "caps (1,6), exact")


def test_criterion_6c_associativity_and_unit():
    caps = Caps(1, 4)
    rng = random.Random(2024)
    elements = [random_element(rng, caps) for _ in range(200)]
    one = DElement.unit(caps)
    ok = True
    for idx, element in enumerate(elements):
        if one * element != element or element * one != element:
            ok = False
            break
        u = element
        v = elements[(idx + 1) % len(elements)]
        w = elements[(idx + 2) % len(elements)]
        if (u * v) * w != u * (v * w):
            ok = False
            break
    report("6c", ok, "200 random low-degree elements at caps (1,4), exact")


def test_criterion_6d_rotation_elements_mutually_inverse():
    caps = Caps(1, 6)
    one = DElement.unit(caps)
    ok = (
        rotation_element(1, caps) * rotation_element(-1, caps) == one
        and rotation_element(-1, caps) * rotation_element(1, caps) == one
    )
    report("6d", ok, "caps (1,6), exact")


def test_criterion_6e_rotation_elements_central():
    # Faithful to the stated criterion.  This cannot hold at eps order >= 1:
    # the defining relations give [a,x] = x and [b,x] = eps*x, so conjugation
    # by exp(+-(eps*hbar*a + hbar*b)/2) scales x and y by q^(-+1); the
    # commutators vanish only at eps order 0.
    caps = Caps(1, 3)
    rot = rotation_element(1, caps)
    commutators = {
        name: rot * DElement.generator(caps, name)
        - DElement.generator(caps, name) * rot
        for name in "ybax"
    }
    central = all(c.is_zero() for c in commutators.values())
    witness = ", ".join(name for name, c in commutators.items() if not c.is_zero())
    report(
        "6e",
        central,
        "rotation elements commute with all generators at caps (1,3)"
        + (f"; nonzero commutators with: {witness}" if witness else ""),
    )


def test_criterion_7_writhes_from_tabulation():
    expected = {
        "5_7": -1,
        "5_9": -1,
        "5_12": -5,
        "5_19": -1,
        "5_21": -1,
        "5_24": -3,
    }
    actual = {k1: writhe(code) for k1, _, code in table_rows()}
    report("7", actual == expected, f"writhes {actual}")


def test_criterion_8_rt_recovery():
    caps = Caps(1, 3)
    example = parse_decomposition("labels 5; R+ 1 4; R+ 5 2; C- 3")

    def one(v):
        return ScalarSeries.term(caps, v)

    zero = ScalarSeries.zero(caps)
    rho1 = {
        "a": [[one(1)]],
        "b": [[ScalarSeries.term(caps, -1, 1, 0)]],
        "x": [[zero]],
        "y": [[zero]],
    }
    w = (ScalarSeries.one(caps) - ScalarSeries.term(caps, -1, 1, 1).exp()).shift(0, -1)
    rho2 = {
        "a": [[one(1), zero], [zero, zero]],
        "b": [[zero, zero], [zero, ScalarSeries.term(caps, -1, 1, 0)]],
        "x": [[zero, one(1)], [zero, zero]],
        "y": [[zero, zero], [w, zero]],
    }
    results = {}
    for label, rho, dim in (("d=1", rho1, 1), ("d=2", rho2, 2)):
        rep = derive_rep(caps, rho)
        ev = EndpointVectors(
            [one(v) for v in range(2, 2 + dim)], [one(v) for v in range(3, 3 + dim)]
        )
        results[label] = recovery_check(example, rep, rho, ev)
    ok = all(r.passed for r in results.values())
    report("8", ok, "; ".join(f"{k}: {'pass' if r.passed else r.details}" for k, r in results.items()))


def test_criterion_9_polynomial_scaling(decomps):
    caps = Caps(1, 4)
    base = decomps["5_7"]
    chain = base
    medians = []
    for copies in (1, 2, 4, 8):
        while len(chain.crossings()) < 5 * copies:
            chain = chain_decompositions(chain, base)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            evaluate_Z(chain, caps)
            runs.append(time.perf_counter() - start)
        medians.append((5 * copies, statistics.median(runs)))
    ratios = [t2 / t1 for (_, t1), (_, t2) in zip(medians, medians[1:])]
    ok = all(r <= 24.0 for r in ratios)
    detail = ", ".join(f"{n}cr: {t:.2f}s" for n, t in medians)
    report("9", ok, f"{detail}; doubling ratios {[f'{r:.2f}' for r in ratios]} <= 24")


def test_criterion_10a_segment_measure():
    segment = OpenCurve3D(((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)))
    estimate = estimate_measure(segment, 200, seed=0, tol=1e-9)
    ok = estimate.class_freq == {TRIVIAL_CLASS: Fraction(1)} and estimate.rejected == 0
    report("10a", ok, f"freq {dict(estimate.class_freq)}, rejected {estimate.rejected}")


@pytest.fixture(scope="module")
def trefoil_curve():
    return load_curve(builtin_curve_path("open_trefoil"))


def test_criterion_10b_trefoil_statistics(trefoil_curve):
    estimate = estimate_measure(trefoil_curve, 2000, seed=0, tol=1e-9)
    total = sum(estimate.class_freq.values())
    rate = estimate.rejected / estimate.samples
    ok = len(estimate.class_freq) >= 2 and total == 1 and rate < 0.01
    report(
        "10b",
        ok,
        f"{len(estimate.class_freq)} classes, frequencies sum {total}, rejection {rate:.2%}",
    )


def test_criterion_10c_reruns_identical(trefoil_curve):
    a = estimate_measure(trefoil_curve, 500, seed=0, tol=1e-9)
    b = estimate_measure(trefoil_curve, 500, seed=0, tol=1e-9)
    ok = a.to_json_str() == b.to_json_str() and a.to_csv() == b.to_csv()
    report("10c", ok, "byte-identical JSON and CSV for repeated runs")


def test_criterion_10d_perturbation_stability(trefoil_curve):
    base = estimate_measure(trefoil_curve, 5000, seed=0, tol=1e-9)
    noisy_curve = perturbed(trefoil_curve, 1e-4, seed=12345)
    noisy = estimate_measure(noisy_curve, 5000, seed=0, tol=1e-9)
    labels = set(base.class_freq) | set(noisy.class_freq)
    worst = max(
        abs(float(base.class_freq.get(l, 0)) - float(noisy.class_freq.get(l, 0)))
        for l in labels
    )
    report("10d", worst < 0.05, f"worst class-frequency shift {worst:.4f} < 0.05")
