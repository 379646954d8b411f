import ast
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlimits import interpolation, seeding
from graphlimits.limits import Verdict, mean_stderr
from graphlimits.config_model import (
    Bipartition,
    HalfEdgeSystem,
    PairingCounts,
    enumerate_matchings,
    enumerate_maximal_matchings,
    graph_of_matching,
)
from graphlimits.graphs import (
    INDEPENDENCE,
    MAX_CUT,
    NEG_COMPONENTS,
    GraphParameter,
    independence_number,
    ising_parameter,
    potts_parameter,
)
from graphlimits.interpolation import (
    InterpolationInstance,
    _result,
    check_corridor_exit,
    class_mean,
    default_corridor_width,
    degree_functions,
    bipartitions_of,
    expected_parameter,
    feasible_triples,
    history_counts,
    penalty,
    penalty_constant,
    run_sweep,
    sweep_pairing_uniformity,
    verify_global,
    verify_lipschitz,
    verify_local_superadd,
    verify_main,
)
from test_config_model import enumerate_class, sample_in_class

SYS22 = HalfEdgeSystem((2, 2))
BP22 = Bipartition.of(2, [1])
INST22 = InterpolationInstance(SYS22, BP22, INDEPENDENCE)


# ---------------------------------------------------------------------------
# oracles


def replicate(fn, reps: int, rng: np.random.Generator) -> np.ndarray:
    """``[fn(rep_stream(root, i)) for i in range(reps)]`` as an array, with
    one root forked from ``rng``."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    root = seeding.fork_root(rng)
    return np.array([fn(seeding.rep_stream(root, i)) for i in range(reps)])


def _class_value(inst: InterpolationInstance, counts: PairingCounts,
                 rng: np.random.Generator) -> float:
    m = sample_in_class(inst.sys, inst.bp, counts, rng)
    return float(inst.f.evaluate(graph_of_matching(inst.sys, m)))


def class_mean_mc(inst: InterpolationInstance, counts: PairingCounts, reps: int,
                  rng: np.random.Generator):
    """Monte Carlo estimate of :func:`class_mean`: (mean, standard error) of
    ``reps`` draws of the class by sequential pairing, replication i from
    the substream keyed by i."""
    counts = PairingCounts(*counts)
    if not counts.feasible(inst.sys, inst.bp):
        raise ValueError(f"infeasible pairing counts {tuple(counts)}")
    return mean_stderr(replicate(partial(_class_value, inst, counts), reps,
                                 rng))


# ---------------------------------------------------------------------------
# class means


def test_class_mean_examples():
    assert class_mean(INST22, PairingCounts(1, 1, 0)) == 0
    assert class_mean(INST22, PairingCounts(0, 0, 2)) == 1
    assert class_mean(INST22, PairingCounts(0, 0, 1)) == 1


def test_class_mean_is_exact_rational():
    sys = HalfEdgeSystem((2, 2, 2))
    inst = InterpolationInstance(sys, Bipartition.of(3, [1, 2]), INDEPENDENCE)
    value = class_mean(inst, PairingCounts(1, 0, 0))
    assert isinstance(value, Fraction)


def test_class_mean_empty_class():
    with pytest.raises(ValueError, match="empty class"):
        class_mean(INST22, PairingCounts(2, 0, 1))


def _mean(values):
    """Mean over the expanded value list: the oracle for weighted means."""
    if all(isinstance(v, Rational) for v in values):
        return Fraction(sum(values), len(values))
    return math.fsum(float(v) for v in values) / len(values)


@pytest.mark.parametrize("param", [INDEPENDENCE, ising_parameter(0.5)],
                         ids=lambda p: p.name)
def test_class_means_match_matching_oracle(param):
    # exact equality: the same reduced Fraction, or the same float bits
    for degrees in degree_functions(3, 6):
        sys = HalfEdgeSystem(degrees)
        for bp in bipartitions_of(sys.n):
            inst = InterpolationInstance(sys, bp, param)
            for counts in feasible_triples(sys, bp):
                oracle = _mean([param.evaluate(graph_of_matching(sys, m))
                                for m in enumerate_class(sys, bp, counts)])
                got = class_mean(inst, counts)
                assert type(got) is type(oracle)
                assert got == oracle, (degrees, sorted(bp.a), counts)
        # expected_parameter works on the ascending relabeling, where float
        # values can differ from the original labels in the last bit
        sys = HalfEdgeSystem(sorted(degrees))
        oracle = _mean([param.evaluate(graph_of_matching(sys, m))
                        for m in enumerate_maximal_matchings(sys)])
        assert expected_parameter(param, degrees) == oracle, degrees


def test_class_mean_mc_point_mass():
    mean, stderr = class_mean_mc(INST22, PairingCounts(1, 1, 0), 20,
                                 np.random.default_rng(0))
    assert mean == 0.0 and stderr == 0.0


def test_class_mean_mc_rejects_bad_input():
    with pytest.raises(ValueError):
        class_mean_mc(INST22, PairingCounts(1, 1, 0), 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="infeasible"):
        class_mean_mc(INST22, PairingCounts(2, 0, 1), 5, np.random.default_rng(0))


def test_class_mean_mc_agrees_with_exact():
    sys = HalfEdgeSystem((2, 2, 2))
    inst = InterpolationInstance(sys, Bipartition.of(3, [1, 2]), INDEPENDENCE)
    counts = PairingCounts(1, 0, 1)
    exact = float(class_mean(inst, counts))
    hits = 0
    for seed in range(100):
        mean, stderr = class_mean_mc(inst, counts, 200,
                                     np.random.default_rng(seed))
        if abs(mean - exact) <= 4 * stderr:
            hits += 1
    assert hits >= 99


def test_expected_parameter_example():
    # three maximal pairings of (2, 2): two loops, double edge twice
    assert expected_parameter(INDEPENDENCE, (2, 2)) == Fraction(2, 3)
    assert expected_parameter(INDEPENDENCE, ()) == 0


# ---------------------------------------------------------------------------
# penalty terms


def test_penalty_values():
    assert penalty(0, 1.0) == 0
    assert penalty(2, 1.0) == pytest.approx(7 * math.sqrt(2 * math.log(3)),
                                            abs=1e-14)
    assert penalty(2, 1.0) == pytest.approx(10.376, abs=1e-3)
    assert penalty(3, 1.0) > penalty(2, 1.0)
    with pytest.raises(ValueError):
        penalty(-1, 1.0)


def test_penalty_constant_value():
    c47 = penalty_constant(47)
    assert 6.58 <= c47 <= 6.60
    assert c47 < 7
    assert penalty_constant(10**6) < c47


def test_penalty_constant_domain():
    with pytest.raises(ValueError):
        penalty_constant(1)  # denominator negative there
    with pytest.raises(ValueError):
        penalty_constant(0)


def test_small_gamma_branch_boundary():
    # the linear bound kappa*(2g+1) is beaten by the penalty exactly up to 46
    assert all(2 * g + 1 <= penalty(g, 1.0) for g in range(1, 47))
    assert 2 * 47 + 1 > penalty(47, 1.0)


def test_default_corridor_width():
    assert default_corridor_width(200) == math.floor(
        math.sqrt(200 * math.log(201)))
    assert 2 <= default_corridor_width(47) <= 47 / 2
    with pytest.raises(ValueError):
        default_corridor_width(0)


# ---------------------------------------------------------------------------
# verifiers


def test_verify_lipschitz_example():
    r = verify_lipschitz(INST22, PairingCounts(1, 1, 0), PairingCounts(0, 0, 2))
    assert r.verdict and r.lhs == 1.0 and r.rhs == 4.0
    same = verify_lipschitz(INST22, PairingCounts(0, 0, 1), PairingCounts(0, 0, 1))
    assert same.verdict and same.lhs == 0.0 and same.rhs == 0.0


def test_verify_local_superadd_example():
    sys = HalfEdgeSystem((2, 2, 2, 2))
    inst = InterpolationInstance(sys, Bipartition.of(4, [1, 2]), MAX_CUT)
    r = verify_local_superadd(inst, PairingCounts(0, 0, 0), 2)
    assert r.verdict
    assert r.lhs == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="delta"):
        verify_local_superadd(inst, PairingCounts(0, 0, 0), 1)
    with pytest.raises(ValueError):
        verify_local_superadd(inst, PairingCounts(2, 2, 0), 2)


def test_verify_global_examples():
    r0 = verify_global(INST22, 0)
    assert r0.verdict and r0.slack == 0.0
    r2 = verify_global(INST22, 2)
    assert r2.verdict and r2.lhs == 0.0
    assert r2.rhs == pytest.approx(1 + penalty(2, 1.0))
    with pytest.raises(ValueError):
        verify_global(INST22, 3)


def test_verify_main_examples():
    r = verify_main(INDEPENDENCE, (2, 2), BP22, "exact")
    assert r.verdict and r.lhs == 0.0
    assert r.rhs == pytest.approx(2 / 3 + penalty(2, 1.0))

    r = verify_main(INDEPENDENCE, (1, 1), Bipartition.of(2, [1]), "exact")
    assert r.verdict
    assert r.lhs == 2.0  # two isolated vertices
    assert r.rhs == pytest.approx(1 + penalty(1, 1.0))

    degenerate = verify_main(INDEPENDENCE, (2, 2), Bipartition.of(2, [1, 2]),
                             "exact")
    assert degenerate.verdict
    assert degenerate.lhs == pytest.approx(2 / 3)


def test_result_verdict_at_the_float_bound():
    rhs, tol = 1 / 3, 1e-9
    bound = rhs + tol
    at = Fraction(bound)
    above = at + Fraction(1, 10 ** 40)  # rounds to the bound as a float
    assert float(above) == bound
    assert _result("t", "i", "c", at, rhs).verdict is True
    assert _result("t", "i", "c", above, rhs).verdict is False
    for lhs in (at, above, float(above), 0, Fraction(-1, 3)):
        assert _result("t", "i", "c", lhs, rhs).verdict == (lhs <= rhs + tol)
    # non-finite bounds keep the generic comparison
    assert _result("t", "i", "c", above, math.inf).verdict is True
    assert _result("t", "i", "c", above, -math.inf).verdict is False
    assert _result("t", "i", "c", above, math.nan).verdict is False


def test_verify_main_mc_matches_exact():
    rng = np.random.default_rng(1)
    exact = verify_main(MAX_CUT, (2, 2, 1, 1), Bipartition.of(4, [1, 2]),
                        "exact")
    mc = verify_main(MAX_CUT, (2, 2, 1, 1), Bipartition.of(4, [1, 2]), "mc",
                     rng, reps=4000)
    assert mc.verdict
    assert mc.lhs == pytest.approx(exact.lhs, abs=0.1)


def test_verify_main_rejects_bad_mode():
    with pytest.raises(ValueError):
        verify_main(INDEPENDENCE, (2, 2), BP22, "approx")
    with pytest.raises(ValueError):
        verify_main(INDEPENDENCE, (2, 2), BP22, "mc")  # rng required


def test_split_identity_no_cross_class():
    # with zero cross edges the class mean is the sum of the two independent
    # sub-system expectations, exactly
    for degrees in degree_functions(4, 10):
        sys = HalfEdgeSystem(degrees)
        for bp in bipartitions_of(sys.n):
            da, db = bp.degree_a(sys), bp.degree_b(sys)
            inst = InterpolationInstance(sys, bp, INDEPENDENCE)
            lhs = class_mean(inst, PairingCounts(da // 2, db // 2, 0))
            rhs = (expected_parameter(
                       INDEPENDENCE, tuple(degrees[i - 1] for i in sorted(bp.a)))
                   + expected_parameter(
                       INDEPENDENCE, tuple(degrees[i - 1] for i in sorted(bp.b))))
            assert lhs == rhs, (degrees, sorted(bp.a))


# ---------------------------------------------------------------------------
# corridor walk


def test_corridor_exit_preconditions():
    with pytest.raises(ValueError):
        check_corridor_exit(10, 1, 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        check_corridor_exit(10, 6, 100, np.random.default_rng(0))


def test_corridor_exit_trivial_horizon():
    # tau = 0: the walk never moves, so it never leaves the corridor
    report = check_corridor_exit(8, 4, 100, np.random.default_rng(0))
    assert report.details["tau"] == 0
    assert report.lhs == 0.0 and report.verdict


def test_corridor_exit_bound_holds():
    report = check_corridor_exit(120, 12, 20_000, np.random.default_rng(2))
    assert report.details["tau"] == 96
    assert report.verdict
    assert 0.0 <= report.lhs <= 1.0


# ---------------------------------------------------------------------------
# pairing histories


def test_history_counts_uniform():
    hist = history_counts(SYS22, BP22, PairingCounts(0, 0, 2))
    assert len(hist) == 2
    assert len(set(hist.values())) == 1
    assert sum(hist.values()) == 4  # (2*2) * (1*1) sequential choices


def test_history_counts_match_class():
    sys = HalfEdgeSystem((2, 2, 1, 1))
    bp = Bipartition.of(4, [1, 2])
    for counts in (PairingCounts(1, 0, 1), PairingCounts(1, 0, 2),
                   PairingCounts(2, 1, 0)):
        hist = history_counts(sys, bp, counts)
        assert set(hist) == set(enumerate_class(sys, bp, counts))
        assert len(set(hist.values())) == 1


def test_history_counts_infeasible():
    assert history_counts(SYS22, BP22, PairingCounts(2, 0, 1)) == {}


def test_history_counts_order_irrelevant():
    # any interleaving of the three step types reaches the same class
    # uniformly; the per-order totals differ but each stays constant
    sys = HalfEdgeSystem((2, 2, 2, 2))
    bp = Bipartition.of(4, [1, 2])
    target = PairingCounts(1, 1, 1)
    reference = None
    for order in sorted({"".join(p) for p in permutations("ABX")}):
        hist = history_counts(sys, bp, target, order)
        assert len(set(hist.values())) == 1, order
        keys = set(hist)
        if reference is None:
            reference = keys
        assert keys == reference, order


def test_history_counts_any_number_of_half_edges():
    # 256 half-edges: every single cross pair is its own one-step history
    hist = history_counts(HalfEdgeSystem((128, 128)), BP22, PairingCounts(0, 0, 1))
    assert len(hist) == 128 * 128
    assert set(hist.values()) == {1}


def test_history_counts_rejects_wrong_order():
    with pytest.raises(ValueError):
        history_counts(SYS22, BP22, PairingCounts(1, 1, 0), "AX")


def test_uniformity_sweep_small():
    summary = sweep_pairing_uniformity(max_total_degree=6, max_vertices=3)
    assert summary.all_uniform
    assert summary.classes > 100


def test_uniformity_sweep_rejects_empty_ranges():
    # with no instance the sweep would report all_uniform; the error names
    # the input
    for max_total_degree, max_vertices, named in [
            (8, 0, "max_vertices"), (-1, 4, "max_total_degree"),
            (-3, -1, "max_total_degree")]:
        with pytest.raises(ValueError, match=f"^{named}="):
            sweep_pairing_uniformity(max_total_degree, max_vertices)
    # total degree 0 is a real instance: the empty class is reached once
    summary = sweep_pairing_uniformity(0, 1)
    assert (summary.instances, summary.classes) == (2, 2) and summary.all_uniform


def test_uniformity_sweep_misses_a_dropped_matching(monkeypatch):
    monkeypatch.setattr(interpolation, "enumerate_matchings",
                        lambda sys: enumerate_matchings(sys)[:-1])
    summary = sweep_pairing_uniformity(max_total_degree=6, max_vertices=3)
    # the dropped matching belongs to exactly one class of each instance
    assert len(summary.failures) == summary.instances
    assert all(f.endswith("reached set mismatch") for f in summary.failures)


def test_uniformity_sweep_checks_the_history_total(monkeypatch):
    step_choices = interpolation._step_choices
    monkeypatch.setattr(interpolation, "_step_choices",
                        lambda *args: step_choices(*args) + 1)
    summary = sweep_pairing_uniformity(max_total_degree=6, max_vertices=3)
    assert len(summary.failures) == summary.classes
    assert all(f.endswith("history total mismatch") for f in summary.failures)


# ---------------------------------------------------------------------------
# sweep


def test_run_sweep_small_holds():
    records = []
    summary = run_sweep([INDEPENDENCE, MAX_CUT, NEG_COMPONENTS],
                        max_total_degree=6, max_vertices=3,
                        on_record=records.append)
    assert summary.all_hold
    assert summary.total_checked == len(records)
    assert all(r.verdict for r in records)
    assert set(summary.checked) == {"lipschitz", "local", "global", "main"}
    assert min(summary.checked.values()) > 0


def test_run_sweep_evaluates_each_graph_once_per_degree_function(monkeypatch):
    # every check, main included: a rational parameter's E f comes from the
    # sweep's own sums, so expected_parameter sees only the empty side
    calls, expected_degrees = [], []

    def evaluate(g):
        calls.append(g)
        return INDEPENDENCE.evaluate(g)

    def expected(f, degrees):
        expected_degrees.append(tuple(degrees))
        return expected_parameter(f, degrees)

    monkeypatch.setattr(interpolation, "expected_parameter", expected)
    counted = GraphParameter("independence", 1.0, evaluate)
    summary = run_sweep([counted], max_total_degree=5, max_vertices=3)
    assert summary.all_hold and min(summary.checked.values()) > 0
    distinct = 0
    for degrees in degree_functions(3, 5):
        sys = HalfEdgeSystem(degrees)
        distinct += len({graph_of_matching(sys, m)
                         for m in enumerate_matchings(sys)})
    assert len(calls) == distinct + 1
    assert expected_degrees == [()]


def test_run_sweep_keeps_same_named_parameters_apart():
    # two distinct parameters sharing a name must not share cached values
    impostor = GraphParameter("independence", 1.0, MAX_CUT.evaluate)

    def records(params):
        out = []
        run_sweep(params, max_total_degree=6, max_vertices=3,
                  on_record=out.append)
        return Counter((r.check, r.instance, r.counts, r.lhs, r.rhs,
                        r.allowance, r.verdict) for r in out)

    assert (records([INDEPENDENCE, impostor])
            == records([INDEPENDENCE]) + records([impostor]))


def test_run_sweep_rejects_unknown_checks():
    # a misspelt check, or inputs that leave no record, would otherwise
    # verify nothing and report all_hold; the error names the input
    every = interpolation.CHECKS
    for params, max_total_degree, max_vertices, checks, named in [
            ([INDEPENDENCE], 4, 2, ("lipshitz",), "lipshitz"),
            ([INDEPENDENCE], 4, 2, ("main", "nope"), "nope"),
            ([INDEPENDENCE], 4, 2, (), "checks"),
            ([], 4, 2, every, "params"),
            ([INDEPENDENCE], -1, 2, every, "max_total_degree"),
            ([INDEPENDENCE], 4, 0, every, "max_vertices")]:
        with pytest.raises(ValueError, match=named):
            run_sweep(params, max_total_degree, max_vertices, checks=checks)


def test_run_sweep_detects_shrunk_penalty(monkeypatch):
    # with the penalty factor collapsed, the fixed-split bound must fail
    # somewhere (two isolated vertices beat one edge by more than nothing)
    monkeypatch.setattr(interpolation, "PENALTY_FACTOR", 0.01)
    summary = run_sweep([INDEPENDENCE], max_total_degree=2, max_vertices=2,
                        checks=("global", "main"))
    assert not summary.all_hold


# ---------------------------------------------------------------------------
# the sweep's record tables against a scalar oracle

CHECKS = ("lipschitz", "local", "global", "main")


def _oracle_records(params, max_total_degree, max_vertices, checks=CHECKS):
    """Every record of the sweep, in its order, from one ``_result`` per
    record over ``class_mean`` and ``expected_parameter``."""
    out = []
    for degrees in degree_functions(max_vertices, max_total_degree):
        sys = HalfEdgeSystem(degrees)
        for bp in bipartitions_of(sys.n):
            triples = sorted(feasible_triples(sys, bp))
            da, db = bp.degree_a(sys), bp.degree_b(sys)
            for f in params:
                inst = InterpolationInstance(sys, bp, f)
                label = inst.describe()
                mean = {c: class_mean(inst, c) for c in triples}
                if "lipschitz" in checks:
                    for c1, c2 in combinations(triples, 2):
                        d = sum(abs(x - y) for x, y in zip(c1, c2))
                        out.append(_result(
                            "lipschitz", label, f"{tuple(c1)}|{tuple(c2)}",
                            abs(mean[c1] - mean[c2]), f.kappa * d))
                if "local" in checks:
                    for a, b, g in triples:
                        delta = 2
                        while (a, b, g + delta) in mean:
                            slack = (Fraction(2 * int(f.kappa), delta)
                                     if float(f.kappa).is_integer()
                                     else 2.0 * f.kappa / delta)
                            out.append(_result(
                                "local", label, f"{(a, b, g)} delta={delta}",
                                Fraction(1, 2) * (mean[a + 1, b, g]
                                                  + mean[a, b + 1, g]),
                                mean[a, b, g + 1] + slack))
                            delta += 1
                if "global" in checks:
                    for gamma in range(min(da, db) + 1):
                        out.append(_result(
                            "global", label, f"gamma={gamma}",
                            mean[da // 2, db // 2, 0],
                            mean[(da - gamma) // 2, (db - gamma) // 2, gamma]
                            + penalty(gamma, f.kappa)))
                if "main" in checks:
                    sub_a, sub_b = (tuple(degrees[v - 1] for v in sorted(side))
                                    for side in (bp.a, bp.b))
                    out.append(_result(
                        "main", label, "mode=exact",
                        expected_parameter(f, sub_a)
                        + expected_parameter(f, sub_b),
                        expected_parameter(f, degrees)
                        + penalty(sys.total / 2, f.kappa)))
    return out


def _fields(records):
    return [(r.check, r.instance, r.counts, r.lhs, r.rhs, r.slack, r.verdict)
            for r in records]


def _sweep_records(params, max_total_degree, max_vertices, checks=CHECKS):
    records = []
    run_sweep(params, max_total_degree, max_vertices, checks=checks,
              on_record=records.append)
    return records


@pytest.mark.parametrize("params, max_total_degree", [
    ([INDEPENDENCE, MAX_CUT, NEG_COMPONENTS], 6),
    ([ising_parameter(0.5), potts_parameter(3, 0.7)], 7),
    # rational and float means in one run: no record is reused
    ([INDEPENDENCE, ising_parameter(0.5)], 6),
], ids=["integer", "spin", "mixed"])
def test_lipschitz_records_match_the_scalar_oracle(params, max_total_degree):
    # all four checks, not only the Lipschitz pairs: every record of the
    # sweep equals the scalar oracle's, field for field and in order
    got = _fields(_sweep_records(params, max_total_degree, 4))
    want = _fields(_oracle_records(params, max_total_degree, 4))
    assert {r[0] for r in got} == set(CHECKS)
    assert got == want


@pytest.mark.parametrize("params", [
    [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS],
    [INDEPENDENCE, ising_parameter(0.5)],
], ids=["integer", "mixed"])
def test_main_only_sweep_matches_main_records_of_all_checks(monkeypatch,
                                                            params):
    every = [r for r in _sweep_records(params, 7, 4) if r.check == "main"]
    full = run_sweep(params, 7, 4)

    def no_layout(*args):
        raise AssertionError("a main-only sweep buckets no classes")

    monkeypatch.setattr(interpolation, "_sweep_layout", no_layout)
    assert _fields(_sweep_records(params, 7, 4, ("main",))) == _fields(every)
    alone = run_sweep(params, 7, 4, checks=("main",))
    assert alone.checked == {**dict.fromkeys(CHECKS, 0),
                             "main": full.checked["main"]}
    assert alone.instances == full.instances


def test_lipschitz_violations_match_the_scalar_oracle():
    # a kappa far below the independence number's true constant: many
    # pairs fail, and the sweep must report exactly the oracle's failures
    tight = GraphParameter("independence", 0.01, independence_number)
    summary = run_sweep([tight], 6, 3, checks=("lipschitz",))
    oracle = _oracle_records([tight], 6, 3, ("lipschitz",))
    failed = [r for r in oracle if not r.verdict]
    assert failed
    assert _fields(summary.violations) == _fields(failed)
    assert summary.checked["lipschitz"] == len(oracle)


@pytest.mark.parametrize("check, penalty_factor, max_total_degree, "
                         "max_vertices", [
    ("local", 7.0, 7, 4),  # kappa = 0.01: the local slack 2 kappa / delta
    ("global", 0.01, 6, 3),  # a shrunk penalty
    ("main", 0.01, 6, 3),
], ids=["local", "global", "main"])
def test_violations_match_the_scalar_oracle(monkeypatch, check, penalty_factor,
                                            max_total_degree, max_vertices):
    monkeypatch.setattr(interpolation, "PENALTY_FACTOR", penalty_factor)
    tight = GraphParameter("independence", 0.01, independence_number)
    summary = run_sweep([tight], max_total_degree, max_vertices,
                        checks=(check,))
    oracle = _oracle_records([tight], max_total_degree, max_vertices, (check,))
    failed = [r for r in oracle if not r.verdict]
    assert failed
    assert _fields(summary.violations) == _fields(failed)
    assert summary.checked[check] == len(oracle)


@pytest.mark.parametrize("kappa, above, rounds_onto_bound", [
    (1 / 3, Fraction(1, 10 ** 40), True),  # numerators beyond int64
    (2.0 ** 20, Fraction(1, 2 ** 30), False),  # one ulp above
], ids=["rounds-onto-bound", "one-ulp-above"])
def test_lipschitz_table_at_the_float_bound(kappa, above, rounds_onto_bound):
    # as in test_result_verdict_at_the_float_bound: a rational lhs equal to
    # the float bound passes, and one just above it fails
    at = Fraction(kappa + 1e-9)
    above += at
    triples = [PairingCounts(0, 0, 0), PairingCounts(1, 0, 0),
               PairingCounts(0, 1, 0)]
    lhs, rhs, ok = interpolation._lipschitz_table(
        kappa, *interpolation._common_denominator([Fraction(0), at, above]),
        *interpolation._pair_distances(triples))
    assert ok.tolist() == [True, False, True]
    assert lhs.tolist() == [float(at), float(above), float(above - at)]
    assert rhs.tolist() == [kappa, kappa, 2 * kappa]
    assert (float(above) == kappa + 1e-9) == rounds_onto_bound
    inst = InterpolationInstance(SYS22, BP22,
                                 GraphParameter("t", kappa, independence_number))
    means = {PairingCounts(1, 0, 0): at, PairingCounts(0, 1, 0): above,
             PairingCounts(0, 0, 0): Fraction(0)}
    assert verify_lipschitz(inst, triples[0], triples[1], means.get).verdict
    assert not verify_lipschitz(inst, triples[2], triples[0], means.get).verdict


STEPS = ["rounds-onto-bound", "one-ulp-above"]


def _at_and_above(bound: float, step: str) -> tuple:
    """The float ``bound`` as a Fraction, and a Fraction above it by 1e-40,
    which rounds back onto the bound, or by one ulp, which does not."""
    at = Fraction(bound)
    above = at + (Fraction(1, 10 ** 40) if step == "rounds-onto-bound"
                  else Fraction(math.ulp(bound)))
    assert (float(above) == bound) == (step == "rounds-onto-bound")
    return at, above


@pytest.mark.parametrize("kappa", [1 / 3, 1.0], ids=["float-bound",
                                                     "rational-bound"])
@pytest.mark.parametrize("step", STEPS)
def test_local_record_at_the_float_bound(kappa, step):
    # delta = 2 on (2, 2) with F(0,0,1) = 1/7: the bound is
    # float(1/7 + kappa) + 1e-9, kept rational until then when kappa is an
    # integer, and float(1/7) + kappa + 1e-9 otherwise
    z = Fraction(1, 7)
    slack = Fraction(1) if kappa == 1.0 else 2.0 * kappa / 2
    at, above = _at_and_above(float(z + slack) + 1e-9, step)
    inst = InterpolationInstance(SYS22, BP22,
                                 GraphParameter("t", kappa, independence_number))
    for lhs, passes in ((at, True), (above, False)):
        means = {PairingCounts(1, 0, 0): 2 * lhs, PairingCounts(0, 1, 0): 0,
                 PairingCounts(0, 0, 1): z}
        r = verify_local_superadd(inst, PairingCounts(0, 0, 0), 2, means.get)
        oracle = _result("local", "", "", lhs, z + slack)
        assert r.verdict is oracle.verdict is passes
        assert (r.lhs, r.rhs) == (oracle.lhs, oracle.rhs)


@pytest.mark.parametrize("step", STEPS)
def test_global_record_at_the_float_bound(step):
    # gamma = 1 on (2, 2): the bound is float(F(0,0,1)) + penalty(1) + 1e-9
    kappa, cross = 1 / 3, Fraction(2, 7)
    at, above = _at_and_above(float(cross) + penalty(1, kappa) + 1e-9, step)
    inst = InterpolationInstance(SYS22, BP22,
                                 GraphParameter("t", kappa, independence_number))
    for top, passes in ((at, True), (above, False)):
        means = {PairingCounts(1, 1, 0): top, PairingCounts(0, 0, 1): cross}
        r = verify_global(inst, 1, means.get)
        oracle = _result("global", "", "", top, cross + penalty(1, kappa))
        assert r.verdict is oracle.verdict is passes
        assert (r.lhs, r.rhs) == (oracle.lhs, oracle.rhs)


def test_lipschitz_table_keeps_rational_pairs_exact_beside_floats():
    # the first pair is 1e-40 above its float bound; a float mean in the
    # same table must not turn that pair into a float comparison
    kappa = 1 / 3
    triples = [PairingCounts(0, 0, 0), PairingCounts(1, 0, 0),
               PairingCounts(0, 1, 0)]
    means = [Fraction(0), Fraction(kappa + 1e-9) + Fraction(1, 10 ** 40), 0.25]
    i, j, dist = interpolation._pair_distances(triples)
    lhs, rhs, ok = interpolation._lipschitz_table(
        kappa, *interpolation._common_denominator(means), i, j, dist)
    oracle = [_result("lipschitz", "", "", abs(means[a] - means[b]), kappa * d)
              for a, b, d in zip(i, j, dist)]
    assert ok.tolist() == [r.verdict for r in oracle] == [False, True, True]
    assert lhs.tolist() == [r.lhs for r in oracle]
    assert rhs.tolist() == [r.rhs for r in oracle]


def test_lipschitz_table_beyond_int64():
    # class means with denominator 3**41 > 2**63: each edge is worth a hair
    # more than 1 + 1e-9, so every pair whose distance equals its edge-count
    # difference fails by 3**-41, and the others pass; the other checks'
    # records, over the same denominators, match the oracle too
    assert 3 ** 41 > 2 ** 63
    step = Fraction(1 + 1e-9) + Fraction(1, 3 ** 41)
    param = GraphParameter("edges", 1.0, lambda g: step * g.num_edges)
    records = _sweep_records([param], 4, 3)
    assert _fields(records) == _fields(_oracle_records([param], 4, 3))
    assert {r.verdict for r in records if r.check == "lipschitz"} == {True,
                                                                     False}


def test_run_sweep_builds_verdicts_only_for_records_and_failures(monkeypatch):
    # a Verdict is built for each record asked for and each failure, and
    # for nothing else; no single-record verifier is called
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return Verdict(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("run_sweep called a single-record verifier")

    monkeypatch.setattr(interpolation, "Verdict", counting)
    for name in ("verify_lipschitz", "verify_local_superadd", "verify_global",
                 "verify_main"):
        monkeypatch.setattr(interpolation, name, refuse)

    def run(params, **kwargs):
        built.clear()
        summary = run_sweep(params, 7, 4, **kwargs)
        return summary, Counter(built)

    summary, extra = run([INDEPENDENCE])
    assert summary.all_hold and min(summary.checked.values()) > 0
    assert extra == Counter()
    records = []
    summary, extra = run([INDEPENDENCE], on_record=records.append)
    assert extra == Counter(r.check for r in records) == summary.checked
    tight = GraphParameter("independence", 0.01, independence_number)
    monkeypatch.setattr(interpolation, "PENALTY_FACTOR", 0.01)
    summary, extra = run([tight])
    assert extra == Counter(r.check for r in summary.violations)
    assert set(extra) == set(CHECKS)


def test_run_sweep_min_slack_is_the_least_record_slack():
    for params in ([INDEPENDENCE, MAX_CUT, NEG_COMPONENTS],
                   [ising_parameter(0.5)]):
        records = []
        summary = run_sweep(params, 5, 3, on_record=records.append)
        assert summary.min_slack == min(r.slack for r in records)
        assert run_sweep(params, 5, 3).min_slack == summary.min_slack


def _identity_record(r: Verdict) -> bool:
    """A record that holds with slack 0 by construction: global at gamma = 0,
    or main on a degree function of total degree 0."""
    degrees = ast.literal_eval(r.instance.split(" A=")[0].removeprefix("d="))
    return ((r.check == "global" and r.counts == "gamma=0")
            or (r.check == "main" and not any(degrees)))


def test_run_sweep_least_slack_leaves_out_the_identity_records():
    params = [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS]
    records = []
    summary = run_sweep(params, 6, 3, on_record=records.append)
    identities = [r for r in records if _identity_record(r)]
    assert {r.check for r in identities} == {"global", "main"}
    assert all(r.slack == 0 for r in identities)
    oracle = {check: min((r.slack for r in records
                          if r.check == check and not _identity_record(r)),
                         default=math.inf) for check in CHECKS}
    assert summary.least_slack == oracle
    assert oracle["global"] > 0 and oracle["main"] > 0
    assert summary.min_slack == min(r.slack for r in records) == 0
    assert run_sweep(params, 6, 3).least_slack == oracle
    # a check that is not run keeps inf
    alone = run_sweep(params, 6, 3, checks=("local",)).least_slack
    assert alone == dict.fromkeys(CHECKS, math.inf) | {"local": oracle["local"]}


def test_run_sweep_least_slack_goes_negative_under_a_shrunk_penalty(
        monkeypatch):
    monkeypatch.setattr(interpolation, "PENALTY_FACTOR", 0.01)
    summary = run_sweep([INDEPENDENCE, MAX_CUT, NEG_COMPONENTS], 6, 3)
    assert summary.least_slack["global"] < 0
    assert summary.least_slack["main"] < 0


def _count_instance_records(monkeypatch) -> list:
    """Wrap ``_sweep_layout`` and ``_instance_records``; the returned list
    gets the memo key (d(A), d(B), kappa, scale, numerators) of each call,
    or None for float means."""
    sides, keys = {}, []
    layout, records = (interpolation._sweep_layout,
                       interpolation._instance_records)

    def sweep_layout(da, db):
        out = layout(da, db)
        sides[id(out)] = (da, db)
        return out

    def instance_records(kappa, means, scale, layout, *args):
        keys.append(None if scale is None else
                    (*sides[id(layout)], kappa, scale, tuple(means)))
        return records(kappa, means, scale, layout, *args)

    monkeypatch.setattr(interpolation, "_sweep_layout", sweep_layout)
    monkeypatch.setattr(interpolation, "_instance_records", instance_records)
    return keys


def test_run_sweep_decides_each_distinct_record_set_once(monkeypatch):
    # the bench batch: 2,814 (instance, parameter) decisions without the
    # memo, 1,289 distinct inputs
    keys = _count_instance_records(monkeypatch)
    summary = run_sweep([INDEPENDENCE, MAX_CUT, NEG_COMPONENTS], 8, 4)
    assert summary.all_hold and summary.instances == 1294
    assert None not in keys
    assert len(keys) == len(set(keys)) == 1289


def test_run_sweep_memo_lasts_one_run(monkeypatch):
    keys = _count_instance_records(monkeypatch)
    params = [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS]
    first = run_sweep(params, 7, 4, on_record=lambda r: None)
    calls = len(keys)
    second = run_sweep(params, 7, 4, on_record=lambda r: None)
    assert len(keys) == 2 * calls
    assert keys[:calls] == keys[calls:]
    assert first == second


def test_run_sweep_decides_float_means_on_every_bipartition(monkeypatch):
    keys = _count_instance_records(monkeypatch)
    summary = run_sweep([ising_parameter(0.5)], 6, 3)
    assert summary.instances > 0
    assert keys == [None] * summary.instances


@st.composite
def _down_closed_means(draw):
    """A down-closed set of count triples and kappa-Lipschitz rational
    means on it (the larger of two linear forms with slopes in
    [-kappa, kappa]), each shifted by a random multiple of a small step
    that may break the unit-step checks."""
    tops = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1,
                         max_size=3))
    triples = sorted({PairingCounts(a, b, g) for top in tops
                      for a, b, g in product(*(range(t + 1) for t in top))})
    kappa = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    den = draw(st.integers(1, 6))
    slopes = [[Fraction(draw(st.integers(-den, den)), den) * Fraction(kappa)
               for _ in range(3)] for _ in range(2)]
    shift = Fraction(1, 8 * den)
    means = [max(sum(s * x for s, x in zip(row, c)) for row in slopes)
             + shift * draw(st.integers(-1, 1)) for c in triples]
    return kappa, triples, means


@settings(max_examples=300, deadline=None)
@given(_down_closed_means())
def test_unit_steps_imply_every_lipschitz_pair(case):
    # on a down-closed set a monotone path of unit steps joins any two
    # triples, so in exact arithmetic the unit-step checks imply all pairs
    kappa, triples, means = case
    i, j, dist = interpolation._pair_distances(triples)
    _, _, ok = interpolation._lipschitz_table(
        kappa, *interpolation._common_denominator(means), i, j, dist)
    if ok[dist == 1].all():
        assert ok.all()
