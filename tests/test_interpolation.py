import math
from collections import Counter
from fractions import Fraction
from itertools import permutations
from numbers import Rational

import numpy as np
import pytest

from graphlimits import interpolation
from graphlimits.config_model import (
    Bipartition,
    HalfEdgeSystem,
    PairingCounts,
    enumerate_class,
    enumerate_matchings,
    enumerate_maximal_matchings,
    graph_of_matching,
)
from graphlimits.graphs import (
    INDEPENDENCE,
    MAX_CUT,
    NEG_COMPONENTS,
    GraphParameter,
    ising_parameter,
)
from graphlimits.interpolation import (
    InterpolationInstance,
    _result,
    check_corridor_exit,
    class_mean,
    class_mean_mc,
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

SYS22 = HalfEdgeSystem((2, 2))
BP22 = Bipartition.of(2, [1])
INST22 = InterpolationInstance(SYS22, BP22, INDEPENDENCE)


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


def test_run_sweep_evaluates_each_graph_once_per_degree_function():
    calls = []

    def evaluate(g):
        calls.append(g)
        return INDEPENDENCE.evaluate(g)

    counted = GraphParameter("independence", 1.0, evaluate)
    summary = run_sweep([counted], max_total_degree=5, max_vertices=3,
                        checks=("global",))
    assert summary.all_hold
    expected = 0
    for degrees in degree_functions(3, 5):
        sys = HalfEdgeSystem(degrees)
        expected += len({graph_of_matching(sys, m)
                         for m in enumerate_matchings(sys)})
    assert len(calls) == expected


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


def test_run_sweep_detects_shrunk_penalty():
    # with the penalty factor collapsed, the fixed-split bound must fail
    # somewhere (two isolated vertices beat one edge by more than nothing)
    summary = run_sweep([INDEPENDENCE], max_total_degree=2, max_vertices=2,
                        checks=("global", "main"), penalty_factor=0.01)
    assert not summary.all_hold
