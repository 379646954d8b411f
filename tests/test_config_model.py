import math
import re
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from graphlimits.config_model import (
    Bipartition,
    _check_budget,
    _is_simple,
    HalfEdgeSystem,
    Matching,
    PairingCounts,
    RejectionLimitError,
    counts_of_graph,
    counts_of_matching,
    enumerate_matchings,
    enumerate_maximal_matchings,
    enumerate_multigraphs,
    graph_of_matching,
    sample_simple,
    sample_uniform_graph,
)
from graphlimits.graphs import Multigraph
from graphlimits.interpolation import bipartitions_of, degree_functions

SYS22 = HalfEdgeSystem((2, 2))
BP22 = Bipartition.of(2, [1])


# ---------------------------------------------------------------------------
# oracles


def enumerate_class(sys: HalfEdgeSystem, bp: Bipartition,
                    counts: PairingCounts) -> list:
    """All matchings with the given pair-type counts, each exactly once.

    Infeasible counts yield the empty list.
    """
    _check_budget(sys)
    bp.check_covers(sys)
    if not counts.feasible(sys, bp):
        return []
    return [m for m in enumerate_matchings(sys)
            if counts_of_matching(m, bp) == counts]


def sample_uniform_matching(sys: HalfEdgeSystem,
                            rng: np.random.Generator) -> Matching:
    """Uniform maximal matching: shuffle all half-edges, pair consecutively.

    When the total degree is odd the last half-edge of the shuffle stays
    unmatched.
    """
    hes = sys.half_edges()
    order = rng.permutation(len(hes))
    pairs = [(hes[order[2 * t]], hes[order[2 * t + 1]])
             for t in range(len(hes) // 2)]
    return Matching.of(pairs)


def sample_in_class(sys: HalfEdgeSystem, bp: Bipartition, counts: PairingCounts,
                    rng: np.random.Generator) -> Matching:
    """Uniform matching with the given pair-type counts.

    Builds up from the empty matching by alpha random A-pairings, then beta
    B-pairings, then gamma cross-pairings; each step draws a uniform pair of
    distinct free half-edges of the required sides.  Any fixed step order
    yields the same uniform law.
    """
    bp.check_covers(sys)
    if not counts.feasible(sys, bp):
        raise ValueError(f"infeasible pairing counts {tuple(counts)}: "
                         f"need 2*alpha+gamma <= d(A) and 2*beta+gamma <= d(B)")
    free_a = [h for h in sys.half_edges() if bp.side_of(h[0]) == "A"]
    free_b = [h for h in sys.half_edges() if bp.side_of(h[0]) == "B"]
    pairs = []

    def draw_within(pool):
        i, j = rng.choice(len(pool), size=2, replace=False)
        i, j = (int(i), int(j)) if i > j else (int(j), int(i))
        first = pool.pop(i)
        second = pool.pop(j)
        pairs.append((first, second))

    for _ in range(counts.alpha):
        draw_within(free_a)
    for _ in range(counts.beta):
        draw_within(free_b)
    for _ in range(counts.gamma):
        i = int(rng.integers(len(free_a)))
        j = int(rng.integers(len(free_b)))
        pairs.append((free_a.pop(i), free_b.pop(j)))
    return Matching.of(pairs)


# ---------------------------------------------------------------------------
# types


def test_half_edge_system():
    sys = HalfEdgeSystem((2, 0, 1))
    assert sys.n == 3 and sys.total == 3
    assert sys.half_edges() == [(1, 1), (1, 2), (3, 1)]


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching.of([((1, 1), (1, 1))])
    with pytest.raises(ValueError):
        Matching.of([((1, 1), (2, 1)), ((1, 1), (2, 2))])
    m = Matching.of([((2, 1), (1, 1))])
    assert m.size == 1
    assert m.unmatched_counts(SYS22) == (1, 1)


def test_bipartition():
    with pytest.raises(ValueError):
        Bipartition(frozenset({1}), frozenset({1, 2}))
    bp = Bipartition.of(3, [2])
    assert bp.b == frozenset({1, 3})
    assert bp.degree_a(HalfEdgeSystem((1, 2, 3))) == 2


def test_feasibility():
    assert PairingCounts(1, 1, 0).feasible(SYS22, BP22)
    assert not PairingCounts(2, 0, 1).feasible(SYS22, BP22)


# ---------------------------------------------------------------------------
# graph of matching


def test_graph_of_matching_examples():
    sys = HalfEdgeSystem((1, 1))
    m = Matching.of([((1, 1), (2, 1))])
    assert graph_of_matching(sys, m) == Multigraph(2, ((1, 2),))

    loop = Matching.of([((1, 1), (1, 2))])
    assert graph_of_matching(HalfEdgeSystem((2,)), loop) == Multigraph(1, ((1, 1),))

    double = Matching.of([((1, 1), (2, 1)), ((1, 2), (2, 2))])
    assert graph_of_matching(SYS22, double) == Multigraph(2, ((1, 2), (1, 2)))


def test_graph_of_matching_rejects_foreign_half_edge():
    with pytest.raises(ValueError, match="outside"):
        graph_of_matching(SYS22, Matching.of([((1, 1), (3, 1))]))


# ---------------------------------------------------------------------------
# uniform sampler


def test_sample_uniform_graph_forced_outcomes():
    assert sample_uniform_graph((1, 1), np.random.default_rng(0)) == (
        Multigraph(2, ((1, 2),)))
    # three half-edges at one vertex: some two of them always pair to a loop
    for seed in range(20):
        g = sample_uniform_graph((3,), np.random.default_rng(seed))
        assert g == Multigraph(1, ((1, 1),))


def test_sample_uniform_graph_same_from_every_degree_form():
    # a tuple, a tuple-held system, an int64 array and an array-held system
    # shuffle the same stubs, so one rng state gives one graph
    degrees = (3, 1, 2, 0, 2, 4)
    forms = [degrees, HalfEdgeSystem(degrees), np.array(degrees),
             HalfEdgeSystem(np.array(degrees))]
    graphs = [sample_uniform_graph(d, np.random.default_rng(5)) for d in forms]
    assert all(g == graphs[0] for g in graphs)
    simple = [sample_simple(d, np.random.default_rng(5)) for d in forms]
    assert all(g == simple[0] for g in simple)
    with pytest.raises(ValueError, match="non-negative"):
        sample_uniform_graph(np.array([2, -2]), np.random.default_rng(5))


def test_sample_uniform_graph_empty_sequence():
    assert sample_uniform_graph((), np.random.default_rng(0)) == Multigraph(0)


def test_sample_uniform_graph_matching_frequencies():
    # four degree-1 vertices: each of the 3 perfect matchings shows up 1/3
    rng = np.random.default_rng(1)
    counts = Counter(sample_uniform_graph((1, 1, 1, 1), rng).edges
                     for _ in range(10_000))
    assert len(counts) == 3
    sigma = math.sqrt((1 / 3) * (2 / 3) / 10_000)
    for freq in counts.values():
        assert abs(freq / 10_000 - 1 / 3) < 4 * sigma


def test_maximal_matchings_are_perfect_for_even_total():
    rng = np.random.default_rng(2)
    for degrees in ((2, 2), (3, 1, 2), (1, 1, 1, 1), (4, 2)):
        sys = HalfEdgeSystem(degrees)
        for _ in range(20):
            m = sample_uniform_matching(sys, rng)
            assert m.unmatched_counts(sys) == (0,) * sys.n


def test_maximal_matching_odd_total_leaves_one():
    rng = np.random.default_rng(3)
    sys = HalfEdgeSystem((2, 1))
    for _ in range(20):
        m = sample_uniform_matching(sys, rng)
        assert sum(m.unmatched_counts(sys)) == 1


# ---------------------------------------------------------------------------
# constrained classes


def test_enumerate_class_examples():
    assert len(enumerate_class(SYS22, BP22, PairingCounts(0, 0, 1))) == 4
    only = enumerate_class(HalfEdgeSystem((1, 1)), Bipartition.of(2, [1]),
                           PairingCounts(0, 0, 0))
    assert only == [Matching.empty()]
    both_loops = enumerate_class(SYS22, BP22, PairingCounts(1, 1, 0))
    assert len(both_loops) == 1
    assert graph_of_matching(SYS22, both_loops[0]) == Multigraph(
        2, ((1, 1), (2, 2)))


def test_enumerate_class_infeasible_is_empty():
    assert enumerate_class(SYS22, BP22, PairingCounts(2, 0, 1)) == []


def test_enumerate_class_budget():
    with pytest.raises(ValueError, match="budget"):
        enumerate_class(HalfEdgeSystem((7, 7)), Bipartition.of(2, [1]),
                        PairingCounts(0, 0, 1))


def test_enumerate_class_partitions_all_matchings():
    # every partial matching lands in exactly one class
    sys = HalfEdgeSystem((2, 1, 3))
    bp = Bipartition.of(3, [1, 3])
    everything = enumerate_matchings(sys)
    by_counts = Counter(counts_of_matching(m, bp) for m in everything)
    for counts, expected in by_counts.items():
        got = enumerate_class(sys, bp, counts)
        assert len(got) == expected
        assert len(set(got)) == expected


@pytest.mark.parametrize("enumerate_", [
    enumerate_matchings, enumerate_maximal_matchings, enumerate_multigraphs])
def test_enumeration_budget_names_the_degrees(enumerate_):
    # the multigraph enumerator has a larger budget than the matching lists
    degrees = (9, 8) if enumerate_ is enumerate_multigraphs else (7, 6)
    with pytest.raises(ValueError,
                       match=r"budget.*degrees " + re.escape(str(degrees))):
        enumerate_(HalfEdgeSystem(degrees))


def test_multigraph_budget_reaches_total_degree_sixteen():
    # the weights count every partial matching of the 16 half-edges: the
    # involution (telephone) number T(16)
    weighted = enumerate_multigraphs(HalfEdgeSystem((8, 8)))
    assert sum(w for _, w in weighted) == 46_206_736


def test_enumerate_multigraphs_examples():
    # (2, 2): the empty graph, a loop at either vertex (1 way each), a single
    # 1-2 edge (2 * 2 ways), the double edge (4 / 2!) and two loops (4 / 2^2)
    weighted = dict(enumerate_multigraphs(SYS22))
    assert weighted == {
        Multigraph(2, ()): 1, Multigraph(2, [(1, 1)]): 1,
        Multigraph(2, [(2, 2)]): 1, Multigraph(2, [(1, 2)]): 4,
        Multigraph(2, [(1, 2), (1, 2)]): 2,
        Multigraph(2, [(1, 1), (2, 2)]): 1}
    assert enumerate_multigraphs(HalfEdgeSystem((0, 1, 0, 1)), 1) == [
        (Multigraph(4, [(2, 4)]), 1)]
    assert enumerate_multigraphs(SYS22, 3) == []


def test_enumerate_multigraphs_match_matching_counts():
    # each graph's weight is the number of matchings inducing it, on every
    # degree function with total degree <= 8 on <= 4 vertices
    for degrees in degree_functions(4, 8):
        sys = HalfEdgeSystem(degrees)
        matchings = enumerate_matchings(sys)
        weighted = enumerate_multigraphs(sys)
        assert dict(weighted) == Counter(graph_of_matching(sys, m)
                                         for m in matchings), degrees
        assert len(dict(weighted)) == len(weighted), degrees
        assert sum(w for _, w in weighted) == len(matchings), degrees
        maximal = Counter(graph_of_matching(sys, m)
                          for m in enumerate_maximal_matchings(sys))
        assert dict(enumerate_multigraphs(sys, sys.total // 2)) == maximal
        for size in range(sys.total // 2 + 2):
            assert enumerate_multigraphs(sys, size) == [
                (g, w) for g, w in weighted if len(g.edges) == size]


def test_enumerate_multigraphs_builds_canonical_graphs():
    # the graphs are built unchecked: each must be what the validating
    # constructor makes of its own edges, with the very same pairs
    for degrees in degree_functions(4, 8):
        for g, _ in enumerate_multigraphs(HalfEdgeSystem(degrees)):
            checked = Multigraph(g.n, g.edges)
            assert g == checked and g.edges == checked.edges, degrees
            assert type(g) is type(checked)


def test_counts_of_graph_match_counts_of_matching():
    for degrees in degree_functions(3, 6):
        sys = HalfEdgeSystem(degrees)
        for bp in bipartitions_of(sys.n):
            for m in enumerate_matchings(sys):
                assert (counts_of_graph(graph_of_matching(sys, m), bp)
                        == counts_of_matching(m, bp)), (degrees, m)


def test_enumerate_matchings_count():
    # 4 half-edges: 1 empty + C(4,2) singles + 3 perfect
    assert len(enumerate_matchings(SYS22)) == 10


def test_enumerate_maximal_examples():
    assert len(enumerate_maximal_matchings(SYS22)) == 3
    assert len(enumerate_maximal_matchings(HalfEdgeSystem((1, 1, 1)))) == 3


def test_sample_in_class_point_mass():
    for seed in range(10):
        m = sample_in_class(SYS22, BP22, PairingCounts(1, 1, 0),
                            np.random.default_rng(seed))
        assert graph_of_matching(SYS22, m) == Multigraph(2, ((1, 1), (2, 2)))


def test_sample_in_class_uniform_frequencies():
    rng = np.random.default_rng(4)
    target = enumerate_class(SYS22, BP22, PairingCounts(0, 0, 2))
    assert len(target) == 2
    counts = Counter(sample_in_class(SYS22, BP22, PairingCounts(0, 0, 2), rng)
                     for _ in range(4000))
    assert set(counts) == set(target)
    sigma = math.sqrt(0.25 / 4000)
    for freq in counts.values():
        assert abs(freq / 4000 - 0.5) < 4 * sigma


def test_is_simple_on_edge_array_matches_pair_check():
    rng = np.random.default_rng(5)
    verdicts = Counter()
    for _ in range(500):
        n = int(rng.integers(1, 8))
        ends = rng.integers(1, n + 1, size=(int(rng.integers(0, 8)), 2))
        by_array = Multigraph(n, ends)
        by_pairs = Multigraph(n, tuple(map(tuple, ends.tolist())))
        assert by_array.edge_array is not None and by_pairs.edge_array is None
        simple = _is_simple(by_array)
        has_loop = any(i == j for i, j in by_pairs.edges)
        has_parallel = len(set(by_pairs.edges)) < by_pairs.num_edges
        assert simple == (not has_loop and not has_parallel)
        verdicts[(has_loop, has_parallel)] += 1
    assert len(verdicts) == 4  # every mix of loops and parallels was seen


def test_sample_in_class_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        sample_in_class(SYS22, BP22, PairingCounts(2, 0, 1),
                        np.random.default_rng(0))


def test_conditional_decomposition_chi_square():
    # conditioned on its cross count, a uniform maximal matching is uniform
    # on the class with the forced within-side counts
    sys = HalfEdgeSystem((2, 2, 1, 1))
    bp = Bipartition.of(4, [1, 3])
    da, db = bp.degree_a(sys), bp.degree_b(sys)
    rng = np.random.default_rng(5)
    draws = 20_000
    by_gamma = {}
    for _ in range(draws):
        m = sample_uniform_matching(sys, rng)
        by_gamma.setdefault(counts_of_matching(m, bp).gamma, Counter())[m] += 1
    for gamma, counter in by_gamma.items():
        expected_class = enumerate_class(
            sys, bp, PairingCounts((da - gamma) // 2, (db - gamma) // 2, gamma))
        assert set(counter) <= set(expected_class)
        total = sum(counter.values())
        if total < 500:
            continue
        observed = np.array([counter.get(m, 0) for m in expected_class])
        expected = np.full(len(expected_class), total / len(expected_class))
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        p = stats.chi2.sf(chi2, df=len(expected_class) - 1)
        assert p > 1e-3, (gamma, chi2, p)


# ---------------------------------------------------------------------------
# simple-graph rejection


def test_sample_simple_examples():
    assert sample_simple((1, 1), np.random.default_rng(0)) == (
        Multigraph(2, ((1, 2),)))
    with pytest.raises(RejectionLimitError) as err:
        sample_simple((2, 2), np.random.default_rng(0), max_tries=64)
    assert err.value.attempts == 64
    for seed in range(5):
        g = sample_simple((2, 2, 2), np.random.default_rng(seed))
        assert g == Multigraph(3, ((1, 2), (1, 3), (2, 3)))


def test_sample_simple_validates_tries():
    with pytest.raises(ValueError):
        sample_simple((1, 1), np.random.default_rng(0), max_tries=0)
