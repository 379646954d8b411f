import dataclasses
import gc
import math
import pickle
import tracemalloc
from itertools import combinations_with_replacement

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlimits import graphs
from graphlimits.config_model import _is_simple, sample_uniform_graph
from graphlimits.degree import DegreeDistribution, sample_iid
from graphlimits.graphs import (
    INDEPENDENCE,
    MAX_CUT,
    NEG_COMPONENTS,
    POS_COMPONENTS,
    GraphParameter,
    Multigraph,
    _component_roots,
    _independence_degree_two,
    _max_cut_degree_two,
    _simple_adjacency,
    certify_parameter,
    evaluate_many,
    increment_matrix,
    independence_number,
    is_cnd,
    ising_model,
    ising_parameter,
    log_partition,
    max_cut,
    num_components,
    parameter_from_name,
    potts_model,
    potts_parameter,
    random_multigraph,
)

TRIANGLE = Multigraph(3, ((1, 2), (2, 3), (1, 3)))
PATH3 = Multigraph(3, ((1, 2), (2, 3)))
EDGE = Multigraph(2, ((1, 2),))


# ---------------------------------------------------------------------------
# independent oracles


def components_union_find(g):
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(1, g.n + 1)})


BRUTE_FORCE_LIMIT = 20      # subset-enumeration oracle


def _independent_masks(g: Multigraph):
    """Boolean table over all vertex subsets: is the subset independent?"""
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large for exact solver: n={g.n} > {BRUTE_FORCE_LIMIT}")
    adj, loops = _simple_adjacency(g)
    size = 1 << g.n
    ok = bytearray(size)
    ok[0] = 1
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        ok[mask] = 1 if (ok[rest] and not (adj[v] & rest) and not (loops & low)) else 0
    return ok


def independence_number_brute(g: Multigraph) -> int:
    """Subset-enumeration oracle for the independence number (n <= 20)."""
    if g.n == 0:
        return 0
    ok = _independent_masks(g)
    return max(mask.bit_count() for mask in range(len(ok)) if ok[mask])


def max_cut_subsets(g):
    best = 0
    for mask in range(1 << g.n):
        cut = sum(1 for i, j in g.edges
                  if i != j and (mask >> (i - 1) & 1) != (mask >> (j - 1) & 1))
        best = max(best, cut)
    return best


# ---------------------------------------------------------------------------
# multigraph basics


def test_multigraph_canonical_equality():
    a = Multigraph(3, ((2, 1), (3, 2), (1, 2)))
    b = Multigraph(3, ((1, 2), (1, 2), (2, 3)))
    assert a == b
    assert a.degrees() == (2, 3, 1)
    assert Multigraph(1, ((1, 1),)).degrees() == (2,)


def test_multigraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Multigraph(2, ((1, 3),))
    with pytest.raises(ValueError):
        Multigraph(-1)


def test_add_edge_equals_rebuilt_graph():
    rng = np.random.default_rng(22)
    for _ in range(300):
        g = random_multigraph(rng, 6, 8)
        i, j = rng.integers(1, g.n + 1, size=2)
        expect = Multigraph(g.n, g.edges + ((i, j),))
        endpoints = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
        for base in (g, Multigraph(g.n, endpoints)):
            got = base.add_edge(i, j)
            assert got == expect and hash(got) == hash(expect)
            assert got.edges == expect.edges and got.edge_array is None
    for i, j in ((3, 1), (0, 2), (1, -4)):
        with pytest.raises(ValueError) as err:
            EDGE.add_edge(i, j)
        assert str(err.value) == f"edge ({i}, {j}) outside 1..2"


def networkx_components(g):
    oracle = nx.MultiGraph()
    oracle.add_nodes_from(range(1, g.n + 1))
    oracle.add_edges_from(g.edges)
    return nx.number_connected_components(oracle)


@st.composite
def endpoint_lists(draw):
    """(n, endpoint pairs) with isolated vertices, loops, parallel edges and
    m = 0 all reachable."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return 0, []
    vertex = st.integers(1, n)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=40))


@st.composite
def degree_two_pairings(draw):
    """(n, pairs) from a random stub pairing with every degree <= 2."""
    degrees = draw(st.lists(st.integers(0, 2), max_size=30))
    stubs = draw(st.permutations([v for v, d in enumerate(degrees, 1)
                                  for _ in range(d)]))
    return len(degrees), list(zip(stubs[::2], stubs[1::2]))


def assert_same_graph(n, pairs):
    by_pairs = Multigraph(n, tuple(pairs))
    by_array = Multigraph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert by_array.edge_array is not None and by_pairs.edge_array is None
    assert by_array == by_pairs and by_pairs == by_array
    assert hash(by_array) == hash(by_pairs)
    assert by_array.edges == by_pairs.edges
    assert by_array.num_edges == by_pairs.num_edges == len(pairs)
    assert by_array.degrees() == by_pairs.degrees()
    assert by_array.max_degree() == by_pairs.max_degree()
    assert by_array.to_text() == by_pairs.to_text()
    assert (num_components(by_array) == num_components(by_pairs)
            == networkx_components(by_pairs))
    if by_pairs.max_degree() <= 2:
        assert independence_number(by_array) == independence_number(by_pairs)
        assert max_cut(by_array) == max_cut(by_pairs)
    return by_pairs, by_array


@settings(max_examples=300)
@given(endpoint_lists())
def test_array_and_pair_graphs_agree(case):
    assert_same_graph(*case)


@settings(max_examples=300)
@given(degree_two_pairings())
def test_array_and_pair_graphs_agree_at_degree_two(case):
    _, by_array = assert_same_graph(*case)
    assert by_array.max_degree() <= 2


@st.composite
def sparse_and_dense_graphs(draw):
    """(n, endpoint pairs) with n <= 60 and up to 3n edges: few edges hook
    few roots per round, so the components pass jumps only the hooked roots,
    and many edges make it jump the whole root array."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, []
    vertex = st.integers(1, n)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


def smallest_vertex_roots(n, pairs):
    """0-based smallest vertex of each vertex's component, from networkx."""
    oracle = nx.MultiGraph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from((i - 1, j - 1) for i, j in pairs)
    roots = np.empty(n, dtype=np.int64)
    for component in nx.connected_components(oracle):
        roots[list(component)] = min(component)
    return roots


@settings(max_examples=400)
@given(sparse_and_dense_graphs())
def test_component_roots_match_union_find_and_networkx(case):
    n, pairs = case
    by_array = Multigraph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    by_pairs = Multigraph(n, tuple(pairs))
    expected = smallest_vertex_roots(n, pairs)
    assert np.array_equal(_component_roots(by_array), expected)
    assert np.array_equal(_component_roots(by_pairs), expected)


def test_component_roots_reach_both_jumps(monkeypatch):
    # 90 random edges on 60 vertices hook many roots in the first round, so
    # the whole array is jumped; a few edges, here a chain hooked in
    # descending order, hook so few that only the hooked roots are
    jumps = []
    jump = graphs._jump

    def record(root, at):
        jumps.append("all" if isinstance(at, slice) else "hooked")
        jump(root, at)

    monkeypatch.setattr(graphs, "_jump", record)
    dense = np.random.default_rng(3).integers(1, 61, size=(90, 2)).tolist()
    sparse = [(50, 40), (40, 30), (30, 20), (7, 7), (2, 3)]
    for pairs, first in ((dense, "all"), (sparse, "hooked")):
        jumps.clear()
        g = Multigraph(60, np.array(pairs))
        assert np.array_equal(_component_roots(g), smallest_vertex_roots(60, pairs))
        # every vertex is flattened once at the end
        assert (jumps[0], jumps[-1]) == (first, "all")


def test_array_graph_accepts_any_integer_dtype():
    pairs = [(3, 1), (2, 2), (1, 3), (4, 1)]
    expected = Multigraph(4, pairs)
    for dtype in (np.int32, np.uint16, np.int64):
        assert Multigraph(4, np.array(pairs, dtype=dtype)) == expected
    assert Multigraph(4, np.empty((0, 2), dtype=np.int64)) == Multigraph(4)
    # past 2^31 vertices the packed sort key would overflow
    huge = 1 << 31
    assert Multigraph(huge, np.array(pairs)).edges == Multigraph(huge, pairs).edges


def test_degree_two_closed_forms_reject_other_components():
    k4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for g in (Multigraph(4, k4), Multigraph(4, np.array(k4))):
        for closed_form in (_independence_degree_two, _max_cut_degree_two):
            with pytest.raises(AssertionError, match="unexpected edge count"):
                closed_form(g)


def test_array_graph_rejects_bad_edges():
    for bad in ([(1, 2), (2, 5)], [(0, 1)]):
        i, j = bad[-1]
        with pytest.raises(ValueError, match=rf"edge \({i}, {j}\) outside 1\.\.4"):
            Multigraph(4, np.array(bad))
    with pytest.raises(ValueError, match="must be"):
        Multigraph(4, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="must be"):
        Multigraph(4, np.array([1, 2, 3]))


def test_array_graph_rejects_bad_edges_at_construction():
    # the messages of the eager canonical sort, raised before any access
    for bad, message in (
            (np.array([(1, 2), (2, 5)]), "edge (2, 5) outside 1..4"),
            (np.array([(0, 1)]), "edge (0, 1) outside 1..4"),
            (np.array([[1.0, 2.0]]),
             "edge array must be (m, 2) integers, got float64 of shape (1, 2)"),
            (np.array([1, 2, 3]),
             "edge array must be (m, 2) integers, got int64 of shape (3,)")):
        with pytest.raises(ValueError) as err:
            Multigraph(4, bad)
        assert str(err.value) == message


@settings(max_examples=200)
@given(endpoint_lists(), st.booleans())
def test_lazy_array_graph_matches_pair_graph(case, sorted_first):
    # the canonical order is built on first access, or after a pickle round
    # trip; either way the graph is the pair-built one
    n, pairs = case
    given_ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    by_pairs = Multigraph(n, tuple(pairs))
    by_array = Multigraph(n, given_ends)
    assert np.array_equal(by_array.ends, given_ends)
    if sorted_first:
        assert by_array.edges == by_pairs.edges
    canonical = [(min(e), max(e)) for e in pairs]
    simple = (len(set(canonical)) == len(canonical)
              and all(i != j for i, j in canonical))
    for g in (by_array, pickle.loads(pickle.dumps(by_array))):
        assert type(g) is type(by_array) and isinstance(g, Multigraph)
        assert g == by_pairs and by_pairs == g and g == by_array
        assert hash(g) == hash(by_pairs)
        assert g.edges == by_pairs.edges and g.to_text() == by_pairs.to_text()
        assert g.num_edges == len(pairs) and g.degrees() == by_pairs.degrees()
        assert np.array_equal(g.edge_array,
                              np.array(by_pairs.edges, dtype=np.int64).reshape(-1, 2))
        assert _is_simple(g) == simple
    if pairs:
        with pytest.raises(ValueError):
            by_array.ends[0, 0] = 1


def test_sampled_graph_is_evaluated_without_sorting(monkeypatch):
    def refuse(*args):
        raise AssertionError("canonical sort during evaluation")

    monkeypatch.setattr(graphs, "_canonical_array", refuse)
    rng = np.random.default_rng(19)
    low = [sample_uniform_graph(sample_iid(DegreeDistribution({0: .2, 1: .3, 2: .5}),
                                           300, rng), rng) for _ in range(3)]
    cubic = sample_uniform_graph([3] * 300, rng)
    for g in (*low, cubic):
        g.degrees(), g.max_degree(), g.num_edges
        num_components(g), graphs.neg_num_components(g)
    for g in low:
        independence_number(g), max_cut(g)
    for param in (INDEPENDENCE, MAX_CUT, NEG_COMPONENTS, POS_COMPONENTS):
        evaluate_many(param, low)
    evaluate_many(NEG_COMPONENTS, [cubic, cubic])
    monkeypatch.undo()
    assert cubic.edges == Multigraph(300, cubic.edges).edges


def test_large_array_graph_matches_networkx_and_pair_graph():
    rng = np.random.default_rng(2014)
    n = 200_000
    degrees = rng.choice(3, size=n, p=[0.1, 0.4, 0.5])
    g = sample_uniform_graph(degrees.tolist(), rng)
    assert g.edge_array is not None and g.max_degree() <= 2
    assert num_components(g) == networkx_components(g)
    by_pairs = Multigraph(n, g.edges)
    assert by_pairs == g and by_pairs.degrees() == g.degrees()
    assert num_components(by_pairs) == num_components(g)
    assert independence_number(g) == independence_number(by_pairs)
    assert max_cut(g) == max_cut(by_pairs)
    # one giant component through the pair-form union-find
    path = Multigraph(n, tuple((v, v + 1) for v in range(1, n)))
    assert path.edge_array is None
    assert num_components(path) == 1
    assert independence_number(path) == n // 2
    assert max_cut(path) == n - 1


def test_large_cubic_graph_matches_networkx():
    # one giant component, reached through many rounds of the array pass
    rng = np.random.default_rng(2013)
    g = sample_uniform_graph(sample_iid(DegreeDistribution({3: 1}), 200_000, rng),
                             rng)
    assert g.edge_array is not None and g.num_edges == 300_000
    assert num_components(g) == networkx_components(g)


def test_text_round_trip():
    g = Multigraph(4, ((1, 2), (2, 2), (3, 4)))
    assert Multigraph.from_text(g.to_text()) == g
    with pytest.raises(ValueError):
        Multigraph.from_text("3 2\n1 2\n")
    with pytest.raises(ValueError):
        Multigraph.from_text("")


def test_random_multigraph_bounds():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = random_multigraph(rng, 6, 8)
        assert 1 <= g.n <= 6 and g.num_edges <= 8


# ---------------------------------------------------------------------------
# parameter values


def test_num_components_examples():
    assert num_components(Multigraph(4)) == 4
    assert num_components(EDGE) == 1
    g = Multigraph(3, ((1, 2), (1, 2), (3, 3)))
    assert num_components(g) == 2 == components_union_find(g)


def test_num_components_matches_union_find():
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = random_multigraph(rng, 8, 10)
        assert num_components(g) == components_union_find(g)


def test_independence_examples():
    assert independence_number(EDGE) == 1
    assert independence_number(Multigraph(1, ((1, 1),))) == 0
    c5 = Multigraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    assert independence_number(c5) == 2 == independence_number_brute(c5)


def test_independence_branch_bound_vs_brute():
    rng = np.random.default_rng(2)
    for _ in range(150):
        g = random_multigraph(rng, 9, 14)
        assert independence_number(g) == independence_number_brute(g)


def _closure_branch_bound(adj, candidates: int, visits: list) -> int:
    """The earlier closure form of the branch-and-bound, recording the
    (mask, size) of every node it explores."""
    best = 0

    def rec(mask: int, size: int):
        nonlocal best
        visits.append((mask, size))
        if size > best:
            best = size
        if size + mask.bit_count() <= best:
            return
        m = mask
        pivot, pivot_deg = -1, -1
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (adj[v] & mask).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        if pivot_deg == 0:
            best = max(best, size + mask.bit_count())
            return
        rec(mask & ~(adj[pivot] | (1 << pivot)), size + 1)
        rec(mask ^ (1 << pivot), size)

    rec(candidates, 0)
    return best


def test_branch_bound_explores_the_closure_forms_nodes(monkeypatch):
    # the module-level recursion keeps the pivot rule and branch order:
    # same value, same nodes in the same order
    search = graphs._branch_bound_alpha
    visits = []

    def recording(adj, mask, size=0, best=0):
        visits.append((mask, size))
        return search(adj, mask, size, best)

    monkeypatch.setattr(graphs, "_branch_bound_alpha", recording)
    rng = np.random.default_rng(12)
    explored = 0
    for _ in range(150):
        g = random_multigraph(rng, 14, 24)
        if g.max_degree() <= 2:
            continue
        adj, loops = _simple_adjacency(g)
        expected = []
        value = _closure_branch_bound(adj, ((1 << g.n) - 1) & ~loops, expected)
        visits.clear()
        assert independence_number(g) == value
        assert visits == expected
        explored += len(expected)
    assert explored > 1000


def test_branch_bound_leaves_no_reference_cycles():
    # a recursive closure left one cycle per call for the cyclic collector
    g = Multigraph(5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5),
                       (4, 5)))
    assert g.max_degree() == 3
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert independence_number(g) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_independence_closed_form_vs_brute_on_sparse():
    # degree <= 2 instances exercise the path/cycle closed form
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(400):
        g = random_multigraph(rng, 10, 8)
        if g.max_degree() <= 2:
            hits += 1
            assert independence_number(g) == independence_number_brute(g)
            assert max_cut(g) == max_cut_subsets(g)
    assert hits > 30


def test_independence_size_limit():
    big = Multigraph(41, tuple((i, i + 1) for i in range(1, 41))
                     + ((1, 3), (2, 4), (1, 4)))
    assert big.max_degree() > 2
    with pytest.raises(ValueError, match="too large"):
        independence_number(big)


def test_mis_core_examples():
    assert mis_core(EDGE) == frozenset()
    assert mis_core(PATH3) == frozenset({1, 3})
    assert mis_core(Multigraph(3)) == frozenset({1, 2, 3})


def test_max_cut_examples():
    assert max_cut(TRIANGLE) == 2
    assert max_cut(Multigraph(2, ((1, 2), (1, 2)))) == 2
    assert max_cut(Multigraph(1, ((1, 1),))) == 0


def test_max_cut_matches_subset_oracle():
    rng = np.random.default_rng(4)
    for _ in range(150):
        g = random_multigraph(rng, 8, 12)
        assert max_cut(g) == max_cut_subsets(g)


# ---------------------------------------------------------------------------
# spin models


def test_ising_model_values():
    assert ising_model(0.0).J == ((1.0, 1.0), (1.0, 1.0))
    m = ising_model(1.0)
    assert m.J[0][0] == pytest.approx(math.exp(-1))
    assert m.J[0][1] == pytest.approx(math.e)
    with pytest.raises(ValueError):
        ising_model(-1.0)


def test_potts_model_values():
    assert potts_model(2, 0.0).J == ((1.0, 1.0), (1.0, 1.0))
    m = potts_model(3, 1.0)
    assert m.J[0][0] == pytest.approx(math.exp(-1))
    assert m.J[0][1] == 1.0
    with pytest.raises(ValueError):
        potts_model(1, 1.0)
    with pytest.raises(ValueError):
        potts_model(3, -0.5)


def test_log_partition_examples():
    assert log_partition(Multigraph(3), ising_model(0.0)) == pytest.approx(
        3 * math.log(2), abs=1e-12)
    assert log_partition(EDGE, ising_model(1.0)) == pytest.approx(
        math.log(2 * math.e + 2 / math.e), abs=1e-12)
    beta = 0.8
    assert log_partition(Multigraph(1, ((1, 1),)), ising_model(beta)) == (
        pytest.approx(math.log(2) - beta, abs=1e-12))


def test_log_partition_counts_multiplicity():
    # double edge squares the interaction inside each term
    m = ising_model(0.5)
    double = Multigraph(2, ((1, 2), (1, 2)))
    expect = math.log(2 * math.exp(-1.0) + 2 * math.exp(1.0))
    assert log_partition(double, m) == pytest.approx(expect, abs=1e-12)


def test_log_partition_budget():
    with pytest.raises(ValueError, match="budget"):
        log_partition(Multigraph(30), ising_model(1.0))
    with pytest.raises(ValueError) as err:
        log_partition(Multigraph(11), potts_model(5, 1.0))
    assert str(err.value) == "enumeration budget exceeded: 5^11 states > 16777216"


def log_partition_digits(g, model):
    """The digit-table enumeration that ``log_partition`` replaced: each
    window of ``_CHUNK`` states builds its (states, n) table of spins by
    integer division and gathers every weight from it."""
    n = g.n
    if n == 0:
        return 0.0
    log_h = np.log(np.array(model.h))
    log_J = np.log(np.array(model.J))
    edges0 = [(i - 1, j - 1) for i, j in g.edges]
    powers = model.q ** np.arange(n, dtype=np.int64)
    total_states = model.q ** n
    shifts = []
    sums = []
    for lo in range(0, total_states, graphs._CHUNK):
        idx = np.arange(lo, min(lo + graphs._CHUNK, total_states), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % model.q
        logw = log_h[digits].sum(axis=1)
        for a, b in edges0:
            logw += log_J[digits[:, a], digits[:, b]]
        m = float(logw.max())
        shifts.append(m)
        sums.append(float(np.exp(logw - m).sum()))
    top = max(shifts)
    return top + math.log(sum(s * math.exp(m - top) for m, s in zip(shifts, sums)))


# unequal log J entries: unlike ising and potts, the order of its sums shows
SKEWED = graphs.SpinModel(3, (1.0, 1.0, 1.0), ((0.7, 1.3, 2.9), (1.3, 0.4, 1.1),
                                              (2.9, 1.1, 3.7)))
VERTEX_WEIGHTED = graphs.SpinModel(3, (0.3, 1.7, 2.2),
                                   ((1.0, 2.0, 3.0), (2.0, 0.5, 1.0),
                                    (3.0, 1.0, 4.0)))
BIT_IDENTITY_MODELS = [ising_model(0.0), ising_model(0.5), ising_model(2.0),
                       potts_model(3, 1.0), potts_model(5, 0.3), SKEWED]


def test_log_partition_is_bit_identical_to_digit_enumeration():
    rng = np.random.default_rng(14)
    for k in range(320):
        g = random_multigraph(rng, 6, 8)
        if k % 2:   # the disjoint unions that certify_parameter evaluates
            g = g.disjoint_union(random_multigraph(rng, 6, 8))
        for model in BIT_IDENTITY_MODELS:
            if model.q ** g.n <= 3 ** 12:
                assert log_partition(g, model) == log_partition_digits(g, model)


@pytest.mark.parametrize("model,n", [
    (ising_model(0.5), 17), (ising_model(2.0), 18), (potts_model(3, 1.0), 11),
    (potts_model(3, 1.0), 12), (potts_model(3, 1.0), 13), (SKEWED, 12),
    (potts_model(4, 0.7), 9), (potts_model(5, 0.3), 7), (potts_model(5, 0.3), 8),
])
def test_log_partition_windows_cross_slabs_bit_identically(model, n):
    # q^n > _CHUNK: several windows, and for q not a power of 2 windows
    # that straddle slab boundaries
    assert model.q ** n > graphs._CHUNK
    rng = np.random.default_rng(n * model.q)
    edges = rng.integers(1, n + 1, size=(2 * n, 2))
    g = Multigraph(n, tuple((int(a), int(b)) for a, b in edges) + ((1, 1), (n, n)))
    assert log_partition(g, model) == log_partition_digits(g, model)


def test_log_partition_with_vertex_weights_matches_digit_enumeration():
    # unequal h: the vertex weights are summed in vertex order, which
    # numpy's row sum need not follow, so agreement is to rounding
    model = VERTEX_WEIGHTED
    rng = np.random.default_rng(15)
    for _ in range(100):
        g = random_multigraph(rng, 9, 12)
        assert log_partition(g, model) == pytest.approx(
            log_partition_digits(g, model), rel=0, abs=1e-12)
    # 3^11 states: the weights of vertices fixed by a slab are added too
    g = Multigraph(11, tuple((v, v % 11 + 1) for v in range(1, 12)))
    assert log_partition(g, model) == pytest.approx(
        log_partition_digits(g, model), rel=0, abs=1e-12)


# graphs whose slabs leave axes untouched: no terms at all, a slab whose
# first term is one of the vertices it fixes, and a fixed term before a
# free one
SPARSE_SLAB_CASES = [
    (Multigraph(5), BIT_IDENTITY_MODELS),
    (Multigraph(17, ((17, 17),)), [ising_model(0.5), ising_model(2.0)]),
    (Multigraph(17, ((2, 17), (3, 3))), [ising_model(0.5)]),
    (Multigraph(11, ((11, 11),)), [potts_model(3, 1.0), SKEWED]),
]


@pytest.mark.parametrize("g,models", SPARSE_SLAB_CASES,
                         ids=["no-terms", "fixed-loop", "fixed-then-free",
                              "potts-fixed-loop"])
def test_log_partition_bit_identical_on_sparse_slabs(g, models):
    for model in models:
        assert log_partition(g, model) == log_partition_digits(g, model)


@pytest.mark.parametrize("g,models", SPARSE_SLAB_CASES[:3],
                         ids=["no-terms", "fixed-loop", "fixed-then-free"])
def test_spin_increments_on_sparse_slabs_match_black_box(g, models):
    for model in models:
        p = graphs.spin_parameter(model, "spin")
        assert np.abs(graphs._spin_increments(g, model)
                      - increment_matrix(black_box(p), g)).max() <= 1e-12


def brute_log_partition(g, model):
    h, J = np.array(model.h), np.array(model.J)
    total = 0.0
    for state in np.ndindex(*(model.q,) * g.n):
        w = math.prod(h[s] for s in state)
        for i, j in g.edges:
            w *= J[state[i - 1], state[j - 1]]
        total += w
    return math.log(total)


def test_log_partition_brute_force_cross_check():
    rng = np.random.default_rng(5)
    model = potts_model(3, 0.7)
    for _ in range(25):
        g = random_multigraph(rng, 4, 5)
        assert log_partition(g, model) == pytest.approx(
            brute_log_partition(g, model), abs=1e-10)


@st.composite
def spin_cases(draw):
    """(graph, model): q in {2, 3}, n <= 5, loops and parallel edges
    reachable, positive h and symmetric positive J."""
    n = draw(st.integers(0, 5))
    vertex = st.integers(1, max(n, 1))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8)) if n else []
    q = draw(st.sampled_from([2, 3]))
    weight = st.floats(0.1, 5.0)
    h = draw(st.lists(weight, min_size=q, max_size=q))
    upper = {(s, t): draw(weight) for s in range(q) for t in range(s, q)}
    J = [[upper[min(s, t), max(s, t)] for t in range(q)] for s in range(q)]
    return Multigraph(n, tuple(pairs)), graphs.SpinModel(q, tuple(h), J)


@settings(max_examples=200, deadline=None)
@given(spin_cases())
def test_log_partition_matches_brute_force_product(case):
    g, model = case
    assert log_partition(g, model) == pytest.approx(
        brute_log_partition(g, model), rel=0, abs=1e-10)


def test_log_partition_memory_is_bounded():
    # a 20-vertex cycle has 2^20 states; the digit tables held ~30 MB
    cycle = Multigraph(20, tuple((v, v % 20 + 1) for v in range(1, 21)))
    tracemalloc.start()
    try:
        value = log_partition(cycle, ising_model(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    # transfer matrix: Z = tr(J^20) = (2 cosh 0.5)^20 + (2 sinh 0.5)^20
    assert value == pytest.approx(math.log((2 * math.cosh(0.5)) ** 20
                                           + (2 * math.sinh(0.5)) ** 20), abs=1e-9)

def mixed_size_graphs(model, seed, count=60):
    """Graphs of every n from 0 up to one past the largest the rows take
    (2 q^n <= _CHUNK), with loops and parallel edges, in shuffled order."""
    rng = np.random.default_rng(seed)
    top = max(n for n in range(40) if 2 * model.q ** n <= graphs._CHUNK) + 1
    out = [Multigraph(0), Multigraph(top), Multigraph(top - 1, ((1, 1),)),
           Multigraph(3, ((1, 2), (1, 2), (2, 2), (3, 3), (2, 3)))]
    for _ in range(count):
        n = int(rng.integers(0, top - 1)) if rng.uniform() < 0.9 else top
        m = int(rng.integers(0, 2 * n + 1)) if n else 0
        out.append(Multigraph(n, tuple(map(tuple, rng.integers(
            1, n + 1, size=(m, 2)).tolist())) if n else ()))
    return [out[k] for k in rng.permutation(len(out))]


@pytest.fixture
def row_batches(monkeypatch):
    """(n, batch size) of each _log_partition_rows call, and the n of each
    graph enumerated in slabs."""
    calls = {"rows": [], "slab": []}
    rows, slabs = graphs._log_partition_rows, graphs._log_weight_slabs

    def record_rows(batch, model):
        calls["rows"].append((batch[0].n, len(batch)))
        return rows(batch, model)

    def record_slabs(g, model, *limit):
        calls["slab"].append(g.n)
        return slabs(g, model, *limit)

    monkeypatch.setattr(graphs, "_log_partition_rows", record_rows)
    monkeypatch.setattr(graphs, "_log_weight_slabs", record_slabs)
    return calls


ROW_MODELS = BIT_IDENTITY_MODELS + [VERTEX_WEIGHTED]
ROW_MODEL_IDS = ["ising0", "ising0.5", "ising2", "potts3", "potts5", "skewed",
                 "weighted"]


@pytest.mark.parametrize("model", ROW_MODELS, ids=ROW_MODEL_IDS)
def test_batched_log_partitions_match_slabs_and_digits(model, row_batches):
    gs = mixed_size_graphs(model, 31)
    values = evaluate_many(graphs.spin_parameter(model, "spin"), gs)
    rows, slab = row_batches["rows"][:], row_batches["slab"][:]
    # bit-identical to the slab path, graph by graph
    assert values == [log_partition(g, model) for g in gs]
    assert all(type(v) is float for v in values)
    for g, v in zip(gs, values):
        if model.q ** g.n <= 3 ** 10:
            expect = log_partition_digits(g, model)
            if model is VERTEX_WEIGHTED:    # row sums in another order
                assert v == pytest.approx(expect, rel=0, abs=1e-12)
            else:
                assert v == expect
    # the rows took the graphs with n >= 1 that leave room for another in
    # a batch, several to a call, and the slab path the others
    for n, size in rows:
        assert 0 < n and 2 * model.q ** n <= graphs._CHUNK
        assert size * model.q ** n <= graphs._CHUNK
    assert max(size for _, size in rows) > 1
    assert sorted(slab) == sorted(g.n for g in gs if g.n == 0
                                  or 2 * model.q ** g.n > graphs._CHUNK)
    assert max(slab) > 0


# ---------------------------------------------------------------------------
# parameters as class members


def test_parameter_registry():
    assert parameter_from_name("independence") is INDEPENDENCE
    assert parameter_from_name("neg-components") is NEG_COMPONENTS
    assert parameter_from_name("ising", beta=2.0).kappa == pytest.approx(2.0)
    assert parameter_from_name("potts", beta=1.0, q=3).kappa == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parameter_from_name("ising")
    with pytest.raises(ValueError):
        parameter_from_name("nope")


def test_isomorphism_invariance():
    rng = np.random.default_rng(6)
    params = [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS,
              ising_parameter(0.5), potts_parameter(3, 1.0)]
    for _ in range(10):
        g = random_multigraph(rng, 6, 8)
        values = [p.evaluate(g) for p in params]
        for _ in range(20):
            perm = list(rng.permutation(g.n) + 1)
            h = Multigraph(g.n, [(perm[i - 1], perm[j - 1])
                                 for i, j in g.edges])
            for p, v in zip(params, values):
                assert p.evaluate(h) == pytest.approx(v, abs=1e-9)


# ---------------------------------------------------------------------------
# many graphs at once

FAMILIES = (INDEPENDENCE, MAX_CUT, NEG_COMPONENTS, POS_COMPONENTS)


@st.composite
def same_size_batches(draw):
    """Two to five array-held graphs on one n in 1..12, each from a random
    stub pairing with degrees up to a cap of 1, 2 or 3: loops, parallel
    edges, isolated vertices and n = 1 all reachable."""
    n = draw(st.integers(1, 12))
    cap = draw(st.integers(1, 3))
    batch = []
    for _ in range(draw(st.integers(2, 5))):
        degrees = draw(st.lists(st.integers(0, cap), min_size=n, max_size=n))
        stubs = draw(st.permutations([v for v, d in enumerate(degrees, 1)
                                      for _ in range(d)]))
        pairs = list(zip(stubs[::2], stubs[1::2]))
        batch.append(Multigraph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)))
    return batch


def assert_evaluated_one_by_one(param, batch):
    expected = [param.evaluate(g) for g in batch]
    got = evaluate_many(param, batch)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


@settings(max_examples=300)
@given(same_size_batches())
def test_evaluate_many_matches_one_by_one(batch):
    for param in FAMILIES:
        assert_evaluated_one_by_one(param, batch)


@pytest.fixture
def component_passes(monkeypatch):
    calls = []
    roots = graphs._component_roots

    def record(g):
        calls.append(g.n)
        return roots(g)

    monkeypatch.setattr(graphs, "_component_roots", record)
    return calls


@pytest.mark.parametrize("param", FAMILIES)
def test_evaluate_many_makes_one_components_pass(param, component_passes):
    rng = np.random.default_rng(23)
    batch = [sample_uniform_graph([2] * 50 + [1] * 10 + [0] * 5, rng)
             for _ in range(7)]
    assert_evaluated_one_by_one(param, batch)
    # seven passes one by one, then one over the union of 7 x 65 vertices
    assert component_passes == [65] * 7 + [455]


def test_evaluate_many_falls_back_one_by_one(component_passes):
    rng = np.random.default_rng(29)
    on_10 = [sample_uniform_graph([2] * 10, rng) for _ in range(3)]
    wrapped = GraphParameter("wrapped", 1.0, lambda g: num_components(g))
    cases = [
        (NEG_COMPONENTS, [Multigraph(0, np.empty((0, 2), dtype=np.int64))] * 3),
        (NEG_COMPONENTS, on_10[:1]),
        (NEG_COMPONENTS, [Multigraph(10, g.edges) for g in on_10]),
        (NEG_COMPONENTS, on_10 + [sample_uniform_graph([2] * 12, rng)]),
        (wrapped, on_10),
        (NEG_COMPONENTS, []),
    ]
    for param, batch in cases:
        component_passes.clear()
        assert_evaluated_one_by_one(param, batch)
        # one pass per graph and per evaluation: never a union
        assert component_passes == [g.n for g in batch] * 2
    # spin parameters are not component rules
    assert_evaluated_one_by_one(ising_parameter(0.5), on_10[:2])


def test_evaluate_many_solves_degree_three_graphs_one_by_one(component_passes):
    rng = np.random.default_rng(31)
    for n in (8, 40):
        batch = [sample_uniform_graph([3] * (n - 2) + [2, 2], rng),
                 sample_uniform_graph([2] * n, rng)]
        component_passes.clear()
        for param in (INDEPENDENCE, MAX_CUT) if n <= 24 else (INDEPENDENCE,):
            assert_evaluated_one_by_one(param, batch)
        assert 2 * n not in component_passes
    big = [sample_uniform_graph([3] * 42, rng) for _ in range(2)]
    with pytest.raises(ValueError, match="n=42 > 40"):
        evaluate_many(INDEPENDENCE, big)


# ---------------------------------------------------------------------------
# increments


def test_increment_matrix_examples():
    inc = increment_matrix(INDEPENDENCE, Multigraph(2))
    assert (inc == -1).all()
    inc = increment_matrix(MAX_CUT, EDGE)
    assert inc[0, 1] == 1
    assert inc[0, 0] == 0 and inc[1, 1] == 0
    inc = increment_matrix(NEG_COMPONENTS, EDGE)
    assert (inc == 0).all()


def mis_core(g: Multigraph) -> frozenset:
    """Vertices belonging to every maximum independent set (n <= 20)."""
    if g.n == 0:
        return frozenset()
    ok = _independent_masks(g)
    alpha = max(mask.bit_count() for mask in range(len(ok)) if ok[mask])
    core = (1 << g.n) - 1
    for mask in range(len(ok)):
        if ok[mask] and mask.bit_count() == alpha:
            core &= mask
    return frozenset(v + 1 for v in range(g.n) if core >> v & 1)


def _core_indicator(g):
    core = mis_core(g)
    ind = np.zeros((g.n, g.n))
    for i in core:
        for j in core:
            ind[i - 1, j - 1] = 1
    return ind


def test_independence_increment_formula():
    # adding ij loses exactly one vertex iff both endpoints sit in the
    # intersection of all maximum independent sets
    rng = np.random.default_rng(7)
    for _ in range(120):
        g = random_multigraph(rng, 6, 8)
        inc = increment_matrix(INDEPENDENCE, g)
        assert np.array_equal(inc, -_core_indicator(g))


def test_max_cut_increment_formula():
    # increment is 0 iff i and j agree on every maximum cut
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = random_multigraph(rng, 6, 8)
        value = max_cut(g)
        same_side = np.ones((g.n, g.n), dtype=bool)
        for mask in range(1 << g.n):
            cut = sum(1 for i, j in g.edges if i != j
                      and (mask >> (i - 1) & 1) != (mask >> (j - 1) & 1))
            if cut == value:
                side = np.array([(mask >> v & 1) for v in range(g.n)])
                same_side &= np.equal.outer(side, side)
        inc = increment_matrix(MAX_CUT, g)
        assert np.array_equal(inc, 1.0 - same_side)


def test_components_increment_formula():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = random_multigraph(rng, 6, 8)
        inc = increment_matrix(NEG_COMPONENTS, g)
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                joined = num_components(g.add_edge(i, j)) != num_components(g)
                assert inc[i - 1, j - 1] == (1.0 if joined else 0.0)


def black_box(p):
    """p behind a plain function: increment_matrix then evaluates p on
    every G + ij."""
    return GraphParameter(p.name, p.kappa, lambda g: p.evaluate(g))


@pytest.fixture
def pair_loop_calls(monkeypatch):
    """The graphs whose increments are evaluated on each G + ij."""
    calls, loop = [], graphs._evaluated_increments
    monkeypatch.setattr(graphs, "_evaluated_increments",
                        lambda evaluate, g: calls.append(g) or loop(evaluate, g))
    return calls


@pytest.mark.parametrize("param", [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS],
                         ids=lambda p: p.name)
def test_one_solve_increments_match_black_box(param, pair_loop_calls):
    rng = np.random.default_rng(22)
    cases = [Multigraph(0), Multigraph(1), Multigraph(1, ((1, 1), (1, 1))),
             Multigraph(4, ((1, 1), (1, 2), (1, 2), (3, 4), (3, 4), (4, 4)))]
    cases += [random_multigraph(rng, 7, 10) for _ in range(200)]
    for g in cases:
        inc = increment_matrix(param, g)
        expect = increment_matrix(black_box(param), g)
        assert inc.dtype == expect.dtype and inc.shape == expect.shape
        assert inc.tobytes() == expect.tobytes()   # signed zeros included
    # the one-solve path evaluated only Multigraph(0) pair by pair
    assert len(pair_loop_calls) == len(cases) + 1


def test_other_evaluators_take_the_pair_loop(pair_loop_calls):
    params = [POS_COMPONENTS, black_box(INDEPENDENCE), black_box(MAX_CUT),
              black_box(NEG_COMPONENTS)]
    for p in params:
        increment_matrix(p, PATH3)
    assert pair_loop_calls == [PATH3] * len(params)


def test_max_cut_increments_above_the_gray_code_limit(pair_loop_calls):
    # the pair loop serves an edgeless graph past MAX_CUT_LIMIT: every G + ij
    # has degree <= 2
    g = Multigraph(graphs.MAX_CUT_LIMIT + 6)
    expect = 1.0 - np.eye(g.n)
    assert increment_matrix(MAX_CUT, g).tobytes() == expect.tobytes()
    assert pair_loop_calls == [g]


INCREMENT_MODELS = BIT_IDENTITY_MODELS + [VERTEX_WEIGHTED]


@pytest.fixture
def spin_increment_calls(monkeypatch):
    """The graphs that increment_matrix hands to the one-enumeration path."""
    calls, fast = [], graphs._spin_increments
    monkeypatch.setattr(graphs, "_spin_increments",
                        lambda g, model: calls.append(g) or fast(g, model))
    return calls


def test_spin_increments_match_black_box(spin_increment_calls):
    rng = np.random.default_rng(21)
    cases = [Multigraph(0), Multigraph(1), Multigraph(1, ((1, 1), (1, 1)))]
    cases += [random_multigraph(rng, 6, 10) for _ in range(40)]
    for model in INCREMENT_MODELS:
        p = graphs.spin_parameter(model, "spin")
        for g in cases:
            inc = increment_matrix(p, g)
            expect = increment_matrix(black_box(p), g)
            assert inc.shape == expect.shape == (g.n, g.n)
            assert np.abs(inc - expect).max(initial=0.0) <= 1e-12
            assert np.array_equal(inc, inc.T)
    assert len(spin_increment_calls) == len(INCREMENT_MODELS) * (len(cases) - 1)


@pytest.mark.parametrize("model,n", [(ising_model(0.5), 17), (SKEWED, 11)])
def test_spin_increments_across_slabs_match_black_box(model, n,
                                                      spin_increment_calls):
    # q^n states in several slabs, with loops and parallel edges
    rng = np.random.default_rng(n)
    edges = rng.integers(1, n + 1, size=(2 * n, 2))
    g = Multigraph(n, tuple((int(a), int(b)) for a, b in edges)
                   + ((1, 1), (2, 3), (2, 3)))
    p = graphs.spin_parameter(model, "spin")
    assert np.abs(increment_matrix(p, g)
                  - increment_matrix(black_box(p), g)).max() <= 1e-12
    assert spin_increment_calls == [g]


def test_spin_increments_budget_message():
    p = ising_parameter(1.0)
    for f in (p, black_box(p)):
        with pytest.raises(ValueError) as err:
            increment_matrix(f, Multigraph(25))
        assert str(err.value) == (
            "enumeration budget exceeded: 2^25 states > 16777216")


@pytest.mark.parametrize("model", ROW_MODELS, ids=ROW_MODEL_IDS)
def test_batched_spin_increments_match_the_pair_loop(model, monkeypatch):
    # mixed n on both sides of the increments' rule (2 q^n <= _CHUNK >> 4),
    # n = 0, loops and parallel edges
    limit = graphs._CHUNK >> 4
    top = max(n for n in range(40) if 2 * model.q ** n <= limit) + 1
    rng = np.random.default_rng(32)
    gs = [Multigraph(0), Multigraph(top, ((1, 1), (1, top), (1, top))),
          Multigraph(2, ((1, 2), (1, 2), (2, 2)))]
    gs += [random_multigraph(rng, top - 1, 2 * top) for _ in range(40)]
    sizes, rows = [], graphs._spin_increment_rows
    monkeypatch.setattr(graphs, "_spin_increment_rows", lambda batch, model: (
        sizes.append((batch[0].n, len(batch))) or rows(batch, model)))
    p = graphs.spin_parameter(model, "spin")
    got = graphs._increments_many(p, gs)
    assert all(size * model.q ** n <= limit for n, size in sizes)
    assert max(size for _, size in sizes) > 1
    for g, inc in zip(gs, got):
        expect = increment_matrix(black_box(p), g)
        assert inc.shape == expect.shape == (g.n, g.n)
        assert np.abs(inc - expect).max(initial=0.0) <= 1e-12
        # a graph's row gives the same bits in any batch
        if g.n and 2 * model.q ** g.n <= limit:
            alone = rows([g], model)[0]
            assert inc.tobytes() == alone.tobytes()


def test_batched_increments_of_other_evaluators_are_one_by_one(pair_loop_calls):
    rng = np.random.default_rng(33)
    gs = [random_multigraph(rng, 6, 8) for _ in range(20)]
    for p in (INDEPENDENCE, MAX_CUT, NEG_COMPONENTS, POS_COMPONENTS):
        got = graphs._increments_many(p, gs)
        for g, inc in zip(gs, got):
            assert inc.tobytes() == increment_matrix(p, g).tobytes()
    # only POS_COMPONENTS takes the pair loop, twice per graph
    assert pair_loop_calls == gs + gs


# ---------------------------------------------------------------------------
# conditional negative semidefiniteness


def test_is_cnd_examples():
    assert is_cnd(np.ones((4, 4)))
    assert not is_cnd(np.eye(2))
    assert is_cnd(np.array(ising_model(1.0).J))


def test_is_cnd_on_empty_matrix():
    # the sum-zero subspace of R^0 is {0}, where every form is 0
    assert is_cnd(increment_matrix(INDEPENDENCE, Multigraph(0)))


def test_is_cnd_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        is_cnd(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        is_cnd(np.array([[0.0, 1.0], [0.5, 0.0]]))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            is_cnd(np.array([[0.0, bad], [bad, 0.0]]))


def test_is_cnd_symmetry_tolerance():
    # asymmetry up to _SYMMETRY_TOL = 1e-12 is accepted, beyond it refused
    inside = np.array([[0.0, 1.0], [1.0 + 0.9e-12, 0.0]])
    assert is_cnd(inside) and not is_cnd(-inside)
    with pytest.raises(ValueError, match="symmetric"):
        is_cnd(np.array([[0.0, 1.0], [1.0 + 1.1e-12, 0.0]]))


def test_is_cnd_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(34)
    for n in range(0, 7):
        stack = []
        for k in range(12):
            m = _random_cnd(rng, n) if k % 2 else rng.normal(size=(n, n))
            stack.append((m + m.T) / 2)
        stack = np.array(stack).reshape(12, n, n)
        verdicts = is_cnd(stack)
        assert verdicts.dtype == bool and verdicts.shape == (12,)
        assert verdicts.tolist() == [is_cnd(m) for m in stack]
        # the stacked eigvalsh gives each matrix's top eigenvalue bit for bit
        assert graphs._cnd_tops(stack).tolist() == [
            float(graphs._cnd_tops(m)) for m in stack]
    assert is_cnd(np.zeros((0, 3, 3))).shape == (0,)


def test_is_cnd_names_the_bad_matrix_of_a_stack():
    stack = np.zeros((4, 2, 2))
    asymmetric, infinite = stack.copy(), stack.copy()
    asymmetric[2, 0, 1] = 1.0
    infinite[1, 1, 0] = infinite[1, 0, 1] = np.inf
    with pytest.raises(ValueError) as err:
        is_cnd(asymmetric)
    assert str(err.value) == "matrix must be symmetric (matrix 2 of the stack)"
    with pytest.raises(ValueError) as err:
        is_cnd(infinite)
    assert str(err.value) == (
        "matrix entries must be finite (matrix 1 of the stack)")
    # the first bad matrix is named, with its own message
    both = infinite.copy()
    both[0] = asymmetric[2]
    with pytest.raises(ValueError, match="^matrix must be symmetric .matrix 0 "):
        is_cnd(both)
    with pytest.raises(ValueError) as err:
        is_cnd(np.zeros((3, 2, 3)))
    assert str(err.value) == "matrix must be square"
    with pytest.raises(ValueError, match="square"):
        is_cnd(np.zeros((2, 2, 2, 2)))


def _random_cnd(rng, n):
    # a_i + a_j - (A^T A)_ij is always conditionally negative semidefinite
    a = rng.normal(size=n)
    root = rng.normal(size=(n, n))
    return a[:, None] + a[None, :] - root.T @ root


def test_cnd_convex_cone():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m1, m2 = _random_cnd(rng, n), _random_cnd(rng, n)
        lam = float(rng.uniform())
        assert is_cnd(lam * m1 + (1 - lam) * m2)


def test_cnd_pullback_closure():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 8))
        m = _random_cnd(rng, k)
        sigma = rng.integers(0, k, size=n)
        pulled = m[np.ix_(sigma, sigma)]
        assert is_cnd(pulled)


def _all_multigraphs(max_n, max_edges):
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for m in range(max_edges + 1):
            for combo in combinations_with_replacement(pairs, m):
                yield Multigraph(n, combo)


def test_log_partition_increments_cnd_exhaustive():
    # antiferromagnetic interactions are CND, hence so are the increments;
    # exhaustive over every multigraph with n <= 4 and at most 4 edges
    models = [ising_parameter(0.0), ising_parameter(0.5), ising_parameter(2.0),
              potts_parameter(3, 1.0)]
    for g in _all_multigraphs(4, 4):
        for p in models:
            assert is_cnd(increment_matrix(p, g))


def test_ising_lipschitz_constant_is_tight_bound():
    rng = np.random.default_rng(12)
    for beta in (0.5, 2.0):
        p = ising_parameter(beta)
        worst = 0.0
        for _ in range(40):
            g = random_multigraph(rng, 5, 6)
            worst = max(worst, float(np.abs(increment_matrix(p, g)).max()))
        assert worst <= beta + 1e-9


# ---------------------------------------------------------------------------
# certification


@pytest.mark.parametrize("param", [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS])
def test_certify_integer_parameters(param):
    report = certify_parameter(param, 100, 6, np.random.default_rng(13),
                               max_edges=8)
    assert report.all_passed, report.to_json()


def test_certify_spin_parameters():
    report = certify_parameter(ising_parameter(0.5), 60, 5,
                               np.random.default_rng(14), max_edges=6)
    assert report.all_passed, report.to_json()


def test_certify_negative_control(pair_loop_calls):
    report = certify_parameter(POS_COMPONENTS, 100, 6,
                               np.random.default_rng(15), max_edges=8)
    assert report.additive.passed
    assert report.lipschitz.passed
    assert not report.concave.passed
    assert report.concave.counterexample is not None
    assert not report.all_passed
    # every increment matrix came from the pair loop
    assert len(pair_loop_calls) == 100


def test_certify_catches_understated_kappa(pair_loop_calls):
    # independence moves by 1 per added edge, twice the declared 1/2
    understated = GraphParameter("independence", 0.5, independence_number)
    report = certify_parameter(understated, 200, 6, np.random.default_rng(3),
                               max_edges=8)
    assert report.additive.passed
    assert report.concave.passed
    assert not report.lipschitz.passed
    assert "G=" in report.lipschitz.counterexample
    assert "kappa=0.5" in report.lipschitz.counterexample
    # the one-solve path found it
    assert pair_loop_calls == []


@pytest.mark.parametrize("samples,nmax,max_edges,name", [
    (0, 6, 8, "samples"), (-3, 6, 8, "samples"), (10, 0, None, "nmax"),
    (10, 6, -1, "max_edges"),
])
def test_certify_rejects_empty_sample_ranges(samples, nmax, max_edges, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        certify_parameter(MAX_CUT, samples, nmax, np.random.default_rng(0),
                          max_edges=max_edges)


def test_certify_edgeless_samples():
    report = certify_parameter(MAX_CUT, 20, 4, np.random.default_rng(0),
                               max_edges=0)
    assert report.all_passed and report.concave.samples == 20


def test_certify_spin_fast_path_catches_understated_kappa():
    # ising(2) moves by up to 2 per added edge
    understated = dataclasses.replace(ising_parameter(2.0), kappa=1.5)
    report = certify_parameter(understated, 200, 6, np.random.default_rng(3),
                               max_edges=8)
    assert not report.lipschitz.passed
    assert "G=" in report.lipschitz.counterexample
    assert "kappa=1.5" in report.lipschitz.counterexample


def test_certify_ferromagnetic_ising_is_not_concave():
    beta = 0.5
    lo, hi = math.exp(-beta), math.exp(beta)
    ferro = graphs.spin_parameter(
        graphs.SpinModel(2, (1.0, 1.0), ((hi, lo), (lo, hi))), "ferro")
    # on the empty graph: beta for a loop, log cosh beta for a pair, which
    # is positive definite on the sum-zero subspace
    inc = increment_matrix(ferro, Multigraph(3))
    expect = np.full((3, 3), math.log(math.cosh(beta)))
    np.fill_diagonal(expect, beta)
    assert inc == pytest.approx(expect, rel=0, abs=1e-12)
    assert not is_cnd(inc)
    report = certify_parameter(ferro, 200, 6, np.random.default_rng(3),
                               max_edges=8)
    assert report.additive.passed
    assert report.lipschitz.passed
    assert not report.concave.passed
    assert "not CND" in report.concave.counterexample


def certify_per_sample(f, samples, nmax, rng, max_edges=None):
    """The per-sample loop that certify_parameter replaced, as the oracle:
    each pair is drawn, then evaluated, before the next is drawn."""
    if max_edges is None:
        max_edges = 2 * nmax
    report = graphs.CertificationReport(f.name, f.kappa, samples, nmax,
                                        max_edges)
    for _ in range(samples):
        g1 = random_multigraph(rng, nmax, max_edges)
        g2 = random_multigraph(rng, nmax, max_edges)

        if report.additive.passed:
            report.additive.samples += 1
            whole = f.evaluate(g1.disjoint_union(g2))
            parts = f.evaluate(g1) + f.evaluate(g2)
            if abs(whole - parts) > graphs.ADDITIVITY_TOL:
                report.additive.passed = False
                report.additive.counterexample = (
                    f"f(G1 + G2)={whole} vs f(G1)+f(G2)={parts}; "
                    f"G1={g1.edges} n={g1.n}, G2={g2.edges} n={g2.n}")

        needs_increments = report.lipschitz.passed or report.concave.passed
        if needs_increments:
            inc = increment_matrix(f, g1)

        if report.lipschitz.passed:
            report.lipschitz.samples += 1
            worst = float(np.abs(inc).max()) if g1.n else 0.0
            if worst > f.kappa + graphs.LIPSCHITZ_TOL:
                report.lipschitz.passed = False
                report.lipschitz.counterexample = (
                    f"|increment|={worst} > kappa={f.kappa}; G={g1.edges} n={g1.n}")

        if report.concave.passed:
            report.concave.samples += 1
            if not is_cnd(inc):
                report.concave.passed = False
                report.concave.counterexample = (
                    f"increment matrix not CND; G={g1.edges} n={g1.n}")
    return report


def _ferromagnetic_ising(beta):
    lo, hi = math.exp(-beta), math.exp(beta)
    return graphs.spin_parameter(
        graphs.SpinModel(2, (1.0, 1.0), ((hi, lo), (lo, hi))), "ferro")


# the certify workload's members, its negative control, the ferromagnetic
# control and both understated-kappa controls
BENCH_MEMBERS = [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS, ising_parameter(0.0),
                 ising_parameter(0.5), ising_parameter(2.0),
                 potts_parameter(3, 1.0)]
CERTIFY_CONTROLS = [
    POS_COMPONENTS, _ferromagnetic_ising(0.5),
    GraphParameter("independence", 0.5, independence_number),
    dataclasses.replace(ising_parameter(2.0), kappa=1.5)]


@pytest.mark.parametrize("block", [graphs._CERTIFY_BLOCK, 7])
@pytest.mark.parametrize("param", BENCH_MEMBERS + CERTIFY_CONTROLS,
                         ids=lambda p: f"{p.name}-{p.kappa:g}")
def test_certify_reports_what_the_per_sample_loop_reports(param, block,
                                                          monkeypatch):
    # 7 pairs per block: every property's state carries across blocks
    monkeypatch.setattr(graphs, "_CERTIFY_BLOCK", block)
    for seed in range(3):
        rngs = [np.random.default_rng([seed, 20]) for _ in range(2)]
        ours = certify_parameter(param, 150, 6, rngs[0], max_edges=8)
        theirs = certify_per_sample(param, 150, 6, rngs[1], max_edges=8)
        assert ours.to_json() == theirs.to_json()
        # every draw was made
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_certify_raises_where_the_per_sample_loop_raises():
    # 70^4 states are over STATE_BUDGET: a union of two 2-vertex graphs
    # raises
    big = graphs.spin_parameter(potts_model(70, 1.0), "potts70")
    for seed in range(3):
        errors = []
        for certify in (certify_parameter, certify_per_sample):
            with pytest.raises(ValueError) as err:
                certify(big, 20, 2, np.random.default_rng(seed), max_edges=2)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == (
            "enumeration budget exceeded: 70^4 states > 16777216")


def _refusing(refuse, value):
    """A black-box evaluator: ``value(g)``, or a ValueError that names g
    where ``refuse(g)``."""
    def evaluate(g):
        if refuse(g):
            raise ValueError(f"refused n={g.n} edges={g.edges}")
        return value(g)
    return evaluate


@pytest.mark.parametrize("name,evaluate", [
    # additive: the first union past 9 vertices raises
    ("edges", _refusing(lambda g: g.n > 9, lambda g: g.num_edges)),
    # not additive, so no union is evaluated after the first failure,
    # though later unions past 10 vertices would raise
    ("edges-squared", _refusing(lambda g: g.n > 10,
                                lambda g: g.num_edges ** 2)),
    # G1 + ij on 6 vertices and 9 edges raises in the increments, or such
    # a union before additivity fails
    ("edges-squared-9", _refusing(lambda g: (g.n, g.num_edges) == (6, 9),
                                  lambda g: g.num_edges ** 2)),
    # additive and Lipschitz, never raising: no error to defer
    ("vertices", _refusing(lambda g: False, lambda g: g.n)),
])
def test_certify_raises_only_where_a_sample_needs_the_value(name, evaluate):
    f = GraphParameter(name, 1.0, evaluate)
    for seed in range(6):
        outcomes = []
        for certify in (certify_parameter, certify_per_sample):
            try:
                outcomes.append(certify(f, 40, 6, np.random.default_rng(seed),
                                        max_edges=8).to_json())
            except ValueError as err:
                outcomes.append(f"raised {err!r}")
        assert outcomes[0] == outcomes[1]


def test_certify_slack_fields():
    for param in BENCH_MEMBERS:
        report = certify_parameter(param, 200, 6, np.random.default_rng(35),
                                   max_edges=8)
        assert report.all_passed
        assert report.lipschitz_margin >= -graphs.LIPSCHITZ_TOL
        assert report.lipschitz_margin <= param.kappa
        # P m P always has the eigenvalue 0 on the all-ones vector
        assert -1e-12 <= report.max_cnd_eigenvalue <= graphs.CND_TOL
    control = certify_parameter(POS_COMPONENTS, 200, 6,
                                np.random.default_rng(35), max_edges=8)
    assert control.max_cnd_eigenvalue > graphs.CND_TOL
    assert control.lipschitz_margin >= 0.0
    for understated in CERTIFY_CONTROLS[2:]:
        report = certify_parameter(understated, 200, 6,
                                   np.random.default_rng(3), max_edges=8)
        assert not report.lipschitz.passed
        assert report.lipschitz_margin < 0
        # the failing sample's |increment| is the one the counterexample quotes
        quoted = float(report.lipschitz.counterexample.split("=")[1].split()[0])
        assert report.lipschitz_margin == understated.kappa - quoted
    # neither field is part of the JSON report
    assert "margin" not in control.to_json()
    assert "eigenvalue" not in control.to_json()


def test_certification_report_json():
    import json
    report = certify_parameter(INDEPENDENCE, 10, 4, np.random.default_rng(16))
    payload = json.loads(report.to_json())
    assert payload["all_passed"] is True
    assert set(payload["properties"]) == {"additive", "lipschitz", "concave"}
