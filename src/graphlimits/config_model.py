"""Half-edge pairing: the random multigraph with prescribed degrees.

Vertex i carries d(i) labeled half-edges (i, 1) .. (i, d(i)).  A matching
pairs some of them; interpreting matched pairs as edges yields a multigraph.
A uniformly random maximal matching (one half-edge left over when the total
degree is odd) induces the prescribed-degree random graph.

For a fixed bipartition (A, B) of the vertices, matchings are stratified by
their pair-type counts (alpha, beta, gamma): alpha edges inside A, beta
inside B, gamma across.  Such a class is non-empty exactly when
2*alpha + gamma <= d(A) and 2*beta + gamma <= d(B), and it can be sampled
uniformly by sequential random pairings.  Enumeration at small total degree
provides exact oracles for all of this.

A matching's pair-type counts and its graph depend only on the induced edge
multiset, so exact means over matchings are weighted means over multigraphs.
The number of partial matchings that induce a multigraph G with
deg_G(i) <= d(i) is

    prod_i d(i)! / (d(i) - deg_G(i))!  /  (prod_e m_e! * 2^loops)

where m_e is the multiplicity of edge e and loops counts self-loops with
multiplicity: the falling factorials order each vertex's used half-edges,
and each edge class and each loop's two ends may be permuted freely.
:func:`enumerate_multigraphs` lists each such G once with that weight.
:func:`enumerate_matchings` is the one matching enumerator and the test
oracle of the multigraph weights; class and maximal-matching lists filter
its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .degree import HalfEdgeSystem, as_system
from .graphs import Multigraph, _canonical_graph

ENUMERATION_BUDGET = 12  # max total degree for exhaustive matching lists
MULTIGRAPH_BUDGET = 16  # max total degree for enumerate_multigraphs
DEFAULT_MAX_TRIES = 10_000


class RejectionLimitError(RuntimeError):
    """Raised when rejection sampling for a simple graph gives up."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple graph found in {attempts} attempts")
        self.attempts = attempts


def _pair(h1, h2) -> tuple:
    return (h1, h2) if h1 <= h2 else (h2, h1)


@dataclass(frozen=True)
class Matching:
    """Set of pairwise-disjoint half-edge pairs."""

    pairs: frozenset

    @classmethod
    def of(cls, pairs: Iterable) -> "Matching":
        normalized = set()
        seen = set()
        for p in pairs:
            h1, h2 = tuple(p)
            if h1 == h2:
                raise ValueError(f"half-edge {h1} paired with itself")
            if h1 in seen or h2 in seen:
                raise ValueError("half-edge appears in two pairs")
            seen.add(h1)
            seen.add(h2)
            normalized.add(_pair(tuple(h1), tuple(h2)))
        return cls(frozenset(normalized))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(frozenset())

    @property
    def size(self) -> int:
        return len(self.pairs)

    def unmatched_counts(self, sys: HalfEdgeSystem) -> tuple:
        """Free half-edges per vertex, c(i) = d(i) - matched(i)."""
        counts = list(sys.degrees)
        for p in self.pairs:
            for i, _ in p:
                counts[i - 1] -= 1
        if any(c < 0 for c in counts):
            raise ValueError("matching uses more half-edges than the system has")
        return tuple(counts)


@dataclass(frozen=True)
class Bipartition:
    """Disjoint vertex sets A and B covering the system's vertices."""

    a: frozenset
    b: frozenset

    def __post_init__(self):
        a = frozenset(int(v) for v in self.a)
        b = frozenset(int(v) for v in self.b)
        if a & b:
            raise ValueError("sides must be disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def of(cls, n: int, side_a: Iterable) -> "Bipartition":
        a = frozenset(int(v) for v in side_a)
        return cls(a, frozenset(range(1, n + 1)) - a)

    def check_covers(self, sys: HalfEdgeSystem):
        if self.a | self.b != frozenset(range(1, sys.n + 1)):
            raise ValueError("bipartition does not cover the vertex set")

    def degree_a(self, sys: HalfEdgeSystem) -> int:
        return sum(sys.degrees[i - 1] for i in self.a)

    def degree_b(self, sys: HalfEdgeSystem) -> int:
        return sum(sys.degrees[i - 1] for i in self.b)

    def side_of(self, vertex: int) -> str:
        return "A" if vertex in self.a else "B"


class PairingCounts(NamedTuple):
    """Pair-type counts (alpha inside A, beta inside B, gamma across)."""

    alpha: int
    beta: int
    gamma: int

    def feasible(self, sys: HalfEdgeSystem, bp: Bipartition) -> bool:
        return (2 * self.alpha + self.gamma <= bp.degree_a(sys)
                and 2 * self.beta + self.gamma <= bp.degree_b(sys))


def _pair_counts(pairs, bp: Bipartition) -> PairingCounts:
    """Pair-type counts of a sequence of vertex pairs (i, j)."""
    a = bp.a
    alpha = beta = 0
    for i, j in pairs:
        if i in a:
            alpha += j in a
        else:
            beta += j not in a
    return PairingCounts(alpha, beta, len(pairs) - alpha - beta)


def counts_of_matching(m: Matching, bp: Bipartition) -> PairingCounts:
    return _pair_counts([(i, j) for (i, _), (j, _) in m.pairs], bp)


def counts_of_graph(g: Multigraph, bp: Bipartition) -> PairingCounts:
    """Pair-type counts shared by every matching that induces ``g``."""
    return _pair_counts(g.edges, bp)


def graph_of_matching(sys: HalfEdgeSystem, m: Matching) -> Multigraph:
    """Multigraph induced by a matching: matched half-edges become edges."""
    for p in m.pairs:
        for h in p:
            if not sys.contains(h):
                raise ValueError(f"half-edge {h} outside the system")
    m.unmatched_counts(sys)  # validates multiplicity
    return Multigraph(sys.n, tuple((p[0][0], p[1][0]) for p in m.pairs))


# ---------------------------------------------------------------------------
# samplers


def sample_uniform_graph(d, rng: np.random.Generator) -> Multigraph:
    """Prescribed-degree random multigraph from a uniform maximal matching."""
    degrees = as_system(d).degree_array
    stubs = np.repeat(np.arange(1, len(degrees) + 1), degrees)
    rng.shuffle(stubs)
    m = len(stubs) // 2
    return Multigraph(len(degrees), stubs[:2 * m].reshape(m, 2))


def sample_simple(d, rng: np.random.Generator,
                  max_tries: int = DEFAULT_MAX_TRIES) -> Multigraph:
    """Rejection-sample prescribed-degree graphs until one is simple.

    Conditioning on simplicity makes the output uniform over simple graphs
    with the given degrees.  Exhausting ``max_tries`` raises
    :class:`RejectionLimitError`; that signals a degree sequence whose
    simplicity probability is tiny or zero.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    # one system, so its degree array is built once, not per try
    system = as_system(d)
    for _ in range(max_tries):
        g = sample_uniform_graph(system, rng)
        if _is_simple(g):
            return g
    raise RejectionLimitError(max_tries)


def _is_simple(g: Multigraph) -> bool:
    """Whether an array-held graph has no loop and no parallel edge."""
    ends = g.edge_array
    # canonical order puts parallel edges in adjacent rows
    return not ((ends[:, 0] == ends[:, 1]).any()
                or (ends[1:] == ends[:-1]).all(axis=1).any())


# ---------------------------------------------------------------------------
# exhaustive enumeration (small systems only)


def _check_budget(sys: HalfEdgeSystem, budget: int = ENUMERATION_BUDGET):
    if sys.total > budget:
        raise ValueError(
            f"enumeration budget exceeded: degrees {sys.degrees} have total "
            f"degree {sys.total} > {budget}")


def enumerate_multigraphs(sys: HalfEdgeSystem, size: int | None = None) -> list:
    """Every multigraph G with deg_G(i) <= d(i), once, as (G, weight) pairs.

    The weight is the number of partial matchings that induce G,
    prod_i d(i)!/(d(i)-deg_G(i))! / (prod_e m_e! * 2^loops), so the weights
    sum to the number of partial matchings.  With ``size`` only graphs with
    exactly that many edges are listed; ``size=sys.total // 2`` gives the
    graphs of the maximal matchings.  The recursion fixes the multiplicity
    of each vertex pair (i <= j) in lexicographic order, so no graph is
    produced twice.
    """
    _check_budget(sys, MULTIGRAPH_BUDGET)
    degrees = sys.degrees
    free = list(degrees)
    active = [i for i, d in enumerate(degrees) if d > 0]
    pairs = [(i, j) for k, i in enumerate(active) for j in active[k:]]
    out = []

    def walk(k: int, edges: tuple, symmetry: int):
        if k == len(pairs):
            if size is None or len(edges) == size:
                ways = math.prod(math.perm(d, d - c) for d, c in zip(degrees, free))
                # pairs go in lexicographic order: the edges are canonical
                out.append((_canonical_graph(sys.n, edges), ways // symmetry))
            return
        i, j = pairs[k]
        cap = free[i] // 2 if i == j else min(free[i], free[j])
        if size is not None:
            # every later pair joins vertices >= i
            if len(edges) + sum(free[v] for v in active if v >= i) // 2 < size:
                return
            cap = min(cap, size - len(edges))
        edge = (i + 1, j + 1)
        for m in range(cap + 1):
            free[i] -= m
            free[j] -= m
            walk(k + 1, edges + (edge,) * m,
                 symmetry * math.factorial(m) * (2 ** m if i == j else 1))
            free[i] += m
            free[j] += m

    walk(0, (), 1)
    return out


def enumerate_matchings(sys: HalfEdgeSystem) -> list:
    """All partial matchings of the half-edge set, each exactly once.

    Each recursion level pairs the half-edge at index ``start`` or leaves it
    behind by advancing past it, so no matching is generated twice.
    """
    _check_budget(sys)
    hes = sys.half_edges()
    out = []

    def walk(start: int, free: list, pairs: tuple):
        out.append(Matching(frozenset(pairs)))
        for i in range(start, len(free)):
            for j in range(i + 1, len(free)):
                rest = free[:i] + free[i + 1:j] + free[j + 1:]
                walk(i, rest, pairs + (_pair(free[i], free[j]),))

    walk(0, hes, ())
    return out


def enumerate_maximal_matchings(sys: HalfEdgeSystem) -> list:
    """All maximal matchings: perfect for even total degree, one half-edge
    left over for odd."""
    return [m for m in enumerate_matchings(sys) if m.size == sys.total // 2]
