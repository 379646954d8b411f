"""Multigraphs and the parameter suite certified by this package.

Every parameter here is additive over disjoint unions, changes by at most
``kappa`` when one edge is added, and has a conditionally negative
semidefinite matrix of single-edge increments.  Loop conventions are chosen
so those three properties hold on multigraphs: a loop excludes its vertex
from independent sets, never crosses a cut, contributes J(s, s) to spin
weights, and is neutral for connectivity.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from typing import Callable

import numpy as np

BRANCH_BOUND_LIMIT = 40     # independence number, general graphs
MAX_CUT_LIMIT = 24          # bipartition enumeration
STATE_BUDGET = 1 << 24      # weighted spin states per partition-function call
_SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# multigraph


class Multigraph:
    """Undirected multigraph on vertices 1..n; loops and parallel edges allowed.

    Edges are given as (i, j) pairs or as an (m, 2) integer endpoint array,
    and canonicalised to ``edges``, sorted pairs with i <= j.  Equality and
    hashing go over (n, edges), so two graphs compare equal exactly when
    their edge multisets agree, whichever form they were built from.

    Sampled graphs are built from endpoint arrays and held as such (see
    :class:`_ArrayMultigraph`): ``ends`` is the validated array as given,
    their degrees and components run vectorised on it, and the canonical
    ``edge_array`` and ``edges`` are sorted only when first read.  Graphs
    built from pairs, the small graphs of the exact solvers and
    enumerations, have ``edge_array`` None and keep plain loops and
    attributes, which are faster at that size.  One components pass serves
    both forms (numpy for array-held graphs, a union-find for pair-built
    ones), and each component-additive parameter is one per-root rule over
    its output.  Instances are immutable.
    """

    edge_array = None

    def __new__(cls, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        return super().__new__(_ArrayMultigraph if isinstance(edges, np.ndarray)
                               else cls)

    def __init__(self, n: int, edges=()):
        normalized, index = [], operator.index
        for e in edges:
            try:
                i, j = e
                i, j = index(i), index(j)
            except (TypeError, ValueError):
                raise ValueError(
                    f"edge {e!r} must be two integer endpoints") from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) outside 1..{n}")
            normalized.append((i, j) if i <= j else (j, i))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    def __getnewargs__(self):
        # unpickling and copying call __new__ with these, then restore the
        # instance dictionary
        return (self.n,)

    def __setattr__(self, name, value):
        raise AttributeError(f"Multigraph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        if isinstance(self, _ArrayMultigraph) and isinstance(
                other, _ArrayMultigraph):
            return self.n == other.n and np.array_equal(self.edge_array,
                                                        other.edge_array)
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Multigraph(n={self.n!r}, edges={self.edges!r})"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple:
        """Vertex degrees; a loop contributes 2 to its endpoint."""
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i - 1] += 1
            deg[j - 1] += 1
        return tuple(deg)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def _tails(self) -> np.ndarray:
        """The first (0-based) endpoint of each edge."""
        return np.array([i - 1 for i, _ in self.edges], dtype=np.int64)

    def add_edge(self, i: int, j: int) -> "Multigraph":
        """``Multigraph(n, edges + ((i, j),))``, checking only the new pair."""
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise ValueError(
                f"edge {(i, j)!r} must be two integer endpoints") from None
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"edge ({i}, {j}) outside 1..{self.n}")
        k = bisect_right(self.edges, edge := (min(i, j), max(i, j)))
        return _canonical_graph(self.n, self.edges[:k] + (edge,) + self.edges[k:])

    def disjoint_union(self, other: "Multigraph") -> "Multigraph":
        # other's edges, shifted past self's vertices, sort after self's
        shifted = tuple((i + self.n, j + self.n) for i, j in other.edges)
        return _canonical_graph(self.n + other.n, self.edges + shifted)

    def to_text(self) -> str:
        lines = [f"{self.n} {self.num_edges}"]
        lines.extend(f"{i} {j}" for i, j in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError("graph text must start with 'n m'")
        n, m = int(tokens[0]), int(tokens[1])
        if len(tokens) != 2 + 2 * m:
            raise ValueError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
        pairs = [(int(tokens[2 + 2 * k]), int(tokens[3 + 2 * k])) for k in range(m)]
        return cls(n, tuple(pairs))


def _validated_ends(n: int, edges: np.ndarray) -> np.ndarray:
    """Check an (m, 2) endpoint array against 1..n and return it as a
    read-only int64 view, rows in the order given."""
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise ValueError(f"edge array must be (m, 2) integers, got "
                         f"{edges.dtype} of shape {edges.shape}")
    if edges.min() < 1 or edges.max() > n:
        i, j = edges[((edges < 1) | (edges > n)).any(axis=1).argmax()].tolist()
        raise ValueError(f"edge ({i}, {j}) outside 1..{n}")
    ends = edges.astype(np.int64, copy=False).view()
    ends.flags.writeable = False
    return ends


def _canonical_array(n: int, ends: np.ndarray) -> np.ndarray:
    """A validated endpoint array in canonical order: each row as
    (min, max), rows in lexicographic order."""
    lo = np.minimum(ends[:, 0], ends[:, 1])
    hi = np.maximum(ends[:, 0], ends[:, 1])
    if n >= 1 << 31:    # lo * (n + 1) + hi could overflow int64
        order = np.lexsort((hi, lo))
        return np.column_stack((lo[order], hi[order]))
    # sorting one packed key is an order of magnitude faster than lexsort
    key = lo * (n + 1) + hi
    key.sort()
    return np.column_stack((key // (n + 1), key % (n + 1)))


class _ArrayMultigraph(Multigraph):
    """What ``Multigraph(n, array)`` returns: a multigraph held as its
    validated endpoint array ``ends``, in the order given.  The array is
    held, not copied.  Degrees, tails and the components pass read ``ends``;
    the canonical ``edge_array`` and the ``edges`` pairs are built on first
    access, for equality, hashing, text and the exact solvers."""

    def __init__(self, n: int, edges: np.ndarray):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ends", _validated_ends(n, edges))

    @cached_property
    def edge_array(self) -> np.ndarray:
        return _canonical_array(self.n, self.ends)

    @cached_property
    def edges(self) -> tuple:
        lo, hi = self.edge_array.T.tolist()
        return tuple(zip(lo, hi))

    @property
    def num_edges(self) -> int:
        return len(self.ends)

    def _degree_array(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=self.n + 1)[1:]

    def degrees(self) -> tuple:
        return tuple(self._degree_array().tolist())

    def max_degree(self) -> int:
        return int(self._degree_array().max(initial=0))

    def _tails(self) -> np.ndarray:
        return self.ends[:, 0] - 1


def _canonical_graph(n: int, edges: tuple) -> Multigraph:
    """A pair-built Multigraph on 1..n whose ``edges`` are already canonical:
    sorted (i, j) pairs with 1 <= i <= j <= n, taken unchecked."""
    g = object.__new__(Multigraph)
    g.__dict__.update(n=n, edges=edges)
    return g


def random_multigraph(rng: np.random.Generator, max_vertices: int,
                      max_edges: int) -> Multigraph:
    """Uniform vertex count in 1..max_vertices, then between 0 and max_edges
    random endpoint pairs (loops and duplicates allowed)."""
    n = int(rng.integers(1, max_vertices + 1))
    m = int(rng.integers(0, max_edges + 1))
    endpoints = rng.integers(1, n + 1, size=(m, 2))
    endpoints.sort(axis=1)      # each pair as (min, max)
    return _canonical_graph(n, tuple(sorted(map(tuple, endpoints.tolist()))))


def _simple_adjacency(g: Multigraph):
    """Bitmask adjacency (0-based) with parallels collapsed; loop mask aside."""
    adj = [0] * g.n
    loops = 0
    for i, j in g.edges:
        a, b = i - 1, j - 1
        if a == b:
            loops |= 1 << a
        else:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj, loops


def _component_roots(g: Multigraph) -> np.ndarray:
    """Smallest (0-based) vertex of each vertex's component, as an int64
    array; the one components pass for both graph forms.

    Graphs built from pairs run a union-find with path halving over
    ``edges``, which beats numpy at their size.  Array-held graphs run a
    min-label union over the root pairs of edges that still join two trees:
    each round hooks every larger root onto the smallest root paired with
    it, then pointer-jumps the whole root array while many pairs remain,
    later only the hooked roots, and every vertex once at the end.
    """
    if not isinstance(g, _ArrayMultigraph):
        root = list(range(g.n))
        for i, j in g.edges:
            a, b = i - 1, j - 1
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
        # every vertex points at a smaller one or itself, so one ascending
        # pass flattens every tree onto its smallest vertex
        for v in range(g.n):
            root[v] = root[root[v]]
        return np.array(root, dtype=np.int64)
    ends = g.ends - 1
    ru, rv = ends[:, 0], ends[:, 1]
    root = np.arange(g.n)
    while len(ru):
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        # the whole array is cheaper to jump while pairs exceed n / 8; a
        # hooked root points at another root of this round, so jumping the
        # hooked roots alone also brings them to their trees' roots
        _jump(root, slice(None) if 8 * len(ru) > g.n else np.concatenate((ru, rv)))
        ru, rv = root[ru], root[rv]
        cross = ru != rv
        ru, rv = ru[cross], rv[cross]
    _jump(root, slice(None))
    return root


def _jump(root: np.ndarray, at) -> None:
    """Pointer-jump the entries ``at`` of ``root`` in place until each
    names the root of its tree."""
    up = root[at]
    while not np.array_equal(up, jumped := root[up]):
        root[at] = up = jumped


# ---------------------------------------------------------------------------
# integer-valued parameters
#
# The component-additive parameters are per-root rules: given the
# components pass's root array of a graph, a rule returns an integer array
# whose entry r is the value of the component with smallest vertex r (0 at
# every other vertex).  A graph's value is the sum of that array; over a
# disjoint union of equal-size graphs, its block sums are the graphs'
# values (see :func:`evaluate_many`).


def _root_marks(root: np.ndarray, g: Multigraph) -> np.ndarray:
    # one per component
    return root == np.arange(len(root))


def _negated_root_marks(root: np.ndarray, g: Multigraph) -> np.ndarray:
    return -_root_marks(root, g).astype(np.int64)


def _degree_two_arrays(root: np.ndarray, g: Multigraph) -> tuple:
    """Vertex and edge counts (with multiplicity) per component of a graph
    of max degree <= 2, indexed by the component's smallest vertex (other
    entries are 0), each component checked to be a path or a cycle (loops
    are 1-cycles, double edges 2-cycles)."""
    vertices = np.bincount(root, minlength=len(root))
    # an edge lies in the component of its endpoints
    edges = np.bincount(root[g._tails()], minlength=len(root))
    # a connected component has e >= v - 1, so e <= v leaves a path or a cycle
    if np.count_nonzero(edges > vertices):
        raise AssertionError("degree-2 component with unexpected edge count")
    return vertices, edges


def _independence_roots(root: np.ndarray, g: Multigraph) -> np.ndarray:
    # (v + 1) // 2 on a path (e = v - 1), v // 2 on a cycle (e = v)
    v, e = _degree_two_arrays(root, g)
    return (v + v - e) // 2     # (2v - e) // 2, without a scalar product


def _max_cut_roots(root: np.ndarray, g: Multigraph) -> np.ndarray:
    # every edge crosses, except one on each odd cycle: (e == v) & e is 1
    # exactly on a cycle (e = v) of odd length
    v, e = _degree_two_arrays(root, g)
    return e - ((e == v) & e)


def _root_sum(g: Multigraph, rule) -> int:
    return int(np.add.reduce(rule(_component_roots(g), g)))


def num_components(g: Multigraph) -> int:
    """Number of connected components; isolated vertices count, loops and
    parallel edges are connectivity-neutral."""
    # the sum of the 0/1 marks, counted
    return int(np.count_nonzero(_root_marks(_component_roots(g), g)))


def neg_num_components(g: Multigraph) -> int:
    return -num_components(g)


def _branch_bound_alpha(adj, mask: int, size: int = 0, best: int = 0) -> int:
    """Largest independent set among the vertices of ``mask``, plus
    ``size``, or ``best`` if that is larger.  A module-level recursion, not
    a closure, so that no call leaves a reference cycle behind."""
    if size > best:
        best = size
    if size + mask.bit_count() <= best:
        return best
    # pivot on the highest-degree remaining vertex
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
        return max(best, size + mask.bit_count())
    best = _branch_bound_alpha(adj, mask & ~(adj[pivot] | (1 << pivot)),
                               size + 1, best)
    return _branch_bound_alpha(adj, mask ^ (1 << pivot), size, best)


def independence_number(g: Multigraph) -> int:
    """Size of the largest vertex set spanning no edge.

    Vertices with loops are excluded; parallel edges act as single edges.
    Degree <= 2 graphs are evaluated in closed form at any size; otherwise a
    branch-and-bound search runs up to 40 vertices.
    """
    if g.n == 0:
        return 0
    if g.max_degree() <= 2:
        return _root_sum(g, _independence_roots)
    if g.n > BRANCH_BOUND_LIMIT:
        raise ValueError(
            f"instance too large for exact solver: n={g.n} > {BRANCH_BOUND_LIMIT}")
    adj, loops = _simple_adjacency(g)
    candidates = ((1 << g.n) - 1) & ~loops
    return _branch_bound_alpha(adj, candidates)


def max_cut(g: Multigraph) -> int:
    """Maximum number of edges crossing a bipartition.

    Parallel edges count with multiplicity, loops never cross.  Degree <= 2
    graphs use per-component closed forms; otherwise all bipartitions with
    vertex 1 pinned are enumerated (n <= 24).
    """
    if g.n == 0:
        return 0
    if g.max_degree() <= 2:
        return _root_sum(g, _max_cut_roots)
    if g.n > MAX_CUT_LIMIT:
        raise ValueError(
            f"instance too large for exact solver: n={g.n} > {MAX_CUT_LIMIT}")
    nbrs = _cut_neighbours(g)
    side = [0] * g.n
    cut = 0
    best = 0
    for code in range(1, 1 << (g.n - 1)):
        v = (code & -code).bit_length()  # Gray-code flip, vertex 0 stays put
        side[v] ^= 1
        for u, w in nbrs[v]:
            cut += w if side[u] != side[v] else -w
        if cut > best:
            best = cut
    return best


def _cut_neighbours(g: Multigraph) -> list:
    """(neighbour, multiplicity) pairs per 0-based vertex; loops never cross."""
    weights = {}
    for i, j in g.edges:
        if i != j:
            weights[(i - 1, j - 1)] = weights.get((i - 1, j - 1), 0) + 1
    nbrs = [[] for _ in range(g.n)]
    for (a, b), w in weights.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    return nbrs


def _max_cut_classes(g: Multigraph) -> list:
    """The vertex sets, as 0-based bitmasks, that every maximum cut keeps on
    one side, from the Gray-code pass of :func:`max_cut` (n >= 1): two
    vertices of different sets are separated by some maximum cut."""
    nbrs, full = _cut_neighbours(g), (1 << g.n) - 1
    side, mask, cut, best, classes = [0] * g.n, 0, 0, 0, [full]
    for code in range(1, 1 << (g.n - 1)):
        v = (code & -code).bit_length()
        side[v] ^= 1
        mask ^= 1 << v
        for u, w in nbrs[v]:
            cut += w if side[u] != side[v] else -w
        if cut > best:
            best, classes = cut, [full ^ mask, mask]
        elif cut == best and len(classes) < g.n:
            # another maximum cut splits each set by its two sides
            classes = [part for c in classes for part in (c & mask, c & ~mask)
                       if part]
    return classes


# one-solve increment matrices (n >= 1), declared by the families below
# as their ``increments``


def _independence_increments(g: Multigraph) -> np.ndarray:
    # a loop at v costs one exactly when v lies in every maximum independent
    # set, and an edge ij costs one exactly when both i and j do
    alpha = independence_number(g)
    core = np.array([alpha - independence_number(g.add_edge(v, v))
                     for v in range(1, g.n + 1)])
    return (-np.outer(core, core)).astype(float)


def _max_cut_increments(g: Multigraph) -> np.ndarray:
    # an edge ij adds one exactly when some maximum cut separates i and j
    if g.n > MAX_CUT_LIMIT:     # the closed forms still serve sparse graphs
        return _evaluated_increments(max_cut, g)
    member = (np.array(_max_cut_classes(g))[:, None] >> np.arange(g.n)) & 1
    return (1 - member.T @ member).astype(float)


def _component_increments(g: Multigraph) -> np.ndarray:
    # an edge ij removes a component exactly when it joins two
    root = _component_roots(g)
    return np.not_equal.outer(root, root).astype(float)


# ---------------------------------------------------------------------------
# spin models and log-partition functions


@dataclass(frozen=True)
class SpinModel:
    """q spin states with positive vertex weights h and a symmetric positive
    interaction matrix J."""

    q: int
    h: tuple
    J: tuple

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one spin state")
        h = tuple(float(x) for x in self.h)
        J = tuple(tuple(float(x) for x in row) for row in self.J)
        if len(h) != self.q or any(x <= 0 for x in h):
            raise ValueError("h must list q positive weights")
        if len(J) != self.q or any(len(row) != self.q for row in J):
            raise ValueError("J must be q x q")
        if any(x <= 0 for row in J for x in row):
            raise ValueError("J entries must be positive")
        if any(abs(J[s][t] - J[t][s]) > _SYMMETRY_TOL for s in range(self.q) for t in range(self.q)):
            raise ValueError("J must be symmetric")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)

    def log_interaction_bound(self) -> float:
        return max(abs(math.log(x)) for row in self.J for x in row)


def ising_model(beta: float) -> SpinModel:
    """Two-state model with J(s, t) = exp(-beta * s * t), beta >= 0."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    lo, hi = math.exp(-beta), math.exp(beta)
    return SpinModel(2, (1.0, 1.0), ((lo, hi), (hi, lo)))


def potts_model(q: int, beta: float) -> SpinModel:
    """q-state model rewarding disagreement: J = 1 off-diagonal, exp(-beta)
    on the diagonal."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    diag = math.exp(-beta)
    J = tuple(tuple(diag if s == t else 1.0 for t in range(q)) for s in range(q))
    return SpinModel(q, (1.0,) * q, J)


_CHUNK = 1 << 16


def _spin_digits(q: int, n: int) -> np.ndarray:
    """(n, q^n) table: entry [v, x] is vertex v's spin in the state with
    flat index x = sum_v s_v q^v, in the smallest dtype that holds q^2,
    so also each flat index s * q + t of a q x q table."""
    return np.indices((q,) * n, np.min_scalar_type(q * q)).reshape(
        n, q ** n)[::-1]


def _log_weight_rows(graphs: list, model: SpinModel) -> np.ndarray:
    """Log state weights of graphs with one vertex count n, given in order
    of edge count, most first, as a (len(graphs), q^n) array in the flat
    order of :func:`_log_weight_slabs`.

    Each state's sum takes the additions it takes there, in the same order:
    0.0, the vertex weights (unless h is all 1), then each edge of its
    graph in ``edges`` order.  Each term is gathered from the spin digits,
    so besides the rows only one index array per edge is held.
    """
    q, n, states = model.q, graphs[0].n, model.q ** graphs[0].n
    spins = _spin_digits(q, n)
    rows = np.zeros((len(graphs), states))
    if set(model.h) != {1.0}:
        log_h = np.log(model.h)
        for v in range(n):
            rows += log_h[spins[v]]
    counts = np.array([g.num_edges for g in graphs])
    if not counts.any():
        return rows
    # the graphs with a k-th edge are a prefix; edge (i, j) adds
    # log J(s_i, s_j), at flat index s_i * q + s_j
    ends = np.zeros((len(graphs), counts[0], 2), np.intp)
    ends[np.arange(counts[0]) < counts[:, None]] = np.array(
        [e for g in graphs for e in g.edges]) - 1
    log_J, tails = np.log(model.J).ravel(), spins * q
    index = np.empty(rows.shape, np.intp)   # numpy gathers fastest by intp
    for k in range(counts[0]):
        m = np.count_nonzero(counts > k)
        np.add(tails[ends[:m, k, 0]], spins[ends[:m, k, 1]], out=index[:m])
        rows[:m] += log_J[index[:m]]
    return rows


def _log_partition_rows(graphs: list, model: SpinModel) -> list:
    """:func:`log_partition` of graphs as :func:`_log_weight_rows` takes
    them, at most ``_CHUNK`` states in all; a row is one window, so the
    values are bit-identical to the slab path's."""
    rows = _log_weight_rows(graphs, model)
    top = rows.max(axis=1)
    rows -= top[:, None]
    sums = np.exp(rows, out=rows).sum(axis=1)
    return [m + math.log(s) for m, s in zip(top.tolist(), sums.tolist())]


def _log_weight_slabs(g: Multigraph, model: SpinModel, limit: int = _CHUNK):
    """Yield g's log state weights, in the flat order sum_v s_v q^v, as
    (q,)*r slabs of at most ``limit`` states: vertex v's spin lies on axis
    n-1-v, a slab fixes the spins of vertices r..n-1, and the vertex weights,
    then the edges in order, add their log h or log J tables on their axes."""
    q, n = model.q, g.n
    if q ** n > STATE_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {q}^{n} states > {STATE_BUDGET}")
    r = max(r for r in range(n + 1) if q ** r <= limit)
    log_h, log_J = np.log(model.h), np.log(model.J)
    diag, cross = log_J.diagonal(), log_J.T.copy()  # cross[t, s] = log J(s, t)
    # h = 1 adds log 1 = +0.0, which changes no partial sum (none is -0.0)
    weighted = set(model.h) != {1.0}
    terms = [(v, log_h.reshape((q,) + (1,) * v)) for v in range(n) if weighted]
    terms += [(j - 1, diag.reshape((q,) + (1,) * (i - 1)) if i == j else
               cross.reshape((q,) + (1,) * (j - i - 1) + (q,) + (1,) * (i - 1)))
              for i, j in g.edges]
    # (fixed by the slab, table); a fixed vertex's table is indexed by its spin
    terms = [(high >= r, np.broadcast_to(t, (q,) * (n - r) + t.shape[t.ndim - r:])
              if high >= r else t) for high, t in terms]
    # a slab's partial sum starts as 0.0 and spans only the axes its terms
    # have touched, so each state gets the additions of a full-shape sum of
    # zeros in the same order; once it has full shape it is added to in place
    full = (q,) * r
    for spins in product(range(q), repeat=n - r):
        logw = np.float64(0.0)
        for fixed, t in terms:
            t = t[spins] if fixed else t
            if logw.shape == full:
                logw += t
            else:
                logw = logw + t
        if logw.shape != full:      # spread it, and free the partial sum
            logw = np.full(full, logw)
        yield logw


def log_partition(g: Multigraph, model: SpinModel) -> float:
    """log of the total spin-configuration weight on g.

    Each configuration weighs prod_i h(s_i) * prod_{ij in E} J(s_i, s_j),
    edges taken with multiplicity and loops contributing J(s_i, s_i).

    Graphs with 2 q^n <= ``_CHUNK``, the size :func:`evaluate_many`
    batches as rows with the same bits, and n = 0 are enumerated by
    :func:`_slab_log_partition`.  A larger graph within ``STATE_BUDGET``
    is summed by :func:`_eliminated_log_partition`, which agrees with the
    enumeration to rounding; where elimination would hold a table of more
    than ``_CHUNK`` entries, or a product could leave float range, the
    slabs enumerate it too.  No path holds an array of more than about
    ``_CHUNK`` floats.
    """
    if _CHUNK < 2 * model.q ** g.n <= 2 * STATE_BUDGET:
        value = _eliminated_log_partition(g, model)
        if value is not None:
            return value
    return _slab_log_partition(g, model)


def _slab_log_partition(g: Multigraph, model: SpinModel) -> float:
    """:func:`log_partition` by enumeration: the broadcast slabs of
    :func:`_log_weight_slabs` keep a call to a few MB for any q^n, and the
    sum is taken in log space with a max shift per window of ``_CHUNK``
    consecutive states."""
    left, shifts, sums, flat = model.q ** g.n, [], [], np.empty(0)
    for logw in _log_weight_slabs(g, model):
        left -= logw.size
        flat = np.concatenate((flat, logw.ravel())) if len(flat) else logw.ravel()
        end = len(flat) - (len(flat) % _CHUNK if left else 0)
        for lo in range(0, end, _CHUNK):
            window = flat[lo:lo + _CHUNK]
            m = float(window.max())
            shifts.append(m)
            sums.append(float(np.exp(window - m).sum()))
        flat = flat[end:]
    top = max(shifts)
    return top + math.log(sum(s * math.exp(m - top) for m, s in zip(shifts, sums)))


# the least log of a product of rescaled tables that elimination takes:
# above log(float tiny), about -708.4, so no product of entries underflows
_LOG_FLOOR = -700.0


def _elimination_order(cut: list, q: int) -> list | None:
    """(v, neighbours) for each 0-based vertex of the graph whose
    :func:`_cut_neighbours` are ``cut``, in the order it is summed out:
    least degree first, ties to the smaller index, degrees and neighbours
    (sorted) counting the fill-in of earlier steps.  None if a table held
    on the way, q^k entries for k vertices, would exceed ``_CHUNK``
    entries."""
    nbrs = [{u for u, _ in row} for row in cut]
    if q * q > _CHUNK and any(nbrs):    # a pair table
        return None
    order, left = [], set(range(len(cut)))
    while left:
        v = min(left, key=lambda u: (len(nbrs[u]), u))
        left.remove(v)
        out = nbrs[v]
        if q ** len(out) > _CHUNK:
            return None
        for u in out:
            nbrs[u] |= out
            nbrs[u] -= {u, v}
        order.append((v, sorted(out)))
    return order


def _eliminated_log_partition(g: Multigraph, model: SpinModel) -> float | None:
    """:func:`log_partition` by variable elimination in the order of
    :func:`_elimination_order`, or None where that declines g or a product
    of tables could underflow.

    Each vertex's weights and loops fold into one table h(s) J(s, s)^k,
    and the k parallel edges of a pair into one table J^k (elementwise).
    Summing out a vertex is one ``np.einsum`` over the tables on it, which
    leaves one table on its neighbours.  Every table is held divided by
    its max, whose log is added to the result, so no entry overflows; a
    table's log min is kept too, and a vertex whose tables' minima
    multiply to below e^``_LOG_FLOOR`` returns None.
    """
    cut = _cut_neighbours(g)
    order = _elimination_order(cut, model.q)
    if order is None:
        return None
    q, n, pos = model.q, g.n, {v: k for k, (v, _) in enumerate(order)}
    # buckets[k]: (log min, table, axes) of each table whose vertex summed
    # out first is order[k]'s
    buckets = [[] for _ in order]
    loops = np.bincount([i - 1 for i, j in g.edges if i == j], minlength=n)
    log_J = np.log(model.J)
    logs = np.log(model.h) + loops[:, None] * log_J.diagonal()
    tops = logs.max(axis=1)
    total = float(tops.sum())
    tables = np.exp(logs - tops[:, None])
    weighted = set(model.h) != {1.0}
    for v, low in enumerate((logs.min(axis=1) - tops).tolist()):
        if weighted or loops[v]:
            buckets[pos[v]].append((low, tables[v], [v]))
    powers = {}     # by multiplicity
    pairs = {(i, j): k for i, row in enumerate(cut) for j, k in row if i < j}
    for (i, j), k in pairs.items():
        if k not in powers:
            power = k * log_J
            top = float(power.max())
            powers[k] = top, float(power.min()) - top, np.exp(power - top)
        top, low, table = powers[k]
        total += top
        buckets[min(pos[i], pos[j])].append((low, table, [i, j]))
    for k, (v, out) in enumerate(order):
        bucket = buckets[k]
        if not bucket:      # on no table: q equal terms
            total += math.log(q)
            continue
        if sum(low for low, _, _ in bucket) < _LOG_FLOOR:
            return None
        table = np.einsum(*[x for _, t, axes in bucket for x in (t, axes)], out)
        top = float(table.max())
        total += math.log(top)
        if out:
            table /= top
            buckets[min(pos[u] for u in out)].append(
                (math.log(float(table.min())), table, out))
    return total


def _spin_increment_rows(graphs: list, model: SpinModel) -> np.ndarray:
    """:func:`_spin_increments` of graphs as :func:`_log_weight_rows` takes
    them (n >= 1), at most ``_CHUNK >> 4`` states in all, as a
    (len(graphs), n, n) array; the pair marginals of every graph come from
    one stacked product of its weights with the one-hot spin table of n."""
    q, n = model.q, graphs[0].n
    rows = _log_weight_rows(graphs, model)
    rows -= rows.max(axis=1, keepdims=True)
    w = np.exp(rows, out=rows)
    onehot = (_spin_digits(q, n).T[:, :, None] == np.arange(q)).reshape(
        q ** n, n * q)
    # pairs[x, i, s, j, t]: the weight of graph x's states with s_i = s, s_j = t
    pairs = ((onehot.T * w[:, None, :]) @ onehot).reshape(len(graphs), n, q,
                                                          n, q)
    # vertex 1's diagonal block sums to the total weight
    total = np.einsum("xaa->x", pairs[:, 0, :, 0, :])
    inc = np.log(np.einsum("xiajb,ab->xij", pairs, model.J)
                 / total[:, None, None])
    return (inc + inc.transpose(0, 2, 1)) / 2


def _spin_increments(g: Multigraph, model: SpinModel) -> np.ndarray:
    """f(G + ij) - f(G) = log E[J(s_i, s_j)] under g's Gibbs measure, for
    f = log_partition(., model), from one enumeration of g.  Pair marginals
    come from one-hot spin tables, n*q floats per state, so slabs hold at
    most ``_CHUNK >> 4`` states; each is shifted by its own max."""
    q, n = model.q, g.n
    powers, top, pairs = q ** np.arange(n), -math.inf, 0.0
    for k, logw in enumerate(_log_weight_slabs(g, model, _CHUNK >> 4)):
        m = float(logw.max())
        w = np.exp(logw - m).ravel()
        spins = (np.arange(k * w.size, (k + 1) * w.size)[:, None] // powers) % q
        onehot = (spins[:, :, None] == np.arange(q)).reshape(w.size, n * q)
        # pairs[i*q + s, j*q + t]: the weight of states with s_i = s, s_j = t
        new = max(top, m)
        pairs = (pairs * math.exp(top - new)
                 + math.exp(m - new) * (onehot.T @ (w[:, None] * onehot)))
        top = new
    pairs = pairs.reshape(n, q, n, q)
    # vertex 1's diagonal block sums to the total weight
    inc = np.log(np.einsum("iajb,ab->ij", pairs, model.J) / np.trace(pairs[0, :, 0]))
    return (inc + inc.T) / 2


# ---------------------------------------------------------------------------
# graph parameters


@dataclass(frozen=True, eq=False)
class GraphParameter:
    """Named isomorphism-invariant evaluator with a declared one-edge bound.

    ``kappa`` is a valid Lipschitz constant for single-edge additions, not
    necessarily the least one.

    The other fields declare the fast paths that a family's structure gives,
    each set where the family is defined: ``model``, the :class:`SpinModel`
    whose :func:`log_partition` ``evaluate`` computes; ``per_root``, the
    pair (rule, degree_two) of the family's per-root rule and whether it
    holds only on graphs of max degree <= 2; ``increments``, the increment
    matrix of a graph with n >= 1 from one solve.  They describe
    ``evaluate`` and are trusted, not checked: ``dataclasses.replace(f,
    evaluate=g)`` keeps them, which is right only for a g that wraps
    ``f.evaluate`` (it computes the same values).  Any other function needs
    a bare ``GraphParameter(name, kappa, g)``, which declares none and is
    evaluated graph by graph and pair by pair.
    """

    name: str
    kappa: float
    evaluate: Callable[[Multigraph], float]
    model: SpinModel | None = None
    per_root: tuple | None = None
    increments: Callable[[Multigraph], np.ndarray] | None = None

    def __call__(self, g: Multigraph):
        return self.evaluate(g)


INDEPENDENCE = GraphParameter(
    "independence", 1.0, independence_number,
    per_root=(_independence_roots, True), increments=_independence_increments)
MAX_CUT = GraphParameter(
    "maxcut", 1.0, max_cut,
    per_root=(_max_cut_roots, True), increments=_max_cut_increments)
NEG_COMPONENTS = GraphParameter(
    "neg_components", 1.0, neg_num_components,
    per_root=(_negated_root_marks, False), increments=_component_increments)
# Deliberately outside the class: additive and Lipschitz but not concave.
POS_COMPONENTS = GraphParameter("pos_components", 1.0, num_components,
                                per_root=(_root_marks, False))


def spin_parameter(model: SpinModel, name: str) -> GraphParameter:
    return GraphParameter(name, model.log_interaction_bound(),
                          partial(log_partition, model=model), model=model,
                          increments=partial(_spin_increments, model=model))


def ising_parameter(beta: float) -> GraphParameter:
    return spin_parameter(ising_model(beta), f"ising(beta={beta:g})")


def potts_parameter(q: int, beta: float) -> GraphParameter:
    return spin_parameter(potts_model(q, beta), f"potts(q={q},beta={beta:g})")


def parameter_from_name(name: str, beta: float | None = None,
                        q: int | None = None) -> GraphParameter:
    """Resolve a CLI-style parameter name."""
    key = name.replace("-", "_").lower()
    if key == "independence":
        return INDEPENDENCE
    if key in ("maxcut", "max_cut"):
        return MAX_CUT
    if key == "neg_components":
        return NEG_COMPONENTS
    if key == "pos_components":
        return POS_COMPONENTS
    if key == "ising":
        if beta is None:
            raise ValueError("ising requires --beta")
        return ising_parameter(beta)
    if key == "potts":
        if beta is None or q is None:
            raise ValueError("potts requires --q and --beta")
        return potts_parameter(q, beta)
    raise ValueError(f"unknown parameter {name!r}")


# ---------------------------------------------------------------------------
# many graphs at once

def _batched(items: list, key: Callable, batch: Callable, one=None,
             cap=None, rank=None) -> list:
    """Results for ``items``, in input order.  Items whose ``key`` is None
    go to ``one`` one at a time, in input order; the others, grouped by
    key and each group sorted by ``rank`` (stably, if given), go to
    ``batch`` in lists of at most ``cap(key)`` items (a whole group without
    ``cap``), and ``batch`` returns one result per item."""
    out, groups = [None] * len(items), {}
    for k, item in enumerate(items):
        group = key(item)
        if group is None:
            out[k] = one(item)
        else:
            groups.setdefault(group, []).append(k)
    for group, ks in groups.items():
        if rank:
            ks.sort(key=lambda k: rank(items[k]))
        step = cap(group) if cap else len(ks)
        for lo in range(0, len(ks), step):
            part = ks[lo:lo + step]
            for k, value in zip(part, batch([items[k] for k in part])):
                out[k] = value
    return out


def _spin_batches(graphs: list, model: SpinModel, limit: int,
                  batch: Callable, one: Callable) -> list:
    """``batch(graphs, model)`` over batches of graphs with one vertex count
    n >= 1 and at most ``limit`` states in all, in order of edge count,
    most first; ``one(g)`` for n = 0 and for graphs that would fill a batch
    alone (2 q^n > limit), which :func:`log_partition` sums by elimination
    (or enumerates in slabs) and :func:`_spin_increments` enumerates in
    slabs."""
    q = model.q
    return _batched(
        graphs, lambda g: g.n if g.n and 2 * q ** g.n <= limit else None,
        partial(batch, model=model), one, lambda n: limit // q ** n,
        lambda g: -g.num_edges)


def evaluate_many(f: GraphParameter, graphs) -> list:
    """``[f.evaluate(g) for g in graphs]``, with the same types and values,
    through the fast paths that ``f`` declares.

    With a ``model``, graphs with n >= 1 and 2 q^n <= ``_CHUNK`` are
    enumerated together, those with the same n as the rows of one array of
    at most ``_CHUNK`` states (see :func:`_log_partition_rows`); the others
    go one by one through ``f.evaluate``, which for :func:`log_partition`
    enumerates n = 0 in slabs and sums larger graphs by elimination, or in
    slabs where elimination declines.  No path holds an array of more than
    about ``_CHUNK`` floats.  With a ``per_root`` rule, two or more
    array-held graphs with the same n >= 1 (of max degree <= 2, for a
    degree-two rule) share one components pass over their disjoint union,
    and each graph's value is the sum of the rule's values over its block
    of vertices.  Everything else, and every parameter built from a bare
    callable, is evaluated graph by graph.
    """
    graphs = list(graphs)
    if f.model is not None:
        return _spin_batches(graphs, f.model, _CHUNK, _log_partition_rows,
                             f.evaluate)
    n = graphs[0].n if graphs else 0
    if (f.per_root is None or len(graphs) < 2 or n == 0
            or any(not isinstance(g, _ArrayMultigraph) or g.n != n
                   for g in graphs)):
        return [f.evaluate(g) for g in graphs]
    rule, degree_two = f.per_root
    union = Multigraph(n * len(graphs),
                       np.concatenate([g.ends + n * k
                                       for k, g in enumerate(graphs)]))
    if degree_two and union.max_degree() > 2:
        return [f.evaluate(g) for g in graphs]
    values = rule(_component_roots(union), union)
    return values.reshape(len(graphs), n).sum(axis=1).tolist()


# ---------------------------------------------------------------------------
# increments and conditional negative semidefiniteness


def _evaluated_increments(evaluate: Callable, g: Multigraph) -> np.ndarray:
    """The increment matrix from evaluating g and each G + ij."""
    base = evaluate(g)
    out = np.zeros((g.n, g.n))
    for i in range(1, g.n + 1):
        for j in range(i, g.n + 1):
            delta = evaluate(g.add_edge(i, j)) - base
            out[i - 1, j - 1] = delta
            out[j - 1, i - 1] = delta
    return out


def increment_matrix(f: GraphParameter, g: Multigraph) -> np.ndarray:
    """n x n matrix of single-edge increments f(G + ij) - f(G); the diagonal
    holds loop additions.  Symmetric by construction.

    A parameter that declares ``increments``, as every built-in family but
    ``POS_COMPONENTS`` does, gets the matrix of g with n >= 1 from one
    solve.  For a spin model, one enumeration of g gives every entry as a
    pair marginal.  For ``neg_num_components`` an entry is 1 exactly where
    i and j lie in different components; for ``max_cut`` (n <=
    ``MAX_CUT_LIMIT``) exactly where some maximum cut separates them, from
    one Gray-code pass; for ``independence_number`` the matrix is -c c^T,
    where c_v = alpha(G) - alpha(G + vv), from n + 1 solves.  Any other
    parameter, one built from a bare callable included, is evaluated on g
    and on each G + ij.
    """
    if g.n and f.increments is not None:
        return f.increments(g)
    return _evaluated_increments(f.evaluate, g)


def _increments_many(f: GraphParameter, graphs: list) -> list:
    """``[increment_matrix(f, g) for g in graphs]``, to rounding; for a
    parameter that declares a ``model``, graphs with the same n >= 1 share
    one :func:`_spin_increment_rows` call, at most ``_CHUNK >> 4`` states
    per call, and give the same bits as one by one."""
    if f.model is None:
        return [increment_matrix(f, g) for g in graphs]
    return _spin_batches(graphs, f.model, _CHUNK >> 4, _spin_increment_rows,
                         partial(increment_matrix, f))


def _cnd_tops(m) -> np.ndarray:
    """The top eigenvalue of P m P, P = I - 11^T/n, of a matrix (a 0-d
    array) or of each matrix of a (k, n, n) stack (-inf where n = 0, whose
    sum-zero subspace is {0}); bad input raises as :func:`is_cnd` says."""
    values = np.asarray(m, dtype=float)
    if values.ndim not in (2, 3) or values.shape[-1] != values.shape[-2]:
        raise ValueError("matrix must be square")
    if not (np.isfinite(values).all() and np.abs(
            values - values.swapaxes(-1, -2)).max(initial=0.0) <= _SYMMETRY_TOL):
        stack = values if values.ndim == 3 else values[None]
        for k, matrix in enumerate(stack):      # name the first bad one
            if not np.isfinite(matrix).all():
                message = "matrix entries must be finite"
            elif np.abs(matrix - matrix.T).max(initial=0.0) > _SYMMETRY_TOL:
                message = "matrix must be symmetric"
            else:
                continue
            raise ValueError(message if values.ndim == 2
                             else f"{message} (matrix {k} of the stack)")
    n = values.shape[-1]
    if n == 0:
        return np.full(values.shape[:-2], -np.inf)
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    projected = proj @ values @ proj
    return np.linalg.eigvalsh(
        (projected + projected.swapaxes(-1, -2)) / 2)[..., -1]


def _stacked_cnd_tops(matrices: list) -> list:
    """``_cnd_tops(m)`` for each matrix, one stacked call per shape."""
    return _batched(matrices, lambda m: m.shape,
                    lambda ms: _cnd_tops(np.stack(ms)))


def is_cnd(m):
    """Whether the quadratic form of m is <= CND_TOL on the sum-zero
    subspace; for a (k, n, n) stack of matrices, an array of k verdicts.

    Projects with P = I - 11^T/n and tests the top eigenvalue of P m P, one
    projection and one ``eigvalsh`` call for a whole stack.  A matrix that
    is not square, not finite or not symmetric (beyond 1e-12) raises
    ``ValueError``, which names the first such matrix of a stack.
    """
    verdicts = _cnd_tops(m) <= CND_TOL
    return bool(verdicts) if verdicts.ndim == 0 else verdicts


# ---------------------------------------------------------------------------
# class-membership certification


@dataclass
class PropertyCheck:
    passed: bool = True
    samples: int = 0
    counterexample: str | None = None


@dataclass
class CertificationReport:
    parameter: str
    kappa: float
    samples: int
    max_vertices: int
    max_edges: int
    additive: PropertyCheck = field(default_factory=PropertyCheck)
    lipschitz: PropertyCheck = field(default_factory=PropertyCheck)
    concave: PropertyCheck = field(default_factory=PropertyCheck)
    # slack over the checked samples, kept out of to_json: the least
    # kappa - max |increment| and the largest top eigenvalue of P m P
    # (see is_cnd); a failed property's last sample is its counterexample
    lipschitz_margin: float = math.inf
    max_cnd_eigenvalue: float = -math.inf

    @property
    def all_passed(self) -> bool:
        return self.additive.passed and self.lipschitz.passed and self.concave.passed

    def to_json(self) -> str:
        payload = {
            "parameter": self.parameter,
            "kappa": self.kappa,
            "samples": self.samples,
            "max_vertices": self.max_vertices,
            "max_edges": self.max_edges,
            "properties": {
                name: {
                    "passed": check.passed,
                    "samples": check.samples,
                    "counterexample": check.counterexample,
                }
                for name, check in (("additive", self.additive),
                                    ("lipschitz", self.lipschitz),
                                    ("concave", self.concave))
            },
            "all_passed": self.all_passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


ADDITIVITY_TOL = 1e-9
LIPSCHITZ_TOL = 1e-9
CND_TOL = 1e-8


# sample pairs drawn and evaluated together: a block's graphs, values and
# increment matrices are held at once, so memory stays bounded in samples
_CERTIFY_BLOCK = 1024


def certify_parameter(f: GraphParameter, samples: int, nmax: int,
                      rng: np.random.Generator,
                      max_edges: int | None = None) -> CertificationReport:
    """Check additivity, the one-edge bound, and increment concavity on
    random multigraphs; the first counterexample per property is recorded.

    Each sample is a pair of :func:`random_multigraph` draws.  Pairs are
    drawn in blocks, and a block's values are computed in batches (see
    :func:`_certify_block`); the report, and any error an evaluator
    raises, are those of checking the samples one at a time.
    """
    if max_edges is None:
        max_edges = 2 * nmax
    for name, value, least in (("samples", samples, 1), ("nmax", nmax, 1),
                               ("max_edges", max_edges, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    report = CertificationReport(f.name, f.kappa, samples, nmax, max_edges)
    for start in range(0, samples, _CERTIFY_BLOCK):
        _certify_block(f, [(random_multigraph(rng, nmax, max_edges),
                            random_multigraph(rng, nmax, max_edges))
                           for _ in range(min(_CERTIFY_BLOCK,
                                              samples - start))], report)
    return report


def _each(many: Callable, one: Callable, items: list) -> list:
    """``many(items)``; if that raises, ``one(item)`` for each item in turn,
    keeping in the item's place the exception it raises (an item that is
    an exception stays in place), so that :func:`_read` raises it where
    the value is needed."""
    try:
        return many(items)
    except Exception:
        out = []
        for item in items:
            try:
                out.append(item if isinstance(item, Exception) else one(item))
            except Exception as err:
                out.append(err)
        return out


def _read(value):
    """A value that :func:`_each` kept, raising it if it is an exception."""
    if isinstance(value, Exception):
        raise value
    return value


def _certify_block(f: GraphParameter, pairs: list,
                   report: CertificationReport) -> None:
    """Check the sample pairs (G1, G2) in order, as the samples after those
    already in ``report``.

    Values come in batches, for every pair that a property passing at the
    block's start needs: f(G1 + G2), f(G1) and f(G2) through
    :func:`evaluate_many`, which evaluates G1 + G2 as one graph;
    G1's increment matrices through :func:`_increments_many`; their top
    projected eigenvalues in one stacked call per vertex count.
    """
    evaluate = partial(evaluate_many, f)
    if report.additive.passed:
        wholes = _each(evaluate, f.evaluate,
                       [g1.disjoint_union(g2) for g1, g2 in pairs])
        parts = _each(evaluate, f.evaluate, [g for pair in pairs for g in pair])
    if report.lipschitz.passed or report.concave.passed:
        incs = _each(partial(_increments_many, f), partial(increment_matrix, f),
                     [g1 for g1, _ in pairs])
    if report.concave.passed:
        tops = _each(_stacked_cnd_tops, _cnd_tops, incs)

    for k, (g1, g2) in enumerate(pairs):
        if report.additive.passed:
            report.additive.samples += 1
            whole = _read(wholes[k])
            parts_sum = _read(parts[2 * k]) + _read(parts[2 * k + 1])
            if abs(whole - parts_sum) > ADDITIVITY_TOL:
                report.additive.passed = False
                report.additive.counterexample = (
                    f"f(G1 + G2)={whole} vs f(G1)+f(G2)={parts_sum}; "
                    f"G1={g1.edges} n={g1.n}, G2={g2.edges} n={g2.n}")

        if report.lipschitz.passed or report.concave.passed:
            inc = _read(incs[k])

        if report.lipschitz.passed:
            report.lipschitz.samples += 1
            worst = float(np.abs(inc).max()) if g1.n else 0.0
            if worst > f.kappa + LIPSCHITZ_TOL:
                # quote G1's own matrix, which a batch's matches to rounding
                worst = float(np.abs(increment_matrix(f, g1)).max())
                report.lipschitz.passed = False
                report.lipschitz.counterexample = (
                    f"|increment|={worst} > kappa={f.kappa}; G={g1.edges} n={g1.n}")
            report.lipschitz_margin = min(report.lipschitz_margin,
                                          f.kappa - worst)

        if report.concave.passed:
            report.concave.samples += 1
            top = float(_read(tops[k]))
            report.max_cnd_eigenvalue = max(report.max_cnd_eigenvalue, top)
            if not top <= CND_TOL:
                report.concave.passed = False
                report.concave.counterexample = (
                    f"increment matrix not CND; G={g1.edges} n={g1.n}")
