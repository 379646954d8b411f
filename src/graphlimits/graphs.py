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
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
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
    :class:`_ArrayMultigraph`): ``edge_array`` is their canonical int64
    array, and their degrees run vectorised on it.  Graphs built from pairs,
    the small graphs of the exact solvers and enumerations, have
    ``edge_array`` None and keep plain loops and attributes, which are
    faster at that size.  One components pass serves both forms (numpy for
    array-held graphs, a union-find for pair-built ones), and each degree-2
    closed form is one expression over its output.  Instances are immutable.
    """

    edge_array = None

    def __new__(cls, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        return super().__new__(_ArrayMultigraph if isinstance(edges, np.ndarray)
                               else cls)

    def __init__(self, n: int, edges=()):
        normalized = []
        for e in edges:
            i, j = int(e[0]), int(e[1])
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
        if self.edge_array is None or other.edge_array is None:
            return self.n == other.n and self.edges == other.edges
        return self.n == other.n and np.array_equal(self.edge_array,
                                                    other.edge_array)

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
        return np.array([i for i, _ in self.edges], dtype=np.int64) - 1

    def add_edge(self, i: int, j: int) -> "Multigraph":
        """``Multigraph(n, edges + ((i, j),))``, checking only the new pair."""
        i, j = int(i), int(j)
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"edge ({i}, {j}) outside 1..{self.n}")
        k = bisect_right(self.edges, edge := (min(i, j), max(i, j)))
        g = object.__new__(Multigraph)
        g.__dict__.update(n=self.n, edges=self.edges[:k] + (edge,) + self.edges[k:])
        return g

    def disjoint_union(self, other: "Multigraph") -> "Multigraph":
        shifted = tuple((i + self.n, j + self.n) for i, j in other.edges)
        return Multigraph(self.n + other.n, self.edges + shifted)

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


def _canonical_array(n: int, edges: np.ndarray) -> np.ndarray:
    """Validate an (m, 2) endpoint array and sort it into canonical order:
    each row as (min, max), rows in lexicographic order."""
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise ValueError(f"edge array must be (m, 2) integers, got "
                         f"{edges.dtype} of shape {edges.shape}")
    if edges.min() < 1 or edges.max() > n:
        i, j = edges[((edges < 1) | (edges > n)).any(axis=1).argmax()].tolist()
        raise ValueError(f"edge ({i}, {j}) outside 1..{n}")
    edges = edges.astype(np.int64, copy=False)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if n >= 1 << 31:    # lo * (n + 1) + hi could overflow int64
        order = np.lexsort((hi, lo))
        return np.column_stack((lo[order], hi[order]))
    # sorting one packed key is an order of magnitude faster than lexsort
    key = lo * (n + 1) + hi
    key.sort()
    return np.column_stack((key // (n + 1), key % (n + 1)))


class _ArrayMultigraph(Multigraph):
    """What ``Multigraph(n, array)`` returns: a multigraph held as its
    canonical endpoint array, whose ``edges`` pairs are built on first
    access."""

    def __init__(self, n: int, edges: np.ndarray):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", _canonical_array(n, edges))

    @property
    def edges(self) -> tuple:
        if "_edges" not in self.__dict__:
            lo, hi = self.edge_array.T.tolist()
            object.__setattr__(self, "_edges", tuple(zip(lo, hi)))
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def _degree_array(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n + 1)[1:]

    def degrees(self) -> tuple:
        return tuple(self._degree_array().tolist())

    def max_degree(self) -> int:
        return int(self._degree_array().max(initial=0))

    def _tails(self) -> np.ndarray:
        return self.edge_array[:, 0] - 1


def random_multigraph(rng: np.random.Generator, max_vertices: int,
                      max_edges: int) -> Multigraph:
    """Uniform vertex count in 1..max_vertices, then that many random endpoint
    pairs (loops and duplicates allowed)."""
    n = int(rng.integers(1, max_vertices + 1))
    m = int(rng.integers(0, max_edges + 1))
    endpoints = rng.integers(1, n + 1, size=(m, 2))
    return Multigraph(n, tuple((int(a), int(b)) for a, b in endpoints))


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
    if g.edge_array is None:
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
    ends = g.edge_array - 1
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


def num_components(g: Multigraph) -> int:
    """Number of connected components; isolated vertices count, loops and
    parallel edges are connectivity-neutral."""
    return int(np.count_nonzero(_component_roots(g) == np.arange(g.n)))


def neg_num_components(g: Multigraph) -> int:
    return -num_components(g)


def _degree_two_arrays(g: Multigraph) -> tuple:
    """Vertex and edge counts (with multiplicity) per component of a graph
    of max degree <= 2, indexed by the component's smallest vertex (other
    entries are 0), each component checked to be a path or a cycle (loops
    are 1-cycles, double edges 2-cycles)."""
    root = _component_roots(g)
    vertices = np.bincount(root)
    # an edge lies in the component of its endpoints
    edges = np.bincount(root[g._tails()], minlength=len(vertices))
    # a connected component has e >= v - 1, so e <= v leaves a path or a cycle
    if np.count_nonzero(edges > vertices):
        raise AssertionError("degree-2 component with unexpected edge count")
    return vertices, edges


def _independence_degree_two(g: Multigraph) -> int:
    # (2v - e) // 2 per component: (v + 1) // 2 on a path (e = v - 1), v // 2
    # on a cycle (e = v); summed, (2n - m - #{components with e odd}) / 2
    _, e = _degree_two_arrays(g)
    return (2 * g.n - g.num_edges - int(np.count_nonzero(e % 2))) // 2


def _max_cut_degree_two(g: Multigraph) -> int:
    # every edge crosses, except one on each odd cycle
    v, e = _degree_two_arrays(g)
    return g.num_edges - int(np.count_nonzero(e[e == v] % 2))


def _branch_bound_alpha(adj, candidates: int) -> int:
    best = 0

    def rec(mask: int, size: int):
        nonlocal best
        if size > best:
            best = size
        if size + mask.bit_count() <= best:
            return
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
            best = max(best, size + mask.bit_count())
            return
        rec(mask & ~(adj[pivot] | (1 << pivot)), size + 1)
        rec(mask ^ (1 << pivot), size)

    rec(candidates, 0)
    return best


def independence_number(g: Multigraph) -> int:
    """Size of the largest vertex set spanning no edge.

    Vertices with loops are excluded; parallel edges act as single edges.
    Degree <= 2 graphs are evaluated in closed form at any size; otherwise a
    branch-and-bound search runs up to 40 vertices.
    """
    if g.n == 0:
        return 0
    if g.max_degree() <= 2:
        return _independence_degree_two(g)
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
        return _max_cut_degree_two(g)
    if g.n > MAX_CUT_LIMIT:
        raise ValueError(
            f"instance too large for exact solver: n={g.n} > {MAX_CUT_LIMIT}")
    weights = {}
    for i, j in g.edges:
        if i != j:
            weights[(i - 1, j - 1)] = weights.get((i - 1, j - 1), 0) + 1
    nbrs = [[] for _ in range(g.n)]
    for (a, b), w in weights.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
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
    for spins in product(range(q), repeat=n - r):
        logw = np.zeros((q,) * r)
        for fixed, t in terms:
            logw += t[spins] if fixed else t
        yield logw


def log_partition(g: Multigraph, model: SpinModel) -> float:
    """log of the total spin-configuration weight on g.

    Each configuration weighs prod_i h(s_i) * prod_{ij in E} J(s_i, s_j),
    edges taken with multiplicity and loops contributing J(s_i, s_i).  The
    broadcast slabs of :func:`_log_weight_slabs` keep a call to a few MB for
    any q^n; the sum is taken in log space with a max shift per window of
    ``_CHUNK`` consecutive states.
    """
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
    """

    name: str
    kappa: float
    evaluate: Callable[[Multigraph], float]

    def __call__(self, g: Multigraph):
        return self.evaluate(g)


INDEPENDENCE = GraphParameter("independence", 1.0, independence_number)
MAX_CUT = GraphParameter("maxcut", 1.0, max_cut)
NEG_COMPONENTS = GraphParameter("neg_components", 1.0, neg_num_components)
# Deliberately outside the class: additive and Lipschitz but not concave.
POS_COMPONENTS = GraphParameter("pos_components", 1.0, num_components)


def spin_parameter(model: SpinModel, name: str) -> GraphParameter:
    return GraphParameter(name, model.log_interaction_bound(),
                          partial(log_partition, model=model))


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
# increments and conditional negative semidefiniteness


def increment_matrix(f: GraphParameter, g: Multigraph) -> np.ndarray:
    """n x n matrix of single-edge increments f(G + ij) - f(G); the diagonal
    holds loop additions.  Symmetric by construction.  For ``log_partition``
    bound to a model, as :func:`spin_parameter` builds it, one enumeration
    of g gives every entry; other parameters are evaluated on each G + ij."""
    if g.n and getattr(f.evaluate, "func", None) is log_partition:
        return _spin_increments(g, *f.evaluate.args, **f.evaluate.keywords)
    base = f.evaluate(g)
    out = np.zeros((g.n, g.n))
    for i in range(1, g.n + 1):
        for j in range(i, g.n + 1):
            delta = f.evaluate(g.add_edge(i, j)) - base
            out[i - 1, j - 1] = delta
            out[j - 1, i - 1] = delta
    return out


def is_cnd(m) -> bool:
    """Whether the quadratic form of m is <= CND_TOL on the sum-zero
    subspace.

    Projects with P = I - 11^T/n and tests the top eigenvalue of P m P.
    """
    values = np.asarray(m, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(values).all():
        raise ValueError("matrix entries must be finite")
    if np.abs(values - values.T).max(initial=0.0) > _SYMMETRY_TOL:
        raise ValueError("matrix must be symmetric")
    n = values.shape[0]
    if n == 0:      # the sum-zero subspace of R^0 is {0}
        return True
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    projected = proj @ values @ proj
    top = float(np.linalg.eigvalsh((projected + projected.T) / 2)[-1])
    return top <= CND_TOL


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


def certify_parameter(f: GraphParameter, samples: int, nmax: int,
                      rng: np.random.Generator,
                      max_edges: int | None = None) -> CertificationReport:
    """Check additivity, the one-edge bound, and increment concavity on
    random multigraphs; the first counterexample per property is recorded.
    """
    if max_edges is None:
        max_edges = 2 * nmax
    report = CertificationReport(f.name, f.kappa, samples, nmax, max_edges)
    for _ in range(samples):
        g1 = random_multigraph(rng, nmax, max_edges)
        g2 = random_multigraph(rng, nmax, max_edges)

        if report.additive.passed:
            report.additive.samples += 1
            whole = f.evaluate(g1.disjoint_union(g2))
            parts = f.evaluate(g1) + f.evaluate(g2)
            if abs(whole - parts) > ADDITIVITY_TOL:
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
            if worst > f.kappa + LIPSCHITZ_TOL:
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
