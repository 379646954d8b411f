"""Exact means over constrained matching classes, and the inequality
verifiers built on them.

For an instance (half-edge system, bipartition, parameter f) write
F(alpha, beta, gamma) for the mean of f over the uniform matching class
with those pair-type counts.  The verifiers check, with exact rational
arithmetic wherever the parameter is integer-valued:

  * lipschitz:  |F(c) - F(c')| <= kappa * |c - c'|_1
  * local:      mean of the two within-side extensions of F(a, b, g)
                exceeds the cross extension by at most 2*kappa/delta
                whenever (a, b, g + delta) is feasible, delta >= 2
  * global:     the no-cross class is at most penalty(gamma) above the
                gamma-cross class
  * main:       E f on the two sub-systems sums to at most E f on the whole
                system plus penalty(total degree / 2)

``penalty(x) = 7 * kappa * sqrt(x * ln(1 + x))`` and the constant 7 is
justified numerically by :func:`penalty_constant`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, product
from numbers import Rational

import numpy as np

# bench/tracer.py wraps enumerate_matchings, graph_of_matching,
# counts_of_matching and enumerate_maximal_matchings by their names here
from .config_model import (  # noqa: F401
    Bipartition,
    Matching,
    PairingCounts,
    _pair,
    counts_of_graph,
    counts_of_matching,
    enumerate_matchings,
    enumerate_maximal_matchings,
    enumerate_multigraphs,
    graph_of_matching,
)
from .degree import HalfEdgeSystem, as_degrees
from .graphs import GraphParameter
from .limits import (
    EXPECTATION_SIGMAS,
    TAIL_SIGMAS,
    Verdict,
    graph_values,
    mean_stderr,
)

DEFAULT_TOL = 1e-9
PENALTY_FACTOR = 7.0
# (bipartition, edge or graph counter) cells per share of the sweep's
# class-sum scatter: 512 KB per int64 array
_SCATTER_CELLS = 1 << 16


# ---------------------------------------------------------------------------
# instances and verdicts


@dataclass(frozen=True, eq=False)
class InterpolationInstance:
    """A half-edge system, a bipartition of its vertices, and a parameter."""

    sys: HalfEdgeSystem
    bp: Bipartition
    f: GraphParameter

    def __post_init__(self):
        self.bp.check_covers(self.sys)
        object.__setattr__(self, "_label",
                           _label(self.sys.degrees, self.bp, self.f))

    def describe(self) -> str:
        return self._label


def _label(degrees, bp: Bipartition, f: GraphParameter) -> str:
    """The instance label that every record of an instance carries."""
    return f"d={degrees} A={sorted(bp.a)} f={f.name}"


def _weighted_mean(values, weights):
    """Mean of ``values``, the k-th counted ``weights[k]`` times.

    Exact rational when every value is rational; otherwise the float that
    ``math.fsum`` of the expanded list divided by its length gives, bit for
    bit: the exact sum, rounded once, is what fsum returns.
    """
    count = sum(weights)
    if all(isinstance(v, Rational) for v in values):
        return Fraction(sum(w * v for v, w in zip(values, weights)), count)
    floats = [float(v) for v in values]
    if not all(map(math.isfinite, floats)):
        return math.fsum(v for v, w in zip(floats, weights)
                         for _ in range(w)) / count
    return float(sum(w * Fraction(v) for v, w in zip(floats, weights))) / count


def _at_most(lhs, bound) -> bool:
    """``lhs <= bound``, exactly; a rational lhs meets a finite float bound
    by integer cross-multiplication instead of Fraction's float coercion."""
    if type(lhs) is Fraction and type(bound) is float and math.isfinite(bound):
        num, den = bound.as_integer_ratio()
        return lhs.numerator * den <= num * lhs.denominator
    return bool(lhs <= bound)


def _decide(lhs, rhs, allowance=0.0) -> tuple:
    """(float lhs, float rhs, verdict) of lhs <= rhs + allowance +
    DEFAULT_TOL; a zero allowance is not added, so that a rational rhs
    keeps the comparison exact."""
    bound = (rhs + allowance if allowance else rhs) + DEFAULT_TOL
    return float(lhs), float(rhs), _at_most(lhs, bound)


def _result(check, instance, counts, lhs, rhs, allowance=0.0) -> Verdict:
    lhs, rhs, verdict = _decide(lhs, rhs, allowance)
    return Verdict(check, lhs, rhs, allowance, verdict, instance, counts)


def _pair_distances(triples) -> tuple:
    """Indices (i, j) of every pair i < j of ``triples``, in row-major
    order, and the L1 distance of each pair."""
    i, j = np.triu_indices(len(triples), 1)
    t = np.array(triples, dtype=np.int64)
    return i, j, np.abs(t[i] - t[j]).sum(axis=1)


def _common_denominator(means) -> tuple:
    """(values, scale): rational means as integer numerators over one common
    denominator ``scale``; any other means as they are, with scale None.

    The record rules below take means in this form.  With integer
    numerators a rule compares one integer with floor(bound * scale),
    which is exact; otherwise it uses the scalar comparison's own
    operations.  Python integers never overflow, and n / scale rounds
    once, as ``float(Fraction)`` does.
    """
    if all(type(m) is int for m in means):
        return list(means), 1
    if all(isinstance(m, Rational) for m in means):
        # a list: math.lcm(*generator) leaks memory on CPython 3.11
        scale = math.lcm(*[int(m.denominator) for m in means])
        return [int(m.numerator) * (scale // int(m.denominator))
                for m in means], scale
    return list(means), None


def _threshold(bound, scale: int):
    """floor(bound * scale): an integer is at most ``bound * scale`` iff it
    is at most this.  A non-finite bound is returned as it is."""
    if not math.isfinite(bound):
        return bound
    num, den = bound.as_integer_ratio()
    return num * scale // den


def _lipschitz_table(kappa, values, scale, i, j, dist) -> tuple:
    """Decide |F_i - F_j| <= kappa * dist for every pair (i, j) of the means
    ``values`` over ``scale`` (see :func:`_common_denominator`) at once.

    Returns the arrays (lhs, rhs, verdict) of the pairs' records.  Values
    stay Python numbers in object arrays.
    """
    top = int(dist.max(initial=0))
    rhs = [kappa * d for d in range(top + 1)]
    bounds = [r + DEFAULT_TOL for r in rhs]
    if scale is not None:
        bounds = [_threshold(b, scale) for b in bounds]
    values = np.array(values, dtype=object)
    gap = np.abs(values[i] - values[j])
    verdict = gap <= np.array(bounds, dtype=object)[dist]
    lhs = np.asarray(gap / (scale or 1), dtype=float)
    return lhs, np.array(rhs, dtype=float)[dist], verdict


def _local_record(kappa, x, y, z, delta: int, scale) -> tuple:
    """(lhs, rhs, verdict) of (F_x + F_y) / 2 <= F_z + 2 * kappa / delta for
    means over ``scale``.  An integer kappa keeps the bound rational."""
    integral = float(kappa).is_integer()
    if scale is None:
        slack = (Fraction(2 * int(kappa), delta) if integral
                 else 2.0 * kappa / delta)
        return _decide(Fraction(1, 2) * (x + y), z + slack)
    if integral:
        rhs = (z * delta + 2 * int(kappa) * scale) / (scale * delta)
    else:
        rhs = z / scale + 2.0 * kappa / delta
    return ((x + y) / (2 * scale), rhs,
            x + y <= _threshold(rhs + DEFAULT_TOL, 2 * scale))


def _global_record(kappa, top, cross, gamma: int, scale) -> tuple:
    """(lhs, rhs, verdict) of F_top <= F_cross + penalty(gamma) for means
    over ``scale``."""
    pen = penalty(gamma, kappa)
    if scale is None:
        return _decide(top, cross + pen)
    rhs = cross / scale + pen
    return top / scale, rhs, top <= _threshold(rhs + DEFAULT_TOL, scale)


# ---------------------------------------------------------------------------
# class means


def class_mean(inst: InterpolationInstance, counts: PairingCounts):
    """Exact mean of the parameter over the matching class with ``counts``.

    Averages over the distinct multigraphs of the class, each weighted by
    the number of matchings that induce it; rational-valued parameters are
    averaged in exact arithmetic.
    """
    counts = PairingCounts(*counts)
    members = [(g, w) for g, w in enumerate_multigraphs(inst.sys, sum(counts))
               if counts_of_graph(g, inst.bp) == counts]
    if not members:
        raise ValueError(f"empty class: counts {tuple(counts)} are infeasible")
    return _weighted_mean([inst.f.evaluate(g) for g, _ in members],
                          [w for _, w in members])


def expected_parameter(f: GraphParameter, degrees):
    """Exact expectation of f on the prescribed-degree random graph.

    Averages over the multigraphs of the maximal matchings of the half-edge
    system, each weighted by its number of maximal matchings.  Values are
    computed on the ascending relabeling of the degrees: the degree
    multiset determines the exact mean, but a float-valued parameter
    averaged under another labeling can differ in the last bit.
    """
    sys = HalfEdgeSystem(sorted(as_degrees(degrees)))
    weighted = enumerate_multigraphs(sys, sys.total // 2)
    return _weighted_mean([f.evaluate(g) for g, _ in weighted],
                          [w for _, w in weighted])


# ---------------------------------------------------------------------------
# penalty


def penalty(x, kappa: float) -> float:
    """Sublinear budget PENALTY_FACTOR * kappa * sqrt(x * ln(1 + x)) used by
    the global and main checks."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return PENALTY_FACTOR * kappa * math.sqrt(x * math.log1p(x))


def penalty_constant(gamma: int) -> float:
    """Constant whose value at gamma justifies the penalty factor 7.

    c(g) = 2 / (ln(1+g) - sqrt(ln(1+g)/g)) + 4 + 4 / sqrt(ln(1+g)),
    defined where the denominator is positive; it decreases for g >= 47
    and c(47) = 6.59 < 7.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    t = math.log1p(gamma)
    den = t - math.sqrt(t / gamma)
    if den <= 0:
        raise ValueError(f"denominator non-positive at gamma={gamma}")
    return 2.0 / den + 4.0 + 4.0 / math.sqrt(t)


def default_corridor_width(gamma: int) -> int:
    """Corridor half-width floor(sqrt(gamma * ln(1+gamma))) that balances the
    error terms behind the penalty; a sensible delta for walk experiments."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    return math.floor(math.sqrt(gamma * math.log1p(gamma)))


# ---------------------------------------------------------------------------
# verifiers


def verify_lipschitz(inst: InterpolationInstance, c1: PairingCounts,
                     c2: PairingCounts, mean_fn=None) -> Verdict:
    """|F(c1) - F(c2)| <= kappa * (|da| + |db| + |dg|), decided by the
    sweep's pair table on one pair."""
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    c1, c2 = PairingCounts(*c1), PairingCounts(*c2)
    table = _lipschitz_table(inst.f.kappa,
                             *_common_denominator([mean_fn(c1), mean_fn(c2)]),
                             *_pair_distances([c1, c2]))
    (lhs,), (rhs,), (verdict,) = (a.tolist() for a in table)
    return Verdict("lipschitz", lhs, rhs, 0.0, verdict, inst.describe(),
                   f"{tuple(c1)}|{tuple(c2)}")


def verify_local_superadd(inst: InterpolationInstance, counts: PairingCounts,
                          delta: int, mean_fn=None) -> Verdict:
    """(F(a+1,b,g) + F(a,b+1,g)) / 2 <= F(a,b,g+1) + 2*kappa/delta, decided
    by the sweep's local rule on one record.

    Requires delta >= 2 and (a, b, g + delta) feasible, which makes all
    three extended classes non-empty.
    """
    a, b, g = counts = PairingCounts(*counts)
    stretched = PairingCounts(a, b, g + delta)
    if delta < 2 or not stretched.feasible(inst.sys, inst.bp):
        raise ValueError(
            "requires delta >= 2 and (alpha, beta, gamma + delta) feasible")
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    means, scale = _common_denominator(
        [mean_fn(PairingCounts(*c)) for c in ((a + 1, b, g), (a, b + 1, g),
                                               (a, b, g + 1))])
    lhs, rhs, verdict = _local_record(inst.f.kappa, *means, delta, scale)
    return Verdict("local", lhs, rhs, 0.0, verdict, inst.describe(),
                   f"{tuple(counts)} delta={delta}")


def verify_global(inst: InterpolationInstance, gamma: int,
                  mean_fn=None) -> Verdict:
    """F(dA/2, dB/2, 0) <= F((dA-g)/2, (dB-g)/2, g) + penalty(g), floors
    throughout, decided by the sweep's global rule on one record."""
    da, db = inst.bp.degree_a(inst.sys), inst.bp.degree_b(inst.sys)
    if not 0 <= gamma <= min(da, db):
        raise ValueError("gamma must lie in 0..min(d(A), d(B))")
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    means, scale = _common_denominator(
        [mean_fn(PairingCounts(da // 2, db // 2, 0)),
         mean_fn(PairingCounts((da - gamma) // 2, (db - gamma) // 2, gamma))])
    lhs, rhs, verdict = _global_record(inst.f.kappa, *means, gamma, scale)
    return Verdict("global", lhs, rhs, 0.0, verdict, inst.describe(),
                   f"gamma={gamma}")


def verify_main(f: GraphParameter, degrees, bp: Bipartition, mode: str = "exact",
                rng: np.random.Generator | None = None, reps: int = 2000,
                workers: int = 1) -> Verdict:
    """E f(sub A) + E f(sub B) <= E f(whole) + penalty(total degree / 2).

    Exact mode enumerates maximal matchings (small systems); mc mode
    estimates the three expectations and allows four combined standard
    errors.
    """
    sys = HalfEdgeSystem(degrees)
    degrees = sys.degrees
    bp.check_covers(sys)
    instance = _label(degrees, bp, f)
    sub_a = tuple(degrees[i - 1] for i in sorted(bp.a))
    sub_b = tuple(degrees[i - 1] for i in sorted(bp.b))
    pen = penalty(sys.total / 2, f.kappa)

    if mode == "exact":
        lhs = expected_parameter(f, sub_a) + expected_parameter(f, sub_b)
        rhs = expected_parameter(f, degrees) + pen
        return _result("main", instance, "mode=exact", lhs, rhs)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("mc mode requires an rng")
    if reps < 1:
        raise ValueError("reps must be >= 1")

    (ma, sa), (mb, sb), (mfull, sfull) = (
        mean_stderr(graph_values(f, part, len(part), reps, rng, workers))
        for part in (sub_a, sub_b, degrees))
    allowance = EXPECTATION_SIGMAS * math.sqrt(sa ** 2 + sb ** 2 + sfull ** 2)
    return _result("main", instance, f"mode=mc reps={reps}",
                   ma + mb, mfull + pen, allowance)


# ---------------------------------------------------------------------------
# corridor walk experiment


def check_corridor_exit(gamma: int, delta: int, runs: int,
                        rng: np.random.Generator) -> Verdict:
    """Estimate P(walk leaves the +-delta corridor within tau steps) and
    compare it to the maximal-inequality bound 2*exp(-(delta+1)^2/(2*tau))
    plus three binomial sigmas.

    The +-1 walk runs over the horizon tau = gamma - 2*delta; ``details``
    holds gamma, delta, tau, runs and the binomial sigma.
    """
    if not 2 <= delta <= gamma / 2:
        raise ValueError("requires 2 <= delta <= gamma / 2")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    tau = gamma - 2 * delta
    exits = 0
    chunk = 1 << 12
    # a walk of no steps never leaves the corridor
    for done in range(0, runs if tau > 0 else 0, chunk):
        block = min(chunk, runs - done)
        steps = rng.integers(0, 2, size=(block, tau), dtype=np.int8) * 2 - 1
        paths = np.cumsum(steps, axis=1, dtype=np.int32)
        exits += int((np.abs(paths) > delta).any(axis=1).sum())
    frequency = exits / runs
    bound = 2.0 * math.exp(-((delta + 1) ** 2) / (2.0 * tau)) if tau > 0 else 0.0
    p = min(bound, 1.0)
    sigma = math.sqrt(p * (1.0 - p) / runs)
    return Verdict.of("corridor_exit", frequency, bound, TAIL_SIGMAS * sigma,
                      gamma=gamma, delta=delta, tau=tau, runs=runs,
                      sigma=sigma)


# ---------------------------------------------------------------------------
# exact sequential-pairing history counts (uniformity oracle)


def feasible_triples(sys: HalfEdgeSystem, bp: Bipartition) -> list:
    return _feasible_triples(bp.degree_a(sys), bp.degree_b(sys))


def _feasible_triples(da: int, db: int) -> list:
    """Every count triple feasible with side degrees (da, db), sorted."""
    out = []
    for alpha in range(da // 2 + 1):
        for beta in range(db // 2 + 1):
            for gamma in range(min(da - 2 * alpha, db - 2 * beta) + 1):
                out.append(PairingCounts(alpha, beta, gamma))
    return out


def _canonical_order(counts: PairingCounts) -> str:
    return "A" * counts.alpha + "B" * counts.beta + "X" * counts.gamma


def _history_levels(sys: HalfEdgeSystem, bp: Bipartition, orders) -> dict:
    """History-count DP of the sequential pairing process along step orders.

    Each order is a string over 'A', 'B', 'X' (pair two free half-edges of
    A, two of B, or one of each).  Returns, for every prefix of every
    order, the number of histories reaching each matching after those
    steps; a matching is keyed by its set of half-edge pairs, as in
    ``Matching.pairs``, and orders sharing a prefix share its levels.
    Uniformity of the sequential sampler is equivalent to these counts
    being constant on every level, because the number of available choices
    at each step depends only on the level.
    """
    hes = sys.half_edges()
    side_a = [h for h in hes if bp.side_of(h[0]) == "A"]
    side_b = [h for h in hes if bp.side_of(h[0]) == "B"]
    levels = {"": {frozenset(): 1}}
    for order in orders:
        for t in range(1, len(order) + 1):
            if order[:t] in levels:
                continue
            step = order[t - 1]
            nxt = {}
            for m, count in levels[order[:t - 1]].items():
                used = {h for p in m for h in p}
                free_a = [h for h in side_a if h not in used]
                free_b = [h for h in side_b if h not in used]
                if step == "A":
                    extensions = combinations(free_a, 2)
                elif step == "B":
                    extensions = combinations(free_b, 2)
                else:
                    extensions = product(free_a, free_b)
                for x, y in extensions:
                    key = m | {_pair(x, y)}
                    nxt[key] = nxt.get(key, 0) + count
            levels[order[:t]] = nxt
    return levels


def history_counts(sys: HalfEdgeSystem, bp: Bipartition,
                   counts: PairingCounts, order: str | None = None) -> dict:
    """Histories of the sequential pairing process reaching each matching.

    ``order`` is a string over 'A', 'B', 'X' giving the step sequence; the
    default is canonical (A steps, then B, then cross).  Keys are the
    reached ``Matching``s, for any number of half-edges; values are exact
    integers.
    """
    counts = PairingCounts(*counts)
    bp.check_covers(sys)
    if not counts.feasible(sys, bp):
        return {}
    if order is None:
        order = _canonical_order(counts)
    elif sorted(order) != sorted(_canonical_order(counts)):
        raise ValueError("order must contain alpha 'A's, beta 'B's, gamma 'X's")
    return {Matching(m): count
            for m, count in _history_levels(sys, bp, [order])[order].items()}


def _step_choices(da: int, db: int, counts: PairingCounts) -> int:
    """Total number of canonical-order histories into the given class."""
    total = 1
    for t in range(counts.alpha):
        total *= math.comb(da - 2 * t, 2)
    for t in range(counts.beta):
        total *= math.comb(db - 2 * t, 2)
    for t in range(counts.gamma):
        total *= (da - 2 * counts.alpha - t) * (db - 2 * counts.beta - t)
    return total


@dataclass
class UniformitySummary:
    instances: int = 0
    classes: int = 0
    failures: list = field(default_factory=list)

    @property
    def all_uniform(self) -> bool:
        return not self.failures


def sweep_pairing_uniformity(max_total_degree: int = 8,
                             max_vertices: int = 4) -> UniformitySummary:
    """Exact uniformity check of sequential pairing on every small instance.

    For each degree function (up to relabeling), bipartition, and feasible
    count triple: every matching of the class must be reached by the same
    number of histories, the reached set must equal the enumerated class,
    and the total history count must factor into the per-step choice counts.
    Ranges that leave no instance raise ``ValueError``.
    """
    for name, value, least in (("max_total_degree", max_total_degree, 0),
                               ("max_vertices", max_vertices, 1)):
        if value < least:
            raise ValueError(f"{name}={value} leaves the sweep nothing to check")
    summary = UniformitySummary()
    seen = set()
    for degrees in degree_functions(max_vertices, max_total_degree):
        sys = HalfEdgeSystem(degrees)
        matchings = enumerate_matchings(sys)
        for bp in bipartitions_of(sys.n):
            key = tuple(sorted((degrees[i - 1], bp.side_of(i))
                               for i in range(1, sys.n + 1)))
            if key in seen:
                continue
            seen.add(key)
            summary.instances += 1
            da, db = bp.degree_a(sys), bp.degree_b(sys)
            classes = {}
            for m in matchings:
                classes.setdefault(counts_of_matching(m, bp), set()).add(m.pairs)
            triples = sorted(feasible_triples(sys, bp))
            levels = _history_levels(sys, bp, map(_canonical_order, triples))
            for triple in triples:
                hist = levels[_canonical_order(triple)]
                summary.classes += 1
                instance = f"d={degrees} A={sorted(bp.a)} counts={tuple(triple)}"
                counts_seen = set(hist.values())
                if len(counts_seen) != 1:
                    summary.failures.append(f"{instance}: unequal history counts")
                    continue
                if set(hist) != classes.get(triple, set()):
                    summary.failures.append(f"{instance}: reached set mismatch")
                    continue
                if sum(hist.values()) != _step_choices(da, db, triple):
                    summary.failures.append(f"{instance}: history total mismatch")
    return summary


# ---------------------------------------------------------------------------
# exhaustive inequality sweep


def degree_functions(max_vertices: int, max_total_degree: int):
    """Non-increasing degree tuples with 1..max_vertices entries (zeros
    allowed) and bounded total; one representative per relabeling class."""
    def build(prefix, remaining_slots, cap, budget):
        if remaining_slots == 0:
            yield tuple(prefix)
            return
        for d in range(min(cap, budget), -1, -1):
            yield from build(prefix + [d], remaining_slots - 1, d, budget - d)

    for n in range(1, max_vertices + 1):
        yield from build([], n, max_total_degree, max_total_degree)


def bipartitions_of(n: int):
    """All 2^n ordered bipartitions (A, complement)."""
    vertices = list(range(1, n + 1))
    for mask in range(1 << n):
        a = frozenset(vertices[i] for i in range(n) if mask >> i & 1)
        yield Bipartition.of(n, a)


def _pair_kinds(n: int) -> np.ndarray:
    """Row ``mask``, column (i - 1) * n + (j - 1): whether the vertex pair
    (i, j) lies inside A (0), inside B (1) or across (2) in the ``mask``-th
    bipartition of :func:`bipartitions_of`."""
    in_b = (np.arange(1 << n)[:, None] >> np.arange(n) & 1) == 0
    i, j = in_b[:, :, None], in_b[:, None, :]
    return (2 * (i != j) + (i & j)).reshape(1 << n, n * n).astype(np.int8)


def _sweep_layout(da: int, db: int) -> tuple:
    """The records of an instance with side degrees (d(A), d(B)), shared by
    every such instance, as indices into its sorted count triples: the
    triples, a lookup [alpha, beta, gamma] -> position, the Lipschitz pairs
    (i, j, dist), the local records (counts field, delta, x, y, z) and the
    global records (counts field, gamma, top, cross).  Each count is at most
    (d(A) + d(B)) / 2, and the lookup has that bound in every axis, so the
    lookups of one total degree stack."""
    triples = [tuple(c) for c in _feasible_triples(da, db)]
    index = {c: k for k, c in enumerate(triples)}
    lut = np.zeros((((da + db) // 2 + 1,) * 3), dtype=np.intp)
    for c, k in index.items():
        lut[c] = k
    local = []
    for a, b, g in triples:
        # every delta >= 2 with (a, b, g + delta) feasible
        for delta in range(2, min(da - 2 * a, db - 2 * b) - g + 1):
            local.append((f"{(a, b, g)} delta={delta}", delta,
                          index[a + 1, b, g], index[a, b + 1, g],
                          index[a, b, g + 1]))
    global_ = [(f"gamma={gamma}", gamma, index[da // 2, db // 2, 0],
                index[(da - gamma) // 2, (db - gamma) // 2, gamma])
               for gamma in range(min(da, db) + 1)]
    return triples, lut, _pair_distances(triples), local, global_


def _class_sums(rows, slots, pairs, kinds, layouts) -> tuple:
    """(classes, sums) under several bipartitions of one total degree: per
    bipartition each graph's class and, per row of the object array
    ``rows``, the Python-integer sum of each class.

    ``pairs`` holds each edge's vertex pair and ``slots`` three times its
    graph's index; ``kinds`` and ``layouts`` hold each bipartition's row of
    :func:`_pair_kinds` and its :func:`_sweep_layout`.  One ``bincount``
    counts every graph's edges inside A, inside B and across under every
    bipartition, the stacked lookups map the counts to (bipartition, class)
    positions, and one ``np.add.at`` per row sums over them.  Bipartitions
    go in shares of about ``_SCATTER_CELLS`` counters, so memory stays
    bounded.
    """
    m, size = len(layouts), 3 * rows.shape[1]
    share = max(1, _SCATTER_CELLS // (len(pairs) + size))
    if m > share:
        parts = [_class_sums(rows, slots, pairs, kinds[k:k + share],
                             layouts[k:k + share]) for k in range(0, m, share)]
        return tuple(list(chain.from_iterable(x)) for x in zip(*parts))
    # one byte per (bipartition, edge) until the graphs' slots are added
    at = slots + kinds[:, pairs]
    at += (size * np.arange(m))[:, None]
    counts = np.bincount(at.ravel(), minlength=size * m).reshape(m, -1, 3)
    widths = np.array([len(triples) for triples, *_ in layouts])
    ends = np.cumsum(widths)
    starts = ends - widths
    luts = np.stack([lut for _, lut, *_ in layouts])
    at = luts[np.arange(m)[:, None], counts[..., 0], counts[..., 1],
              counts[..., 2]] + starts[:, None]
    sums = np.zeros((len(rows), ends[-1]), dtype=object)
    for total, row in zip(sums, rows):
        np.add.at(total, at, row)
    sums = sums.tolist()
    return (at - starts[:, None],
            [[row[start:end] for row in sums]
             for start, end in zip(starts.tolist(), ends.tolist())])


def _checked(check: str, records: list, everything: bool,
             identities: int = 0) -> tuple:
    """(check, count, least slack, least slack past the first
    ``identities`` records, shown) of one check's records, each (counts
    field, lhs, rhs, verdict): shown holds every record when
    ``everything``, else the failures."""
    least = firm = math.inf
    for k, (_, lhs, rhs, _) in enumerate(records):
        slack = rhs + 0.0 - lhs
        # a NaN slack never wins, as in SweepSummary's fold
        if slack < least:
            least = slack
        if slack < firm and k >= identities:
            firm = slack
    return (check, len(records), least, firm,
            records if everything else [r for r in records if not r[3]])


def _instance_records(kappa, means, scale, layout, checks,
                      everything: bool) -> list:
    """The Lipschitz, local and global records of one (instance, parameter)
    from its class ``means`` over ``scale``, one :func:`_checked` tuple per
    check asked for."""
    triples, _, pairs, local, global_ = layout
    out = []
    if "lipschitz" in checks:
        lhs, rhs, ok = _lipschitz_table(kappa, means, scale, *pairs)
        # Verdict.slack of each pair; fmin skips NaN as the fold does
        least = float(np.fmin.reduce(rhs + 0.0 - lhs, initial=math.inf))
        shown = (range(len(ok)) if everything
                 else np.flatnonzero(~ok).tolist())
        if shown:
            lhs, rhs, ok, first, second = (
                a.tolist() for a in (lhs, rhs, ok, *pairs[:2]))
        out.append(("lipschitz", len(ok), least, least,
                    [(f"{triples[first[k]]}|{triples[second[k]]}", lhs[k],
                      rhs[k], ok[k]) for k in shown]))
    if "local" in checks:
        out.append(_checked("local", [
            (c, *_local_record(kappa, means[x], means[y], means[z], delta,
                               scale))
            for c, delta, x, y, z in local], everything))
    if "global" in checks:
        # the first, at gamma = 0, compares a class mean with itself
        out.append(_checked("global", [
            (c, *_global_record(kappa, means[top], means[cross], gamma, scale))
            for c, gamma, top, cross in global_], everything, identities=1))
    return out


CHECKS = ("lipschitz", "local", "global", "main")


@dataclass
class SweepSummary:
    instances: int = 0
    checked: dict = field(default_factory=lambda: dict.fromkeys(CHECKS, 0))
    violations: list = field(default_factory=list)
    min_slack: float = math.inf
    # per check, without the records that cannot fail: global at gamma = 0
    # and main on degree functions of total degree 0
    least_slack: dict = field(
        default_factory=lambda: dict.fromkeys(CHECKS, math.inf))

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    @property
    def all_hold(self) -> bool:
        return not self.violations


def run_sweep(params, max_total_degree: int = 8, max_vertices: int = 4,
              checks=CHECKS, on_record=None) -> SweepSummary:
    """Verify every inequality on every small instance with exact means.

    Runs over all degree functions (one per relabeling class), all ordered
    bipartitions, and all feasible count inputs, for each parameter.  Each
    degree function's distinct multigraphs are enumerated with their
    matching counts as weights.  A multigraph recurs in every degree
    function of its vertex count that bounds its degrees, and
    :func:`degree_functions` yields each count's functions together, so a
    value table kept while the count stays the same evaluates each distinct
    multigraph once per parameter and run.  Every bipartition buckets the
    graphs by pair-type counts; one scatter, :func:`_class_sums`, sums the
    classes of all bipartitions decided on a degree function.  For a
    rational-valued parameter each class mean is an integer numerator over
    one common denominator, the product of the parameter's value
    denominator and the lcm of the class weight totals; other parameters
    keep their weighted means.  The records of an instance are decided
    together from these means by :func:`_lipschitz_table`,
    :func:`_local_record` and :func:`_global_record`, the rules of the
    single-record verifiers.

    Main records follow :func:`verify_main`'s rule, E f(sorted A) +
    E f(sorted B) against E f(sorted whole) + penalty.  For a rational
    parameter E f of each degree function is the same weighted sum over its
    maximal multigraphs, kept per run and sorted degree multiset; every
    non-empty side is a degree function swept before, or the whole one.
    All 2^n main records of a degree function are then decided at once over
    one common denominator and folded into the summary as one table.  The
    empty side, and any mean that is not rational, come from
    :func:`expected_parameter` on the ascending relabeling, once per run
    and sorted degree multiset.

    Two bipartitions with the same multiset of (degree, side) pairs differ
    by a degree-preserving relabeling, so their class sums are equal.  When
    every parameter is rational on the degree function, the records of the
    first such bipartition are decided and replayed for the others under
    their own labels; float means can differ in the last bit between them,
    so otherwise each bipartition is decided on its own.

    The Lipschitz, local and global records of an (instance, parameter)
    depend only on d(A), d(B), kappa and the class means.  For a rational
    parameter the means are integer numerators over a common denominator,
    and a dict decides each distinct such input once and replays its
    records, under the instance's own label, wherever it recurs (as for
    degree functions that differ only by vertices of degree 0).  Without
    ``on_record`` the dict holds only failures and lasts the run; with it,
    the dict holds every record and is cleared at each degree function, so
    an input met again in a later one is decided again.  Float means are
    always decided afresh.

    A record becomes a ``Verdict`` only for ``on_record`` or when it fails.
    ``min_slack`` is the smallest slack over all checked inequalities;
    ``least_slack`` is, per check, the smallest slack over the records that
    can fail, so without the global records at gamma = 0 and the main
    records of total degree 0, which hold with slack 0 by construction.
    Unknown ``checks``, and inputs that leave nothing to check (no checks,
    no parameters, ``max_total_degree < 0`` or ``max_vertices < 1``), raise
    ``ValueError``.
    """
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {CHECKS}")
    for name, value, vacuous in (
            ("checks", checks, not checks),
            ("params", params, not params),
            ("max_total_degree", max_total_degree, max_total_degree < 0),
            ("max_vertices", max_vertices, max_vertices < 1)):
        if vacuous:
            raise ValueError(f"{name}={value} leaves the sweep nothing to check")
    summary = SweepSummary()
    everything = on_record is not None
    bucketed = set(checks) != {"main"}
    # indexed by position: distinct parameters may share a name
    expected = [cache(partial(expected_parameter, param)) for param in params]
    # per parameter: sorted degrees -> exact E f, for each degree function
    # swept so far on which the parameter is rational
    maximal = [{} for _ in params]
    layouts = {}
    # vertex count -> its bipartitions and their pair kinds
    tables = {}
    # (d(A), d(B), kappa, scale, numerators) -> _instance_records' result
    memo = {}
    # the vertex count of the graphs met so far: their keys -> position,
    # and per parameter the value at each position
    n = position = known = None

    def fold(check: str, least: float, firm: float):
        # a NaN slack never wins, as in min()
        if least < summary.min_slack:
            summary.min_slack = least
        if firm < summary.least_slack[check]:
            summary.least_slack[check] = firm

    def main_table(p: int, distinct: list, sides: list, pen: float) -> list:
        """The main record (counts field, lhs, rhs, verdict) of each split
        (A, B) in ``sides``; ``distinct`` holds every side once, the whole
        first."""
        whole = distinct[0]
        values, scale = _common_denominator(
            [maximal[p].get(k) if k else expected[p](k) for k in distinct])
        if scale is not None:
            value = dict(zip(distinct, values))
            # _decide's float rhs and bound, met by an integer threshold
            rhs = value[whole] / scale + pen
            bound = _threshold(rhs + DEFAULT_TOL, scale)
            return [("mode=exact", s / scale, rhs, s <= bound)
                    for s in (value[a] + value[b] for a, b in sides)]
        rhs = expected[p](whole) + pen
        return [("mode=exact", *_decide(expected[p](a) + expected[p](b), rhs))
                for a, b in sides]

    for degrees in degree_functions(max_vertices, max_total_degree):
        sys = HalfEdgeSystem(degrees)
        if everything:
            # the memo keeps every record: one degree function's at a time
            memo.clear()
        if sys.n != n:
            # a graph recurs only in degree functions of its own vertex
            # count, which come together
            n, position, known = sys.n, {}, [[] for _ in params]
        weighted = enumerate_multigraphs(sys)
        weights = [w for _, w in weighted]
        sizes = [g.num_edges for g, _ in weighted]
        # each edge's vertex pair (i - 1) * n + (j - 1), and the first of
        # three counters (inside A, inside B, across) of its graph
        edge_pairs = np.array([(i - 1) * n + j - 1 for g, _ in weighted
                               for i, j in g.edges], dtype=np.intp)
        slots = 3 * np.repeat(np.arange(len(weighted)), sizes)
        # on n vertices a graph is its sorted edges: key it by their pairs'
        # bytes, which take less memory than the edges
        codes = edge_pairs.astype(np.int32).tobytes()
        ends = np.cumsum([0] + sizes).tolist()
        start = len(position)
        at = [position.setdefault(codes[4 * a:4 * b], len(position))
              for a, b in zip(ends, ends[1:])]
        fresh = [g for (g, _), k in zip(weighted, at) if k >= start]
        for param, vals in zip(params, known):
            vals.extend(param.evaluate(g) for g in fresh)
        values = [[vals[k] for k in at] for vals in known]
        if n not in tables:
            tables[n] = list(bipartitions_of(n)), _pair_kinds(n)
        bps, kinds = tables[n]
        summary.instances += len(bps)
        # the integers summed per class: the weights, then for each
        # rational parameter weight times value over one denominator
        rows, dens = [weights], []
        for vals in values:
            nums, den = _common_denominator(vals)
            dens.append(den)
            if den is not None:
                rows.append([w * v for w, v in zip(weights, nums)])
        # Python integers: no sum overflows
        rows = np.array(rows, dtype=object)
        rational = [p for p, den in enumerate(dens) if den is not None]
        whole = tuple(sorted(degrees))
        top = rows[:, [g.num_edges == sys.total // 2 for g, _ in weighted]]
        top = top.sum(axis=1).tolist()
        for p, s in zip(rational, top[1:]):
            maximal[p][whole] = Fraction(s, dens[p] * top[0])
        sides = [tuple(tuple(sorted(degrees[v - 1] for v in side))
                       for side in (bp.a, bp.b)) for bp in bps]
        mains = []
        if "main" in checks:
            distinct = list(dict.fromkeys((whole,
                                           *chain.from_iterable(sides))))
            for p, param in enumerate(params):
                table = main_table(p, distinct, sides,
                                   penalty(sys.total / 2, param.kappa))
                # every split of a total-degree-0 function holds with slack 0
                _, count, least, firm, _ = _checked(
                    "main", table, False, 0 if sys.total else len(table))
                summary.checked["main"] += count
                fold("main", least, firm)
                mains.append(table)
        # bipartitions with equal side-A degrees are isomorphic; with every
        # value rational they share their records, decided on the first
        keys = ([a for a, _ in sides] if len(rational) == len(params)
                else range(len(bps)))
        first = {}
        for mask, key in enumerate(keys):
            first.setdefault(key, mask)
        times = Counter(keys)
        # per key and parameter, the (check, record) pairs to show
        shows = dict.fromkeys(first, [[]] * len(params))
        if bucketed:    # main alone reads no class sums
            lays = []
            for mask in first.values():
                da, db = map(sum, sides[mask])
                if (da, db) not in layouts:
                    layouts[da, db] = _sweep_layout(da, db)
                lays.append((da, db, layouts[da, db]))
            classes, sums = _class_sums(
                rows, slots, edge_pairs, kinds[list(first.values())],
                [layout for _, _, layout in lays])
            for key, (da, db, layout), cls, (totals, *sums) in zip(
                    first, lays, classes, sums):
                sums = iter(sums)
                lcm = math.lcm(*totals)
                members = None
                records = []
                for p, param in enumerate(params):
                    scale = dens[p]
                    if scale is None:   # no key: a -0.0 or NaN must not match
                        if members is None:
                            members = [[] for _ in totals]
                            for k, c in enumerate(cls.tolist()):
                                members[c].append(k)
                        means = [_weighted_mean([values[p][k] for k in idx],
                                                [weights[k] for k in idx])
                                 for idx in members]
                        records.append(_instance_records(
                            param.kappa, means, None, layout, checks,
                            everything))
                        continue
                    means = [s * (lcm // total)
                             for s, total in zip(next(sums), totals)]
                    scale *= lcm
                    seen = (da, db, param.kappa, scale, tuple(means))
                    if seen not in memo:
                        memo[seen] = _instance_records(
                            param.kappa, means, scale, layout, checks,
                            everything)
                    records.append(memo[seen])
                for check, count, least, firm, _ in chain(*records):
                    summary.checked[check] += count * times[key]
                    fold(check, least, firm)
                shows[key] = [[(check, r) for check, *_, shown in checked
                               for r in shown] for checked in records]
        for mask, key in enumerate(keys):
            for p, param in enumerate(params):
                shown = shows[key][p]
                if mains and (everything or not mains[p][mask][3]):
                    shown = shown + [("main", mains[p][mask])]
                if shown:
                    label = _label(degrees, bps[mask], param)
                for check, (counts, lhs, rhs, ok) in shown:
                    result = Verdict(check, lhs, rhs, 0.0, ok, label, counts)
                    if not ok:
                        summary.violations.append(result)
                    if everything:
                        on_record(result)
    return summary
