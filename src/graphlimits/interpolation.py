"""Exact and Monte Carlo means over constrained matching classes, and the
inequality verifiers built on them.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from numbers import Rational

import numpy as np

from . import seeding
# bench/tracer.py wraps enumerate_matchings, graph_of_matching,
# counts_of_matching and enumerate_maximal_matchings by their names here
from .config_model import (  # noqa: F401
    Bipartition,
    HalfEdgeSystem,
    Matching,
    PairingCounts,
    _pair,
    counts_of_graph,
    counts_of_matching,
    enumerate_matchings,
    enumerate_maximal_matchings,
    enumerate_multigraphs,
    graph_of_matching,
    sample_in_class,
)
from .degree import as_degrees
from .graphs import GraphParameter
from .limits import (
    EXPECTATION_SIGMAS,
    TAIL_SIGMAS,
    Verdict,
    graph_values,
    mean_stderr,
    replicate,
)

DEFAULT_TOL = 1e-9
PENALTY_FACTOR = 7.0


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
        # a sweep reports every inequality of an instance under this label
        object.__setattr__(self, "_label", f"d={self.sys.degrees} "
                           f"A={sorted(self.bp.a)} f={self.f.name}")

    def describe(self) -> str:
        return self._label


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


def _result(check, instance, counts, lhs, rhs, allowance=0.0) -> Verdict:
    """Verdict on lhs <= rhs + allowance + DEFAULT_TOL; a zero allowance is
    not added, so that a rational rhs keeps the comparison exact."""
    bound = (rhs + allowance if allowance else rhs) + DEFAULT_TOL
    return Verdict(check, float(lhs), float(rhs), allowance,
                   _at_most(lhs, bound), instance, counts)


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


def _class_value(inst: InterpolationInstance, counts: PairingCounts,
                 rng: np.random.Generator) -> float:
    m = sample_in_class(inst.sys, inst.bp, counts, rng)
    return float(inst.f.evaluate(graph_of_matching(inst.sys, m)))


def class_mean_mc(inst: InterpolationInstance, counts: PairingCounts, reps: int,
                  rng: np.random.Generator, workers: int = 1):
    """Monte Carlo estimate of :func:`class_mean`: (mean, standard error).

    Replication i draws from a substream keyed by i, so the estimate does
    not depend on the worker count.
    """
    counts = PairingCounts(*counts)
    if not counts.feasible(inst.sys, inst.bp):
        raise ValueError(f"infeasible pairing counts {tuple(counts)}")
    return mean_stderr(replicate(partial(_class_value, inst, counts), reps,
                                 rng, workers))


def expected_parameter(f: GraphParameter, degrees, _cache: dict | None = None):
    """Exact expectation of f on the prescribed-degree random graph.

    Averages over the multigraphs of the maximal matchings of the half-edge
    system, each weighted by its number of maximal matchings.  Values are
    computed on the ascending relabeling of the degrees and cached by it:
    the degree multiset determines the exact mean, but a float-valued
    parameter averaged under another labeling can differ in the last bit.
    An empty degree collection contributes the empty graph, value f() = 0
    for every parameter in the suite.
    """
    key = tuple(sorted(as_degrees(degrees))) if degrees else ()
    if _cache is not None and key in _cache:
        return _cache[key]
    sys = HalfEdgeSystem(key)
    weighted = enumerate_multigraphs(sys, sys.total // 2)
    out = _weighted_mean([f.evaluate(g) for g, _ in weighted],
                         [w for _, w in weighted])
    if _cache is not None:
        _cache[key] = out
    return out


# ---------------------------------------------------------------------------
# penalty


def penalty(x, kappa: float, factor: float = PENALTY_FACTOR) -> float:
    """Sublinear budget factor * kappa * sqrt(x * ln(1 + x)) used by the
    global and main checks."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return factor * kappa * math.sqrt(x * math.log1p(x))


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
    """|F(c1) - F(c2)| <= kappa * (|da| + |db| + |dg|)."""
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    c1, c2 = PairingCounts(*c1), PairingCounts(*c2)
    lhs = abs(mean_fn(c1) - mean_fn(c2))
    rhs = inst.f.kappa * (abs(c1.alpha - c2.alpha) + abs(c1.beta - c2.beta)
                          + abs(c1.gamma - c2.gamma))
    return _result("lipschitz", inst.describe(), f"{tuple(c1)}|{tuple(c2)}",
                   lhs, rhs)


def verify_local_superadd(inst: InterpolationInstance, counts: PairingCounts,
                          delta: int, mean_fn=None) -> Verdict:
    """(F(a+1,b,g) + F(a,b+1,g)) / 2 <= F(a,b,g+1) + 2*kappa/delta.

    Requires delta >= 2 and (a, b, g + delta) feasible, which makes all
    three extended classes non-empty.
    """
    counts = PairingCounts(*counts)
    stretched = PairingCounts(counts.alpha, counts.beta, counts.gamma + delta)
    if delta < 2 or not stretched.feasible(inst.sys, inst.bp):
        raise ValueError(
            "requires delta >= 2 and (alpha, beta, gamma + delta) feasible")
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    lhs = Fraction(1, 2) * (
        mean_fn(PairingCounts(counts.alpha + 1, counts.beta, counts.gamma))
        + mean_fn(PairingCounts(counts.alpha, counts.beta + 1, counts.gamma)))
    kappa = inst.f.kappa
    # keep the bound exact when kappa is an integer, so rational instances
    # get rational verdicts
    slack = (Fraction(2 * int(kappa), delta) if float(kappa).is_integer()
             else 2.0 * kappa / delta)
    rhs = mean_fn(PairingCounts(counts.alpha, counts.beta, counts.gamma + 1)) + slack
    return _result("local", inst.describe(), f"{tuple(counts)} delta={delta}",
                   lhs, rhs)


def verify_global(inst: InterpolationInstance, gamma: int, mean_fn=None,
                  penalty_factor: float = PENALTY_FACTOR) -> Verdict:
    """F(dA/2, dB/2, 0) <= F((dA-g)/2, (dB-g)/2, g) + penalty(g), floors
    throughout."""
    da, db = inst.bp.degree_a(inst.sys), inst.bp.degree_b(inst.sys)
    if not 0 <= gamma <= min(da, db):
        raise ValueError("gamma must lie in 0..min(d(A), d(B))")
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    lhs = mean_fn(PairingCounts(da // 2, db // 2, 0))
    rhs = (mean_fn(PairingCounts((da - gamma) // 2, (db - gamma) // 2, gamma))
           + penalty(gamma, inst.f.kappa, penalty_factor))
    return _result("global", inst.describe(), f"gamma={gamma}", lhs, rhs)


def verify_main(f: GraphParameter, degrees, bp: Bipartition, mode: str = "exact",
                rng: np.random.Generator | None = None, reps: int = 2000,
                penalty_factor: float = PENALTY_FACTOR, workers: int = 1,
                _cache: dict | None = None) -> Verdict:
    """E f(sub A) + E f(sub B) <= E f(whole) + penalty(total degree / 2).

    Exact mode enumerates maximal matchings (small systems); mc mode
    estimates the three expectations and allows four combined standard
    errors.
    """
    degrees = as_degrees(degrees) if degrees else ()
    sys = HalfEdgeSystem(degrees)
    instance = InterpolationInstance(sys, bp, f).describe()
    sub_a = tuple(degrees[i - 1] for i in sorted(bp.a))
    sub_b = tuple(degrees[i - 1] for i in sorted(bp.b))
    pen = penalty(sys.total / 2, f.kappa, penalty_factor)

    if mode == "exact":
        lhs = (expected_parameter(f, sub_a, _cache)
               + expected_parameter(f, sub_b, _cache))
        rhs = expected_parameter(f, degrees, _cache) + pen
        return _result("main", instance, "mode=exact", lhs, rhs)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("mc mode requires an rng")
    if reps < 1:
        raise ValueError("reps must be >= 1")

    estimates = []
    for part in (sub_a, sub_b, degrees):
        if part:
            estimates.append(mean_stderr(
                graph_values(f, part, len(part), reps, rng, workers)))
        else:
            seeding.fork_root(rng)  # so the other parts keep their streams
            estimates.append((0.0, 0.0))
    (ma, sa), (mb, sb), (mfull, sfull) = estimates
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
    da, db = bp.degree_a(sys), bp.degree_b(sys)
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
    """
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


@dataclass
class SweepSummary:
    instances: int = 0
    checked: dict = field(default_factory=lambda: dict.fromkeys(
        ("lipschitz", "local", "global", "main"), 0))
    violations: list = field(default_factory=list)

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    @property
    def all_hold(self) -> bool:
        return not self.violations


def run_sweep(params, max_total_degree: int = 8, max_vertices: int = 4,
              checks=("lipschitz", "local", "global", "main"),
              penalty_factor: float = PENALTY_FACTOR,
              on_record=None) -> SweepSummary:
    """Verify every inequality on every small instance with exact means.

    Runs over all degree functions (one per relabeling class), all ordered
    bipartitions, and all feasible count inputs, for each parameter.  Each
    degree function's distinct multigraphs are enumerated once with their
    matching counts as weights and evaluated once per parameter; every
    bipartition buckets them by pair-type counts, and each class mean is
    their weighted mean.
    """
    summary = SweepSummary()
    # indexed by position: distinct parameters may share a name
    sub_caches = [{} for _ in params]

    def emit(result: Verdict):
        summary.checked[result.check] += 1
        if not result.verdict:
            summary.violations.append(result)
        if on_record is not None:
            on_record(result)

    for degrees in degree_functions(max_vertices, max_total_degree):
        sys = HalfEdgeSystem(degrees)
        weighted = enumerate_multigraphs(sys)
        weights = [w for _, w in weighted]
        values = [[param.evaluate(g) for g, _ in weighted] for param in params]
        for bp in bipartitions_of(sys.n):
            summary.instances += 1
            buckets = {}
            for k, (g, _) in enumerate(weighted):
                buckets.setdefault(counts_of_graph(g, bp), []).append(k)
            triples = sorted(buckets)
            for p, param in enumerate(params):
                inst = InterpolationInstance(sys, bp, param)
                vals = values[p]
                F = {c: _weighted_mean([vals[k] for k in idx],
                                       [weights[k] for k in idx])
                     for c, idx in buckets.items()}
                mean_fn = F.__getitem__

                if "lipschitz" in checks:
                    for i in range(len(triples)):
                        for j in range(i + 1, len(triples)):
                            emit(verify_lipschitz(inst, triples[i], triples[j],
                                                  mean_fn))
                if "local" in checks:
                    for c in triples:
                        delta = 2
                        while PairingCounts(c.alpha, c.beta,
                                            c.gamma + delta) in F:
                            emit(verify_local_superadd(inst, c, delta,
                                                       mean_fn))
                            delta += 1
                if "global" in checks:
                    da, db = bp.degree_a(sys), bp.degree_b(sys)
                    for gamma in range(min(da, db) + 1):
                        emit(verify_global(inst, gamma, mean_fn,
                                           penalty_factor))
                if "main" in checks:
                    emit(verify_main(param, degrees, bp, "exact",
                                     penalty_factor=penalty_factor,
                                     _cache=sub_caches[p]))
    return summary
