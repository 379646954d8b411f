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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from numbers import Rational

import numpy as np

from . import seeding
from ._parallel import pmap
from .config_model import (
    Bipartition,
    HalfEdgeSystem,
    Matching,
    PairingCounts,
    counts_of_matching,
    enumerate_class,
    enumerate_matchings,
    enumerate_maximal_matchings,
    graph_of_matching,
    sample_in_class,
    sample_uniform_graph,
)
from .degree import as_degrees
from .graphs import GraphParameter

DEFAULT_TOL = 1e-9
PENALTY_FACTOR = 7.0


# ---------------------------------------------------------------------------
# instance and report records


@dataclass(frozen=True, eq=False)
class InterpolationInstance:
    """A half-edge system, a bipartition of its vertices, and a parameter."""

    sys: HalfEdgeSystem
    bp: Bipartition
    f: GraphParameter

    def __post_init__(self):
        self.bp.check_covers(self.sys)

    def describe(self) -> str:
        return (f"d={self.sys.degrees} A={sorted(self.bp.a)} f={self.f.name}")


@dataclass
class VerifyResult:
    """One checked inequality: lhs <= rhs up to the verdict tolerance.

    ``rhs`` already contains any statistical allowance (Monte Carlo modes
    widen it by four combined standard errors); ``slack`` is rhs - lhs.
    """

    check: str
    instance: str
    counts: str
    lhs: float
    rhs: float
    slack: float
    verdict: bool

    CSV_HEADER = "check,instance,counts,lhs,rhs,slack,verdict"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "counts": self.counts,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "verdict": self.verdict,
        }

    def csv_row(self) -> list:
        return [self.check, self.instance, self.counts,
                repr(self.lhs), repr(self.rhs), repr(self.slack), self.verdict]


def _mean(values):
    """Exact rational mean when every value is rational, float otherwise."""
    if all(isinstance(v, Rational) for v in values):
        return Fraction(sum(values), len(values))
    return math.fsum(float(v) for v in values) / len(values)


def _result(check, instance, counts, lhs, rhs, tol) -> VerifyResult:
    verdict = bool(lhs <= rhs + tol)
    return VerifyResult(check, instance, counts, float(lhs), float(rhs),
                        float(rhs) - float(lhs), verdict)


# ---------------------------------------------------------------------------
# class means


def class_mean(inst: InterpolationInstance, counts: PairingCounts):
    """Exact mean of the parameter over the matching class with ``counts``.

    Rational-valued parameters are averaged in exact arithmetic.
    """
    matchings = enumerate_class(inst.sys, inst.bp, PairingCounts(*counts))
    if not matchings:
        raise ValueError(f"empty class: counts {tuple(counts)} are infeasible")
    return _mean([inst.f.evaluate(graph_of_matching(inst.sys, m)) for m in matchings])


def _class_mc_value(inst: InterpolationInstance, counts, root: int, i: int) -> float:
    rng = seeding.rep_stream(root, i)
    m = sample_in_class(inst.sys, inst.bp, PairingCounts(*counts), rng)
    return float(inst.f.evaluate(graph_of_matching(inst.sys, m)))


def class_mean_mc(inst: InterpolationInstance, counts: PairingCounts, reps: int,
                  rng: np.random.Generator, workers: int = 1):
    """Monte Carlo estimate of :func:`class_mean`: (mean, standard error).

    Replication i draws from a substream keyed by i, so the estimate does
    not depend on the worker count.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not PairingCounts(*counts).feasible(inst.sys, inst.bp):
        raise ValueError(f"infeasible pairing counts {tuple(counts)}")
    root = seeding.fork_root(rng)
    values = np.array(pmap(partial(_class_mc_value, inst, tuple(counts), root),
                           reps, workers))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return mean, stderr


def expected_parameter(f: GraphParameter, degrees, _cache: dict | None = None):
    """Exact expectation of f on the prescribed-degree random graph.

    Averages over all maximal matchings of the half-edge system; the degree
    multiset determines the value, so results are cached by sorted degrees.
    An empty degree collection contributes the empty graph, value f() = 0
    for every parameter in the suite.
    """
    key = tuple(sorted(as_degrees(degrees))) if degrees else ()
    if _cache is not None and key in _cache:
        return _cache[key]
    sys = HalfEdgeSystem(key)
    values = [f.evaluate(graph_of_matching(sys, m))
              for m in enumerate_maximal_matchings(sys)]
    out = _mean(values)
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
                     c2: PairingCounts, tol: float = DEFAULT_TOL,
                     mean_fn=None) -> VerifyResult:
    """|F(c1) - F(c2)| <= kappa * (|da| + |db| + |dg|)."""
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    c1, c2 = PairingCounts(*c1), PairingCounts(*c2)
    lhs = abs(mean_fn(c1) - mean_fn(c2))
    rhs = inst.f.kappa * (abs(c1.alpha - c2.alpha) + abs(c1.beta - c2.beta)
                          + abs(c1.gamma - c2.gamma))
    return _result("lipschitz", inst.describe(), f"{tuple(c1)}|{tuple(c2)}",
                   lhs, rhs, tol)


def verify_local_superadd(inst: InterpolationInstance, counts: PairingCounts,
                          delta: int, tol: float = DEFAULT_TOL,
                          mean_fn=None) -> VerifyResult:
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
                   lhs, rhs, tol)


def verify_global(inst: InterpolationInstance, gamma: int,
                  tol: float = DEFAULT_TOL, mean_fn=None,
                  penalty_factor: float = PENALTY_FACTOR) -> VerifyResult:
    """F(dA/2, dB/2, 0) <= F((dA-g)/2, (dB-g)/2, g) + penalty(g), floors
    throughout."""
    da, db = inst.bp.degree_a(inst.sys), inst.bp.degree_b(inst.sys)
    if not 0 <= gamma <= min(da, db):
        raise ValueError("gamma must lie in 0..min(d(A), d(B))")
    mean_fn = mean_fn or (lambda c: class_mean(inst, c))
    lhs = mean_fn(PairingCounts(da // 2, db // 2, 0))
    rhs = (mean_fn(PairingCounts((da - gamma) // 2, (db - gamma) // 2, gamma))
           + penalty(gamma, inst.f.kappa, penalty_factor))
    return _result("global", inst.describe(), f"gamma={gamma}", lhs, rhs, tol)


def verify_main(f: GraphParameter, degrees, bp: Bipartition, mode: str = "exact",
                rng: np.random.Generator | None = None, reps: int = 2000,
                tol: float = DEFAULT_TOL, penalty_factor: float = PENALTY_FACTOR,
                workers: int = 1, _cache: dict | None = None) -> VerifyResult:
    """E f(sub A) + E f(sub B) <= E f(whole) + penalty(total degree / 2).

    Exact mode enumerates maximal matchings (small systems); mc mode
    estimates the three expectations and widens the bound by four combined
    standard errors.
    """
    degrees = as_degrees(degrees) if degrees else ()
    sys = HalfEdgeSystem(degrees)
    bp.check_covers(sys)
    sub_a = tuple(degrees[i - 1] for i in sorted(bp.a))
    sub_b = tuple(degrees[i - 1] for i in sorted(bp.b))
    pen = penalty(sys.total / 2, f.kappa, penalty_factor)
    instance = f"d={degrees} A={sorted(bp.a)} f={f.name}"

    if mode == "exact":
        lhs = (expected_parameter(f, sub_a, _cache)
               + expected_parameter(f, sub_b, _cache))
        rhs = expected_parameter(f, degrees, _cache) + pen
        return _result("main", instance, "mode=exact", lhs, rhs, tol)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("mc mode requires an rng")
    if reps < 1:
        raise ValueError("reps must be >= 1")

    estimates = []
    for part in (sub_a, sub_b, degrees):
        root = seeding.fork_root(rng)
        if len(part) == 0:
            estimates.append((0.0, 0.0))
            continue
        values = np.array(pmap(partial(_config_value, f, part, root), reps, workers))
        se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        estimates.append((float(values.mean()), se))
    (ma, sa), (mb, sb), (mfull, sfull) = estimates
    allowance = 4.0 * math.sqrt(sa ** 2 + sb ** 2 + sfull ** 2)
    return _result("main", instance, f"mode=mc reps={reps}",
                   ma + mb, mfull + pen + allowance, tol)


def _config_value(f: GraphParameter, degrees: tuple, root: int, i: int) -> float:
    rng = seeding.rep_stream(root, i)
    return float(f.evaluate(sample_uniform_graph(degrees, rng)))


# ---------------------------------------------------------------------------
# corridor walk experiment


@dataclass(frozen=True)
class WalkPath:
    """One +-1 random walk over the horizon tau = gamma - 2*delta.

    ``positions`` holds S_0..S_tau; ``exit_time`` is the first t with
    |S_t| > delta, or None if the walk stays inside the corridor.  The walk
    drives a path through count triples: after t steps the cross count is
    tau - t and the within-side counts have grown by (t + S_t)/2 and
    (t - S_t)/2 over their starting floors.
    """

    gamma: int
    delta: int
    positions: tuple
    exit_time: int | None

    @property
    def tau(self) -> int:
        return self.gamma - 2 * self.delta

    def count_offsets(self) -> tuple:
        """Triples (a_off, b_off, g) relative to the gamma-conditioned base."""
        return tuple(((t + s) // 2, (t - s) // 2, self.tau - t)
                     for t, s in enumerate(self.positions))


def walk_path(gamma: int, delta: int, rng: np.random.Generator) -> WalkPath:
    if not 2 <= delta <= gamma / 2:
        raise ValueError("requires 2 <= delta <= gamma / 2")
    tau = gamma - 2 * delta
    steps = rng.integers(0, 2, size=tau) * 2 - 1
    positions = np.concatenate(([0], np.cumsum(steps)))
    beyond = np.flatnonzero(np.abs(positions) > delta)
    exit_time = int(beyond[0]) if beyond.size else None
    return WalkPath(gamma, delta, tuple(int(s) for s in positions), exit_time)


@dataclass
class CorridorExitReport:
    """Empirical corridor-exit frequency against 2*exp(-(delta+1)^2/(2*tau))."""

    gamma: int
    delta: int
    tau: int
    runs: int
    frequency: float
    bound: float
    sigma: float
    verdict: bool

    CSV_HEADER = "gamma,delta,tau,runs,frequency,bound,sigma,verdict"

    def csv_row(self) -> list:
        return [self.gamma, self.delta, self.tau, self.runs,
                repr(self.frequency), repr(self.bound), repr(self.sigma),
                self.verdict]

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("gamma", "delta", "tau", "runs", "frequency", "bound",
                 "sigma", "verdict")}


def check_corridor_exit(gamma: int, delta: int, runs: int,
                        rng: np.random.Generator) -> CorridorExitReport:
    """Estimate P(walk leaves the +-delta corridor within tau steps) and
    compare it to the maximal-inequality bound plus three binomial sigmas."""
    if not 2 <= delta <= gamma / 2:
        raise ValueError("requires 2 <= delta <= gamma / 2")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    tau = gamma - 2 * delta
    exits = 0
    chunk = 1 << 12
    done = 0
    while done < runs:
        block = min(chunk, runs - done)
        if tau == 0:
            done += block
            continue
        steps = rng.integers(0, 2, size=(block, tau), dtype=np.int8) * 2 - 1
        paths = np.cumsum(steps, axis=1, dtype=np.int32)
        exits += int((np.abs(paths) > delta).any(axis=1).sum())
        done += block
    frequency = exits / runs
    bound = 2.0 * math.exp(-((delta + 1) ** 2) / (2.0 * tau)) if tau > 0 else 0.0
    p = min(bound, 1.0)
    sigma = math.sqrt(p * (1.0 - p) / runs)
    verdict = frequency <= bound + 3.0 * sigma
    return CorridorExitReport(gamma, delta, tau, runs, frequency, bound,
                              sigma, verdict)


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


def _packed_levels(sys: HalfEdgeSystem, bp: Bipartition) -> dict:
    """History-count DP over all feasible count triples.

    Matchings are encoded as frozensets of packed index pairs.  A history is
    one full run of sequential pairings in canonical order (all A steps,
    then B, then cross); the count of histories reaching each matching is
    propagated level by level.  Uniformity of the sequential sampler is
    equivalent to these counts being constant on every level, because the
    number of available choices at each step depends only on the level.
    """
    hes = sys.half_edges()
    total = len(hes)
    a_idx = [k for k in range(total) if bp.side_of(hes[k][0]) == "A"]
    b_idx = [k for k in range(total) if bp.side_of(hes[k][0]) == "B"]

    def pack(x, y):
        return (x << 8) | y if x < y else (y << 8) | x

    levels = {PairingCounts(0, 0, 0): {frozenset(): 1}}
    for triple in sorted(feasible_triples(sys, bp)):
        if triple == (0, 0, 0):
            continue
        if triple.gamma > 0:
            pred = PairingCounts(triple.alpha, triple.beta, triple.gamma - 1)
            step = "X"
        elif triple.beta > 0:
            pred = PairingCounts(triple.alpha, triple.beta - 1, 0)
            step = "B"
        else:
            pred = PairingCounts(triple.alpha - 1, 0, 0)
            step = "A"
        nxt = {}
        for m, count in levels[pred].items():
            used = {h for p in m for h in ((p >> 8), (p & 0xFF))}
            if step == "A":
                free = [k for k in a_idx if k not in used]
                extensions = combinations(free, 2)
            elif step == "B":
                free = [k for k in b_idx if k not in used]
                extensions = combinations(free, 2)
            else:
                free_a = [k for k in a_idx if k not in used]
                free_b = [k for k in b_idx if k not in used]
                extensions = ((x, y) for x in free_a for y in free_b)
            for x, y in extensions:
                key = m | {pack(x, y)}
                nxt[key] = nxt.get(key, 0) + count
        levels[triple] = nxt
    return levels


def _pack_matching(m: Matching, hes: list) -> frozenset:
    index = {h: k for k, h in enumerate(hes)}
    out = set()
    for h1, h2 in m.pairs:
        x, y = index[h1], index[h2]
        out.add((x << 8) | y if x < y else (y << 8) | x)
    return frozenset(out)


def history_counts(sys: HalfEdgeSystem, bp: Bipartition,
                   counts: PairingCounts, order: str | None = None) -> dict:
    """Histories of the sequential pairing process reaching each matching.

    ``order`` is a string over 'A', 'B', 'X' giving the step sequence; the
    default is canonical (A steps, then B, then cross).  Keys are packed
    matchings as produced by the internal DP; values are exact integers.
    """
    counts = PairingCounts(*counts)
    bp.check_covers(sys)
    if not counts.feasible(sys, bp):
        return {}
    if order is None:
        return _packed_levels(sys, bp)[counts]
    if sorted(order) != sorted("A" * counts.alpha + "B" * counts.beta
                               + "X" * counts.gamma):
        raise ValueError("order must contain alpha 'A's, beta 'B's, gamma 'X's")
    hes = sys.half_edges()
    total = len(hes)
    a_idx = {k for k in range(total) if bp.side_of(hes[k][0]) == "A"}
    b_idx = set(range(total)) - a_idx

    def pack(x, y):
        return (x << 8) | y if x < y else (y << 8) | x

    level = {frozenset(): 1}
    for step in order:
        nxt = {}
        for m, count in level.items():
            used = {h for p in m for h in ((p >> 8), (p & 0xFF))}
            if step == "A":
                extensions = combinations(sorted(a_idx - used), 2)
            elif step == "B":
                extensions = combinations(sorted(b_idx - used), 2)
            else:
                free_a = sorted(a_idx - used)
                free_b = sorted(b_idx - used)
                extensions = ((x, y) for x in free_a for y in free_b)
            for x, y in extensions:
                key = m | {pack(x, y)}
                nxt[key] = nxt.get(key, 0) + count
        level = nxt
    return level


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
    failures: list = None

    def __post_init__(self):
        if self.failures is None:
            self.failures = []

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
        for bp in bipartitions_of(sys.n):
            key = tuple(sorted((degrees[i - 1], bp.side_of(i))
                               for i in range(1, sys.n + 1)))
            if key in seen:
                continue
            seen.add(key)
            summary.instances += 1
            da, db = bp.degree_a(sys), bp.degree_b(sys)
            hes = sys.half_edges()
            levels = _packed_levels(sys, bp)
            for triple, hist in levels.items():
                summary.classes += 1
                instance = f"d={degrees} A={sorted(bp.a)} counts={tuple(triple)}"
                counts_seen = set(hist.values())
                if len(counts_seen) != 1:
                    summary.failures.append(f"{instance}: unequal history counts")
                    continue
                expected = {_pack_matching(m, hes)
                            for m in enumerate_class(sys, bp, triple)}
                if set(hist) != expected:
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
    checked: dict = None
    violations: list = None

    def __post_init__(self):
        if self.checked is None:
            self.checked = {"lipschitz": 0, "local": 0, "global": 0, "main": 0}
        if self.violations is None:
            self.violations = []

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    @property
    def all_hold(self) -> bool:
        return not self.violations


def run_sweep(params, max_total_degree: int = 8, max_vertices: int = 4,
              checks=("lipschitz", "local", "global", "main"),
              tol: float = DEFAULT_TOL, penalty_factor: float = PENALTY_FACTOR,
              on_record=None) -> SweepSummary:
    """Verify every inequality on every small instance with exact means.

    Runs over all degree functions (one per relabeling class), all ordered
    bipartitions, and all feasible count inputs, for each parameter.  Class
    means are computed once per instance from the full matching list; the
    graph values behind them are shared across bipartitions.
    """
    summary = SweepSummary()
    sub_caches = {param.name: {} for param in params}

    def emit(result: VerifyResult):
        summary.checked[result.check] += 1
        if not result.verdict:
            summary.violations.append(result)
        if on_record is not None:
            on_record(result)

    for degrees in degree_functions(max_vertices, max_total_degree):
        sys = HalfEdgeSystem(degrees)
        matchings = enumerate_matchings(sys)
        graphs = [graph_of_matching(sys, m) for m in matchings]
        values = {}
        for param in params:
            cache = {}
            for g in graphs:
                if g not in cache:
                    cache[g] = param.evaluate(g)
            values[param.name] = [cache[g] for g in graphs]
        for bp in bipartitions_of(sys.n):
            summary.instances += 1
            buckets = {}
            for k, m in enumerate(matchings):
                buckets.setdefault(counts_of_matching(m, bp), []).append(k)
            triples = sorted(buckets)
            for param in params:
                inst = InterpolationInstance(sys, bp, param)
                vals = values[param.name]
                F = {c: _mean([vals[k] for k in idx])
                     for c, idx in buckets.items()}
                mean_fn = F.__getitem__

                if "lipschitz" in checks:
                    for i in range(len(triples)):
                        for j in range(i + 1, len(triples)):
                            emit(verify_lipschitz(inst, triples[i], triples[j],
                                                  tol, mean_fn))
                if "local" in checks:
                    for c in triples:
                        delta = 2
                        while PairingCounts(c.alpha, c.beta,
                                            c.gamma + delta) in F:
                            emit(verify_local_superadd(inst, c, delta, tol,
                                                       mean_fn))
                            delta += 1
                if "global" in checks:
                    da, db = bp.degree_a(sys), bp.degree_b(sys)
                    for gamma in range(min(da, db) + 1):
                        emit(verify_global(inst, gamma, tol, mean_fn,
                                           penalty_factor))
                if "main" in checks:
                    emit(verify_main(param, degrees, bp, "exact", tol=tol,
                                     penalty_factor=penalty_factor,
                                     _cache=sub_caches[param.name]))
    return summary
