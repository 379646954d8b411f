"""Per-vertex limits of graph parameters under prescribed degrees.

For an additive, Lipschitz, concave parameter f the normalized value
f(G_n)/n of the prescribed-degree random graph converges as the empirical
degree distribution approaches a limit mu; this module estimates that limit
(written psi(mu)) by Monte Carlo and checks, with explicit statistical
allowances, that the estimates behave like the limit must: Lipschitz in mu
under the transport metric, midpoint-concave in mu, nearly superadditive in
the system size, and exponentially concentrated at finite size.

Expectation inequalities get a four-standard-error allowance; tail
frequencies get three binomial standard deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import seeding
from ._parallel import pmap
from .config_model import sample_uniform_graph
from .degree import (
    DegreeDistribution,
    HalfEdgeSystem,
    as_degrees,
    as_system,
    empirical,
    sample_iid,
    wasserstein,
)
from .graphs import GraphParameter, evaluate_many

EXPECTATION_SIGMAS = 4.0
TAIL_SIGMAS = 3.0
# vertices per share of replications: a components pass over a much larger
# union costs more than the numpy calls it saves (50 replications at
# n = 5000: 28 ms in unions of 4 graphs, 40 ms in one union of 50)
VERTEX_BUDGET = 1 << 14


# ---------------------------------------------------------------------------
# records


@dataclass
class PsiRow:
    n: int
    reps: int
    mean: float
    stderr: float


@dataclass
class PsiEstimate:
    """Monte Carlo table of f(G_n)/n by size; the largest-n mean stands in
    for the limit (no extrapolation is fitted)."""

    parameter: str
    mu: DegreeDistribution
    mode: str
    rows: list
    seed: int | None = None

    @property
    def value(self) -> float:
        return self.rows[-1].mean

    @property
    def stderr(self) -> float:
        return self.rows[-1].stderr


@dataclass(slots=True)
class Verdict:
    """One checked inequality ``lhs <= rhs + allowance``, as every verifier
    reports it; ``slack`` = rhs + allowance - lhs is negative when it fails.

    ``allowance`` covers sampling error (and any declared finite-size gap);
    exact interpolation checks also pass within an absolute 1e-9.  The
    context: ``instance`` and ``counts`` of an interpolation check, the base
    ``seed``, and ``details`` (sizes, distances, eps, binomial sigma).
    """

    check: str
    lhs: float
    rhs: float
    allowance: float
    verdict: bool
    instance: str | None = None
    counts: str | None = None
    seed: int | None = None
    details: dict | None = None

    @property
    def slack(self) -> float:
        return self.rhs + self.allowance - self.lhs

    @classmethod
    def of(cls, check: str, lhs, rhs, allowance, seed=None,
           **details) -> "Verdict":
        return cls(check, float(lhs), float(rhs), float(allowance),
                   bool(lhs <= rhs + allowance), seed=seed, details=details)


# ---------------------------------------------------------------------------
# degree sequences realizing a target distribution


def fixed_degree_sequence(mu: DegreeDistribution, n: int) -> HalfEdgeSystem:
    """Deterministic length-n sequence with proportions as close to mu as
    largest-remainder rounding allows.

    If the total degree comes out odd, the last vertex's degree is bumped by
    one; the distortion is a single atom of mass 1/n.  The result is
    array-held, for the stub shuffle of every replication.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    exact = {k: Fraction(p) if isinstance(p, (int, Fraction)) else Fraction(float(p))
             for k, p in mu.probs.items()}
    counts = {k: math.floor(n * q) for k, q in exact.items()}
    shortfall = n - sum(counts.values())
    remainders = sorted(exact, key=lambda k: (n * exact[k] - counts[k], -k),
                        reverse=True)
    for k in remainders[:shortfall]:
        counts[k] += 1
    keys = sorted(counts)
    degrees = np.repeat(np.array(keys, dtype=np.int64), [counts[k] for k in keys])
    degrees[-1] += degrees.sum() % 2
    return HalfEdgeSystem(degrees)


# ---------------------------------------------------------------------------
# sampling plumbing


def mean_stderr(values: np.ndarray) -> tuple:
    """Sample mean and its standard error (0 for a single value)."""
    reps = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return mean, stderr


def graph_values(f: GraphParameter, source, n: int, reps: int,
                 rng: np.random.Generator, workers: int = 1) -> np.ndarray:
    """f on ``reps`` independent configuration-model graphs on n vertices.

    ``source`` is the degree sequence, or a DegreeDistribution from which
    every replication draws its n degrees iid.  Replication i always draws
    from the substream keyed by i of one root forked from ``rng``, so the
    values do not depend on the worker count.  Contiguous shares of
    replications go through :func:`pmap`, each evaluated by one
    :func:`graphs.evaluate_many` call: at most ``VERTEX_BUDGET`` vertices
    per share, and with several workers about reps / (2 * workers)
    replications, so each worker gets two shares.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not isinstance(source, DegreeDistribution):
        # one system for every replication, so its degree array is built
        # once per call (once per share in each pool worker)
        source = as_system(source)
    size = VERTEX_BUDGET // max(n, 1)
    if workers is not None and workers > 1:
        size = min(size, math.ceil(reps / (2 * workers)))
    size = max(size, 1)
    shares = pmap(partial(_graph_share, f, source, n, reps, size,
                          seeding.fork_root(rng)),
                  math.ceil(reps / size), workers)
    return np.array([v for share in shares for v in share], dtype=float)


def _graph_share(f: GraphParameter, source, n: int, reps: int, size: int,
                 root: int, share: int) -> list:
    """f on replications share * size .. (share + 1) * size - 1, as floats."""
    graphs = []
    try:
        for i in range(share * size, min((share + 1) * size, reps)):
            rng = seeding.rep_stream(root, i)
            d = (sample_iid(source, n, rng)
                 if isinstance(source, DegreeDistribution) else source)
            graphs.append(sample_uniform_graph(d, rng))
        return [float(v) for v in evaluate_many(f, graphs)]
    except ValueError as err:
        raise ValueError(f"parameter {f.name} failed at n={n}: {err}") from err


# ---------------------------------------------------------------------------
# operations


def estimate_psi(f: GraphParameter, mu: DegreeDistribution, n_list, reps: int,
                 rng: np.random.Generator, mode: str = "iid",
                 workers: int = 1, seed: int | None = None) -> PsiEstimate:
    """Monte Carlo table of E[f(G_n)/n] for each n, ordered by n.

    mode "fixed" uses one deterministic degree sequence realizing mu per n
    (largest-remainder rounding); mode "iid" redraws the degrees from mu on
    every replication.
    """
    if mode not in ("fixed", "iid"):
        raise ValueError("mode must be 'fixed' or 'iid'")
    rows = []
    for n in sorted(int(n) for n in n_list):
        source = mu if mode == "iid" else fixed_degree_sequence(mu, n)
        mean, stderr = mean_stderr(
            graph_values(f, source, n, reps, rng, workers) / n)
        rows.append(PsiRow(n, reps, mean, stderr))
    return PsiEstimate(f.name, mu, mode, rows, seed)


def check_superadditivity(f: GraphParameter, mu: DegreeDistribution, n_pairs,
                          reps: int, rng: np.random.Generator,
                          workers: int = 1, seed: int | None = None) -> list:
    """For each (n1, n2): E f(G_{n1}) + E f(G_{n2}) <= E f(G_{n1+n2}) +
    penalty(mean(mu)/2 * (n1+n2)), with iid degrees and a 4-sigma allowance.
    """
    from .interpolation import penalty

    reports = []
    for n1, n2 in n_pairs:
        (m1, s1), (m2, s2), (m12, s12) = (
            mean_stderr(graph_values(f, mu, n, reps, rng, workers))
            for n in (int(n1), int(n2), int(n1) + int(n2)))
        allowance = EXPECTATION_SIGMAS * math.sqrt(s1 ** 2 + s2 ** 2 + s12 ** 2)
        pen = penalty(float(mu.mean) / 2.0 * (int(n1) + int(n2)), f.kappa)
        reports.append(Verdict.of("superadditivity", m1 + m2, m12 + pen,
                                  allowance, seed, n1=int(n1), n2=int(n2),
                                  penalty=pen))
    return reports


def check_lipschitz_psi(f: GraphParameter, mu: DegreeDistribution,
                        mu2: DegreeDistribution, n: int, reps: int,
                        rng: np.random.Generator, workers: int = 1,
                        seed: int | None = None) -> Verdict:
    """|psi_hat(mu) - psi_hat(mu2)| <= 2 * kappa * W(mu, mu2) plus allowances.

    Uses fixed-mode sequences, for which the finite-n comparison bound
    2 * kappa * W(empirical, empirical) holds exactly in expectation; the
    rounding gap between that and the target distance is declared as a
    finite-n allowance alongside the statistical one.
    """
    d1 = fixed_degree_sequence(mu, n)
    d2 = fixed_degree_sequence(mu2, n)
    (m1, s1), (m2, s2) = (
        mean_stderr(graph_values(f, seq, n, reps, rng, workers) / n)
        for seq in (d1, d2))
    dist = float(wasserstein(mu, mu2))
    dist_emp = float(wasserstein(empirical(d1), empirical(d2)))
    finite_n = max(0.0, 2.0 * f.kappa * (dist_emp - dist))
    statistical = EXPECTATION_SIGMAS * math.sqrt(s1 ** 2 + s2 ** 2)
    return Verdict.of("lipschitz_psi", abs(m1 - m2), 2.0 * f.kappa * dist,
                      statistical + finite_n, seed, n=n,
                      wasserstein=dist, wasserstein_empirical=dist_emp,
                      finite_n_allowance=finite_n)


def check_midpoint_concavity(f: GraphParameter, mu: DegreeDistribution,
                             mu2: DegreeDistribution, n: int, reps: int,
                             rng: np.random.Generator, mode: str = "iid",
                             workers: int = 1,
                             seed: int | None = None) -> Verdict:
    """psi_hat((mu + mu2)/2) >= (psi_hat(mu) + psi_hat(mu2)) / 2 - allowance.

    n must be even so the mixture is realizable by a half/half split.
    """
    if n % 2:
        raise ValueError("n must be even")
    mix = DegreeDistribution.mix(mu, mu2)
    estimates = [estimate_psi(f, m, [n], reps, rng, mode, workers)
                 for m in (mu, mu2, mix)]
    (v1, s1), (v2, s2), (vm, sm) = ((e.value, e.stderr) for e in estimates)
    allowance = EXPECTATION_SIGMAS * math.sqrt((s1 / 2) ** 2 + (s2 / 2) ** 2
                                               + sm ** 2)
    # lhs <= rhs + allowance with lhs the midpoint average, rhs the mixture
    return Verdict.of("midpoint_concavity", (v1 + v2) / 2.0, vm, allowance,
                      seed, n=n, psi_mu=v1, psi_mu2=v2, psi_mix=vm)


@dataclass
class ConcentrationReport:
    """Empirical tails of f(G_d) against exp(-eps^2 / (4 kappa^2 sum d)),
    one Verdict per epsilon: tail frequency <= bound + three binomial
    sigmas, with ``eps`` and ``sigma`` in its details."""

    parameter: str
    degrees: tuple
    reps: int
    kappa: float
    total_degree: int
    rows: list
    seed: int | None = None

    @property
    def all_hold(self) -> bool:
        return all(r.verdict for r in self.rows)


def concentration_bound(eps: float, kappa: float, total_degree: int) -> float:
    """Azuma-style tail bound exp(-eps^2 / (4 kappa^2 sum_i d(i)))."""
    if total_degree == 0:
        return 1.0 if eps == 0 else 0.0
    return math.exp(-eps ** 2 / (4.0 * kappa ** 2 * total_degree))


def check_concentration(f: GraphParameter, d, reps: int, eps_grid,
                        rng: np.random.Generator, workers: int = 1,
                        seed: int | None = None) -> ConcentrationReport:
    """Tail frequencies of |f(G_d) - mean| over replications, checked
    against the concentration bound plus three binomial sigmas per epsilon."""
    if not eps_grid:
        raise ValueError("the eps grid is empty")
    degrees = as_degrees(d)
    values = graph_values(f, degrees, len(degrees), reps, rng, workers)
    center = values.mean()
    total = int(sum(degrees))
    rows = []
    for eps in eps_grid:
        eps = float(eps)
        freq = float((np.abs(values - center) >= eps).mean())
        bound = concentration_bound(eps, f.kappa, total)
        p = min(bound, 1.0)
        sigma = math.sqrt(p * (1.0 - p) / reps)
        rows.append(Verdict.of("concentration", freq, bound,
                               TAIL_SIGMAS * sigma, seed, eps=eps, sigma=sigma))
    return ConcentrationReport(f.name, degrees, reps, f.kappa, total, rows, seed)


def compare_expectations(f: GraphParameter, d, d2, reps: int,
                         rng: np.random.Generator, workers: int = 1,
                         seed: int | None = None) -> Verdict:
    """|E f(G_d) - E f(G_d2)| / n <= 2 * kappa * W(empirical, empirical),
    estimated with a 4-sigma allowance."""
    a = as_degrees(d)
    b = as_degrees(d2)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    dist = float(wasserstein(empirical(a), empirical(b)))
    (ma, sa), (mb, sb) = (
        mean_stderr(graph_values(f, seq, n, reps, rng, workers) / n)
        for seq in (a, b))
    allowance = EXPECTATION_SIGMAS * math.sqrt(sa ** 2 + sb ** 2)
    return Verdict.of("compare_expectations", abs(ma - mb),
                      2.0 * f.kappa * dist, allowance, seed, n=n,
                      wasserstein=dist)
