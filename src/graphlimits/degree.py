"""Degree sequences, finite degree distributions, and a transport metric.

The distance used throughout is the L1 transport distance between integer
distributions, written as a sum of absolute tail differences:

    W(mu, nu) = sum_{i >= 1} | sum_{k >= i} (mu(k) - nu(k)) |

When both distributions carry exact rational probabilities (as empirical
measures do) the distance is computed exactly, which makes the identity
``sorted_l1(d, d2) == n * W(empirical(d), empirical(d2))`` an integer
equality rather than a float comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SUM_TOL = 1e-12
JSON_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DegreeDistribution:
    """Finite-support probability distribution on vertex degrees.

    Probabilities may be ints, floats, or ``fractions.Fraction``; exact
    inputs keep downstream arithmetic exact.  Zero-probability atoms are
    dropped so that equality of the mapping is equality of the measure.
    """

    probs: dict

    def __post_init__(self):
        cleaned = {}
        for k, p in self.probs.items():
            k = int(k)
            if k < 0:
                raise ValueError(f"negative degree {k}")
            if p < 0:
                raise ValueError(f"negative probability for degree {k}")
            if p == 0:
                continue
            cleaned[k] = p
        total = sum(cleaned.values())
        if abs(total - 1) > SUM_TOL:
            raise ValueError(f"probabilities sum to {float(total)}, not 1")
        object.__setattr__(self, "probs", dict(sorted(cleaned.items())))

    @classmethod
    def point_mass(cls, k: int) -> "DegreeDistribution":
        return cls({int(k): 1})

    @classmethod
    def mix(cls, mu: "DegreeDistribution", mu2: "DegreeDistribution",
            weight=Fraction(1, 2)) -> "DegreeDistribution":
        """Convex combination weight*mu + (1-weight)*mu2."""
        support = set(mu.probs) | set(mu2.probs)
        return cls({k: weight * mu.prob(k) + (1 - weight) * mu2.prob(k)
                    for k in support})

    @property
    def support(self) -> tuple:
        return tuple(self.probs)

    @property
    def max_degree(self) -> int:
        return max(self.probs)

    @property
    def mean(self):
        """Expected degree, exact when the probabilities are exact."""
        return sum(k * p for k, p in self.probs.items())

    def prob(self, k: int):
        return self.probs.get(k, 0)

    def to_json(self) -> str:
        return json.dumps({str(k): float(p) for k, p in self.probs.items()})

    @classmethod
    def from_json(cls, text: str) -> "DegreeDistribution":
        """Parse a JSON object mapping degree strings to probabilities.

        Rejects negative entries and totals outside 1 +/- 1e-9; sums inside
        that window but beyond the construction tolerance are renormalized.
        """
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("degree distribution JSON must be an object")
        probs = {}
        for k, p in raw.items():
            degree = int(k)
            p = float(p)
            if degree < 0:
                raise ValueError(f"negative degree {degree}")
            if p < 0:
                raise ValueError(f"negative probability for degree {degree}")
            probs[degree] = p
        total = sum(probs.values())
        if abs(total - 1) > JSON_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, outside 1 +/- {JSON_SUM_TOL}")
        if total != 1:
            probs = {k: p / total for k, p in probs.items()}
        return cls(probs)


@dataclass(frozen=True)
class DegreeSequence:
    """Finite list of vertex degrees d(1..n), n >= 1."""

    degrees: tuple

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        if not degrees:
            raise ValueError("empty degree sequence")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)


def as_degrees(d) -> tuple:
    """Coerce a DegreeSequence or plain iterable to a degree tuple."""
    if isinstance(d, DegreeSequence):
        return d.degrees
    return DegreeSequence(tuple(d)).degrees


def empirical(d) -> DegreeDistribution:
    """Empirical degree distribution, with exact rational probabilities."""
    degrees = as_degrees(d)
    n = len(degrees)
    counts = {}
    for k in degrees:
        counts[k] = counts.get(k, 0) + 1
    return DegreeDistribution({k: Fraction(c, n) for k, c in counts.items()})


def wasserstein(mu: DegreeDistribution, mu2: DegreeDistribution):
    """Tail-sum transport distance between two degree distributions.

    Exact (``Fraction``) whenever both inputs are exact.  The length-1 tail
    term |mu(>=1) - mu2(>=1)| is included: it equals |mu(0) - mu2(0)| and is
    what separates point masses at 0 and 1.
    """
    top = max(mu.max_degree, mu2.max_degree)
    tail = 0
    total = 0
    for k in range(top, 0, -1):
        tail = tail + mu.prob(k) - mu2.prob(k)
        total += abs(tail)
    return total


def sorted_l1(d, d2) -> int:
    """L1 distance between the ascending rearrangements of two sequences.

    Equals ``n * wasserstein(empirical(d), empirical(d2))`` exactly.
    """
    a = as_degrees(d)
    b = as_degrees(d2)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(abs(x - y) for x, y in zip(sorted(a), sorted(b)))


def sample_iid(mu: DegreeDistribution, n: int, rng: np.random.Generator) -> DegreeSequence:
    """Draw n independent degrees from mu; deterministic given the stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    support = np.array(mu.support, dtype=np.int64)
    weights = np.array([float(p) for p in mu.probs.values()])
    weights = weights / weights.sum()
    draws = rng.choice(support, size=n, p=weights)
    return DegreeSequence(tuple(draws.tolist()))
