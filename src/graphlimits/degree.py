"""Degree sequences as half-edge systems, finite degree distributions, and
a transport metric.

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
from functools import cached_property

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
        probs = {int(k): float(p) for k, p in raw.items()}
        total = sum(probs.values())
        if abs(total - 1) > JSON_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, outside 1 +/- {JSON_SUM_TOL}")
        if total != 1:
            probs = {k: p / total for k, p in probs.items()}
        return cls(probs)


@dataclass(frozen=True)
class HalfEdgeSystem:
    """Degree sequence d(1..n), read as vertices 1..n with d(i) labeled
    half-edges each; n = 0 is the empty system.  Built from an integer
    array (:class:`_ArrayHalfEdgeSystem`), it holds the int64 ``degree_array``
    and builds the ``degrees`` tuple on first access; built from any other
    iterable, the other way round.  Equality and hashing go over ``degrees``.
    """

    degrees: tuple

    def __new__(cls, degrees=()):
        # unpickling calls __new__ with no arguments, then restores __dict__
        return super().__new__(_ArrayHalfEdgeSystem
                               if isinstance(degrees, np.ndarray) else cls)

    def __post_init__(self):
        degrees = tuple(self.degrees)
        for d in degrees:   # refused, as by the array form, not truncated
            if type(d) is bool or not isinstance(d, (int, np.integer)):
                raise ValueError(f"degrees must be integers, got {d!r}")
        degrees = tuple(map(int, degrees))
        if min(degrees, default=0) < 0:
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "degrees", degrees)

    def __eq__(self, other):
        if not isinstance(other, HalfEdgeSystem):
            return NotImplemented
        return self.degrees == other.degrees

    def __hash__(self):
        return hash(self.degrees)

    @cached_property
    def degree_array(self) -> np.ndarray:
        return np.array(self.degrees, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    def half_edges(self) -> list:
        return [(i + 1, k + 1) for i, d in enumerate(self.degrees) for k in range(d)]

    def contains(self, h) -> bool:
        i, k = h
        return 1 <= i <= self.n and 1 <= k <= self.degrees[i - 1]

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)


class _ArrayHalfEdgeSystem(HalfEdgeSystem):
    """What ``HalfEdgeSystem(array)`` returns: a system held as its int64
    degree array, checked once with numpy."""

    def __init__(self, degrees: np.ndarray):
        if degrees.ndim != 1 or degrees.size and degrees.dtype.kind not in "iu":
            raise ValueError(f"degree array must be 1-D integers, got "
                             f"{degrees.dtype} of shape {degrees.shape}")
        degrees = degrees.astype(np.int64, copy=False)
        if degrees.min(initial=0) < 0:
            raise ValueError("degrees must be non-negative")
        object.__setattr__(self, "degree_array", degrees)

    @cached_property
    def degrees(self) -> tuple:
        return tuple(self.degree_array.tolist())

    def __len__(self):
        return len(self.degree_array)


def as_degrees(d) -> tuple:
    """Coerce a HalfEdgeSystem or plain iterable to a degree tuple."""
    return as_system(d).degrees


def as_system(d) -> HalfEdgeSystem:
    """Coerce a HalfEdgeSystem or plain iterable to a HalfEdgeSystem."""
    return d if isinstance(d, HalfEdgeSystem) else HalfEdgeSystem(d)


def empirical(d) -> DegreeDistribution:
    """Empirical degree distribution, with exact rational probabilities."""
    degrees = as_degrees(d)
    n = len(degrees)
    if n == 0:
        raise ValueError("an empty degree sequence has no empirical measure")
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


def sample_iid(mu: DegreeDistribution, n: int, rng: np.random.Generator) -> HalfEdgeSystem:
    """Draw n independent degrees from mu; deterministic given the stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    support = np.array(mu.support, dtype=np.int64)
    weights = np.array([float(p) for p in mu.probs.values()])
    weights = weights / weights.sum()
    return HalfEdgeSystem(rng.choice(support, size=n, p=weights))
