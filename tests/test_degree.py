import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlimits.degree import (
    DegreeDistribution,
    HalfEdgeSystem,
    empirical,
    sample_iid,
    sorted_l1,
    wasserstein,
)

D1 = DegreeDistribution.point_mass(1)
D2 = DegreeDistribution.point_mass(2)
D3 = DegreeDistribution.point_mass(3)


# ---------------------------------------------------------------------------
# construction and serialization


def test_distribution_validates():
    with pytest.raises(ValueError):
        DegreeDistribution({1: 0.5, 2: 0.6})
    with pytest.raises(ValueError):
        DegreeDistribution({1: -0.1, 2: 1.1})
    with pytest.raises(ValueError):
        DegreeDistribution({-1: 1.0})


def test_zero_atoms_dropped():
    mu = DegreeDistribution({1: 0.5, 3: 0.5, 7: 0.0})
    assert mu == DegreeDistribution({1: 0.5, 3: 0.5})
    assert mu.support == (1, 3)


def test_json_round_trip():
    mu = DegreeDistribution({1: 0.5, 3: 0.5})
    assert DegreeDistribution.from_json(mu.to_json()) == mu
    parsed = DegreeDistribution.from_json('{"2": 1.0}')
    assert parsed == D2


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        DegreeDistribution.from_json('{"1": -0.5, "2": 1.5}')
    with pytest.raises(ValueError):
        DegreeDistribution.from_json('{"1": 0.5, "2": 0.6}')
    with pytest.raises(ValueError):
        DegreeDistribution.from_json('[0.5, 0.5]')


def test_json_renormalizes_within_tolerance():
    mu = DegreeDistribution.from_json('{"1": 0.3333333333, "2": 0.6666666666}')
    assert abs(sum(mu.probs.values()) - 1) <= 1e-12


def test_degree_sequence_validates():
    with pytest.raises(ValueError):
        HalfEdgeSystem((1, -2))
    assert HalfEdgeSystem((0, 2)).n == 2


def test_empty_half_edge_system():
    sys = HalfEdgeSystem(())
    assert (sys.n, sys.total, sys.half_edges()) == (0, 0, [])
    assert len(sys) == 0 and list(sys) == []


def test_half_edge_system_holds_python_ints():
    from_array = HalfEdgeSystem(np.array([2, 1]).tolist())
    from_tuple = HalfEdgeSystem((2, 1))
    assert from_array == from_tuple
    assert all(type(d) is int for d in from_array.degrees + from_tuple.degrees)
    with pytest.raises(ValueError):
        HalfEdgeSystem(("x",))


def test_array_held_system_equals_tuple_form():
    from_array = HalfEdgeSystem(np.array([2, 0, 3]))
    from_tuple = HalfEdgeSystem((2, 0, 3))
    # each form holds one of degree_array and degrees, and builds the other
    assert "degrees" not in vars(from_array) and "degree_array" not in vars(from_tuple)
    assert np.array_equal(from_array.degree_array, from_tuple.degree_array)
    assert from_tuple.degree_array.dtype == np.int64
    assert from_array == from_tuple and from_tuple == from_array
    assert hash(from_array) == hash(from_tuple)
    assert from_array != HalfEdgeSystem(np.array([2, 0, 1]))
    assert (from_array.n, from_array.total, len(from_array)) == (3, 5, 3)
    assert from_array.half_edges() == from_tuple.half_edges()
    assert list(from_array) == [2, 0, 3]
    assert all(type(d) is int for d in from_array.degrees)
    assert HalfEdgeSystem(np.array([3, 1], dtype=np.uint8)) == HalfEdgeSystem((3, 1))
    assert HalfEdgeSystem(np.array([])) == HalfEdgeSystem(())


def test_array_held_system_pickles():
    # pmap sends fixed-mode sequences to its workers by pickling them
    sys = HalfEdgeSystem(np.array([1, 2, 1]))
    again = pickle.loads(pickle.dumps(sys))
    assert type(again) is type(sys) and "degrees" not in vars(again)
    assert np.array_equal(again.degree_array, sys.degree_array) and again == sys


def test_array_held_system_validates():
    with pytest.raises(ValueError, match="non-negative"):
        HalfEdgeSystem(np.array([1, -2]))
    for bad in (np.array([1.0, 2.0]), np.array([[1, 2]]), np.array(3),
                np.array([True, False])):
        with pytest.raises(ValueError, match="1-D integers"):
            HalfEdgeSystem(bad)



def test_both_forms_refuse_non_integer_degrees():
    # a float degree is refused, never truncated; booleans are refused too,
    # as a boolean array is
    for bad in ([1.5, 2.7], [2.0], [True, 2], [2, False], ["1"]):
        with pytest.raises(ValueError, match="integers"):
            HalfEdgeSystem(bad)
    for bad in ([1.5, 2.7], [2.0], [True, False]):
        with pytest.raises(ValueError, match="integers"):
            HalfEdgeSystem(np.array(bad))
    mixed = HalfEdgeSystem([np.int64(2), np.uint8(1), 3])
    assert mixed.degrees == (2, 1, 3)
    assert all(type(d) is int for d in mixed.degrees)
    assert HalfEdgeSystem(iter([1, 1])).degrees == (1, 1)

# ---------------------------------------------------------------------------
# operations


def test_mean_examples():
    assert D3.mean == 3
    assert DegreeDistribution({0: 0.5, 4: 0.5}).mean == 2
    assert DegreeDistribution({1: 0.25, 2: 0.5, 3: 0.25}).mean == 2


def test_wasserstein_examples():
    assert wasserstein(D2, D2) == 0
    assert wasserstein(D2, D3) == 1
    mix = DegreeDistribution({1: Fraction(1, 2), 3: Fraction(1, 2)})
    assert wasserstein(mix, D2) == 1


def test_wasserstein_separates_zero_and_one():
    # the i=1 tail term |mu(0) - mu2(0)| is what distinguishes these
    assert wasserstein(DegreeDistribution.point_mass(0), D1) == 1


def test_empirical_examples():
    assert empirical((2, 2, 2)) == D2
    assert empirical((1, 3)) == DegreeDistribution({1: 0.5, 3: 0.5})
    assert empirical((0, 0, 4)).probs == {0: Fraction(2, 3), 4: Fraction(1, 3)}


def test_sorted_l1_examples():
    assert sorted_l1((1, 3), (2, 2)) == 2
    assert sorted_l1((2, 2), (2, 2)) == 0
    assert sorted_l1((5, 1, 1), (1, 1, 5)) == 0
    with pytest.raises(ValueError, match="length mismatch"):
        sorted_l1((1, 2), (1, 2, 3))


def test_sample_iid():
    rng = np.random.default_rng(7)
    draws = sample_iid(D2, 5, rng)
    assert "degrees" not in vars(draws) and draws.degree_array.dtype == np.int64
    assert draws.degrees == (2, 2, 2, 2, 2)
    assert all(type(d) is int for d in draws.degrees)
    with pytest.raises(ValueError):
        sample_iid(D2, 0, rng)


def test_sample_iid_law_of_large_numbers():
    mu = DegreeDistribution({1: 0.5, 3: 0.5})
    draws = sample_iid(mu, 10**5, np.random.default_rng(11))
    freq = sum(1 for d in draws if d == 1) / 10**5
    assert abs(freq - 0.5) < 0.01


def test_sample_iid_deterministic_given_stream():
    mu = DegreeDistribution({1: 0.5, 3: 0.5})
    a = sample_iid(mu, 50, np.random.default_rng(3))
    b = sample_iid(mu, 50, np.random.default_rng(3))
    assert a == b


# ---------------------------------------------------------------------------
# metric properties (exact rational arithmetic)


@st.composite
def rational_distributions(draw):
    support = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4,
                            unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(support),
                            max_size=len(support)))
    total = sum(weights)
    return DegreeDistribution({k: Fraction(w, total)
                               for k, w in zip(support, weights)})


@given(rational_distributions(), rational_distributions())
def test_metric_nonneg_symmetric(mu, nu):
    assert wasserstein(mu, nu) >= 0
    assert wasserstein(mu, nu) == wasserstein(nu, mu)


@given(rational_distributions(), rational_distributions())
def test_metric_identity_of_indiscernibles(mu, nu):
    assert (wasserstein(mu, nu) == 0) == (mu == nu)


@settings(max_examples=200)
@given(rational_distributions(), rational_distributions(),
       rational_distributions())
def test_metric_triangle_inequality(mu, nu, rho):
    assert wasserstein(mu, rho) <= wasserstein(mu, nu) + wasserstein(nu, rho)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=12),
       st.data())
def test_sorted_l1_matches_scaled_distance(a, data):
    b = data.draw(st.lists(st.integers(0, 9), min_size=len(a),
                           max_size=len(a)))
    lhs = sorted_l1(tuple(a), tuple(b))
    rhs = len(a) * wasserstein(empirical(tuple(a)), empirical(tuple(b)))
    assert lhs == rhs  # exact: integer == Fraction


def test_empirical_converges_in_distance():
    mu = DegreeDistribution({1: 0.5, 3: 0.5})
    medians = []
    for n in (100, 1000, 10_000):
        dists = []
        for seed in range(50):
            d = sample_iid(mu, n, np.random.default_rng(1000 + seed))
            dists.append(float(wasserstein(empirical(d), mu)))
        medians.append(float(np.median(dists)))
    assert medians[0] >= medians[1] >= medians[2]
