import csv
import json
import math
import warnings

import numpy as np
import pytest

from graphlimits import limits, seeding
from graphlimits.cli import _write_records
from graphlimits.config_model import sample_uniform_graph
from graphlimits.degree import DegreeDistribution, sample_iid
from graphlimits.graphs import (
    INDEPENDENCE,
    MAX_CUT,
    NEG_COMPONENTS,
    GraphParameter,
    independence_number,
    ising_parameter,
)
from graphlimits.interpolation import expected_parameter
from graphlimits.limits import (
    check_concentration,
    check_lipschitz_psi,
    check_midpoint_concavity,
    check_superadditivity,
    compare_expectations,
    concentration_bound,
    estimate_psi,
    fixed_degree_sequence,
    graph_values,
)

D1 = DegreeDistribution.point_mass(1)
D2 = DegreeDistribution.point_mass(2)
D3 = DegreeDistribution.point_mass(3)


# ---------------------------------------------------------------------------
# degree sequences realizing a distribution


def test_fixed_degree_sequence_proportions():
    mu = DegreeDistribution({1: 0.5, 3: 0.5})
    d = fixed_degree_sequence(mu, 10)
    assert sorted(d.degrees) == [1] * 5 + [3] * 5


def test_fixed_degree_sequence_parity_bump():
    d = fixed_degree_sequence(D1, 7)
    assert sum(d.degrees) % 2 == 0
    assert sorted(d.degrees) == [1] * 6 + [2]


def test_fixed_degree_sequence_rounding():
    mu = DegreeDistribution({0: 1 / 3, 2: 2 / 3})
    d = fixed_degree_sequence(mu, 10)
    assert sorted(d.degrees)[:3] == [0, 0, 0]
    assert sum(1 for k in d.degrees if k == 2) in (6, 7)
    with pytest.raises(ValueError):
        fixed_degree_sequence(mu, 0)


# ---------------------------------------------------------------------------
# limit estimation


def test_psi_perfect_matching_is_half():
    est = estimate_psi(INDEPENDENCE, D1, [100], 10, np.random.default_rng(0),
                       "iid", seed=0)
    assert est.value == 0.5
    assert est.stderr == 0.0


def test_psi_rows_ordered_by_n():
    est = estimate_psi(NEG_COMPONENTS, D2, [80, 20, 40], 5,
                       np.random.default_rng(1))
    assert [r.n for r in est.rows] == [20, 40, 80]


def test_psi_two_regular_values():
    est = estimate_psi(INDEPENDENCE, D2, [2000], 50, np.random.default_rng(2),
                       "fixed")
    assert 0.49 <= est.value <= 0.50
    est = estimate_psi(MAX_CUT, D2, [2000], 50, np.random.default_rng(3),
                       "fixed")
    assert 0.99 <= est.value <= 1.00


def test_psi_reports_offending_size():
    with pytest.raises(ValueError, match="n=100"):
        estimate_psi(INDEPENDENCE, D3, [100], 3, np.random.default_rng(4))


def test_psi_means_stabilize():
    est = estimate_psi(INDEPENDENCE, D2, [250, 500, 1000, 2000], 20,
                       np.random.default_rng(5), "fixed")
    means = [r.mean for r in est.rows]
    assert max(means) - min(means) <= 0.01


def test_psi_fixed_and_iid_agree():
    mu = DegreeDistribution({1: 0.5, 2: 0.5})
    fixed = estimate_psi(INDEPENDENCE, mu, [600], 60,
                         np.random.default_rng(6), "fixed")
    iid = estimate_psi(INDEPENDENCE, mu, [600], 60,
                       np.random.default_rng(7), "iid")
    gap = abs(fixed.value - iid.value)
    assert gap <= 4 * math.hypot(fixed.stderr, iid.stderr)


def test_psi_rejects_bad_mode():
    with pytest.raises(ValueError):
        estimate_psi(INDEPENDENCE, D1, [10], 5, np.random.default_rng(0),
                     "bogus")


# ---------------------------------------------------------------------------
# superadditivity in the system size


def test_superadditivity_two_regular():
    reports = check_superadditivity(INDEPENDENCE, D2, [(50, 50)], 30,
                                    np.random.default_rng(8))
    assert all(r.verdict for r in reports)


def test_superadditivity_matchings_nearly_equal():
    reports = check_superadditivity(INDEPENDENCE, D1, [(40, 60)], 30,
                                    np.random.default_rng(9))
    (r,) = reports
    assert r.verdict
    # perfect matchings: both sides are 0.5 per vertex up to parity effects
    assert abs(r.lhs - 50.0) <= 1.5


def test_superadditivity_rejects_zero_reps():
    with pytest.raises(ValueError):
        check_superadditivity(INDEPENDENCE, D2, [(10, 10)], 0,
                              np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Lipschitz continuity in the distribution


def test_lipschitz_psi_same_distribution():
    r = check_lipschitz_psi(NEG_COMPONENTS, D2, D2, 300, 30,
                            np.random.default_rng(10))
    assert r.verdict
    assert r.rhs == 0.0
    assert r.lhs <= r.allowance


def test_lipschitz_psi_degree_one_vs_two():
    r = check_lipschitz_psi(INDEPENDENCE, D1, D2, 1000, 30,
                            np.random.default_rng(11))
    assert r.verdict
    assert r.rhs == 2.0
    assert r.lhs < 0.05  # both limits sit near one half


# ---------------------------------------------------------------------------
# concavity in the distribution


def test_concavity_same_distribution():
    r = check_midpoint_concavity(NEG_COMPONENTS, D2, D2, 300, 30,
                                 np.random.default_rng(12))
    assert r.verdict
    assert abs(r.lhs - r.rhs) <= r.allowance


def test_concavity_mixture():
    r = check_midpoint_concavity(NEG_COMPONENTS, D1, D3, 1000, 40,
                                 np.random.default_rng(13))
    assert r.verdict
    assert r.details["psi_mix"] >= r.lhs - r.allowance


def test_concavity_requires_even_n():
    with pytest.raises(ValueError):
        check_midpoint_concavity(NEG_COMPONENTS, D1, D3, 99, 10,
                                 np.random.default_rng(0))


# ---------------------------------------------------------------------------
# concentration


def test_concentration_bound_values():
    assert concentration_bound(0.0, 1.0, 600) == 1.0
    assert concentration_bound(40.0, 1.0, 600) == pytest.approx(
        math.exp(-2 / 3), abs=1e-15)
    assert concentration_bound(40.0, 1.0, 200) == pytest.approx(
        math.exp(-2), abs=1e-15)


def test_concentration_tails_within_bound():
    report = check_concentration(NEG_COMPONENTS, (2,) * 100, 800,
                                 [0.0, 10.0, 20.0, 40.0],
                                 np.random.default_rng(14))
    assert report.total_degree == 200
    assert report.all_hold
    zero_row = report.rows[0]
    assert zero_row.rhs == 1.0 and zero_row.verdict


def test_concentration_spin_parameter():
    report = check_concentration(ising_parameter(1.0), (2,) * 12, 200,
                                 [2.0, 5.0], np.random.default_rng(15))
    assert report.all_hold


def test_concentration_negative_control():
    # independence has standard deviation ~5 here, against the bound's
    # scale 2 * kappa * sqrt(total degree 3000): ~110 at the true kappa = 1,
    # ~3.7 at a kappa understated 30-fold, whose tails must then fail
    degrees = (1,) * 1000 + (2,) * 1000
    understated = GraphParameter("independence_understated", 1 / 30,
                                 independence_number)
    report = check_concentration(understated, degrees, 200, [5.0, 8.0],
                                 np.random.default_rng(1))
    assert not any(row.verdict for row in report.rows)
    report = check_concentration(INDEPENDENCE, degrees, 200, [5.0, 8.0],
                                 np.random.default_rng(1))
    assert report.all_hold


# ---------------------------------------------------------------------------
# empty degree sequence


@pytest.mark.parametrize("param", [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS,
                                   ising_parameter(1.0)])
def test_empty_degree_sequence_is_the_empty_graph(param):
    assert expected_parameter(param, ()) == 0
    values = graph_values(param, (), 0, 4, np.random.default_rng(0))
    assert values.tolist() == [0.0] * 4


# ---------------------------------------------------------------------------
# shares of replications


def values_one_by_one(param, source, n, reps, rng):
    """The replication map graph_values shares out: replication i samples
    from substream i of one forked root and is evaluated on its own."""
    root = seeding.fork_root(rng)
    values = []
    for i in range(reps):
        stream = seeding.rep_stream(root, i)
        d = (sample_iid(source, n, stream)
             if isinstance(source, DegreeDistribution) else source)
        values.append(float(param.evaluate(sample_uniform_graph(d, stream))))
    return np.array(values)


@pytest.mark.parametrize("param, source, n", [
    (INDEPENDENCE, DegreeDistribution({0: 0.1, 1: 0.4, 2: 0.5}), 60),
    (MAX_CUT, (2,) * 30 + (1,) * 10, 40),
    (NEG_COMPONENTS, D3, 50),
    (ising_parameter(0.5), (2,) * 8, 8),
])
def test_graph_values_do_not_depend_on_shares_or_workers(param, source, n,
                                                         monkeypatch):
    reps = 16
    expected = values_one_by_one(param, source, n, reps,
                                 np.random.default_rng(41))
    for size in (1, 2, 7, reps):
        monkeypatch.setattr(limits, "VERTEX_BUDGET", size * n)
        for workers in (1, 2, 3):
            got = graph_values(param, source, n, reps,
                               np.random.default_rng(41), workers)
            assert got.dtype == np.float64
            assert np.array_equal(got, expected), (size, workers)


def test_graph_values_share_sizes(monkeypatch):
    counts = []
    pmap = limits.pmap

    def record(fn, count, workers=1):
        counts.append(count)
        return pmap(fn, count, workers)

    monkeypatch.setattr(limits, "pmap", record)
    rng = np.random.default_rng(0)
    # at most 2^14 // n graphs, and with several workers about two shares
    # each: the README psi command's sizes, then one graph per share
    for n, workers in ((500, 1), (500, 2), (2000, 2), (200_000, 1)):
        graph_values(NEG_COMPONENTS, D2, n, 50 if n < 10_000 else 2, rng,
                     workers)
    assert counts == [2, 4, 7, 2]


@pytest.mark.parametrize("source", [(3,) * 50, D3])
def test_graph_values_name_the_failing_size(source):
    # degree-3 graphs above the branch-and-bound limit fail as one graph does
    with pytest.raises(ValueError,
                       match=r"^parameter independence failed at n=50: "
                             r"instance too large for exact solver: n=50 > 40$"):
        graph_values(INDEPENDENCE, source, 50, 6, np.random.default_rng(1), 2)


# ---------------------------------------------------------------------------
# expectation comparison


def test_compare_same_sequence():
    r = compare_expectations(NEG_COMPONENTS, (2,) * 60, (2,) * 60, 40,
                             np.random.default_rng(16))
    assert r.verdict
    assert r.rhs == 0.0
    assert r.lhs <= r.allowance


def test_compare_reports_solver_limit():
    # degree-3 entries at n=100 push independence past its exact-solver cap
    with pytest.raises(ValueError, match="n=100"):
        compare_expectations(INDEPENDENCE, (2,) * 100, (3,) * 100, 30,
                             np.random.default_rng(17))


def test_compare_rejects_empty_sequences():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty degree sequence"):
            compare_expectations(NEG_COMPONENTS, (), (), 3,
                                 np.random.default_rng(0))


def test_compare_transport_bound():
    r = compare_expectations(NEG_COMPONENTS, (2,) * 100, (3,) * 100, 40,
                             np.random.default_rng(18))
    assert r.verdict
    assert r.rhs == 2.0


def test_compare_random_pairs_never_violate():
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = tuple(int(x) for x in rng.integers(0, 4, size=40))
        b = tuple(int(x) for x in rng.integers(0, 4, size=40))
        r = compare_expectations(NEG_COMPONENTS, a, b, 30, rng)
        assert r.verdict


def test_compare_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        compare_expectations(NEG_COMPONENTS, (2, 2), (2, 2, 2), 10,
                             np.random.default_rng(0))


# ---------------------------------------------------------------------------
# report plumbing


def _csv_lines(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_inequality_report_csv_shape(tmp_path):
    r = check_lipschitz_psi(NEG_COMPONENTS, D1, D2, 100, 10,
                            np.random.default_rng(20), seed=20)
    _write_records(tmp_path / "r.csv", "csv", "inequality", [r])
    header, row = _csv_lines(tmp_path / "r.csv")
    assert len(row) == len(header)
    _write_records(tmp_path / "r.json", "json", "inequality", [r])
    assert json.loads((tmp_path / "r.json").read_text())[0]["seed"] == 20


def test_psi_estimate_csv_shape(tmp_path):
    est = estimate_psi(NEG_COMPONENTS, D2, [30, 60], 5,
                       np.random.default_rng(21), seed=21)
    _write_records(tmp_path / "psi.csv", "csv", "psi",
                   [(est, r) for r in est.rows])
    header, *rows = _csv_lines(tmp_path / "psi.csv")
    assert len(rows) == 2
    assert len(rows[0]) == len(header)
