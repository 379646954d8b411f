"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion N] PASS/FAIL` line (visible with
`pytest -s`) and encodes the criterion's tolerances directly; runtime
budgets are asserted as stated.
"""

import math
import time
from fractions import Fraction

import numpy as np

from graphlimits.config_model import sample_uniform_graph
from graphlimits.degree import (
    DegreeDistribution,
    empirical,
    sorted_l1,
    wasserstein,
)
from graphlimits.graphs import (
    INDEPENDENCE,
    MAX_CUT,
    NEG_COMPONENTS,
    POS_COMPONENTS,
    certify_parameter,
    ising_parameter,
    potts_parameter,
)
from graphlimits.interpolation import (
    check_corridor_exit,
    default_corridor_width,
    penalty,
    penalty_constant,
    run_sweep,
    sweep_pairing_uniformity,
)
from graphlimits.limits import (
    check_concentration,
    check_lipschitz_psi,
    check_midpoint_concavity,
    compare_expectations,
    concentration_bound,
    estimate_psi,
)

D1 = DegreeDistribution.point_mass(1)
D2 = DegreeDistribution.point_mass(2)
D3 = DegreeDistribution.point_mass(3)


def _finish(cid, started, budget_s, ok, detail=""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {cid}] {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {cid}: {detail}"
    assert elapsed <= budget_s, f"criterion {cid} exceeded {budget_s}s budget"


def test_criterion_01_exhaustive_interpolation_sweep():
    # every inequality on every instance with total degree <= 8 on <= 4
    # vertices, exact rational means, zero violations
    t0 = time.time()
    summary = run_sweep([INDEPENDENCE, MAX_CUT, NEG_COMPONENTS],
                        max_total_degree=8, max_vertices=4)
    detail = (f"{summary.total_checked} inequalities on {summary.instances} "
              f"instances, {len(summary.violations)} violations")
    # the bench sweep gate's exact counts
    ok = (summary.instances == 1294 and summary.all_hold
          and summary.checked == {"lipschitz": 114_852, "local": 4_380,
                                  "global": 7_806, "main": 3_882})
    _finish(1, t0, 300, ok, detail)


def test_criterion_02_pairing_uniformity():
    # exact integer history counts, equal on every feasible class
    t0 = time.time()
    summary = sweep_pairing_uniformity(max_total_degree=8, max_vertices=4)
    detail = (f"{summary.classes} classes on {summary.instances} instances, "
              f"{len(summary.failures)} failures")
    # the exact counts, as criterion 1 asserts its own
    ok = (summary.instances == 938 and summary.classes == 6_164
          and summary.failures == [])
    _finish(2, t0, 120, ok, detail)


def test_criterion_03_penalty_constant():
    t0 = time.time()
    c47 = penalty_constant(47)
    in_window = 6.58 <= c47 <= 6.60 and c47 < 7
    below_seven = all(penalty_constant(g) < 7 for g in range(47, 10_001))
    _finish(3, t0, 60, in_window and below_seven, f"c(47)={c47:.4f}")


def test_criterion_04_small_gamma_branch():
    # linear bound beaten by the penalty for every gamma in 1..46 at kappa=1
    t0 = time.time()
    ok = all(1.0 * (2 * g + 1) <= penalty(g, 1.0) for g in range(1, 47))
    _finish(4, t0, 60, ok, "kappa*(2g+1) <= penalty(g) for g=1..46")


def test_criterion_05_class_certification():
    t0 = time.time()
    params = [INDEPENDENCE, MAX_CUT, NEG_COMPONENTS,
              ising_parameter(0.0), ising_parameter(0.5), ising_parameter(2.0),
              potts_parameter(3, 1.0)]
    failures = []
    for i, param in enumerate(params):
        report = certify_parameter(param, 200, 6, np.random.default_rng(100 + i),
                                   max_edges=8)
        if not report.all_passed:
            failures.append(param.name)
    control = certify_parameter(POS_COMPONENTS, 200, 6,
                                np.random.default_rng(200), max_edges=8)
    control_ok = (control.additive.passed and control.lipschitz.passed
                  and not control.concave.passed)
    detail = (f"{len(params)} members certified, failures={failures}, "
              f"negative control concavity failed={not control.concave.passed}")
    _finish(5, t0, 120, not failures and control_ok, detail)


def test_criterion_06_limit_values():
    t0 = time.time()
    matched = estimate_psi(INDEPENDENCE, D1, [100], 10,
                           np.random.default_rng(300))
    exact_half = matched.value == 0.5 and matched.stderr == 0.0

    ind = estimate_psi(INDEPENDENCE, D2, [2000], 50,
                       np.random.default_rng(301), "fixed")
    cut = estimate_psi(MAX_CUT, D2, [2000], 50,
                       np.random.default_rng(302), "fixed")
    ind_ok = 0.49 <= ind.value <= 0.50
    cut_ok = 0.99 <= cut.value <= 1.00

    # perfect matchings make the spin value exact per realization
    ising = ising_parameter(1.0)
    target = 0.5 * math.log(2 * math.e + 2 / math.e)
    rng = np.random.default_rng(303)
    ising_ok = all(
        abs(ising.evaluate(sample_uniform_graph((1,) * 20, rng)) / 20 - target)
        <= 1e-9
        for _ in range(5))

    detail = (f"psi(d1)={matched.value} (stderr {matched.stderr}), "
              f"psi_ind(d2)={ind.value:.4f}, psi_cut(d2)={cut.value:.4f}, "
              f"ising per-realization within 1e-9: {ising_ok}")
    _finish(6, t0, 180, exact_half and ind_ok and cut_ok and ising_ok, detail)


def test_criterion_07_limit_inequalities_under_sampling():
    t0 = time.time()
    failures = []

    lip1 = check_lipschitz_psi(INDEPENDENCE, D1, D2, 500, 50,
                               np.random.default_rng(400))
    if not lip1.verdict:
        failures.append("lipschitz_psi independence d1/d2")
    lip2 = check_lipschitz_psi(NEG_COMPONENTS, D2, D3, 500, 50,
                               np.random.default_rng(401))
    if not lip2.verdict:
        failures.append("lipschitz_psi neg_components d2/d3")

    rng = np.random.default_rng(402)
    compare_failures = 0
    for _ in range(100):
        a = tuple(int(x) for x in rng.integers(0, 4, size=100))
        b = tuple(int(x) for x in rng.integers(0, 4, size=100))
        if not compare_expectations(NEG_COMPONENTS, a, b, 40, rng).verdict:
            compare_failures += 1
    if compare_failures:
        failures.append(f"compare_expectations x{compare_failures}")

    conc = check_midpoint_concavity(NEG_COMPONENTS, D1, D3, 1000, 50,
                                    np.random.default_rng(403))
    if not conc.verdict:
        failures.append("midpoint concavity d1/d3")

    _finish(7, t0, 300, not failures,
            f"failures={failures or 'none'} over 103 inequality verdicts")


def test_criterion_08_concentration():
    t0 = time.time()
    report = check_concentration(NEG_COMPONENTS, (3,) * 200, 2000,
                                 [10.0, 20.0, 40.0, 80.0],
                                 np.random.default_rng(500))
    spot = concentration_bound(40.0, 1.0, 600)
    spot_ok = abs(spot - math.exp(-2 / 3)) <= 1e-15
    detail = (f"tails={[(r.details['eps'], r.lhs) for r in report.rows]}, "
              f"bound(40)={spot:.6f}")
    _finish(8, t0, 120, report.all_hold and spot_ok, detail)


def test_criterion_09_corridor_exit_bound():
    t0 = time.time()
    report = check_corridor_exit(200, 14, 100_000, np.random.default_rng(600))
    # at delta = 14 the bound is 1.04, so that check cannot fail; at the
    # default width 32 it is 0.0365, and a walk that leaves the corridor
    # 4x too often would fail it
    width = default_corridor_width(200)
    informative = check_corridor_exit(200, width, 100_000,
                                      np.random.default_rng(601))
    assert informative.rhs < 0.05
    detail = "; ".join(
        f"delta={r.details['delta']}: freq={r.lhs:.4f} <= bound={r.rhs:.4f} "
        f"+ 3*{r.details['sigma']:.6f}" for r in (report, informative))
    _finish(9, t0, 60, report.verdict and informative.verdict, detail)


def test_criterion_10_transport_identity():
    t0 = time.time()
    rng = np.random.default_rng(700)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        a = tuple(int(x) for x in rng.integers(0, 9, size=n))
        b = tuple(int(x) for x in rng.integers(0, 9, size=n))
        lhs = sorted_l1(a, b)
        rhs = n * wasserstein(empirical(a), empirical(b))
        if not (isinstance(rhs, Fraction) and lhs == rhs):
            ok = False
            break
    _finish(10, t0, 10, ok, "integer identity on 1000 random pairs")
