import hashlib
import json

import pytest
from click.testing import CliRunner

from graphlimits.cli import main
from graphlimits.graphs import Multigraph

TRIANGLE = "3 3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


# ---------------------------------------------------------------------------
# evaluation and distances


def test_eval_triangle_max_cut(runner, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    result = invoke(runner, "eval", "--param", "maxcut", "--graph", path)
    assert result.exit_code == 0
    assert result.output.strip() == "2"


def test_eval_bad_graph_file_is_usage_error(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n")
    result = invoke(runner, "eval", "--param", "maxcut", "--graph", path)
    assert result.exit_code == 2


def test_wasserstein_command(runner):
    result = invoke(runner, "wasserstein", "--mu", '{"2": 1.0}',
                    "--mu2", '{"3": 1.0}')
    assert result.exit_code == 0
    assert float(result.output) == 1.0


def test_malformed_mu_is_usage_error(runner):
    result = invoke(runner, "wasserstein", "--mu", '{"2": 0.7}',
                    "--mu2", '{"3": 1.0}')
    assert result.exit_code == 2


def test_unknown_parameter_is_usage_error(runner, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    result = invoke(runner, "eval", "--param", "chromatic", "--graph", path)
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# sampling


def test_sample_writes_parseable_graph(runner, tmp_path):
    out = tmp_path / "g.txt"
    result = invoke(runner, "sample", "--degrees", "2,2,2", "--seed", 5,
                    "--output", out)
    assert result.exit_code == 0
    g = Multigraph.from_text(out.read_text())
    assert g.n == 3 and g.num_edges == 3


def test_sample_requires_seed(runner):
    result = invoke(runner, "sample", "--degrees", "1,1")
    assert result.exit_code == 2


def test_sample_simple_rejection_failure_is_exit_one(runner):
    result = invoke(runner, "sample", "--degrees", "2,2", "--simple",
                    "--max-tries", 32, "--seed", 1)
    assert result.exit_code == 1


def test_sample_iid_degrees(runner, tmp_path):
    out = tmp_path / "g.txt"
    result = invoke(runner, "sample", "--mu", '{"1": 1.0}', "--n", 10,
                    "--seed", 2, "--output", out)
    assert result.exit_code == 0
    assert Multigraph.from_text(out.read_text()).degrees() == (1,) * 10


# ---------------------------------------------------------------------------
# certification


def test_certify_pass_and_fail(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "certify", "--param", "independence",
                    "--samples", 40, "--max-n", 5, "--seed", 3,
                    "--output", out)
    assert result.exit_code == 0
    assert json.loads(out.read_text())["all_passed"] is True

    result = invoke(runner, "certify", "--param", "pos-components",
                    "--samples", 40, "--max-n", 5, "--seed", 3)
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# interpolation verification


def test_interp_verify_sweep(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke(runner, "interp-verify", "--sweep",
                    "--max-total-degree", 4, "--max-vertices", 3,
                    "--param", "independence", "--seed", 7, "--output", out)
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,instance,counts,lhs,rhs,slack,verdict"
    assert len(lines) > 10
    assert all(line.endswith("True") for line in lines[1:])


def test_interp_verify_hidden_phi_factor_forces_failure(runner):
    result = invoke(runner, "interp-verify", "--sweep",
                    "--max-total-degree", 2, "--max-vertices", 2,
                    "--param", "independence", "--phi-factor", 0.01,
                    "--seed", 7)
    assert result.exit_code == 1


def test_interp_verify_single_instance(runner):
    result = invoke(runner, "interp-verify", "--degrees", "2,2",
                    "--side-a", "1", "--check", "global", "--gamma", 2,
                    "--param", "independence", "--seed", 1, "--workers", 1)
    assert result.exit_code == 0
    result = invoke(runner, "interp-verify", "--degrees", "2,2",
                    "--side-a", "1", "--check", "main", "--mode", "exact",
                    "--param", "independence", "--seed", 1, "--workers", 1)
    assert result.exit_code == 0


def test_interp_verify_single_instance_usage_errors(runner):
    result = invoke(runner, "interp-verify", "--degrees", "2,2",
                    "--side-a", "1", "--param", "independence", "--seed", 1)
    assert result.exit_code == 2
    result = invoke(runner, "interp-verify", "--degrees", "2,2",
                    "--side-a", "1", "--check", "local", "--alpha", 0,
                    "--gamma", 0, "--delta", 1, "--param", "independence",
                    "--seed", 1)
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# limit experiments


def test_psi_point_mass_exact(runner, tmp_path):
    out = tmp_path / "psi.csv"
    result = invoke(runner, "psi", "--param", "independence", "--mu",
                    '{"1": 1.0}', "--n", 100, "--reps", 10, "--seed", 1,
                    "--workers", 1, "--output", out)
    assert result.exit_code == 0
    assert "psi_hat=0.5" in result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "param,mu,n,reps,mean,stderr,seed"
    assert len(lines) == 2


def test_psi_requires_seed(runner):
    result = invoke(runner, "psi", "--param", "independence", "--mu",
                    '{"1": 1.0}', "--n", 10, "--reps", 2)
    assert result.exit_code == 2


def test_cli_outputs_are_reproducible(runner, tmp_path):
    args = ["psi", "--param", "neg-components", "--mu", '{"2": 1.0}',
            "--n", 50, "--reps", 8, "--seed", 13, "--workers", 1]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert invoke(runner, *args, "--output", out1).exit_code == 0
    assert invoke(runner, *args, "--output", out2).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


# sha256 of outputs written by the per-edge-tuple Multigraph that preceded
# the endpoint-array representation; the seeded streams, the canonical edge
# order and the CSV formatting must all stay put for these to match
GOLDEN = {
    "sample-degrees": (
        ["sample", "--degrees", "3,3,2,2", "--seed", 7],
        "1c1e30e1c508b8dceeb1b29efed7526107391d93ad0bbc5650582e20dd1768dc"),
    "sample-mu-200000": (
        ["sample", "--mu", '{"2": 1.0}', "--n", 200000, "--seed", 7],
        "4ac0c4bbe2e99f59c97b7ae08c625082759ee62d89ec4e3a0ff2cd3723a58ab3"),
    "sample-simple": (
        ["sample", "--simple", "--degrees", "2,2,2,2,2,2,1,1", "--seed", 7],
        "1208b371ddc8cb4d944e95743449feeea12fbc0ae3588621dfc8222e219fb164"),
    "psi-readme": (
        ["psi", "--param", "independence", "--mu", '{"2": 1.0}', "--n", 500,
         "--n", 1000, "--n", 2000, "--reps", 50, "--mode", "fixed",
         "--seed", 7, "--workers", 1],
        "c63a7d0e988442e36353587474e27ebd88dc01ba7a961bc31f310c85fc029086"),
    "psi-maxcut-iid": (
        ["psi", "--param", "maxcut", "--mu", '{"1": 0.5, "2": 0.5}',
         "--n", 5000, "--reps", 5, "--mode", "iid", "--seed", 3,
         "--workers", 1],
        "7a671be5339d73325884c12f1fc9e896df744aa6b0c8db2c99e6d485e1159ab8"),
    "psi-components-iid": (
        ["psi", "--param", "neg_components", "--mu", '{"1": 0.5, "3": 0.5}',
         "--n", 3000, "--reps", 4, "--mode", "iid", "--seed", 5,
         "--workers", 1],
        "2a0d74dd15911e62a60d9da6bf3e7a44f1fdb28bd60baa6150547076cf19b5c4"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(runner, tmp_path, name):
    args, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert invoke(runner, *args, "--output", out).exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_worker_count_does_not_change_numbers(runner, tmp_path):
    base = ["psi", "--param", "neg-components", "--mu", '{"2": 1.0}',
            "--n", 40, "--reps", 6, "--seed", 21]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert invoke(runner, *base, "--workers", 1, "--output", out1).exit_code == 0
    assert invoke(runner, *base, "--workers", 2, "--output", out2).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_concavity_command(runner, tmp_path):
    out = tmp_path / "c.csv"
    result = invoke(runner, "concavity", "--param", "neg-components",
                    "--mu", '{"1": 1.0}', "--mu2", '{"3": 1.0}', "--n", 200,
                    "--reps", 10, "--seed", 4, "--workers", 1,
                    "--output", out)
    assert result.exit_code == 0
    assert out.read_text().splitlines()[0] == "check,lhs,rhs,allowance,verdict,seed"


def test_concavity_odd_n_is_usage_error(runner):
    result = invoke(runner, "concavity", "--param", "neg-components",
                    "--mu", '{"1": 1.0}', "--mu2", '{"3": 1.0}', "--n", 99,
                    "--reps", 5, "--seed", 4, "--workers", 1)
    assert result.exit_code == 2


def test_lipschitz_psi_command(runner):
    result = invoke(runner, "lipschitz-psi", "--param", "independence",
                    "--mu", '{"1": 1.0}', "--mu2", '{"2": 1.0}', "--n", 200,
                    "--reps", 10, "--seed", 5, "--workers", 1)
    assert result.exit_code == 0


def test_concentration_command(runner, tmp_path):
    out = tmp_path / "conc.csv"
    result = invoke(runner, "concentration", "--param", "neg-components",
                    "--constant-degree", 3, "--n", 60, "--reps", 200,
                    "--eps", "5,10", "--seed", 6, "--workers", 1,
                    "--output", out)
    assert result.exit_code == 0
    assert out.read_text().splitlines()[0] == "eps,freq,bound,verdict"


def test_compare_command(runner):
    result = invoke(runner, "compare", "--param", "neg-components",
                    "--degrees", "2,2,2,2", "--degrees2", "3,3,1,1",
                    "--reps", 20, "--seed", 7, "--workers", 1)
    assert result.exit_code == 0


def test_walk_command_json(runner, tmp_path):
    out = tmp_path / "walk.json"
    result = invoke(runner, "walk", "--gamma", 100, "--delta", 10,
                    "--runs", 5000, "--seed", 8, "--output", out,
                    "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["tau"] == 80
    assert payload["verdict"] is True
