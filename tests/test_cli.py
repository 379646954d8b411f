import hashlib
import json

import pytest
from click.testing import CliRunner

from graphlimits import interpolation
from graphlimits.cli import main
from graphlimits.graphs import Multigraph
from graphlimits.interpolation import penalty

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


@pytest.mark.parametrize("args", [
    ["sample", "--degrees", ""],
    ["sample", "--degrees", ","],
    ["compare", "--param", "independence", "--degrees", "",
     "--degrees2", ""],
], ids=["sample-blank", "sample-comma", "compare-blank"])
def test_empty_degrees_option_is_usage_error(runner, args):
    result = invoke(runner, *args, "--seed", 1)
    assert result.exit_code == 2
    assert "empty degree sequence" in result.output


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


@pytest.mark.parametrize("option,value", [
    ("--samples", 0), ("--samples", -3), ("--max-n", 0), ("--max-edges", -1),
])
def test_certify_empty_sample_range_is_usage_error(runner, option, value):
    # nothing would be checked: no PASS, and no numpy error either
    result = invoke(runner, "certify", "--param", "maxcut", "--seed", 1,
                    option, value)
    assert result.exit_code == 2
    assert option in result.output
    assert "PASS" not in result.output


def test_certify_without_edges_checks_edgeless_graphs(runner):
    result = invoke(runner, "certify", "--param", "maxcut", "--samples", 5,
                    "--max-edges", 0, "--seed", 1)
    assert result.exit_code == 0
    assert "[PASS]" in result.output


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


@pytest.mark.parametrize("params", [(), ("--param", "ising", "--beta", 0.5)])
def test_interp_verify_sweep_stdout_needs_no_records(runner, tmp_path, params):
    # without --output no record is built; the line, min_slack included,
    # must not change
    args = ["interp-verify", "--sweep", "--max-total-degree", 5,
            "--max-vertices", 3, *params, "--seed", 7]
    written = invoke(runner, *args, "--output", tmp_path / "sweep.csv")
    plain = invoke(runner, *args)
    assert plain.exit_code == written.exit_code == 0
    assert plain.output == written.output
    assert "min_slack=" in plain.output


def test_interp_verify_sweep_streams_csv_rows(runner, tmp_path, monkeypatch):
    # each CSV row is written as the sweep delivers its record: by the last
    # record most of the file is on disk, though run_sweep has not returned
    out = tmp_path / "sweep.csv"
    on_disk = []
    real = interpolation.run_sweep

    def spy(*args, on_record, **kwargs):
        def record(v):
            on_record(v)
            on_disk.append(out.stat().st_size if out.exists() else 0)
        return real(*args, on_record=record, **kwargs)

    monkeypatch.setattr(interpolation, "run_sweep", spy)
    result = invoke(runner, "interp-verify", "--sweep",
                    "--max-total-degree", 6, "--max-vertices", 3,
                    "--param", "independence", "--seed", 7, "--output", out)
    assert result.exit_code == 0
    size = out.stat().st_size
    assert len(on_disk) > 1000 and on_disk[-1] > size // 2


def test_interp_verify_sweep_streams_json_rows(runner, tmp_path, monkeypatch):
    # each JSON list element is written as the sweep delivers its record,
    # and the file renders the list as json.dumps(indent=2) does
    out = tmp_path / "sweep.json"
    on_disk = []
    real = interpolation.run_sweep

    def spy(*args, on_record, **kwargs):
        def record(v):
            on_record(v)
            on_disk.append(out.stat().st_size if out.exists() else 0)
        return real(*args, on_record=record, **kwargs)

    monkeypatch.setattr(interpolation, "run_sweep", spy)
    result = invoke(runner, "interp-verify", "--sweep",
                    "--max-total-degree", 6, "--max-vertices", 3,
                    "--param", "independence", "--seed", 7, "--output", out,
                    "--format", "json")
    assert result.exit_code == 0
    text = out.read_text()
    rows = json.loads(text)
    assert len(rows) == len(on_disk) > 1000
    assert text == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    assert on_disk[-1] > len(text) // 2


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_records_match_the_buffered_writer(tmp_path, fmt, count):
    # nested details, floats, None and strings with quotes and newlines
    from graphlimits.cli import _streamed_records, _write_records
    from graphlimits.limits import Verdict
    records = [Verdict.of(f'check "{k}"\nnext', 0.1 * k, 1 / 3, 0.0, seed=k,
                          sizes=[k, k + 1], inner={"eps": 1e-300, "none": None})
               for k in range(count)]
    streamed, buffered = tmp_path / "streamed", tmp_path / "buffered"
    with _streamed_records(streamed, fmt, "inequality") as on_record:
        for r in records:
            on_record(r)
    _write_records(buffered, fmt, "inequality", records)
    assert streamed.read_bytes() == buffered.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_interp_verify_sweep_input_error_writes_no_file(runner, tmp_path, fmt):
    out = tmp_path / f"sweep.{fmt}"
    result = invoke(runner, "interp-verify", "--sweep", "--max-vertices", 0,
                    "--seed", 7, "--output", out, "--format", fmt)
    assert result.exit_code == 2
    assert not out.exists()


def test_interp_verify_hidden_phi_factor_forces_failure(runner, monkeypatch):
    monkeypatch.setattr(interpolation, "PENALTY_FACTOR", 0.01)
    result = invoke(runner, "interp-verify", "--sweep",
                    "--max-total-degree", 2, "--max-vertices", 2,
                    "--param", "independence", "--seed", 7)
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


def _min_slack(output):
    return float(output.strip().rsplit("min_slack=", 1)[1])


def test_check_commands_report_their_smallest_slack(runner, monkeypatch):
    result = invoke(runner, "interp-verify", "--degrees", "2,2",
                    "--side-a", "1", "--check", "global", "--gamma", 2,
                    "--param", "independence", "--seed", 1)
    assert result.exit_code == 0
    # exact check: slack = rhs - lhs, with lhs = 0 here
    assert _min_slack(result.output) == pytest.approx(1 + penalty(2, 1.0),
                                                      rel=1e-5)
    monkeypatch.setattr(interpolation, "PENALTY_FACTOR", 0.01)
    result = invoke(runner, "interp-verify", "--sweep",
                    "--max-total-degree", 2, "--max-vertices", 2,
                    "--param", "independence", "--seed", 7)
    assert result.exit_code == 1
    assert _min_slack(result.output) < 0


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
# the endpoint-array representation, (interp-verify sweep) by the class means
# over full matching lists that preceded the weighted multigraph means, and
# (the rest) by the per-family report records that preceded the one verdict
# record and output writer; the seeded streams, the canonical edge order, the
# exact means and the CSV/JSON formatting must all stay put for these to match
GOLDEN = {
    "interp-verify-sweep": (
        ["interp-verify", "--sweep", "--max-total-degree", 8, "--param",
         "independence", "--seed", 7],
        "477c72d7c9a15b2a89ca640f86447276d03e43156f82b2fb478ec1be1b3458a7"),
    "interp-verify-sweep-json": (
        ["interp-verify", "--sweep", "--max-total-degree", 8, "--param",
         "independence", "--seed", 7, "--format", "json"],
        "e4e1d80bc44d9cc7b41b3dcb950d7115645f4876f150ee3ecec4bf3e6c3696c3"),
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
    "psi-json": (
        ["psi", "--param", "independence", "--mu", '{"2": 1.0}', "--n", 200,
         "--n", 400, "--reps", 10, "--mode", "fixed", "--seed", 7,
         "--workers", 1, "--format", "json"],
        "1818cddca0d0fefeb5fe52e68a7065b6c4be190613010b57cfba0a9bcc847869"),
    "certify": (
        ["certify", "--param", "ising", "--beta", 0.5, "--samples", 40,
         "--max-n", 5, "--seed", 3],
        "801cb3cb6e9093886f0e9b4698fdbd7007ec7dfdbc9fe42b9b701dcfe613f60d"),
}


def _golden_csv_and_json(name, args, csv_digest, json_digest):
    GOLDEN[name] = (args, csv_digest)
    GOLDEN[f"{name}-json"] = (args + ["--format", "json"], json_digest)


# every check command and every single-instance check, as CSV and as JSON;
# the Monte Carlo main check must give the same bytes for 1 and 2 workers,
# and the empty side A still draws its own substream root
_MAIN_MC = ["interp-verify", "--degrees", "2,2,1,1", "--check", "main",
            "--mode", "mc", "--param", "maxcut", "--seed", 3]
for _name, _args, _csv, _json in [
    ("concavity",
     ["concavity", "--param", "neg-components", "--mu", '{"1": 1.0}',
      "--mu2", '{"3": 1.0}', "--n", 200, "--reps", 10, "--seed", 4,
      "--workers", 1],
     "5108c796d1b3d669fcd531a9275772211f77c4bb8d95c698052d1d87566d24f6",
     "6ebbc72bf1b04d34e833f3b7fad26ccd5533cd286850ec6dab42ec0b4fa72281"),
    ("lipschitz-psi",
     ["lipschitz-psi", "--param", "independence", "--mu", '{"1": 1.0}',
      "--mu2", '{"2": 1.0}', "--n", 200, "--reps", 10, "--seed", 5,
      "--workers", 1],
     "6e299aa4593df7697e31641a6f9c2b248b42f9856ae7bbe08e854ce1b5487d21",
     "3295d13dc1a6cbe13fa0a97d7b4885837bff6ef3d8239be9a3139583c0c72e53"),
    ("compare",
     ["compare", "--param", "neg-components", "--degrees", "2,2,2,2",
      "--degrees2", "3,3,1,1", "--reps", 20, "--seed", 7, "--workers", 1],
     "9a7106292b6f82c9e525d3bcfb75939c3b42b192ad8dad01723261cb9b2bbb16",
     "d83e71d1826c60df9bcb4c08032ec61186d5136ae0955a28ff145927932592a6"),
    ("walk",
     ["walk", "--gamma", 100, "--delta", 10, "--runs", 5000, "--seed", 8],
     "06adb41f669bd23dbab82b82385f228f518ab940eca4ab03dd92459eea1c5e35",
     "389da6171d7aa121b8db804ae01751e977c0cade6e3976d49e38c44aaf7c4d78"),
    ("concentration-eps0",
     ["concentration", "--param", "neg-components", "--constant-degree", 3,
      "--n", 60, "--reps", 200, "--eps", "0,5,10", "--seed", 6,
      "--workers", 1],
     "17ba28a9df48345d021b27bac2c46ad128bfbc5a5a858138cabfe254ad650bf4",
     "f85ee7334b8a54eeab7a5dd4e6ad4fb9727fa1c9ff89275c7c97f40352cae4ea"),
    ("interp-verify-lipschitz",
     ["interp-verify", "--degrees", "2,2,1,1", "--side-a", "1,2", "--check",
      "lipschitz", "--alpha", 1, "--beta-count", 0, "--gamma", 1,
      "--alpha2", 0, "--beta2", 0, "--gamma2", 2, "--param", "ising",
      "--beta", 0.5, "--seed", 1, "--workers", 1],
     "027b785e33e530e88d2c25f19e4460b60ed6e88175abdb10a5e25071b474f2a4",
     "546b18e6361392880d6b2657b683a4f3ab37a0a90440cc60d79956aea7e444d5"),
    ("interp-verify-local",
     ["interp-verify", "--degrees", "2,2,2,2", "--side-a", "1,2", "--check",
      "local", "--delta", 2, "--param", "maxcut", "--seed", 1, "--workers", 1],
     "48dbdfdac1af482650149066e82783342252d58006fcea0af8e7686d886576bb",
     "9594e9ac3b2d956777022cb08655949ee02611fd8b0e4de0256e1acb9c60578e"),
    ("interp-verify-global",
     ["interp-verify", "--degrees", "2,2", "--side-a", "1", "--check",
      "global", "--gamma", 2, "--param", "independence", "--seed", 1,
      "--workers", 1],
     "970f59cc2350aaf05ae21b1d7f07100f02171c565e37d307b9e9b8082198275c",
     "de198864a5b1a01741fc662bf6035811149ec427b44ff81fc2e3918cf44d7dbf"),
    ("interp-verify-main-exact",
     ["interp-verify", "--degrees", "2,2,1,1", "--side-a", "1,2", "--check",
      "main", "--mode", "exact", "--param", "maxcut", "--seed", 1,
      "--workers", 1],
     "ced83e5272434d2c62ef8c4df0b000a074586cc3fffd534e22a86ac2ffdd1485",
     "ab315105dcc8e3e7d2f6c0ed78b86b3bc20e3c387f39ee0ac17db48ed1a3f7f3"),
    ("interp-verify-main-mc-w1",
     _MAIN_MC + ["--side-a", "1,2", "--reps", 200, "--workers", 1],
     "55b98408f8ef7505d98dc61dcdb4dc60ecb95b28640f8f9bb2440314ecc5a3db",
     "6d7168159b60fa3638b7ea8e8a8f4cd87c0a284fc81ccef05734674390d62db6"),
    ("interp-verify-main-mc-w2",
     _MAIN_MC + ["--side-a", "1,2", "--reps", 200, "--workers", 2],
     "55b98408f8ef7505d98dc61dcdb4dc60ecb95b28640f8f9bb2440314ecc5a3db",
     "6d7168159b60fa3638b7ea8e8a8f4cd87c0a284fc81ccef05734674390d62db6"),
    ("interp-verify-main-mc-empty-a",
     _MAIN_MC + ["--side-a", "", "--reps", 50, "--workers", 1],
     "29dd0649550cf1b5c05724630d34511925d90f8d3e7dd66384ffb823f113ffab",
     "0020fce88d094f4c114fe4decd28eace312306074bbd3d638c1e15849584a7e6"),
    # float means: every bipartition and split decided on its own
    ("interp-verify-sweep-ising",
     ["interp-verify", "--sweep", "--max-total-degree", 7, "--param", "ising",
      "--beta", 0.5, "--seed", 1],
     "898d434edc9ed0fb57b76ddc2e366ce4b981590e73ede3b37dc9dfa81b143cf7",
     "555f70f28baa32039e5219ccfbc9e88bd1059fa51f3cdb9f7733df70aa1d7178"),
]:
    _golden_csv_and_json(_name, _args, _csv, _json)


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


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_usage_error(runner, workers):
    result = invoke(runner, "psi", "--param", "independence", "--mu",
                    '{"2": 1.0}', "--n", 50, "--reps", 4, "--seed", 1,
                    "--workers", workers)
    assert result.exit_code == 2
    assert "--workers" in result.output


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


@pytest.mark.parametrize("args", [
    ["psi", "--param", "independence", "--mu", '{"1": 1.0}', "--n", 10,
     "--reps", 0],
    ["lipschitz-psi", "--param", "independence", "--mu", '{"1": 1.0}',
     "--mu2", '{"2": 1.0}', "--n", 20, "--reps", 0],
    ["concentration", "--param", "neg-components", "--constant-degree", 3,
     "--n", 60, "--reps", 0],
    ["concentration", "--param", "neg-components", "--constant-degree", 3,
     "--n", 60, "--reps", 5, "--eps", ","],
    # the exact independence solver refuses degree-3 graphs this large
    ["psi", "--param", "independence", "--mu", '{"3": 1.0}', "--n", 50,
     "--reps", 2],
    # a sweep over no degree function would check nothing
    ["interp-verify", "--sweep", "--max-vertices", 0],
], ids=["psi-reps-0", "lipschitz-psi-reps-0", "concentration-reps-0",
        "concentration-empty-eps", "psi-solver-limit",
        "interp-verify-sweep-no-vertices"])
def test_library_input_errors_are_usage_errors(runner, args):
    result = invoke(runner, *args, "--seed", 1, "--workers", 1)
    assert result.exit_code == 2
    assert "Error:" in result.output
