"""Command-line interface: samplers, evaluators, verifiers, experiments.

Every stochastic command requires an explicit --seed; all randomness is
derived from it through counter-based substreams keyed by command and
replication index, so identical invocations produce byte-identical output
files and the worker count never changes the numbers.

Exit codes: 0 success, 1 verdict failure (an inequality violated beyond its
allowance, or a sampler giving up), 2 usage or input error.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
from operator import attrgetter
from pathlib import Path

import click

from . import interpolation as itp
from . import limits as lim
from . import seeding
from .config_model import (
    Bipartition,
    PairingCounts,
    RejectionLimitError,
    sample_simple,
    sample_uniform_graph,
)
from .degree import DegreeDistribution, HalfEdgeSystem, sample_iid, wasserstein
from .graphs import Multigraph, certify_parameter, parameter_from_name


def _parse_mu(text: str) -> DegreeDistribution:
    try:
        if text.lstrip().startswith("{"):
            return DegreeDistribution.from_json(text)
        return DegreeDistribution.from_json(Path(text).read_text())
    except (ValueError, OSError) as err:
        raise click.UsageError(f"bad degree distribution: {err}")


def _parse_degrees(text: str) -> tuple:
    try:
        degrees = HalfEdgeSystem(map(int, text.replace(",", " ").split())).degrees
    except ValueError as err:
        raise click.UsageError(f"bad degree sequence: {err}")
    if not degrees:
        raise click.UsageError("bad degree sequence: empty degree sequence")
    return degrees


def _parse_vertices(text: str) -> frozenset:
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(p) for p in text.replace(",", " ").split())
    except ValueError as err:
        raise click.UsageError(f"bad vertex list: {err}")


def _columns(*specs) -> list:
    """(CSV header, JSON key, value) per column; a bare name is the record
    attribute of that name, under that name in both formats."""
    return [s if isinstance(s, tuple) else (s, s, attrgetter(s))
            for s in specs]


def _detail(key: str) -> tuple:
    return (key, key, lambda v: v.details[key])


# every command's output columns, as README "Output schemas" documents them;
# a column without a CSV header is JSON-only, one without a JSON key CSV-only
_COLUMNS = {
    # interpolation verdicts: Monte Carlo modes fold their allowance into rhs
    "verifier": _columns("check", "instance", "counts", "lhs",
                         ("rhs", "rhs", lambda v: v.rhs + v.allowance),
                         "slack", "verdict"),
    # concavity, lipschitz-psi and compare verdicts
    "inequality": _columns("check", "lhs", "rhs", "allowance", "verdict",
                           "seed", (None, "details", attrgetter("details"))),
    # one verdict per epsilon
    "concentration": _columns(_detail("eps"),
                              ("freq", "frequency", attrgetter("lhs")),
                              ("bound", "bound", attrgetter("rhs")),
                              (None, "sigma", lambda v: v.details["sigma"]),
                              "verdict"),
    "walk": _columns(*map(_detail, ("gamma", "delta", "tau", "runs")),
                     ("frequency", "frequency", attrgetter("lhs")),
                     ("bound", "bound", attrgetter("rhs")), _detail("sigma"),
                     "verdict"),
    # (estimate, row) pairs, one per size
    "psi": [("param", None, lambda er: er[0].parameter),
            ("mu", None, lambda er: er[0].mu.to_json()),
            *((k, k, lambda er, k=k: getattr(er[1], k))
              for k in ("n", "reps", "mean", "stderr")),
            ("seed", None, lambda er: er[0].seed)],
}


def _write_records(output, fmt: str, kind: str, records, envelope=None):
    """Write records in the columns of ``kind``: CSV with a header line, or
    indented JSON, a list of objects unless ``envelope`` wraps that list."""
    if output is None:
        return
    columns = _COLUMNS[kind]
    if fmt == "json":
        rows = [{key: get(r) for _, key, get in columns if key}
                for r in records]
        payload = rows if envelope is None else envelope(rows)
        Path(output).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in columns if name])
        writer.writerows([get(r) for name, _, get in columns if name]
                         for r in records)


@contextlib.contextmanager
def _streamed_records(output, fmt: str, kind: str):
    """Yield an ``on_record`` callback that writes records as
    :func:`_write_records` would, or None without ``output``.  Each record
    is written as it arrives, so none is kept: a CSV row, or an element of
    the JSON list indented as ``json.dumps(rows, indent=2, sort_keys=True)``
    indents it.  The file is opened at the first record (at the end if none
    came), so an input error raised before any record leaves no file, as
    with :func:`_write_records`."""
    if output is None:
        yield None
        return
    columns = _COLUMNS[kind]
    fh = writer = None
    with contextlib.ExitStack() as files:

        def write(record):
            nonlocal fh, writer
            first = fh is None
            if first:
                fh = files.enter_context(open(output, "w", newline=""))
            if fmt == "json":
                row = {key: get(record) for _, key, get in columns if key}
                text = json.dumps(row, indent=2, sort_keys=True)
                fh.write(("[" if first else ",") + "\n  "
                         + text.replace("\n", "\n  "))
                return
            if first:
                writer = csv.writer(fh)
                writer.writerow([name for name, _, _ in columns if name])
            writer.writerow([get(record) for name, _, get in columns if name])

        yield write
        if fh is None:
            _write_records(output, fmt, kind, [])
        elif fmt == "json":
            fh.write("\n]\n")


def _finish(line: str, slack: float, ok: bool):
    """Print a check command's stdout line with its smallest slack; a failed
    verdict exits 1."""
    click.echo(f"{line} min_slack={slack:.6g}")
    if not ok:
        sys.exit(1)


def _finish_inequality(command: str, output, fmt: str, v):
    _write_records(output, fmt, "inequality", [v])
    _finish(f"{command}: lhs={v.lhs:.6g} rhs={v.rhs:.6g} "
            f"allowance={v.allowance:.3g} verdict={v.verdict}",
            v.slack, v.verdict)


class _Command(click.Command):
    """A ValueError from the library (input the options cannot validate,
    such as --reps 0 or a size beyond an exact solver) is a usage error,
    exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as err:
            raise click.UsageError(str(err), ctx) from err


class _Group(click.Group):
    command_class = _Command


param_option = click.option("--param", required=True,
                            help="independence | maxcut | neg-components | "
                                 "pos-components | ising | potts")
beta_option = click.option("--beta", type=float, default=None,
                           help="interaction strength for ising/potts")
q_option = click.option("--q", type=int, default=None,
                        help="spin states for potts")
seed_option = click.option("--seed", type=int, required=True,
                           help="base seed; mandatory for stochastic commands")
workers_option = click.option("--workers", type=click.IntRange(min=1),
                              default=lambda: os.cpu_count() or 1,
                              help="worker processes (results do not depend on this)")
output_option = click.option("--output", type=click.Path(), default=None,
                             help="write the full report here")
format_option = click.option("--format", "fmt",
                             type=click.Choice(["csv", "json"]), default="csv")


@click.group(cls=_Group)
def main():
    """Prescribed-degree random graphs, graph parameters, and limit checks."""


@main.command()
@click.option("--degrees", default=None, help="comma-separated degree sequence")
@click.option("--mu", "mu_text", default=None, help="degree distribution (JSON or file)")
@click.option("--n", type=int, default=None, help="size when sampling degrees from --mu")
@click.option("--simple", is_flag=True, help="rejection-sample until simple")
@click.option("--max-tries", type=int, default=10_000)
@seed_option
@output_option
def sample(degrees, mu_text, n, simple, max_tries, seed, output):
    """Sample one prescribed-degree multigraph and write it as text."""
    rng = seeding.stream(seed, "sample")
    if degrees is not None:
        d = _parse_degrees(degrees)
    elif mu_text is not None and n is not None:
        d = sample_iid(_parse_mu(mu_text), n, rng)
    else:
        raise click.UsageError("provide --degrees, or --mu with --n")
    try:
        g = sample_simple(d, rng, max_tries) if simple else sample_uniform_graph(d, rng)
    except RejectionLimitError as err:
        click.echo(f"sample: {err}", err=True)
        sys.exit(1)
    text = g.to_text()
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)
    click.echo(f"sample: n={g.n} edges={g.num_edges} seed={seed}", err=True)


@main.command("eval")
@param_option
@beta_option
@q_option
@click.option("--graph", "graph_path", required=True, type=click.Path())
def eval_command(param, beta, q, graph_path):
    """Evaluate a parameter on a graph file (text format: 'n m' then edges)."""
    f = parameter_from_name(param, beta, q)
    try:
        g = Multigraph.from_text(Path(graph_path).read_text())
    except (ValueError, OSError) as err:
        raise click.UsageError(f"bad graph file: {err}")
    value = f.evaluate(g)
    click.echo(f"{value:g}" if isinstance(value, float) else str(value))


@main.command()
@param_option
@beta_option
@q_option
@click.option("--samples", type=click.IntRange(min=1), default=200)
@click.option("--max-n", type=click.IntRange(min=1), default=6)
@click.option("--max-edges", type=click.IntRange(min=0), default=None)
@seed_option
@output_option
def certify(param, beta, q, samples, max_n, max_edges, seed, output):
    """Check additivity, the edge bound, and increment concavity on random
    multigraphs."""
    f = parameter_from_name(param, beta, q)
    rng = seeding.stream(seed, "certify")
    report = certify_parameter(f, samples, max_n, rng, max_edges)
    if output:
        Path(output).write_text(report.to_json() + "\n")
    status = "PASS" if report.all_passed else "FAIL"
    click.echo(f"certify: {f.name} additive={report.additive.passed} "
               f"lipschitz={report.lipschitz.passed} concave={report.concave.passed} "
               f"[{status}]")
    if not report.all_passed:
        sys.exit(1)


@main.command("wasserstein")
@click.option("--mu", "mu_text", required=True)
@click.option("--mu2", "mu2_text", required=True)
def wasserstein_command(mu_text, mu2_text):
    """Transport distance between two degree distributions."""
    dist = wasserstein(_parse_mu(mu_text), _parse_mu(mu2_text))
    click.echo(repr(float(dist)))


@main.command("interp-verify")
@click.option("--sweep", is_flag=True, help="verify every inequality on all small instances")
@click.option("--max-total-degree", type=int, default=8)
@click.option("--max-vertices", type=int, default=4)
@click.option("--param", "params", multiple=True,
              default=("independence", "maxcut", "neg-components"))
@beta_option
@q_option
@click.option("--degrees", default=None, help="single-instance degree sequence")
@click.option("--side-a", default=None, help="comma-separated vertices of side A")
@click.option("--check", "check_name",
              type=click.Choice(["lipschitz", "local", "global", "main"]),
              default=None)
@click.option("--alpha", type=int, default=0)
@click.option("--beta-count", type=int, default=0,
              help="beta coordinate of the count triple")
@click.option("--gamma", type=int, default=0)
@click.option("--alpha2", type=int, default=None)
@click.option("--beta2", type=int, default=None)
@click.option("--gamma2", type=int, default=None)
@click.option("--delta", type=int, default=2)
@click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact")
@click.option("--reps", type=int, default=2000)
@seed_option
@workers_option
@output_option
@format_option
def interp_verify(sweep, max_total_degree, max_vertices, params, beta, q,
                  degrees, side_a, check_name, alpha, beta_count, gamma,
                  alpha2, beta2, gamma2, delta, mode, reps, seed,
                  workers, output, fmt):
    """Verify interpolation inequalities, exhaustively or on one instance."""
    resolved = [parameter_from_name(p, beta, q) for p in params]
    rng = seeding.stream(seed, "interp-verify")

    if sweep:
        # records are built only to be written
        with _streamed_records(output, fmt, "verifier") as on_record:
            summary = itp.run_sweep(resolved, max_total_degree, max_vertices,
                                    on_record=on_record)
        _finish(f"interp-verify: {summary.total_checked} inequalities on "
                f"{summary.instances} instances, "
                f"{len(summary.violations)} violations", summary.min_slack,
                summary.all_hold)
        return

    if degrees is None or side_a is None or check_name is None:
        raise click.UsageError(
            "single-instance mode needs --degrees, --side-a, --check")
    d = _parse_degrees(degrees)
    sys_ = HalfEdgeSystem(d)
    bp = Bipartition.of(sys_.n, _parse_vertices(side_a))
    f = resolved[0]
    counts = PairingCounts(alpha, beta_count, gamma)
    inst = itp.InterpolationInstance(sys_, bp, f)
    if check_name == "lipschitz":
        if alpha2 is None or beta2 is None or gamma2 is None:
            raise click.UsageError(
                "lipschitz needs --alpha2/--beta2/--gamma2")
        v = itp.verify_lipschitz(inst, counts,
                                 PairingCounts(alpha2, beta2, gamma2))
    elif check_name == "local":
        v = itp.verify_local_superadd(inst, counts, delta)
    elif check_name == "global":
        v = itp.verify_global(inst, gamma)
    else:
        v = itp.verify_main(f, d, bp, mode, rng, reps, workers=workers)
    _write_records(output, fmt, "verifier", [v])
    _finish(f"interp-verify: {v.check} lhs={v.lhs:.6g} "
            f"rhs={v.rhs + v.allowance:.6g} verdict={v.verdict}",
            v.slack, v.verdict)


@main.command()
@param_option
@beta_option
@q_option
@click.option("--mu", "mu_text", required=True)
@click.option("--n", "n_list", type=int, multiple=True, required=True)
@click.option("--reps", type=int, default=50)
@click.option("--mode", type=click.Choice(["fixed", "iid"]), default="iid")
@seed_option
@workers_option
@output_option
@format_option
def psi(param, beta, q, mu_text, n_list, reps, mode, seed, workers, output, fmt):
    """Estimate the per-vertex limit of a parameter under a degree law."""
    f = parameter_from_name(param, beta, q)
    mu = _parse_mu(mu_text)
    rng = seeding.stream(seed, "psi")
    est = lim.estimate_psi(f, mu, n_list, reps, rng, mode, workers, seed)
    _write_records(output, fmt, "psi", [(est, r) for r in est.rows],
                   lambda rows: {"param": est.parameter,
                                 "mu": json.loads(est.mu.to_json()),
                                 "mode": est.mode, "seed": est.seed,
                                 "rows": rows, "psi_hat": est.value})
    click.echo(f"psi: {f.name} psi_hat={est.value!r} stderr={est.stderr!r} "
               f"(largest n={est.rows[-1].n}, reps={reps})")


@main.command()
@param_option
@beta_option
@q_option
@click.option("--mu", "mu_text", required=True)
@click.option("--mu2", "mu2_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--reps", type=int, default=50)
@click.option("--mode", type=click.Choice(["fixed", "iid"]), default="iid")
@seed_option
@workers_option
@output_option
@format_option
def concavity(param, beta, q, mu_text, mu2_text, n, reps, mode, seed, workers,
              output, fmt):
    """Check midpoint concavity of the limit in the degree distribution."""
    f = parameter_from_name(param, beta, q)
    rng = seeding.stream(seed, "concavity")
    v = lim.check_midpoint_concavity(f, _parse_mu(mu_text), _parse_mu(mu2_text),
                                     n, reps, rng, mode, workers, seed)
    _finish_inequality("concavity", output, fmt, v)


@main.command("lipschitz-psi")
@param_option
@beta_option
@q_option
@click.option("--mu", "mu_text", required=True)
@click.option("--mu2", "mu2_text", required=True)
@click.option("--n", type=int, required=True)
@click.option("--reps", type=int, default=50)
@seed_option
@workers_option
@output_option
@format_option
def lipschitz_psi(param, beta, q, mu_text, mu2_text, n, reps, seed, workers,
                  output, fmt):
    """Check the transport-Lipschitz bound on limit estimates."""
    f = parameter_from_name(param, beta, q)
    rng = seeding.stream(seed, "lipschitz-psi")
    v = lim.check_lipschitz_psi(f, _parse_mu(mu_text), _parse_mu(mu2_text),
                                n, reps, rng, workers, seed)
    _finish_inequality("lipschitz-psi", output, fmt, v)


@main.command()
@param_option
@beta_option
@q_option
@click.option("--degrees", default=None)
@click.option("--constant-degree", type=int, default=None)
@click.option("--n", type=int, default=None, help="size for --constant-degree")
@click.option("--reps", type=int, default=2000)
@click.option("--eps", default="10,20,40,80", help="comma-separated grid")
@seed_option
@workers_option
@output_option
@format_option
def concentration(param, beta, q, degrees, constant_degree, n, reps, eps,
                  seed, workers, output, fmt):
    """Empirical tails of f(G_d) against the concentration bound."""
    f = parameter_from_name(param, beta, q)
    if degrees is not None:
        d = _parse_degrees(degrees)
    elif constant_degree is not None and n is not None:
        d = (constant_degree,) * n
    else:
        raise click.UsageError(
            "provide --degrees, or --constant-degree with --n")
    try:
        eps_grid = [float(x) for x in eps.replace(",", " ").split()]
    except ValueError as err:
        raise click.UsageError(f"bad eps grid: {err}")
    rng = seeding.stream(seed, "concentration")
    report = lim.check_concentration(f, d, reps, eps_grid, rng, workers, seed)
    _write_records(output, fmt, "concentration", report.rows,
                   lambda rows: {"param": report.parameter,
                                 "reps": report.reps,
                                 "total_degree": report.total_degree,
                                 "seed": report.seed, "rows": rows})
    slack = min(r.slack for r in report.rows)
    _finish(f"concentration: {len(report.rows)} grid points, "
            f"min margin {slack:.4g}, all_hold={report.all_hold}",
            slack, report.all_hold)


@main.command()
@param_option
@beta_option
@q_option
@click.option("--degrees", required=True)
@click.option("--degrees2", required=True)
@click.option("--reps", type=int, default=50)
@seed_option
@workers_option
@output_option
@format_option
def compare(param, beta, q, degrees, degrees2, reps, seed, workers, output, fmt):
    """Compare normalized expectations of two degree sequences against the
    transport bound."""
    f = parameter_from_name(param, beta, q)
    rng = seeding.stream(seed, "compare")
    v = lim.compare_expectations(f, _parse_degrees(degrees),
                                 _parse_degrees(degrees2), reps, rng, workers,
                                 seed)
    _finish_inequality("compare", output, fmt, v)


@main.command()
@click.option("--gamma", type=int, required=True)
@click.option("--delta", type=int, required=True)
@click.option("--runs", type=int, default=100_000)
@seed_option
@output_option
@format_option
def walk(gamma, delta, runs, seed, output, fmt):
    """Corridor-exit frequency of the +-1 walk vs the maximal-inequality
    bound."""
    v = itp.check_corridor_exit(gamma, delta, runs, seeding.stream(seed, "walk"))
    _write_records(output, fmt, "walk", [v], lambda rows: rows[0])
    _finish(f"walk: frequency={v.lhs!r} bound={v.rhs!r} verdict={v.verdict}",
            v.slack, v.verdict)


if __name__ == "__main__":
    main()
