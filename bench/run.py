"""graphlimits benchmark: one workload per process, measured from outside.

    python3 bench/run.py --workload psi-large --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same batches once untraced and once traced and reports the
per-layer metrics.  Without ``--workload`` every workload runs, each in its
own process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; results, run
metadata and the traced spans are also written under ``.bench_out/``.

Run it from a source checkout: the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
TRACE_UNTRACED_SHARE = 0.25   # of --seconds, spent on the untraced batches

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def _seconds(span):
    return lambda st, b: st.busy[(b, span)]


def _self(span):
    return lambda st, b: st.self_s[(b, span)]


def _calls(span):
    return lambda st, b: st.calls[(b, span)]


def _count(counter):
    return lambda st, b: st.counts[(b, counter)]


def _unique_ratio(st, b):
    calls = st.calls[(b, "graphs.evaluate")]
    return len(st.distinct[b]) / calls if calls else 0.0


# per-layer metric -> (unit, value for one traced batch); timings are
# reported as the median over traced batches, counts from the first one
PER_LAYER = {
    "degree.sample_iid.s": ("s", _seconds("degree.sample_iid")),
    "config_model.sample_uniform_graph.self_s":
        ("s", _self("config_model.sample_uniform_graph")),
    "config_model.half_edges": ("count", _count("config_model.half_edges")),
    "graphs.multigraph.s": ("s", _seconds("graphs.multigraph")),
    "graphs.evaluate.s": ("s", _seconds("graphs.evaluate")),
    "graphs.evaluate.calls": ("count", _calls("graphs.evaluate")),
    "graphs.evaluate.unique_ratio": ("ratio", _unique_ratio),
    "graphs.num_components.s": ("s", _seconds("graphs.num_components")),
    "limits.estimate_psi.self_s": ("s", _self("limits.estimate_psi")),
    "config_model.enumerate_matchings.s":
        ("s", _seconds("config_model.enumerate_matchings")),
    "config_model.matchings": ("count", _count("config_model.matchings")),
    "config_model.graph_of_matching.s":
        ("s", _seconds("config_model.graph_of_matching")),
    "config_model.counts_of_matching.s":
        ("s", _seconds("config_model.counts_of_matching")),
    "config_model.counts_of_matching.calls":
        ("count", _calls("config_model.counts_of_matching")),
    "config_model.enumerate_maximal_matchings.s":
        ("s", _seconds("config_model.enumerate_maximal_matchings")),
    "interpolation.verify.s": ("s", _seconds("interpolation.verify")),
    "interpolation.verify.calls": ("count", _calls("interpolation.verify")),
    "interpolation.run_sweep.self_s": ("s", _self("interpolation.run_sweep")),
    "graphs.certify_parameter.self_s": ("s", _self("graphs.certify_parameter")),
    "graphs.random_multigraph.s": ("s", _seconds("graphs.random_multigraph")),
    "graphs.increment_matrix.s": ("s", _seconds("graphs.increment_matrix")),
    "graphs.is_cnd.s": ("s", _seconds("graphs.is_cnd")),
    "graphs.spin_states": ("count", _count("graphs.spin_states")),
    "parallel.pmap.s": ("s", _seconds("parallel.pmap")),
    "parallel.pmap.calls": ("count", _calls("parallel.pmap")),
    "parallel.serial_s": ("s", None),
    "parallel.speedup": ("ratio", None),
    "cli.self_s": ("s", _self("cli.main")),
    "trace.overhead_s": ("s", None),
    "trace.coverage": ("ratio", None),
}


# ---------------------------------------------------------------------------
# run metadata (reported beside the metrics, never as one)


def _git_commit():
    # the ceiling keeps git from reporting a repository that merely
    # contains a checkout without one
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cli_workers():
    """The ``--workers`` that the README ``psi`` command resolves to."""
    from graphlimits import cli
    option, = (p for p in cli.psi.params if p.name == "workers")
    return option.default() if callable(option.default) else option.default


def metadata() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "readme_psi_workers": _cli_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(workload: str, seed: int):
    """Body of one set-up probe process: import the library, build inputs."""
    start = perf_counter()
    import graphlimits  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.WORKLOADS[workload].build(seed)
    print(repr(perf_counter() - start))


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process.

    The probe runs with one OpenBLAS thread.  Otherwise ``import numpy``
    starts a BLAS thread on each other CPU, and on a shared virtual machine
    the cost of waking that CPU drifts with the host's load for minutes at a
    time (0.13 s against 0.22 s of set-up on a 2-vCPU VM), which no change
    to graphlimits can move.  Set-up never calls BLAS."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    return float(done.stdout.strip().splitlines()[-1])


def run_batch(w, inputs, i, results, errors) -> float:
    """Wall seconds of batch ``i``; its output goes to ``results`` as
    ``(i, output)``, or its traceback to ``errors`` if it raised."""
    start = perf_counter()
    try:
        results.append((i, w.run(inputs, i)))
    except Exception:
        errors.append(traceback.format_exc(limit=4))
        return float("nan")
    return perf_counter() - start


def batches_for(w, inputs, seconds, results, errors, after_batch=None) -> list:
    """Run batches 0, 1, ... while the next one is expected to end within
    ``seconds``; at least one.  ``after_batch(elapsed)``, if given, runs
    after each batch, and its own time does not count against ``seconds``.
    Returns each batch's wall time."""
    walls = []
    begin = perf_counter()
    while True:
        walls.append(run_batch(w, inputs, len(walls), results, errors))
        if after_batch is not None:
            paused = perf_counter()
            after_batch(paused - begin)
            begin += perf_counter() - paused
        typical = statistics.median(t for t in walls if t == t) if results else 0
        if perf_counter() - begin + typical > seconds:
            return walls


def judge(w, inputs, results) -> list:
    """Reasons why the gate rejects batches in ``results``, one per batch."""
    try:
        return list(w.gate(inputs, results).values())
    except Exception:
        return ["gate raised:\n" + traceback.format_exc(limit=4)] * len(results)


def end_to_end(w, inputs, seed, seconds) -> tuple:
    # set-up probes run between batches, spread over the run, so that they
    # see the same phases of the host's speed as ops_per_s; a first,
    # untimed probe warms the file cache and, unless bytecode writing is
    # off, writes the bytecode caches a fresh checkout lacks
    probe_setup(w.name, seed)
    setup = []

    def probe_due(elapsed):
        while (len(setup) < SETUP_PROBES
               and len(setup) * seconds <= elapsed * SETUP_PROBES):
            setup.append(probe_setup(w.name, seed))

    results, errors = [], []
    walls = batches_for(w, inputs, seconds, results, errors, probe_due)
    probe_due(float("inf"))
    setup_s = statistics.median(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = judge(w, inputs, results)
    # total ops over total seconds: certify's batches differ in work with
    # their random inputs, and this weighs every sampled graph equally
    good = [t for t in walls if t == t]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(good) * w.ops_per_batch / sum(good) if good else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"batch_seconds": walls, "setup_seconds": setup,
              "batches": len(results) + len(errors),
              "failed_batches": len(errors) + len(bad)}
    return metrics, errors + bad, detail


def traced(w, inputs, seed, seconds) -> tuple:
    from graphlimits import limits

    import tracer as tr

    results, errors = [], []
    # an untimed first batch keeps first-touch costs (heap growth, lazy
    # imports) out of the traced-minus-untraced overhead
    run_batch(w, inputs, 0, results, errors)
    untraced = batches_for(w, inputs, seconds * TRACE_UNTRACED_SHARE,
                           results, errors)
    k = len(untraced)
    tracer = tr.Tracer(f"{w.name}/seed={seed}/pid={os.getpid()}")
    inputs = dict(inputs, tracer=tracer,
                  params=[(tracer.parameter(p, q), q)
                          for p, q in inputs["params"]])
    pmap = limits.pmap
    tr.install(tracer)
    walls, covered, serial, replay_same = [], [], [], True
    try:
        # batches 0..k-1 repeat the untraced ones; batch k repeats batch 0
        # to check that the counts are a function of the inputs
        for b in range(k + 1):
            tracer.batch = b
            walls.append(run_batch(w, inputs, b % k, results, errors))
            covered.append(tracer.root_s[b])
            probe = getattr(w, "probe", None)
            if probe is not None:
                probe(inputs, tracer)
            tracer.enabled = False
            seconds_serial, same = tr.replay_serial(tracer, b, pmap)
            tracer.enabled = True
            serial.append(seconds_serial)
            replay_same = replay_same and same
    finally:
        tracer.unpatch()
    OUT.mkdir(exist_ok=True)
    # one file per workload, overwritten: a sweep trace is tens of MB
    tracer.write(OUT / f"{w.name}.spans.npz")

    bad = judge(w, inputs, results)
    failures = errors + bad
    metrics = {}
    for name, (unit, value) in PER_LAYER.items():
        if value is None:
            continue
        per_batch = [value(tracer, b) for b in range(k + 1)]
        metrics[name] = (per_batch[0] if unit == "count"
                         else statistics.median(per_batch))
    metrics["parallel.serial_s"] = statistics.median(serial)
    pmap_s = metrics["parallel.pmap.s"]
    metrics["parallel.speedup"] = (metrics["parallel.serial_s"] / pmap_s
                                   if pmap_s else 0.0)
    metrics["trace.overhead_s"] = statistics.median(
        walls[b] - untraced[b] for b in range(k))
    metrics["trace.coverage"] = sum(covered) / sum(walls)
    metrics = {name: metrics[name] for name in PER_LAYER}

    def signature(b):
        return ({name: n for (bb, name), n in tracer.calls.items() if bb == b},
                {name: n for (bb, name), n in tracer.counts.items() if bb == b},
                len(tracer.distinct[b]))

    if signature(0) != signature(k):
        failures.append("counts differ between two traced runs of batch 0")
    if not replay_same:
        failures.append("pmap at workers=1 returned different values")
    detail = {"untraced_seconds": untraced, "traced_seconds": walls,
              "serial_seconds": serial, "spans": tracer.spans,
              "batches": len(results) + len(errors),
              "failed_batches": len(errors) + len(bad)}
    return metrics, failures, detail


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import graphlimits
    if not Path(graphlimits.__file__).resolve().is_relative_to(SRC):
        print(f"graphlimits imported from {graphlimits.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS[args.workload]
    inputs = w.build(args.seed)
    OUT.mkdir(exist_ok=True)
    inputs["dir"] = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        measure = traced if args.trace else end_to_end
        metrics, failures, detail = measure(w, inputs, args.seed, args.seconds)
    finally:
        shutil.rmtree(inputs["dir"], ignore_errors=True)

    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    units.update(END_TO_END)
    attempted = detail["batches"] * w.ops_per_batch
    failed = detail["failed_batches"] * w.ops_per_batch
    meta = metadata()
    print(f"workload {w.name}: op = {w.op}")
    if not getattr(w, "seeded", True):
        print(f"seed {args.seed} ignored: this workload is deterministic")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:45s} {value!r} {units[name]}")
    print(f"  {'failed_frac':45s} {failed / attempted!r} ratio "
          f"({failed} of {attempted} ops)")
    for reason in failures:
        print("FAILED: " + reason, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, workload=w.name, seed=args.seed,
                        seconds=args.seconds, meta=meta, detail=detail,
                        failures=failures), indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args, names) -> int:
    """Every workload in its own process; a table, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result line, exit code {done.returncode}",
                  file=sys.stderr)
            summary["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="batch time per run (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "graphlimits" / "__init__.py").is_file():
        print(f"no graphlimits source under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    names = list(workloads.WORKLOADS)
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
