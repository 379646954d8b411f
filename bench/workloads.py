"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (``build``), runs one
timed batch of ops (``run``), and judges the batches it ran (``gate``) outside
the timed region.  ``bench/README.md`` says why each workload was chosen.

Modules of graphlimits are reached through their module objects at call
time (``limits.estimate_psi``, not an imported name), so that the traced run
can wrap them.  Nothing heavy is imported at module level: the set-up probe
times the import of graphlimits, numpy included.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path


def _rng(*key):
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class PsiLarge:
    name = "psi-large"
    op = "one replication of psi for independence at n=200000, iid degrees"
    ops_per_batch = 1
    N = 200_000
    PSI_RANGE = (0.49, 0.50)

    def build(self, seed: int) -> dict:
        from graphlimits import INDEPENDENCE, DegreeDistribution
        return {"seed": seed, "params": [(INDEPENDENCE, None)],
                "mu": DegreeDistribution({2: 1.0})}

    def run(self, inputs: dict, i: int):
        from graphlimits import limits
        (param, _), = inputs["params"]
        return limits.estimate_psi(param, inputs["mu"], [self.N], 1,
                                   _rng(inputs["seed"], 0, i), mode="iid",
                                   workers=1)

    def gate(self, inputs: dict, results: list) -> dict:
        import networkx as nx
        from graphlimits import graphs, limits

        lo, hi = self.PSI_RANGE
        bad = {k: f"psi={est.value!r} outside [{lo}, {hi}]"
               for k, (_, est) in enumerate(results)
               if not lo <= est.value <= hi}
        # one graph per run, cross-checked against networkx
        rng = _rng(inputs["seed"], 1)
        g = limits.sample_uniform_graph(
            limits.sample_iid(inputs["mu"], self.N, rng), rng)
        ours = graphs.num_components(g)
        oracle = nx.MultiGraph()
        oracle.add_nodes_from(range(1, g.n + 1))
        oracle.add_edges_from(g.edges)
        theirs = nx.number_connected_components(oracle)
        if ours != theirs:
            bad.update({k: f"num_components={ours} but networkx says {theirs}"
                        for k in range(len(results))})
        return bad

    def probe(self, inputs: dict, tracer):
        """Time the public components pass on the graph the op just built."""
        from graphlimits import graphs
        if tracer.last_graph is not None:
            tracer.call("graphs.num_components", graphs.num_components,
                        tracer.last_graph)
            tracer.last_graph = None


class Sweep:
    name = "sweep"
    op = "one inequality verified by the exhaustive sweep (130920 per batch)"
    INSTANCES = 1294
    CHECKED = {"lipschitz": 114_852, "local": 4_380, "global": 7_806,
               "main": 3_882}
    ops_per_batch = sum(CHECKED.values())
    seeded = False

    def build(self, seed: int) -> dict:
        from graphlimits import INDEPENDENCE, MAX_CUT, NEG_COMPONENTS
        return {"params": [(INDEPENDENCE, None), (MAX_CUT, None),
                           (NEG_COMPONENTS, None)]}

    def run(self, inputs: dict, i: int):
        from graphlimits import interpolation
        return interpolation.run_sweep([p for p, _ in inputs["params"]],
                                       max_total_degree=8, max_vertices=4)

    def gate(self, inputs: dict, results: list) -> dict:
        bad = {}
        for k, (_, s) in enumerate(results):
            if (s.instances != self.INSTANCES or s.checked != self.CHECKED
                    or s.violations):
                bad[k] = (f"{s.instances} instances, checked {s.checked}, "
                          f"{len(s.violations)} violations")
        return bad


class Certify:
    name = "certify"
    op = "one sampled multigraph pair in certify_parameter (1600 per batch)"
    SAMPLES = 200
    NMAX = 6
    MAX_EDGES = 8
    MEMBERS = 7
    ops_per_batch = (MEMBERS + 1) * SAMPLES

    def build(self, seed: int) -> dict:
        from graphlimits import (INDEPENDENCE, MAX_CUT, NEG_COMPONENTS,
                                 POS_COMPONENTS, ising_parameter,
                                 potts_parameter)
        members = [(INDEPENDENCE, None), (MAX_CUT, None),
                   (NEG_COMPONENTS, None), (ising_parameter(0.0), 2),
                   (ising_parameter(0.5), 2), (ising_parameter(2.0), 2),
                   (potts_parameter(3, 1.0), 3)]
        # the last entry is the negative control: additive and Lipschitz,
        # but not concave
        return {"seed": seed, "params": members + [(POS_COMPONENTS, None)]}

    def run(self, inputs: dict, i: int):
        from graphlimits import graphs
        return [graphs.certify_parameter(param, self.SAMPLES, self.NMAX,
                                         _rng(inputs["seed"], i, j),
                                         max_edges=self.MAX_EDGES)
                for j, (param, _) in enumerate(inputs["params"])]

    def gate(self, inputs: dict, results: list) -> dict:
        bad = {}
        for k, (_, reports) in enumerate(results):
            *members, control = reports
            failed = [r.parameter for r in members if not r.all_passed]
            control_ok = (control.additive.passed and control.lipschitz.passed
                          and not control.concave.passed)
            if failed or not control_ok:
                bad[k] = (f"members failing: {failed}; control "
                          f"{'ok' if control_ok else 'did not fail concavity alone'}")
        return bad


class ReadmePsi:
    name = "readme-psi"
    op = "one replication inside the README psi command (150 per invocation)"
    ops_per_batch = 150
    SEED_SLOTS = 4
    PSI_RANGE = (0.49, 0.50)

    def build(self, seed: int) -> dict:
        import numpy as np
        seeds = np.random.SeedSequence(seed).generate_state(self.SEED_SLOTS)
        # "dir" (where the CSVs go) and, when traced, "tracer" are set by
        # the runner
        return {"seeds": [int(s) for s in seeds], "params": []}

    def argv(self, seed: int, output: Path, workers: int | None = None) -> list:
        args = ["psi", "--param", "independence", "--mu", '{"2": 1.0}',
                "--n", "500", "--n", "1000", "--n", "2000", "--reps", "50",
                "--mode", "fixed", "--seed", str(seed), "--output", str(output)]
        if workers is not None:
            args += ["--workers", str(workers)]
        return args

    def invoke(self, args: list):
        from graphlimits import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=args, prog_name="graphlimits",
                          standalone_mode=False)

    def run(self, inputs: dict, i: int):
        slot = i % self.SEED_SLOTS
        out = Path(inputs["dir"]) / f"psi-{slot}.csv"
        args = self.argv(inputs["seeds"][slot], out)
        tracer = inputs.get("tracer")
        if tracer is None:
            self.invoke(args)
        else:
            tracer.call("cli.main", self.invoke, args)
        return out.read_bytes()

    def gate(self, inputs: dict, results: list) -> dict:
        # determinism contract: byte-identical to a one-worker run
        reference = {}
        bad = {}
        lo, hi = self.PSI_RANGE
        for k, (i, csv_bytes) in enumerate(results):
            slot = i % self.SEED_SLOTS
            if slot not in reference:
                out = Path(inputs["dir"]) / f"serial-{slot}.csv"
                self.invoke(self.argv(inputs["seeds"][slot], out, workers=1))
                reference[slot] = out.read_bytes()
            if csv_bytes != reference[slot]:
                bad[k] = "CSV differs from the --workers 1 run"
                continue
            last = csv_bytes.decode().strip().splitlines()[-1].split(",")
            n, psi = int(last[2]), float(last[4])
            if n != 2000 or not lo <= psi <= hi:
                bad[k] = f"psi at n={n} is {psi!r}, outside [{lo}, {hi}]"
        return bad


WORKLOADS = {w.name: w for w in (PsiLarge(), Sweep(), Certify(), ReadmePsi())}
