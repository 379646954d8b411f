"""The benchmark's traced run wraps library names; the calls it must see have
to go through those names."""

import importlib.util
from pathlib import Path

import numpy as np

from graphlimits import (
    INDEPENDENCE,
    Bipartition,
    DegreeDistribution,
    interpolation,
    limits,
)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_psi_and_sweep():
    tr = _load_tracer()
    tracer = tr.Tracer("test")
    tr.install(tracer)
    try:
        limits.estimate_psi(INDEPENDENCE, DegreeDistribution({1: 0.5, 2: 0.5}),
                            [50], 3, np.random.default_rng(0), "iid")
        interpolation.run_sweep([INDEPENDENCE], max_total_degree=2,
                                max_vertices=2)
        # the sweep decides its records without the single-record verifiers
        interpolation.verify_main(INDEPENDENCE, (2, 2), Bipartition.of(2, [1]))
    finally:
        tracer.unpatch()
    calls = {name: count for (_, name), count in tracer.calls.items()}
    for name in ("limits.estimate_psi", "degree.sample_iid",
                 "config_model.sample_uniform_graph", "parallel.pmap",
                 "graphs.multigraph", "interpolation.run_sweep",
                 "interpolation.verify"):
        assert calls.get(name, 0) > 0, name
    assert limits.pmap.__module__ == "graphlimits._parallel"
    # the half-edge counter sums the array-held degrees as Python ints
    half_edges = tracer.counts[(-1, "config_model.half_edges")]
    assert type(half_edges) is int and half_edges > 0
