"""Self-test of the benchmark: repeatable counts, repeatable excess ratio, a
complete per-layer time breakdown, and metrics as BENCHMARK.json declares.

    python3 -m pytest -q bench/tests

Each test runs `bench/run.py` in a subprocess, as the benchmark is run.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402

WORKLOAD = "linf-shared-reparam"    # every layer does work on it
SEED = 3
COUNTS = ("seminorm.ellipse_calls", "seminorm.gauge_points", "field.ellipse_fields",
          "field.distinct_cell_share", "beltrami.solver_iterations",
          "beltrami.newton_nodes", "reparam.delta_tries",
          "reparam.threshold_tries", "reparam.eta_tries")


def bench(trace, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_pair():
    return bench(1), bench(1)


def test_traced_counts_repeat(traced_pair):
    first, second = traced_pair
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["seminorm.ellipse_calls"] > 0
    assert first["seminorm.gauge_points"] > 0


def test_self_times_sum_to_traced_map_time(traced_pair):
    for metrics in traced_pair:
        layers = sum(metrics[name] for name in spans.TIME_METRICS)
        assert layers == pytest.approx(metrics["trace.map_s"], rel=1e-9)
        assert all(metrics[name] >= 0 for name in spans.TIME_METRICS)


def test_excess_ratio_repeats():
    assert bench(0)["excess_ratio.max"] == bench(0)["excess_ratio.max"]


def test_self_times_subtract_children():
    recs = [["map", 0.0, 10.0, -1, 0, None], ["a", 1.0, 4.0, 0, 0, None],
            ["b", 2.0, 3.0, 1, 0, None], ["c", 5.0, 9.0, 0, 0, None]]
    assert spans.self_times(recs, 0, 4) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_tracer_restores_the_library():
    from qcreparam import reparam
    from qcreparam.field import SampledMap
    from qcreparam.seminorm import SemiNorm2

    before = (reparam.solve_beltrami, SampledMap.__dict__["load"], SemiNorm2.__call__)
    with spans.Tracer():
        assert reparam.solve_beltrami is not before[0]
    assert (reparam.solve_beltrami, SampledMap.__dict__["load"],
            SemiNorm2.__call__) == before


def test_report_parser_reads_slacks_and_status():
    text = ("epsilon = 0.5\n[measurements]\nenergy_after = 3\narea_before = 2.75\n"
            "headline : lhs = 3 ; rhs = 3.5 ; slack = 0.5\nstatus = ok\n")
    values, slacks, status = run.parse_report(text)
    assert status == "ok" and slacks == {"headline": 0.5}
    assert values["energy_after"] == 3.0 and values["epsilon"] == 0.5
