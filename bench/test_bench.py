"""Tests of the benchmark itself: tracing coverage, the predicted split
of work between workloads, the gate's negative controls, seeding, and
the output format.

    python3 -m pytest bench -q
"""
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from refclock import GROUP_S, REFERENCE_S, Clock  # noqa: E402

CHECKOUT = run.Checkout(ROOT)
SEED = 11


@pytest.fixture(scope="module")
def traced():
    """One traced pass of each workload: its tally, per-layer metrics,
    records and wall time."""
    out = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.pass_inputs(
            workload, workloads.generate(workload, SEED), 0)
        t0 = time.perf_counter()
        done = run.run_pass(CHECKOUT, workload, inputs, True, Clock())
        out[workload] = {"tally": done.tally, "records": done.traces,
                         "layer": spans.layer_metrics(done.traces),
                         "seconds": time.perf_counter() - t0}
    return out


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_passes_are_correct(traced):
    for workload, t in traced.items():
        assert t["tally"].attempted > 0, workload
        assert t["tally"].failed == 0, (workload, t["tally"].errors)


def test_every_binding_is_wrapped(traced):
    for workload, t in traced.items():
        for record in t["records"]:
            assert record["unwrapped"] == [], workload


def test_spans_are_called_on_their_predicted_workloads(traced):
    predicted = {**spans.SPANS, **spans.COUNTERS}
    for name, users in predicted.items():
        for workload in users:
            assert traced[workload]["layer"][name + ".calls"] > 0, \
                (name, workload)


def test_algebra_certs_makes_no_eta_or_series_calls(traced):
    layer = traced["algebra-certs"]["layer"]
    idle = [n for n in spans.SPANS if n.split(".")[0] in ("eta", "series")]
    assert idle and all(layer[n + ".calls"] == 0 for n in idle)


def test_eta_sweep_makes_no_scalar_or_matrix_calls(traced):
    layer = traced["eta-sweep"]["layer"]
    idle = [n for n in {**spans.SPANS, **spans.COUNTERS}
            if n.split(".")[0] in ("scalar", "matrix")]
    assert idle and all(layer[n + ".calls"] == 0 for n in idle)
    assert layer["matrix.matmul.products"] == 0


def test_weyl_sum_repeats_only_on_cli_session(traced):
    assert traced["cli-session"]["layer"]["eta.weyl_sum.distinct_frac"] < 1
    assert traced["eta-sweep"]["layer"]["eta.weyl_sum.distinct_frac"] == 1


def test_series_and_eta_do_most_of_eta_sweep(traced):
    t = traced["eta-sweep"]
    busy = sum(v for k, v in t["layer"].items()
               if k.endswith(".self_s") and k.split(".")[0] in ("eta", "series"))
    assert busy > 0.5 * t["seconds"]


def test_clock_scales_each_group_by_the_reference_loops_around_it():
    clock = Clock()
    assert clock.time("a", lambda: 6 * 7) == 42
    assert len(clock.refs) == 1 and clock.timings == {}
    with pytest.raises(ZeroDivisionError):
        clock.time("b", lambda: 1 / 0)
    clock.flush()
    assert len(clock.refs) == 2 and list(clock.timings) == ["a"]
    assert clock.units_s == pytest.approx(
        clock.units_raw * 2 * REFERENCE_S / (clock.refs[0] + clock.refs[1]))
    clock.time("c", lambda: time.sleep(GROUP_S))
    assert len(clock.refs) == 3 and len(clock.timings["c"]) == 1


def test_a_seed_gives_the_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
        assert workloads.generate(workload, 5) != workloads.generate(workload, 6)
    sweep = workloads.generate("eta-sweep", 5)
    for n in range(3):
        calls = workloads.pass_inputs("eta-sweep", sweep, n)["calls"]
        assert len({tuple(c["direction"]) for c in calls}) == len(calls)
        assert {tuple(c["direction"]) for c in calls} == \
            {tuple(d) for d in sweep["directions"]}
    certs = workloads.generate("algebra-certs", 5)
    assert len(certs["octonion_pairs"]) == workloads.OCTONION_PAIRS
    assert all(len(p) == workloads.REP_POOL for p in certs["rep_pools"].values())


def _wrong(**changes):
    return dict(gate.REFERENCES, **changes)


def test_negative_control_cli_session():
    inputs = workloads.pass_inputs(
        "cli-session", workloads.generate("cli-session", SEED), 0)
    tally = run.cli_pass(CHECKOUT, inputs, False, _wrong(ek=F(-27, 1121)),
                         Clock()).tally
    # ek, verify --suite all --json
    assert tally.failed == 2 and tally.failed / tally.attempted > 0


def test_negative_control_eta_sweep():
    inputs = {"calls": [{"twist": 0, "order": 6, "direction": [5, 1]},
                        {"twist": 3, "order": 6, "direction": [7, 2]}]}
    tally, _ = workloads.run_pass("eta-sweep", inputs,
                                  _wrong(local3=F(277961, 281250)))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_negative_control_algebra_certs_under_python_O():
    code = (
        "import sys; from fractions import Fraction as F\n"
        "import gate, workloads\n"
        "refs = dict(gate.REFERENCES, secondary=F(49, 50000))\n"
        "inputs = workloads.generate('algebra-certs', 1)\n"
        "tally, _ = workloads.run_pass('algebra-certs', inputs, refs)\n"
        "print(sys.flags.optimize, tally.attempted, tally.failed)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    optimize, attempted, failed = map(int, out.stdout.split())
    # both d_sign conventions miss the corrupted secondary integral
    assert optimize == 1 and attempted > 2 and failed == 2


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_output_format():
    spec = _benchmark_json()
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run(ROOT, "--workload", "algebra-certs", "--seed", "2",
                   "--seconds", "1", "--trace", trace)
        assert out.returncode == 0, out.stderr
        *_, record, last = out.stdout.strip().splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
        prov = json.loads(record)["record"]["provenance"]
        assert prov["seed"] == 2 and prov["traced"] is (trace == "1")
        assert prov["inputs"] == workloads.generate("algebra-certs", 2)


def test_fails_without_a_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "cli-session", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0 and out.stdout == ""
