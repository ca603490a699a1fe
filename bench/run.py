"""Benchmark of the berger pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: it runs the program in ``src`` of
the current directory, cold, the way a user does, and exits with code 1
without a result when there is no program there.  It makes the inputs
of the workload from ``--seed``, runs checked passes one after another
for about ``--seconds`` seconds, each in fresh interpreters, and prints
one JSON record with the run's provenance and the detail of every timed
call, then, as the last line, the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones.  README.md in this directory explains the workloads
and every metric.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import spans
import workloads
from refclock import REFERENCE_S, Clock, at_reference_speed
from worker import TRACE_MARK

HERE = Path(__file__).resolve().parent
PYTHON = sys.executable
#: what the ``berger`` console script runs
ENTRY = "import sys; from berger.cli import main; sys.exit(main())"
#: a cold process that stops right after ``import berger``: the set-up probe
SETUP_PROBE = "import berger"
#: set-up probes made before the first pass; one more precedes every pass
EXTRA_PROBES = 4
#: no single process of a pass may run longer than this
CALL_TIMEOUT_S = 150

#: the cli-session commands: (name, arguments, output check)
CLI_COMMANDS = (
    ("ek", ["ek"], gate.check_ek_text),
    ("ek --orientation reversed --json",
     ["ek", "--orientation", "reversed", "--json"],
     gate.check_ek_reversed_json),
    ("verify --suite fast", ["verify", "--suite", "fast"],
     gate.check_verify_fast_text),
    ("verify --suite all --json", ["verify", "--suite", "all", "--json"],
     gate.check_verify_all_json),
    ("eta --term dirac", ["eta", "--term", "dirac", "--direction", None],
     gate.check_eta_dirac_text),
)

#: timed calls pooled into ``key_call_s``: the time to each workload's
#: headline value
KEY_CALLS = {
    "cli-session": ("ek", "ek --orientation reversed --json"),
    "eta-sweep": ("local_term.order%d" % max(workloads.ETA_LADDER),),
    "algebra-certs": ("minimal_polynomial_check",
                      "commutes_with_lifted_isotropy"),
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("key_call_s", "s"),
              ("peak_rss_mb", "MB"))


class Checkout:
    """The program under test: ``src`` of the current directory."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def spawn(self, argv, stdin_text=None) -> tuple:
        """Run one process to its end; its result and wall time."""
        t0 = time.perf_counter()
        proc = subprocess.run(argv, input=stdin_text, capture_output=True,
                              text=True, env=self.env, cwd=self.root,
                              timeout=CALL_TIMEOUT_S)
        return proc, time.perf_counter() - t0

    def setup_probe(self) -> float:
        """Reference-speed seconds of a cold ``import berger``."""
        clock = Clock()
        proc, _ = clock.time("setup", lambda: self.spawn(
            [PYTHON, "-c", SETUP_PROBE]))
        clock.flush()
        if proc.returncode != 0:
            raise RuntimeError("import berger failed: %s" % proc.stderr[-500:])
        return clock.timings["setup"][0]


def _tail(text: str) -> str:
    return " | ".join(text.strip().splitlines()[-3:])


@dataclass
class Pass:
    """One checked pass: its tally, the reference-speed time of every
    call in it, the trace records of its processes, the wall time of
    every reference loop run during it (the last one after its end),
    and the raw and reference-speed time of the units timed between
    those loops."""
    tally: gate.Tally = field(default_factory=gate.Tally)
    timings: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    units_raw: float = 0.0
    units_s: float = 0.0


def cli_pass(checkout: Checkout, inputs: dict, traced: bool, refs: dict,
             clock: Clock) -> Pass:
    """The five cold commands, each checked before the next starts;
    ``clock`` has run one reference loop, just before the pass."""
    tally, traces = gate.Tally(), []
    direction = "%d,%d" % tuple(inputs["direction"])
    for name, args, check in CLI_COMMANDS:
        args = [direction if a is None else a for a in args]
        argv = ([PYTHON, str(HERE / "worker.py"), "cli"] if traced
                else [PYTHON, "-c", ENTRY]) + args
        try:
            proc, _ = clock.time(name, lambda: checkout.spawn(argv))
        except subprocess.TimeoutExpired:
            tally.record(name, False, "timed out")
            continue
        stderr = proc.stderr
        lines = stderr.splitlines()
        if traced and lines and lines[-1].startswith(TRACE_MARK):
            traces.append(json.loads(lines[-1][len(TRACE_MARK):]))
            stderr = "\n".join(lines[:-1])
        if proc.returncode != 0:
            tally.record(name, False, "exit code %d: %s"
                         % (proc.returncode, _tail(stderr)))
            continue
        try:
            why = check(proc.stdout, refs)
        except Exception as err:  # a malformed output is a wrong output
            why = "unreadable output, %s: %s" % (type(err).__name__, err)
        tally.record(name, not why, why)
    clock.flush()
    return Pass(tally, clock.timings, traces, clock.refs[1:],
                clock.units_raw, clock.units_s)


def in_process_pass(checkout: Checkout, workload: str, inputs: dict,
                    traced: bool, clock: Clock) -> Pass:
    """One fresh interpreter running one checked pass; the worker times
    its calls between reference loops of its own, and ``clock`` runs one
    after the process exits."""
    done = Pass()
    argv = [PYTHON, str(HERE / "worker.py"), "pass", workload,
            "1" if traced else "0"]
    try:
        proc, _ = checkout.spawn(argv, json.dumps(inputs))
    except subprocess.TimeoutExpired:
        done.tally.record(workload, False, "pass timed out")
        done.refs.append(clock.reference())
        return done
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        done.tally.record(workload, False, "pass exited with %d: %s"
                          % (proc.returncode, _tail(proc.stderr)))
    else:
        record = json.loads(lines[-1])
        done.tally.attempted = record["tally"]["attempted"]
        done.tally.failed = record["tally"]["failed"]
        done.tally.errors = record["tally"]["errors"]
        done.timings, done.refs = record["timings"], record["refs"]
        done.units_raw, done.units_s = record["units"]
        done.traces = [record["trace"]] if record["trace"] else []
    done.refs.append(clock.reference())
    return done


def run_pass(checkout, workload, inputs, traced, clock,
             refs=gate.REFERENCES) -> Pass:
    """One checked pass; ``clock`` is fresh, so its one reference loop
    ran just before the pass."""
    if workload == "cli-session":
        return cli_pass(checkout, inputs, traced, refs, clock)
    return in_process_pass(checkout, workload, inputs, traced, clock)


def _stats(values: list) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "n": len(values)}


def _scaled_layers(layer: dict, factor: float) -> dict:
    """A traced pass's per-layer metrics with its times at reference
    speed."""
    return {name: value * factor if name.endswith("_s") else value
            for name, value in layer.items()}


def measure(checkout: Checkout, workload: str, inputs: dict, seconds: float,
            traced: bool) -> dict:
    """Passes one after another until the next would end past the
    deadline; with ``traced`` every second pass is traced.  Every time
    kept is at reference speed (see refclock.py)."""
    deadline = time.monotonic() + seconds
    setup = [checkout.setup_probe() for _ in range(EXTRA_PROBES)]
    tally = gate.Tally()
    run_s, traced_run_s, wall_s, reference_s = [], [], [], []
    calls, layers = {}, []
    leftover = set()
    n = 0
    while True:
        setup.append(checkout.setup_probe())
        trace_this = traced and n % 2 == 1
        clock = Clock()
        t0 = time.perf_counter()
        done = run_pass(checkout, workload,
                        workloads.pass_inputs(workload, inputs, n),
                        trace_this, clock)
        wall = time.perf_counter() - t0
        # each timed unit at the speed measured around it; the rest of
        # the pass (process start and exit, checks) at the pass's mean
        busy = wall - sum(done.refs)
        took = done.units_s + at_reference_speed(busy - done.units_raw,
                                                 clock.refs[:1] + done.refs)
        tally.merge(done.tally)
        wall_s.append(wall)
        reference_s.extend(clock.refs[:1] + done.refs)
        if trace_this:
            traced_run_s.append(took)
            layers.append(_scaled_layers(spans.layer_metrics(done.traces),
                                         took / busy))
            for t in done.traces:
                leftover.update(t["unwrapped"])
        else:
            run_s.append(took)
            for name, ts in done.timings.items():
                calls.setdefault(name, []).extend(ts)
        n += 1
        if n >= (2 if traced else 1) and time.monotonic() + wall > deadline:
            break
    if leftover:
        tally.record("tracing", False, "unwrapped bindings: %s"
                     % ", ".join(sorted(leftover)))
    key = [t for name in KEY_CALLS[workload] for t in calls.get(name, [])]
    return {"tally": tally, "setup_s": setup, "run_s": run_s,
            "traced_run_s": traced_run_s, "key_call_s": key,
            "wall_s": wall_s, "reference_s": reference_s,
            "calls": calls, "layers": layers,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def end_to_end_metrics(m: dict) -> dict:
    """Medians over the run, at reference speed."""
    values = {"setup_s": statistics.median(m["setup_s"]),
              "run_s": statistics.median(m["run_s"]),
              # no key call returned: the run is already marked incorrect
              "key_call_s": (statistics.median(m["key_call_s"])
                             if m["key_call_s"] else None),
              "peak_rss_mb": m["peak_rss_mb"]}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(m: dict) -> dict:
    values = {name: statistics.median(layer[name] for layer in m["layers"])
              for name in m["layers"][0]}
    values["trace.run_s"] = statistics.median(m["traced_run_s"])
    values["trace.overhead_s"] = (values["trace.run_s"]
                                  - statistics.median(m["run_s"]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.PER_LAYER}


def _git_commit(root: Path):
    """HEAD of the checkout, read from .git; None outside a git clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "berger").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(checkout: Checkout, args, inputs: dict) -> dict:
    import berger
    return {
        "git_commit": _git_commit(checkout.root),
        "source_sha256": _source_digest(checkout.src),
        "package_version": berger.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "reference_s": REFERENCE_S,
        "inputs": inputs,
    }


def _load_program(root: Path) -> Checkout:
    """The checkout's program, or exit 1 when there is none."""
    checkout = Checkout(root)
    if not (checkout.src / "berger" / "__init__.py").is_file():
        sys.exit("error: no program at %s/berger; run this from the root "
                 "of a berger checkout" % checkout.src)
    sys.path.insert(0, str(checkout.src))
    import berger
    if Path(berger.__file__).resolve().parent != (checkout.src / "berger").resolve():
        sys.exit("error: imported berger from %s, not from %s"
                 % (berger.__file__, checkout.src))
    return checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    checkout = _load_program(Path.cwd())
    inputs = workloads.generate(args.workload, args.seed)
    m = measure(checkout, args.workload, inputs, args.seconds,
                bool(args.trace))
    tally = m["tally"]
    summary = {name: _stats(m[name])
               for name in ("setup_s", "run_s", "key_call_s", "traced_run_s",
                            "wall_s", "reference_s")
               if m[name]}
    print(json.dumps({"record": {
        "provenance": provenance(checkout, args, inputs),
        "passes": len(m["run_s"]) + len(m["traced_run_s"]),
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "errors": tally.errors[:20],
        "summary": summary,
        "samples": {name: m[name] for name in summary},
        "peak_rss_mb": m["peak_rss_mb"],
        "calls": {name: _stats(ts) for name, ts in sorted(m["calls"].items())},
    }}))
    metrics = per_layer_metrics(m) if args.trace else end_to_end_metrics(m)
    print(json.dumps({"correct": tally.attempted > 0 and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
