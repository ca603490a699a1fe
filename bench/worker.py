"""One pass of the benchmark in this fresh interpreter.

    python3 bench/worker.py pass <workload> <traced 0|1>  < inputs.json
        runs one checked pass of an in-process workload and prints its
        record as one JSON line, with the wall time of every reference
        loop run between its calls;
    python3 bench/worker.py cli <berger arguments...>
        runs one traced ``berger`` command: the command's own output and
        exit code, plus the trace record as the last line of stderr,
        after TRACE_MARK.

``src`` of the checkout must be on PYTHONPATH.
"""
import json
import sys

TRACE_MARK = "bench-trace "


def _install():
    from spans import Tracer, install, unwrapped

    tracer = Tracer()
    originals = install(tracer)
    return tracer, unwrapped(originals)


def _trace_record(tracer, leftover) -> dict:
    record = tracer.record()
    record["unwrapped"] = leftover
    return record


def run_cli(argv) -> int:
    import berger.cli

    tracer, leftover = _install()
    try:
        code = berger.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(_trace_record(tracer, leftover)),
          file=sys.stderr)
    return code


def run_in_process(workload: str, traced: bool) -> int:
    import berger  # noqa: F401  (the set-up a user pays)
    from gate import REFERENCES
    from refclock import Clock
    from workloads import run_pass

    inputs = json.load(sys.stdin)
    tracer = leftover = None
    if traced:
        tracer, leftover = _install()
    clock = Clock()
    tally, timings = run_pass(workload, inputs, REFERENCES, clock)
    print(json.dumps({
        "tally": tally.as_dict(), "timings": timings, "refs": clock.refs,
        "units": [clock.units_raw, clock.units_s],
        "trace": _trace_record(tracer, leftover) if traced else None,
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2:]))
    sys.exit(run_in_process(sys.argv[2], sys.argv[3] == "1"))
