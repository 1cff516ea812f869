"""``python -m bench <run|trace|golden|aa>`` — see bench/README.md."""

import argparse
import json
import os
import platform
import subprocess
import sys

from . import ROOT, SRC


def _header(args, names):
    """What a reader needs to judge the numbers below it."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        sha = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from . import endtoend, workloads

    return {
        "workloads": names,
        "graph_scale": workloads.GRAPH_SCALE,
        "graph_seed": workloads.GRAPH_SEED,
        "seed": args.seed,
        "PYTHONHASHSEED": args.seed % 2**32,
        "rounds": endtoend.ROUNDS,
        "round_budget_s": args.seconds / endtoend.ROUNDS,
        "latency_share": endtoend.LATENCY_SHARE,
        "clocks": {"latency": "time.perf_counter",
                   "cpu": "/proc/<pid>/task/*/schedstat field 1"},
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def _result_line(result, metrics, units):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    })


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def cmd_run(args):
    from . import endtoend, workloads

    spec = _spec()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    print(json.dumps({"header": _header(args, names)}))
    if args.trace:
        from . import trace

        for name in names:
            result = trace.run(name, args.seed)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for metric in sorted(units):
                print("%-12s %-44s %14.6g %s"
                      % (name, metric, result["metrics"][metric],
                         units[metric]))
            for failure in result["failures"]:
                print("FAILED %s: %s" % (name, failure))
            print(_result_line(result, result["metrics"], units))
        return 0
    results = endtoend.run(names, args.seed, args.seconds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in names:
        result = results[name]
        for failure in result["failures"]:
            print("FAILED %s: %s" % (name, failure))
        if result["metrics"] is None:
            print("%s: no slot answered correctly" % name)
            return 1
        print("-- %s: passes per round %s, %d slots; information only: %s"
              % (name, result["passes"], result["info"]["slots"],
                 json.dumps(result["info"])))
        for metric, value in result["layers"].items():
            print("%-12s %-32s %14.6g" % (name, metric, value))
        for metric in units:
            print("%-12s %-32s %14.6g %s"
                  % (name, metric, result["metrics"][metric], units[metric]))
        print(_result_line(result, result["metrics"], units))
    return 0


def cmd_golden(args):
    from . import golden

    golden.write_all()
    return 0


def cmd_aa(args):
    from . import aa

    return aa.run(_spec(), args.sets, args.runs, args.seed, args.seconds)


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    spec = _spec()
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    def measuring(command, handler, trace_default):
        command.add_argument("--workload", choices=[
            workload["name"] for workload in spec["workloads"]])
        command.add_argument("--seed", type=int, default=42)
        command.add_argument("--seconds", type=float,
                             default=spec["run_seconds"])
        command.add_argument("--trace", type=int, choices=(0, 1),
                             default=trace_default)
        command.set_defaults(handler=handler)

    measuring(commands.add_parser(
        "run", help="end-to-end metrics (--trace 1: per-layer metrics)"),
        cmd_run, 0)
    measuring(commands.add_parser(
        "trace", help="the traced in-process run: per-layer metrics"),
        cmd_run, 1)
    commands.add_parser(
        "golden", help="rewrite bench/golden/ from the reference path"
    ).set_defaults(handler=cmd_golden)
    check = commands.add_parser(
        "aa", help="two sets of runs of the same tree must agree")
    check.add_argument("--sets", type=int, default=2)
    check.add_argument("--runs", type=int, default=3)
    check.add_argument("--seed", type=int, default=42)
    check.add_argument("--seconds", type=float, default=spec["run_seconds"])
    check.set_defaults(handler=cmd_aa)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
