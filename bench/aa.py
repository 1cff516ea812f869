"""``python -m bench aa``: do two sets of runs of the same tree agree?

The acceptance check of the benchmark itself and the tool to re-baseline
with: each set is ``--runs`` runs of all workloads (rounds interleaved),
run ``i`` of every set with seed ``--seed + i``; per workload and metric
the set medians may differ by at most the metric's bound.
"""

import statistics

from . import endtoend


def run(spec, sets, runs, seed, seconds):
    names = [workload["name"] for workload in spec["workloads"]]
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    values = {}
    failed = 0
    for set_index in range(sets):
        for run_index in range(runs):
            print("-- set %d run %d" % (set_index + 1, run_index + 1),
                  flush=True)
            results = endtoend.run(names, seed + run_index, seconds)
            for name, result in results.items():
                failed += result["failed"]
                for failure in result["failures"]:
                    print("FAILED %s: %s" % (name, failure))
                for metric, value in (result["metrics"] or {}).items():
                    values.setdefault((name, metric), [[] for _ in range(sets)])
                    values[name, metric][set_index].append(value)
    print("%-11s %-17s %12s %12s %8s %7s" % (
        "workload", "metric", "median A", "median B", "diff", "bound"))
    disagreements = 0
    for (name, metric), per_set in values.items():
        medians = [statistics.median(data) for data in per_set]
        for other in medians[1:]:
            difference = abs(other - medians[0]) / medians[0]
            verdict = ""
            if difference > bounds[metric]:
                verdict = "  DISAGREE"
                disagreements += 1
            print("%-11s %-17s %12.6g %12.6g %7.2f%% %6.1f%%%s" % (
                name, metric, medians[0], other, 100 * difference,
                100 * bounds[metric], verdict))
    print("%d failed operations, %d disagreements" % (failed, disagreements))
    return 1 if failed or disagreements else 0
