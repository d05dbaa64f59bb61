#!/usr/bin/env python3
"""Appends one row to a workload's committed perf trajectory.

    python3 tools/bench_row.py --commit SHA --label NAME RUN.log [RUN.log ...]

Each RUN.log is the captured output of one `python3 perfbench/run.py` run
of one workload (untraced, any seed). From every log the script reads the
environment stamps (`env <name> = <value>` lines) and the final JSON line,
then appends one row to BENCH_<workload>.json at the repository root: the
commit, the label, the library build block, nproc, the run count, the
operations attempted and failed, and for every metric its median,
quartiles and interquartile range over the runs. A row with the
same commit and label is replaced. Logs of different workloads, builds or
core counts, or a run whose correctness checks failed, are refused.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_run(path):
    """Returns (workload, stamps, result) of one run.py log."""
    workload, stamps, result = None, {}, None
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    for line in lines:
        if line.startswith("workload "):
            workload = line.split(" ", 1)[1]
        elif line.startswith("env ") and " = " in line:
            name, value = line[4:].split(" = ", 1)
            stamps[name] = value
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if workload is None or not isinstance(result, dict):
        sys.exit("bench_row: %s is not a complete perfbench run log" % path)
    if not result.get("correct"):
        sys.exit("bench_row: %s failed its correctness checks" % path)
    return workload, stamps, result


def summarize(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--label", required=True,
                        help="what the commit is to this row, e.g. parent")
    parser.add_argument("logs", nargs="+")
    args = parser.parse_args()

    runs = [read_run(path) for path in args.logs]
    workload, stamps, _ = runs[0]
    for path, (other, other_stamps, _) in zip(args.logs, runs):
        for key, want, got in (
                ("workload", workload, other),
                ("nproc", stamps.get("nproc"), other_stamps.get("nproc")),
                ("library_build", stamps.get("library_build"),
                 other_stamps.get("library_build"))):
            if want != got:
                sys.exit("bench_row: %s has %s %s, not %s" % (path, key, got,
                                                             want))
    names = sorted({name for _, _, result in runs for name in result["metrics"]})
    metrics = {}
    for name in names:
        values = [result["metrics"][name]["value"] for _, _, result in runs
                  if name in result["metrics"]]
        unit = next(result["metrics"][name]["unit"] for _, _, result in runs
                    if name in result["metrics"])
        metrics[name] = dict(summarize(values), unit=unit)
    build = stamps.get("library_build")
    row = {
        "commit": args.commit,
        "label": args.label,
        "build": json.loads(build) if build else None,
        "nproc": int(stamps["nproc"]) if "nproc" in stamps else None,
        "runs": len(runs),
        "attempted": sum(result["attempted"] for _, _, result in runs),
        "failed": sum(result["failed"] for _, _, result in runs),
        "metrics": metrics,
    }

    out = os.path.join(ROOT, "BENCH_%s.json" % workload)
    table = {"workload": workload, "rows": []}
    if os.path.exists(out):
        with open(out) as f:
            table = json.load(f)
        if table.get("workload") != workload:
            sys.exit("bench_row: %s holds workload %s" % (out,
                                                         table.get("workload")))
    table["rows"] = [r for r in table["rows"]
                     if (r["commit"], r["label"]) != (args.commit, args.label)]
    table["rows"].append(row)
    with open(out, "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    print("bench_row: %s row %s (%s): %d runs" % (out, args.commit, args.label,
                                                 len(runs)))


if __name__ == "__main__":
    main()
