"""Aggregate saved results into perfbench/baseline.json.

Usage, from the root of a checkout, after runs of ``perfbench/run.py``::

    python3 perfbench/baseline.py

Reads ``.bench_work/results/*.json`` made with the ``run_seconds`` of
BENCHMARK.json (one file per workload, seed and trace setting; a later
run with the same three replaces the file) and
writes, per workload, the median, quartiles and spread of every
end-to-end metric over the seeds, the median of every per-layer metric
over the traced runs, and the median layer shares.  All results must come
from one source tree.
"""

import json
import statistics
import sys

import run


def summarize(values):
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    median = statistics.median(values)
    return {"median": median, "q1": quartiles[0], "q3": quartiles[2],
            "spread": (quartiles[2] - quartiles[0]) / median if median
            else 0.0, "runs": len(values)}


def main():
    spec = json.loads(run.SPEC.read_text())
    results = [json.loads(p.read_text())
               for p in sorted((run.WORK / "results").glob("*.json"))]
    results = [r for r in results if r["seconds"] == spec["run_seconds"]]
    sources = {r["env"]["source_sha256"] for r in results}
    if len(sources) != 1:
        print(f"error: results come from {len(sources)} source trees",
              file=sys.stderr)
        return 1
    out = {"env": {k: v for k, v in results[0]["env"].items()
                   if k != "seed"},
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in run.WORKLOADS:
        mine = [r for r in results if r["workload"] == name]
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry = {"seeds": sorted(r["env"]["seed"] for r in plain),
                 "end_to_end": {}, "per_layer": {}, "layer_shares": []}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in plain]
            if values:
                entry["end_to_end"][metric["name"]] = {
                    "unit": metric["unit"], **summarize(values)}
        for metric in spec["per_layer"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in traced]
            if values:
                entry["per_layer"][metric["name"]] = {
                    "unit": metric["unit"],
                    "median": statistics.median(values)}
        if traced:
            shares = {}
            for r in traced:
                for layer, calls, incl, self_share in r["layer_shares"]:
                    shares.setdefault(layer, []).append((calls, incl,
                                                         self_share))
            entry["layer_shares"] = sorted(
                ({"layer": layer,
                  "calls": statistics.median(v[0] for v in rows),
                  "inclusive": statistics.median(v[1] for v in rows),
                  "self": statistics.median(v[2] for v in rows)}
                 for layer, rows in shares.items()),
                key=lambda row: -row["inclusive"])
            entry["traced_runs"] = len(traced)
        out["workloads"][name] = entry
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
