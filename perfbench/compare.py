#!/usr/bin/env python3
"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py [--allow-digest-change] BASE_DIR NEW_DIR

Each directory holds the result-*.json files run.py leaves in
.bench_build/perfbench/results (copy them aside between commits).
Results are compared only when every host field of their fingerprints
(CPU model, nproc, compiler, build type) matches; the revision is
expected to differ. For each workload and end-to-end metric it prints
both medians and quartiles over the untraced runs and a verdict
against the metric's bound in BENCHMARK.json, and it says whether the
digest of the simulated statistics is unchanged. It exits 1 on a
regression, on any new run that is not correct or has a failed
operation, and on a changed digest unless --allow-digest-change is
given (for a change meant to alter the simulated statistics).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_FIELDS = ("cpu", "nproc", "compiler", "build_type")


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["run"]["workload"], []).append(doc)
    return runs


def host(doc):
    fp = doc["run"]["fingerprint"]
    return tuple(fp[k] for k in HOST_FIELDS)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(usage=__doc__)
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--allow-digest-change", action="store_true")
    args = ap.parse_args()
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    hosts = {host(d) for runs in (base, new) for v in runs.values() for d in v}
    if len(hosts) != 1:
        sys.exit("fingerprints differ; refusing to compare:\n  " +
                 "\n  ".join(str(h) for h in sorted(hosts)))
    status = 0
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        same = ({d["run"]["digest"] for d in b_runs} ==
                {d["run"]["digest"] for d in n_runs})
        print(f"{workload}: {len(b_runs)} vs {len(n_runs)} runs, "
              f"simulated statistics {'identical' if same else 'CHANGED'}")
        if not same and not args.allow_digest_change:
            status = 1
        bad = [d for d in n_runs
               if not d["result"]["correct"] or d["result"]["failed"] > 0]
        if bad:
            status = 1
            print(f"  REGRESSION: {len(bad)} new runs not correct or "
                  "with failed operations")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bv = [d["result"]["metrics"][name]["value"] for d in b_runs]
            nv = [d["result"]["metrics"][name]["value"] for d in n_runs]
            b_q1, b_med, b_q3 = quartiles(bv)
            _, n_med, _ = quartiles(nv)
            if b_med == 0:
                continue
            worse = ((n_med - b_med) if m["better"] == "lower"
                     else (b_med - n_med)) / b_med
            spread = (b_q3 - b_q1) / b_med
            if spread > bound:
                verdict = "unresolved (base spread above bound)"
            elif worse > bound:
                verdict, status = "REGRESSION", 1
            else:
                verdict = "within bound"
            print(f"  {name:18s} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
                  f"  new {n_med:.6g}  worse by {worse:+.3f}"
                  f" (bound {bound}): {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
