"""Run every workload untraced, then traced, and print all metrics side by side.

    python3 perfbench/report.py --seed 1

Every workload of BENCHMARK.json runs for its ``run_seconds``.  The
untraced run gives the end-to-end metrics, the traced run the per-layer
ones; the tracing overhead is the untraced throughput over the traced one,
minus one.  The last line is the whole report as one JSON object
(environment included).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    env = json.loads(next(line[len("# env "):] for line in lines if line.startswith("# env ")))
    notes = [line for line in lines if line.startswith(("# FAILED ", "# not measured", "# names"))]
    return json.loads(lines[-1]), env, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        plain, report["env"], notes = run(workload, args.seed, 0)
        traced, _, traced_notes = run(workload, args.seed, 1)
        e2e = {k: v["value"] for k, v in plain["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = e2e["ops_per_s"] / layers["traced.ops_per_s"] - 1.0
        report["workloads"][workload] = {
            "attempted": plain["attempted"],
            "failed_frac": plain["failed"] / plain["attempted"],
            "end_to_end": e2e,
            "per_layer": layers,
            "tracing_overhead": overhead,
        }
        print(f"== {workload}: {plain['attempted']} operations untraced, "
              f"{traced['attempted']} traced; failed_frac {plain['failed'] / plain['attempted']:.4g}")
        for line in notes + traced_notes:
            print(line)
        for name, metric in plain["metrics"].items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  {'tracing overhead':34s} {100 * overhead:>15.3g}% of untraced throughput")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
