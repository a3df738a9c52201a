"""Run workloads over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads desk-pipeline,...]
                                 [--trace 0|1] [--out runs.json]

Runs `perfbench/run.py` once per (workload, seed), one at a time, from the
current directory. For every metric it prints the median over seeds and the
quartile spread (Q3 - Q1) as a share of the median, next to the metric's
bound from BENCHMARK.json. Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        names = sorted({n for r in runs for n in r["metrics"]})
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs if n in r["metrics"]]) for n in names}
        report[wl] = {"runs": runs, "summary": summary}
        for n, s in summary.items():
            bound = bounds.get(n)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {wl:14s} {n:32s} median {s['median']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
