"""Self-checks of the benchmark itself.

    python3 perfbench/check.py repeat --workload loop-replay --seed 0
    python3 perfbench/check.py spread --workload loop-replay --seeds 0-9 [--sets 2]

`repeat` runs the same seed twice untraced and twice traced and fails
unless the deterministic work counters of the two runs are exactly equal.

`spread` runs one untraced run per seed and reports, for each end-to-end
metric in BENCHMARK.json, the quartile spread (Q3 - Q1) / median of the
values. It fails when a spread other than setup_s's exceeds the metric's
bound; with `--sets 2` it repeats the seeds and also fails when the second
median is worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench-out" / f"report-{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    print(f"  seed {seed} trace {trace}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} " + " ".join(
              f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if trace == 0), flush=True)
    return {"result": result, "report": report}


def repeat(args) -> int:
    bad = 0
    for trace in (0, 1):
        first, second = (run(args.workload, args.seed, trace) for _ in range(2))
        a, b = first["report"]["counters"], second["report"]["counters"]
        same = a == b
        bad += not same
        print(f"trace {trace}: counters {'equal' if same else 'DIFFER'}: {json.dumps(a, sort_keys=True)}")
        if not same:
            print(f"          second run: {json.dumps(b, sort_keys=True)}")
        for run_ in (first, second):
            bad += not run_["result"]["correct"]
    return 1 if bad else 0


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args) -> int:
    seeds = _seeds(args.seeds)
    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}:")
        sets.append([run(args.workload, seed, 0)["result"] for seed in seeds])
    bad = 0
    summary = {}
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        medians = []
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            medians.append(med)
            over = share > bound and name != "setup_s"
            bad += over
            note = "OVER BOUND" if over else ("ok" if share < bound / 3 else "above a third of bound")
            print(f"{name:12s} set {s + 1}: median {med:.5g} spread {share:.4f} bound {bound} -> {note}")
            summary.setdefault(name, []).append({"median": med, "spread": share, "values": values})
        if len(medians) > 1:
            worse = (medians[1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                worse = -worse
            bad += worse > bound
            print(f"{name:12s} second median worse by {worse:+.4f} (bound {bound})")
    failed = sum(r["failed"] for results in sets for r in results)
    bad += failed > 0
    print(f"failed operations over all runs: {failed}")
    out = ROOT / ".perfbench-out" / f"spread-{args.workload}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("repeat")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=repeat)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--sets", type=int, default=1)
    p.set_defaults(func=spread)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
