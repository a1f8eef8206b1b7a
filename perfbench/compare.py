"""Compare a parent and a changed checkout with the benchmark, pair by pair.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 1000]
                                 [--workload NAME ...] [--save FILE]
    python3 perfbench/compare.py --load FILE

Each pair runs ``perfbench/run.py --trace 0`` in both checkouts on one seed,
with the same run length, alternating which side runs first; seeds differ
between pairs.  Every end-to-end metric of every workload gets its own row:

* ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``worse``: every run of the change reads worse than every run of the
  parent and the change's median is worse by more than the bound, however
  wide the spread;
* ``unresolved``: otherwise, if the run-to-run spread (interquartile range
  over median) of either side is wider than the metric's bound and not
  every run of the change reads better than every run of the parent;
* ``worse``: otherwise, if the change's median is worse than the parent's
  by more than the bound;
* ``within bound``: otherwise.

A side whose runs failed ops or checks is reported under the table; a gain
does not count when the change fails more ops than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {checkout}: {workload} seed {seed} exited with "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(parent: Path, change: Path, pairs: int, seed: int, names: list[str]) -> dict:
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    runs: dict = {"parent": {w: [] for w in names}, "change": {w: [] for w in names}}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in names:
            for side in order:
                where = parent if side == "parent" else change
                runs[side][w].append(run_once(where, w, seed + i, spec["run_seconds"]))
                print(f"pair {i + 1}/{pairs} {w} {side} done", file=sys.stderr)
    return {"spec": spec, "seed": seed, "pairs": pairs, "runs": runs}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric of one workload from paired runs (pair i is index i)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    p_iqr, c_iqr = p_q[2] - p_q[0], c_q[2] - c_q[0]
    spread = max(p_iqr / abs(p_med), c_iqr / abs(c_med))
    worse_by = sign * (p_med - c_med) / abs(p_med)
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    every_run_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_iqr:
        label = "better"
    elif every_run_worse and worse_by > bound:
        label = "worse"
    elif spread > bound and not every_run_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "within bound"
    return {"parent": p_med, "parent_q": (p_q[0], p_q[2]), "change": c_med,
            "change_q": (c_q[0], c_q[2]), "wins": wins, "pairs": len(parent),
            "change_pct": 100 * (c_med - p_med) / abs(p_med), "verdict": label}


def judge(data: dict) -> list[dict]:
    rows = []
    runs = data["runs"]
    for w in runs["parent"]:
        for m in data["spec"]["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side][w]]
                      for side in ("parent", "change")}
            row = verdict(values["parent"], values["change"], m["better"], m["bound"])
            failed = {side: sum(r["failed"] + (not r["correct"]) for r in runs[side][w])
                      for side in ("parent", "change")}
            if row["verdict"] == "better" and failed["change"] > failed["parent"]:
                row["verdict"] = "unresolved"
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "failed": failed, **row})
    return rows


def report(rows: list[dict]) -> str:
    lines = [f"{'workload':<13} {'metric':<12} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'change':>8} {'wins':>6}  verdict"]
    for r in rows:
        p = f"{r['parent']:.4g} [{r['parent_q'][0]:.4g}, {r['parent_q'][1]:.4g}]"
        c = f"{r['change']:.4g} [{r['change_q'][0]:.4g}, {r['change_q'][1]:.4g}]"
        lines.append(f"{r['workload']:<13} {r['metric']:<12} {p:<30} {c:<30} "
                     f"{r['change_pct']:>+7.1f}% {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    failing = {(r["workload"], side): n for r in rows for side, n in r["failed"].items() if n}
    for (w, side), n in sorted(failing.items()):
        lines.append(f"{w}: {side} had {n} failed ops or incorrect runs")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--save", type=Path, help="write the raw runs here as JSON")
    parser.add_argument("--load", type=Path, help="judge runs saved by --save")
    args = parser.parse_args(argv)
    if args.load:
        data = json.loads(args.load.read_text())
    else:
        if args.parent is None or args.change is None:
            parser.error("give PARENT_DIR and CHANGE_DIR, or --load")
        if args.pairs < MIN_PAIRS:
            parser.error(f"at least {MIN_PAIRS} pairs are needed")
        names = args.workload or [w["name"] for w in
                                  json.loads((args.parent / "BENCHMARK.json").read_text())["workloads"]]
        data = collect(args.parent, args.change, args.pairs, args.seed, names)
        if args.save:
            args.save.write_text(json.dumps(data))
    print(report(judge(data)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
