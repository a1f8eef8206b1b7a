"""votepower benchmark: seeded workloads, exact checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload run happens in fresh child interpreters started one
after another (see child.py):

* ``--trace 0``: one measuring child runs whole rounds of ops for
  ``--seconds``, and between rounds the workload's ``votepower`` CLI
  command once per 2 s of rounds (``cli_s``).  Two set-up-only children
  come before it and two after it; ``setup_s`` is the median set-up time
  of all five children.  Every time is scaled to the machine's nominal
  speed by the workload's reference kernel, timed around it (refspeed.py);
  the unscaled figures go to standard error.  Prints every end-to-end
  metric of BENCHMARK.json.
* ``--trace 1``: one child runs a fixed number of rounds, one per
  TRACE_SECONDS_PER_ROUND of ``--seconds``, each twice: plain and with
  every layer wrapped (spans.py).  The number of rounds does not depend on
  the speed of the machine or the program, so layer counts are fixed for a
  seed and layer times are the cost of that fixed work.  Prints every
  per-layer metric of BENCHMARK.json, including ``trace.overhead_ratio``,
  traced over plain time of the same rounds.

Every op result is checked exactly outside the timed region, and at the
default seed the round-0 results and the CLI output must match the digests
in perfbench/digest.json byte for byte.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``--workload all`` prints one such object per workload under its name).
Work files go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import refspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = BENCH / "digest.json"

DEFAULT_SEED = 0
SETUP_CHILDREN = 2  # set-up-only children before the measuring child and after it
# The traced run covers one round per this many seconds of --seconds: a
# plain and a traced run of a round take 1.5-3.5 s at the seed commit.
TRACE_SECONDS_PER_ROUND = 2.0
TIME_LIMIT = 170.0  # seconds one workload run may take, children included


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


class Run:
    """One workload at one seed: inputs, children, CLI runs and checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = perf_counter() + TIME_LIMIT
        self.dir = WORK / f"{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.docs = workloads.generate(workload, seed)
        (self.dir / "docs.json").write_text(json.dumps(self.docs))
        self.problems: list[str] = []

    def _left(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError(f"{self.workload}: over the {TIME_LIMIT:.0f} s limit")
        return left

    def child(self, mode: str, **job) -> tuple[float, dict | None]:
        """Start a child; return (seconds until it was set up, its result)."""
        out = self.dir / f"{mode}.json"
        job.update(mode=mode, src=str(SRC), docs=str(self.dir / "docs.json"), out=str(out),
                   spans=str(self.dir / "spans.jsonl"))
        job_path = self.dir / f"{mode}-job.json"
        job_path.write_text(json.dumps(job))
        out.unlink(missing_ok=True)
        start = perf_counter()
        # The child's own session, so that a kill also ends the CLI runs it starts.
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                cwd=BENCH, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._left())
            line = proc.stdout.readline() if ready else ""
            setup = perf_counter() - start
            code = proc.wait(timeout=self._left())
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"{self.workload}: {mode} child exited with code {code}")
        return setup, json.loads(out.read_text())

    def cli_argv(self) -> list[str]:
        """The workload's CLI command, with its game written to a file."""
        game = self.dir / "cli_game.json"
        if "game" in self.docs["cli_op"]:
            game.write_text(json.dumps(self.docs["cli_op"]["game"]))
        return [sys.executable, "-m", "votepower.cli",
                *(str(game) if a == "GAME" else a for a in self.docs["cli"])]

    def check_digest(self, round0: str, cli_digest: str | None = None) -> None:
        if self.seed != DEFAULT_SEED:
            return
        want = json.loads(DIGESTS.read_text()).get(self.workload) if DIGESTS.exists() else None
        got = {"results": round0, "cli_stdout": cli_digest}
        if want is None:
            self.problems.append("no digest recorded for this workload")
        for key, value in got.items():
            if want and value is not None and want[key] != value:
                self.problems.append(f"{key} digest differs from the recorded default-seed digest")

    def record_digest(self, res: dict) -> None:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[self.workload] = {"results": res["round0"], "cli_stdout": res["cli_digest"]}
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    def median_round(self, latencies: list[float]) -> float:
        """Median time of one whole round.  A burst of load from elsewhere on
        the machine moves it less than it moves the mean."""
        n = len(self.docs["rounds"][0])
        return statistics.median(sum(latencies[i:i + n]) for i in range(0, len(latencies), n))

    def end_to_end(self) -> tuple[dict, dict]:
        """End-to-end metrics with every time scaled to nominal speed by the
        kernel time measured around it; also print them unscaled."""
        kernel = workloads.KERNEL[self.workload]
        setups = [self.child("setup") for _ in range(SETUP_CHILDREN)]
        setup, res = self.child("measure", seconds=self.seconds, cli=self.cli_argv(),
                                root=str(ROOT))
        setups.append((setup, res))
        setups += [self.child("setup") for _ in range(SETUP_CHILDREN)]
        setup_runs = [(t, r["setup_kernel"]) for t, r in setups]
        op_runs = list(zip(res["latencies"], res["kernel"]))
        values, wall = {}, {}
        for out, scale in ((values, lambda t, k: refspeed.scaled(t, kernel, k)),
                           (wall, lambda t, k: t)):
            lat = [scale(t, k) for t, k in op_runs]
            out.update({
                "setup_s": statistics.median(scale(t, k) for t, k in setup_runs),
                "ops_per_s": len(self.docs["rounds"][0]) / self.median_round(lat),
                "op_p50_ms": statistics.median(lat) * 1e3,
                "op_tail_ms": statistics.quantiles(lat, n=100, method="inclusive")[
                    workloads.TAIL_PERCENTILE - 1] * 1e3,
                "peak_rss_mb": res["peak_rss_kb"] / 1024,
                "cli_s": statistics.median(scale(t, k) for t, k in res["cli_runs"]),
            })
        speed = refspeed.NOMINAL_S[kernel] / statistics.median(res["kernel"])
        print(f"{self.workload}: unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in wall.items())
              + f"; median speed {speed:.3f} x nominal ({kernel} kernel)", file=sys.stderr)
        self.check_digest(res["round0"], res["cli_digest"])
        return values, res

    def layers(self) -> tuple[dict, dict]:
        rounds = max(1, math.ceil(self.seconds / TRACE_SECONDS_PER_ROUND))
        _, res = self.child("trace", rounds=rounds)
        self.check_digest(res["round0"])
        return res["layers"], res


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 record: bool = False) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(workload, seed, seconds)
    values, res = run.layers() if trace else run.end_to_end()
    if record:
        run.record_digest(res)
    problems = res["problems"] + run.problems
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    listed = spec["per_layer" if trace else "end_to_end"]
    if trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in res["shares"].items())
        print(f"{workload}: self-time shares: {shares}", file=sys.stderr)
    return {
        "correct": not problems and res["failed"] == 0,
        "attempted": len(res["latencies"]),
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.  The host's
    CPUs do not run at the same speed at the same moment, so the kernel
    samples the measuring child takes must come from the CPU its CLI runs
    and the set-up children run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store the default-seed digests (only when the benchmark's inputs change)")
    args = parser.parse_args(argv)
    if not (SRC / "votepower" / "__init__.py").is_file():
        print(f"error: no votepower sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_digest and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-digest needs the default seed and --trace 0")
    pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.record_digest)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed_ratio={res['failed'] / res['attempted']:.4g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
