"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/child.py JOB.json

The job names the mode, the library's source directory, the input documents
and where to write the result.  The child imports the library, loads the
documents and prints ``ready`` (run.py times set-up up to that line), then
times the workload's reference kernel (refspeed.py) a few times, so that
run.py can scale its set-up time to the machine's speed.  In ``setup`` mode
it stops there.  In ``measure`` mode it runs whole rounds of ops for
``seconds`` (and at least MIN_ROUNDS rounds), with a run of the workload's
CLI command between rounds for every CLI_EVERY seconds of rounds.  After
each op, and before and after each CLI run, it times the kernel again,
outside the timed spans.  In ``trace`` mode it runs a fixed number of
rounds, ``rounds``, each twice, back to back: once plain and once with
every library layer traced, so that both see the same inputs and nearly
the same machine.  The traced work does not depend on how fast
the program is, so a faster layer reads as less time, not as more calls.
Each result is checked exactly between ops, outside their timed spans, and
only its digest is kept; the child writes latencies, checks and result
digests as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import refspeed
import workloads
from spans import Tracer, layer_metrics, layer_shares

MAX_PROBLEMS = 20
# Seconds of rounds between two runs of the CLI command.  The machine's
# speed drifts from second to second, so CLI runs spread over the whole
# timed phase see the same machine as the ops do.
CLI_EVERY = 2.0
CLI_TIMEOUT = 60.0
# Every workload has at least 10 ops per round, so at least ten of the
# 100 or more ops of a run lie beyond the 90th percentile (op_tail_ms).
MIN_ROUNDS = 10
# Kernel samples: one after an op per this many seconds of its latency (at
# least one), so that a round's samples cover it evenly; this many right
# after set-up; and this many before a CLI run and as many after it.
SAMPLE_EVERY = 0.04
SETUP_SAMPLES = 15
CLI_SAMPLES = 5


class Results:
    """Checks each op's result as it arrives, outside the op's timed span.

    Only latencies and one digest per distinct input are kept, so memory
    barely grows with the number of ops.  On a workload with a deep check,
    the few results sampled for it wait until the timed phase is over.  A
    repeated input, such as the traced run of a round, must give the same
    digest as its first run.
    """

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        self.first: dict[tuple[int, int], str] = {}
        self.problems: list[str] = []
        self.failed = 0
        self.deferred: list[tuple[int, tuple[int, int], object]] = []

    def add(self, ran: list, kernel_s: float | None = None) -> None:
        """Check the results of one round; ``kernel_s`` is the median kernel
        time measured in it (untraced runs only)."""
        if kernel_s is not None:
            self.kernel += [kernel_s] * len(ran)
        for key, lat, out in ran:
            index = len(self.latencies)
            self.latencies.append(lat)
            if isinstance(out, Exception):
                self._fail(index, key, ["raised " + "".join(
                    traceback.format_exception_only(out)).strip()])
                continue
            d = workloads.digest(self.wl.serialize(out))
            if key in self.first:
                if self.first[key] != d:
                    self._fail(index, key, ["differs from an earlier run of the same input"])
                continue
            self.first[key] = d
            r, j = key
            # The costlier check samples all of round 0 and one op per later round.
            if self.wl.has_deep_check and (r == 0 or j == r % len(self.wl.docs[r])):
                self.deferred.append((index, key, out))
            self._fail(index, key, self.wl.check(self.wl.docs[r][j], out))

    def _fail(self, index: int, key: tuple[int, int], issues: list[str]) -> None:
        if issues:
            self.failed += 1
            self.problems += [f"op {index} (round {key[0]}, op {key[1]}): {i}" for i in issues]

    def finish(self) -> dict:
        for index, (r, j), out in self.deferred:
            self._fail(index, (r, j), self.wl.deep_check(self.wl.docs[r][j], out))
        round0 = [self.first.get((0, j)) for j in range(len(self.wl.docs[0]))]
        return {"latencies": self.latencies, "kernel": self.kernel, "failed": self.failed,
                "problems": self.problems[:MAX_PROBLEMS],
                "round0": workloads.digest(round0)}


def _round(pool, r: int, tracer: Tracer | None = None, speed: tuple | None = None) -> list:
    """Run round ``r`` of the pool; return [(key, latency, result)].  With
    ``speed`` = (kernel, samples), time the kernel after each op and append
    the times to samples."""
    ran = []
    ops = pool[r % len(pool)]
    for j, fn in enumerate(ops):
        t = perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                tracer.op = r * len(ops) + j
                out = tracer.span("op", fn)
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        lat = perf_counter() - t
        ran.append(((r % len(pool), j), lat, out))
        if speed is not None:
            kernel, samples = speed
            samples += [refspeed.sample(kernel) for _ in range(max(1, round(lat / SAMPLE_EVERY)))]
    return ran


def _round_time(ran: list) -> float:
    return sum(lat for _, lat, _ in ran)


def _cli(argv: list[str], cwd: str, src: str, kernel: str) -> tuple[float, float, str]:
    """Run the workload's CLI command once; return (wall time, median kernel
    time around it, stdout)."""
    env = dict(os.environ, PYTHONPATH=src)
    samples = [refspeed.sample(kernel) for _ in range(CLI_SAMPLES)]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT)
    took = perf_counter() - start
    samples += [refspeed.sample(kernel) for _ in range(CLI_SAMPLES)]
    if proc.returncode != 0:
        raise RuntimeError(f"CLI exited with {proc.returncode}: {proc.stderr}")
    return took, statistics.median(samples), proc.stdout


def _timed(pool, seconds: float, results: Results, cli: tuple,
           kernel: str) -> list[tuple[float, float, str]]:
    """Run whole rounds from round 0 on until their ops have taken
    ``seconds`` and at least MIN_ROUNDS rounds have run, timing ``kernel``
    after each op.  After each round, run the CLI command once for every
    CLI_EVERY seconds of rounds since its last run (and once after the first
    round); its runs are not counted in ``seconds``.  Return (wall time,
    kernel time, stdout) per CLI run."""
    runs = []
    busy = next_cli = 0.0
    r = 0
    while r < MIN_ROUNDS or busy < seconds:
        samples: list[float] = []
        ran = _round(pool, r, speed=(kernel, samples))
        busy += _round_time(ran)
        results.add(ran, statistics.median(samples))
        while busy >= next_cli:
            runs.append(_cli(*cli, kernel))
            next_cli += CLI_EVERY
        r += 1
    return runs


def _check_cli(wl: workloads.Workload, runs: list[tuple[float, float, str]]) -> tuple[list[str], str]:
    """Problems with the CLI's output, and the digest of its stdout."""
    outputs = {stdout for *_, stdout in runs}
    problems = [] if len(outputs) == 1 else ["CLI output differs between runs"]
    stdout = runs[0][-1]
    if workloads.cli_result(wl.name, stdout) != wl.cli_expect():
        problems.append("CLI output differs from the library result")
    return problems, hashlib.sha256(stdout.encode()).hexdigest()


def _paired(pool, rounds: int, tracer: Tracer, results: Results) -> float:
    """Run rounds 0 to ``rounds`` - 1 plain and traced, back to back, in
    alternating order.  Both runs of a round must give the same results.
    Return the median over rounds of traced over plain time."""
    ratios = []
    for r in range(rounds):
        plain = _round(pool, r) if r % 2 == 0 else None
        tracer.install()
        traced = _round(pool, r, tracer)
        tracer.uninstall()
        if plain is None:
            plain = _round(pool, r)
        ratios.append(_round_time(traced) / _round_time(plain))
        results.add(plain)
        results.add(traced)
    return statistics.median(ratios)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import votepower

    # A traced run records the set-up's spans too (model.load_s).
    tracer = Tracer().install() if job["mode"] == "trace" else None
    wl = workloads.Workload(votepower, json.loads(Path(job["docs"]).read_text()))
    print("ready", flush=True)
    kernel = workloads.KERNEL[wl.name]
    if tracer is None:
        result = {"setup_kernel": refspeed.median_sample(kernel, SETUP_SAMPLES)}
    if job["mode"] == "setup":
        Path(job["out"]).write_text(json.dumps(result))
        return 0

    results = Results(wl)
    if tracer is None:
        cli = _timed(wl.rounds, job["seconds"], results,
                     (job["cli"], job["root"], job["src"]), kernel)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cli_problems, result["cli_digest"] = _check_cli(wl, cli)
        results.problems[:0] = cli_problems
        result["cli_runs"] = [[t, k] for t, k, _ in cli]
    else:
        tracer.uninstall()
        overhead = _paired(wl.rounds, job["rounds"], tracer, results)
        tracer.write(Path(job["spans"]))
        result = {"layers": {**layer_metrics(tracer.spans), "trace.overhead_ratio": overhead},
                  "shares": layer_shares(tracer.spans)}
    result.update(results.finish())
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
