"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_bench.py

Checks that inputs are pure in the seed, that tracing does not change any
exact result, that every layer metric reads nonzero on the workload
notes.json lists for it (and zero where that layer never runs), that each
workload's intended layer takes the largest share of traced time, that the
round-0 results still match the recorded default-seed digests, and that
run.py keeps to its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refspeed  # noqa: E402
import votepower  # noqa: E402
import workloads  # noqa: E402
from compare import verdict  # noqa: E402
from spans import Tracer, layer_metrics, layer_shares  # noqa: E402

NOTES = json.loads((BENCH / "notes.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((BENCH / "digest.json").read_text())

# The layer (or layers, counted together) that must take the largest share
# of traced op time on each workload.
INTENDED = {"many-players": ("poly",), "large-quota": ("power.ipoly",),
            "sweep": ("model", "poly"), "classic": ("power.classic",)}


def _run_round0(workload: str, tracer: Tracer | None = None):
    """Load and run round 0 at the default seed; return serialized results.

    Untraced, each result is also checked; traced, the checks would add
    spans of their own.
    """
    docs = workloads.generate(workload, 0, rounds=1)
    wl = workloads.Workload(votepower, docs)
    forms = []
    for j, fn in enumerate(wl.rounds[0]):
        if tracer is not None:
            tracer.op = j
            out = tracer.span("op", fn)
        else:
            out = fn()
            assert wl.check(docs["rounds"][0][j], out) == []
            assert wl.deep_check(docs["rounds"][0][j], out) == []
        forms.append(wl.serialize(out))
    return forms


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request):
    workload = request.param
    plain = _run_round0(workload)
    tracer = Tracer().install()
    try:
        forms = _run_round0(workload, tracer)
    finally:
        tracer.uninstall()
    return workload, plain, forms, tracer.spans


def test_same_seed_gives_identical_documents():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)
        assert workloads.generate(w, 7) != workloads.generate(w, 8)
        assert workloads.generate(w, 7, rounds=2)["rounds"] == workloads.generate(w, 7)["rounds"][:2]


def test_traced_and_untraced_results_are_identical(traced):
    _, plain, forms, spans = traced
    assert forms == plain
    assert spans


def test_round0_matches_recorded_digest(traced):
    workload, plain, _, _ = traced
    got = workloads.digest([workloads.digest(form) for form in plain])
    assert got == DIGESTS[workload]["results"]


def test_layer_metrics_nonzero_where_listed(traced):
    workload, _, _, spans = traced
    metrics = layer_metrics(spans)
    for name, listed in NOTES["layer_map"].items():
        if name == "trace.overhead_ratio":
            continue
        if workload in listed["nonzero_on"]:
            assert metrics[name] > 0, (name, workload)
        if workload in listed.get("zero_on", ()):
            assert metrics[name] == 0, (name, workload)


def test_intended_layer_takes_largest_share(traced):
    workload, _, _, spans = traced
    shares = layer_shares(spans)
    mine = sum(shares[layer] for layer in INTENDED[workload])
    others = [v for layer, v in shares.items() if layer not in INTENDED[workload]]
    assert mine > max(others), shares


def test_metric_lists_agree():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(layer_metrics([])) | {"trace.overhead_ratio"}
    assert per_layer == set(NOTES["layer_map"])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_workload_has_a_reference_kernel():
    assert set(workloads.KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.KERNEL.values()) <= set(refspeed.KERNELS) == set(refspeed.NOMINAL_S)
    for kernel in refspeed.KERNELS:
        assert refspeed.sample(kernel) > 0
        # A time measured at nominal speed stays as it is; at half speed it halves.
        nominal = refspeed.NOMINAL_S[kernel]
        assert refspeed.scaled(0.5, kernel, nominal) == 0.5
        assert refspeed.scaled(0.5, kernel, 2 * nominal) == 0.25


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_contract_line(trace):
    proc = _bench(ROOT, "--workload", "classic", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_counts_are_fixed_for_a_seed():
    # The traced run covers a fixed number of rounds, so every figure except
    # a time is the same on every run of one seed, however fast it went.
    runs = []
    for _ in range(2):
        proc = _bench(ROOT, "--workload", "many-players", "--seed", "5", "--seconds", "2",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    fixed = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    assert fixed
    assert {k: runs[0][k] for k in fixed} == {k: runs[1][k] for k in fixed}


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "many-players", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in base]
    assert verdict(base, faster, "lower", 0.1)["verdict"] == "better"
    assert verdict(base, faster, "higher", 0.1)["verdict"] == "worse"
    assert verdict(base, [v * 1.02 for v in base], "lower", 0.1)["verdict"] == "within bound"
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert verdict(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # A clear regression is worse even when the spread is wider than the bound.
    wide = [100.0, 130.0, 95.0, 125.0, 105.0, 120.0, 98.0, 128.0, 102.0, 110.0]
    slower = [v + 200.0 for v in wide]
    assert verdict(wide, slower, "lower", 0.1)["verdict"] == "worse"
    assert verdict(wide, [v - 60.0 for v in wide], "lower", 0.1)["verdict"] == "better"
    # Ties count for neither side: equal runs are never a gain.
    assert verdict(base, list(base), "lower", 0.1)["verdict"] == "within bound"
