#!/usr/bin/env python3
"""Self-test of the benchmark: its checks pass on correct output and catch a perturbed report.

    python3 perfbench/selftest.py

For each workload, at a tiny size: the set-up and one operation run, the
per-operation check passes, and then fails on a dropped report, on a changed
AveSize and on kgcp coverage outside its band; the small-instance reference
check passes, and fails when one report is changed.  It also checks that
``BENCHMARK.json`` lists the workloads and per-layer metrics the code defines,
and that the launcher refuses a directory without the package sources.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"[FAIL] {what}")


def expect_failure(what: str, fn) -> None:
    try:
        fn()
    except checks.CheckFailed as exc:
        print(f"[PASS] {what} is caught: {str(exc)[:120]}")
        return
    require(False, f"{what} was not caught")


def _bump_avesize(item) -> None:
    if isinstance(item, dict):
        item["avesize"] = repr(float(item["avesize"]) + 0.5)
    else:
        item.avesize += 0.5


def smoke(name: str) -> None:
    wl = WORKLOADS[name](seed=3, work=WORK / name)
    wl.shape = wl.shape.small()
    wl.setup()
    out = wl.run_once()
    wl.check(out)
    print(f"[PASS] {name}: tiny operation passes its check")

    expect_failure(f"{name}: a dropped report", lambda: wl.check(copy.deepcopy(out)[1:]))
    changed = copy.deepcopy(out)
    _bump_avesize(changed[-1])
    expect_failure(f"{name}: a changed AveSize", lambda: wl.check(changed))
    if not isinstance(out[0], dict):  # in-memory reports carry per-predicate coverage
        shifted = copy.deepcopy(out)
        kgcp = next(r for r in shifted if r.method == "kgcp")
        kgcp.coverage = {r: 0.5 for r in kgcp.coverage}
        expect_failure(f"{name}: kgcp coverage outside its band", lambda: wl.check(shifted))

    wl.final_check()
    wl.reference_check()
    print(f"[PASS] {name}: small instance equals the reference")
    expect_failure(f"{name}: one report off the reference",
                   lambda: wl.reference_check(corrupt=lambda reports: _bump_avesize(reports[0])))


def benchmark_file() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names differ")
    for w in bench["workloads"]:
        require(w["why"] == WORKLOADS[w["name"]].why, f"{w['name']}: 'why' differs from workloads.py")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    defined = [(name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS]
    require(declared == defined, "per_layer metrics differ from tracing.LAYER_METRICS")
    require(any(m["name"] == "setup_s" for m in bench["end_to_end"]), "setup_s missing")
    print("[PASS] BENCHMARK.json matches the workloads and per-layer metrics in the code")


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "inmem-transe",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    require(proc.returncode != 0 and not proc.stdout.strip(), "launcher ran without package sources")
    print(f"[PASS] launcher refuses a directory without sources (exit {proc.returncode})")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        benchmark_file()
        bare_directory()
        for name in WORKLOADS:
            smoke(name)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest: all checks behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
