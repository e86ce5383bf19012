#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise it.

    python3 perfbench/summarize.py --seeds 0-9 [--workloads inmem-transe,...] [--traced] [--out FILE]

Each run is its own process (``perfbench/run.py``), one after another.  For
every end-to-end metric and workload it prints the median, the quartiles and
the spread (quartile distance over the median) next to the metric's bound in
``BENCHMARK.json``, and flags a spread above a third of the bound.
``--traced`` adds one traced run per workload (first seed) and prints its
per-layer breakdown.  ``--out`` writes the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def _self_total(m: dict) -> float:
    return sum(v for k, v in m.items() if k.endswith(".self_s") and not k.startswith("synth.")) + m["residual_s"]


# What the traced breakdown must show for each workload to do its job.
INTENT = {
    "inmem-transe": ("models.score + kg.candidate_ranks take most of the self time",
                     lambda m: (m["models.score_s"] + m["kg.candidate_ranks_s"]) / _self_total(m) > 0.5),
    "staged-sweep": ("no scoring and no training in the measured phase",
                     lambda m: m["models.score_calls"] == 0 and m["models.train_s"] == 0),
    "train-complex": ("models.train takes most of the self time",
                      lambda m: m["models.train_s"] / _self_total(m) > 0.5),
}


def seed_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    result = run.launch(workload, seed, seconds, trace)
    result["wall_s"] = time.perf_counter() - t0
    result["record"] = json.loads(run.record_path(workload, seed, trace).read_text())
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {
        "seconds": args.seconds,
        "seeds": seed_list(args.seeds),
        "layer_map": {name: {"unit": unit, "moves": moves, "on": list(on)}
                      for name, unit, _, moves, on in tracing.LAYER_METRICS},
        "workloads": {},
    }
    status = 0
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
            "env": results[0]["record"]["env"],
            "checks_first_seed": results[0]["record"]["checks"],
            "run_samples_per_seed": [len(r["record"]["run_samples_s"]) for r in results],
            "setup_samples_per_seed": [len(r["record"]["setup_samples_s"]) for r in results],
            "wall_s_per_run": [r["wall_s"] for r in results],
        }
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}, correct {entry['correct']}, "
              f"wall per run {statistics.median(entry['wall_s_per_run']):.1f} s (max {max(entry['wall_s_per_run']):.1f})")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            stats = spread(values)
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["values"] = values
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:12s} median {stats['median']:10.4f} {stats['unit']:3s} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} spread {stats['spread']:.3f} "
                  f"(bound {bound}){flag}")
        if args.traced:
            traced = run_once(workload, summary["seeds"][0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_units"] = {k: v["unit"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            entry["traced_wall_s"] = traced["wall_s"]
            for name, value in entry["per_layer"].items():
                print(f"    {name:34s} {value:14.6g} {entry['per_layer_units'][name]}")
            if workload in INTENT:
                text, holds = INTENT[workload]
                entry["intent"] = {"claim": text, "holds": bool(holds(entry["per_layer"]))}
                print(f"  intent: {text}: {'holds' if entry['intent']['holds'] else 'DOES NOT HOLD'}")
                status |= 0 if entry["intent"]["holds"] else 1
        status |= 0 if entry["correct"] else 1
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
