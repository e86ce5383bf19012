#!/usr/bin/env python3
"""kgconformal benchmark launcher.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inmem-transe --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; without it the
launcher exits with code 2.  ``setup_s`` is the median time, over several
fresh interpreters run one after another, from importing the package to the
end of the workload's set-up.  The measured phase repeats the workload's
operation, each time in a child forked after set-up, until ``--seconds``
have passed; ``run_s`` is the median operation time and ``peak_rss_mb`` the
largest resident set of the process and its children.  Every operation's
output is checked, and after the measured phase a small instance of the
workload is checked against a reference built from the per-query primitives.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  In a traced
run every operation is traced; ``trace_overhead_frac`` is the spans per
operation times the measured cost of one span, over the untraced rest of the
operation.  A full record (environment, samples, checks) goes to
``.perfbench_out/``, and the spans of a traced run to
``.perfbench_out/spans_<workload>_s<seed>.jsonl``.

Without ``--workload`` every workload runs once, each in its own process, and
a table of their end-to-end metrics is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("inmem-transe", "staged-sweep", "train-complex")
# One BLAS thread (<= nproc) keeps the figures steady on a shared 2-core box.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # show_config differs across numpy versions
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every operation's child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class ChildFailed(RuntimeError):
    pass


def in_child(fn):
    """Run ``fn`` in a forked child and return its result, unpickled from a pipe.

    The child starts from the parent's state after set-up and allocates its
    working memory afresh, as a user's process does, so every operation pays
    the same page faults.  The parent waits for the child before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = ("ok", fn())
            except Exception as exc:
                payload = ("error", f"{exc!r}\n{traceback.format_exc()}")
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, wait_status = os.waitpid(pid, 0)
    if not data:
        raise ChildFailed(f"operation process ended without a result (wait status {wait_status})")
    kind, value = pickle.loads(data)  # written by our own child above
    if kind != "ok":
        raise ChildFailed(value)
    return value


def launch(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    """Run one workload in a process of its own and return the JSON object of its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}_s{seed}_t{trace}.json"


def run_workload(args, started: float) -> int:
    """``started`` is when this process began importing kgconformal."""
    import tracing
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, work)
    failed = 0
    failures: list[str] = []
    info: dict = {}

    def operation(run: str):
        def op():
            child_tracer = tracing.Tracer() if tracer is not None else None
            if child_tracer is not None:
                child_tracer.install()
                child_tracer.begin_run(run)
            t0 = time.perf_counter()
            out = wl.run_once()
            dt = time.perf_counter() - t0
            if child_tracer is None:
                return dt, out, None
            child_tracer.end_run()
            return dt, out, (child_tracer.spans, child_tracer.runs)
        return op

    try:
        patches = tracer.install() if tracer is not None else None
        if patches is not None:
            tracer.begin_run("setup")
        try:
            wl.setup()
        finally:
            # Imports and one set-up, as a user's fresh process pays them.
            setup_times = [time.perf_counter() - started]
            if patches is not None:
                tracer.end_run()
                tracer.uninstall(patches)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        if tracer is None:
            # The other set-up samples come from fresh interpreters too, one at a time.
            for _ in range(wl.setup_repeats - 1):
                setup_times.append(launch(args.workload, args.seed, args.seconds, 0, "--setup-only")["setup_s"])

        samples: list[float] = []
        runs: list[str] = []
        start = time.perf_counter()
        i = 0
        while True:
            run = f"op-{i}"
            wl.attempted += wl.stages_per_op
            gc.collect()
            try:
                dt, out, spans = in_child(operation(run))
                info["op"] = wl.check(out)
            except Exception as exc:  # an operation's failure is counted, not fatal
                failed += 1
                failures.append(f"{run}: {exc!r}")
                print(f"{run} failed: {exc}", file=sys.stderr)
            else:
                samples.append(dt)
                runs.append(run)
                if spans is not None:
                    tracer.merge(*spans)
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and (samples or failed >= 3 or elapsed >= 4 * args.seconds):
                break
        peak = peak_rss_mb()

        for name, step in (("final", wl.final_check), ("reference", wl.reference_check)):
            try:
                info[name] = step()
            except Exception as exc:
                failed += 1
                failures.append(f"{name} check: {exc!r}")
                traceback.print_exc(file=sys.stderr)
    finally:
        import shutil

        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    if not samples:
        print(f"error: no operation of {args.workload} succeeded", file=sys.stderr)
        return 1
    run_s = statistics.median(samples)
    extra: dict = {}
    if tracer is None:
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        layer = tracing.op_metrics(tracer, runs, **wl.sizes())
        layer.update(tracing.setup_metrics(tracer, ["setup"]))
        extra["span_cost_s"] = tracing.span_cost_s()
        extra["spans_per_op"] = tracing.spans_per_run(tracer, runs)
        layer["trace_overhead_frac"] = tracing.overhead_frac(extra["spans_per_op"], extra["span_cost_s"], run_s)
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        values = {name: (float(layer[name]), units[name]) for name in units}

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_samples_s": setup_times, "run_samples_s": samples, **extra,
        "attempted": wl.attempted, "failed": failed, "failures": failures, "checks": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT / f"spans_{args.workload}_s{args.seed}.jsonl",
                    {"workload": args.workload, "seed": args.seed, "env": env})

    print("# env " + json.dumps(env))
    print(f"# {'traced ' if tracer else ''}run_s samples {len(samples)} (median {run_s:.4f} s), "
          f"setup samples {len(setup_times)}, attempted {wl.attempted}, failed {failed}")
    print("# checks " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(wl.attempted, 1),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each end-to-end metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        try:
            result = launch(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kgconformal" / "__init__.py").is_file():
        print(f"error: no kgconformal package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported, here or in a child
        os.environ[var] = BLAS_THREADS
    if args.workload is None:
        return run_all(args)

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kgconformal
    import kgconformal.cli  # noqa: F401
    if Path(kgconformal.__file__).resolve().parent != (SRC / "kgconformal").resolve():
        print(f"error: kgconformal imported from {kgconformal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args, started)


if __name__ == "__main__":
    sys.exit(main())
