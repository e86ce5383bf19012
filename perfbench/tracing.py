"""Span tracing of kgconformal's public functions, installed from the benchmark.

``install`` replaces each traced function with a wrapper in every
``kgconformal`` module namespace that holds it, including names a module
imported from another one (``experiment.candidate_ranks``,
``cli.prepare_run``).  A wrapper records one span per call: its name, the
run id current at the call, the index of the enclosing span, and start and
end times.  Spans stay in memory until ``Tracer.dump`` writes them out.

``op_metrics`` and ``setup_metrics`` turn the spans of a set of runs into the
per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("synth", "kg", "models", "scores", "conformal", "metrics", "experiment", "cli")

# Public functions of each layer, plus the private ``cli`` helpers that
# every staged command goes through.  A name a later version no longer has
# is skipped, and its metrics read 0.
TRACED = {
    "synth": ("generate_triples", "write_dataset"),
    "kg": ("load_kg", "split_triples", "make_queries", "build_answer_index", "rank_of", "candidate_ranks"),
    "models": ("train", "score", "predicate_vector", "save_model", "load_model", "export_scores",
               "import_scores", "export_predicate_vectors", "import_predicate_vectors"),
    "scores": ("nonconformity",),
    "conformal": ("build_partition", "fit_kgcp", "fit_mcp", "fit_condkgcp", "fit_part_mcp",
                  "predict_set", "verify_shrinkage"),
    "metrics": ("evaluate_predictions", "efficiency_rate", "aggregate_rows", "format_table"),
    "experiment": ("prepare_run", "run_single", "run_experiment", "tune_condkgcp"),
    "cli": ("main", "cmd_generate", "cmd_train", "cmd_score", "cmd_calibrate", "cmd_evaluate",
            "cmd_run", "_load_kg_for", "_run_data_from_artifacts", "_write_reports"),
}

FIT = ("conformal.build_partition", "conformal.fit_kgcp", "conformal.fit_mcp",
       "conformal.fit_condkgcp", "conformal.fit_part_mcp")
EVALUATE = tuple(f"metrics.{name}" for name in TRACED["metrics"])

IN_MEMORY = ("inmem-transe", "train-complex")
ALL = ("inmem-transe", "staged-sweep", "train-complex")

# (name, unit, better, end-to-end metric it should move, workloads where it should)
LAYER_METRICS = [
    ("synth.generate_s", "s", "lower", "setup_s", ALL),
    ("kg.load_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("kg.make_queries_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("kg.answer_index_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("kg.candidate_ranks_s", "s", "lower", "run_s", ("inmem-transe", "staged-sweep")),
    ("kg.candidate_ranks_calls", "count", "lower", "run_s", ("inmem-transe", "staged-sweep")),
    ("kg.rank_of_s", "s", "lower", "run_s", ("inmem-transe", "staged-sweep")),
    ("kg.rank_of_calls", "count", "lower", "run_s", ("inmem-transe", "staged-sweep")),
    ("kg.rank_calls_per_test_pair", "ratio", "lower", "run_s", ("staged-sweep",)),
    ("models.train_s", "s", "lower", "run_s", ("train-complex",)),
    ("models.train_epoch_s", "s", "lower", "run_s", ("train-complex",)),
    ("models.train_triples_per_s", "triples/s", "higher", "run_s", ("train-complex",)),
    ("models.score_s", "s", "lower", "run_s", ("inmem-transe",)),
    ("models.score_calls", "count", "lower", "run_s", ("inmem-transe",)),
    ("models.score_us_per_query", "us", "lower", "run_s", ("inmem-transe",)),
    ("models.score_bytes", "B.computed", "lower", "peak_rss_mb", ("inmem-transe",)),
    ("models.export_scores_s", "s", "lower", "setup_s", ("staged-sweep",)),
    ("models.import_scores_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("models.import_scores_calls", "count", "lower", "run_s", ("staged-sweep",)),
    ("models.score_file_mb", "MB", "lower", "peak_rss_mb", ("staged-sweep",)),
    ("scores.nonconformity_s", "s", "lower", "run_s", ("inmem-transe", "staged-sweep")),
    ("scores.nonconformity_calls", "count", "lower", "run_s", ("inmem-transe", "staged-sweep")),
    ("conformal.fit_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("conformal.fit_calls", "count", "lower", "run_s", ("staged-sweep",)),
    ("conformal.predict_set_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("conformal.predict_set_calls", "count", "lower", "run_s", ("staged-sweep",)),
    ("conformal.verify_shrinkage_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("conformal.set_members", "count", "lower", "run_s", ("staged-sweep",)),
    ("metrics.evaluate_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("experiment.prepare_run_s", "s", "lower", "run_s", IN_MEMORY),
    ("experiment.prepare_run_self_s", "s", "lower", "run_s", IN_MEMORY),
    ("experiment.prepare_run_calls", "count", "lower", "run_s", IN_MEMORY),
    ("experiment.prepare_run_rss_mb", "MB", "lower", "peak_rss_mb", ("inmem-transe",)),
    ("experiment.rundata_bytes", "B.computed", "lower", "peak_rss_mb", ("inmem-transe",)),
    ("experiment.run_single_self_s", "s", "lower", "run_s", IN_MEMORY),
    ("cli.calibrate_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("cli.calibrate_self_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("cli.evaluate_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("cli.evaluate_self_s", "s", "lower", "run_s", ("staged-sweep",)),
    ("setup.models.train_s", "s", "lower", "setup_s", ("staged-sweep",)),
    ("setup.models.score_s", "s", "lower", "setup_s", ("staged-sweep",)),
] + [
    (f"{layer}.self_s", "s", "lower", "setup_s" if layer == "synth" else "run_s", ALL) for layer in LAYERS
] + [
    ("residual_s", "s", "lower", "run_s", ALL),
    ("trace_overhead_frac", "ratio", "lower", "run_s", ALL),
]


def rss_mb() -> float:
    """Current resident set of this process from /proc/self/status (0 where absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def array_bytes(value) -> int:
    """Bytes held in numpy arrays reachable through dataclass fields, dicts and lists of arrays."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(int(v.nbytes) for v in value) if value and isinstance(value[0], np.ndarray) else 0
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(array_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def _members(args, kwargs, result) -> dict:
    return {"members": int(np.size(result))}


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs.get("path")
    return {"file_bytes": os.path.getsize(path)}


def _rundata_bytes(args, kwargs, result) -> dict:
    return {"bytes": array_bytes(result)}


# Extra figures taken from a call's arguments or result.
PROBES = {
    "conformal.predict_set": _members,
    "models.import_scores": _file_bytes,
    "experiment.prepare_run": _rundata_bytes,
}
RSS_SPANS = ("experiment.prepare_run",)

NAME, RUN, PARENT, START, END, EXTRA = range(6)


class Tracer:
    """In-memory span store; spans are lists ``[name, run, parent, start, end, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run: str = ""
        self.runs: dict[str, tuple[float, float]] = {}

    def begin_run(self, run: str) -> None:
        self.run = run
        start = time.perf_counter()
        self.runs[run] = (start, start)

    def end_run(self) -> None:
        start, _ = self.runs[self.run]
        self.runs[self.run] = (start, time.perf_counter())

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        probe = PROBES.get(name)
        track_rss = name in RSS_SPANS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, self.run, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            rss0 = rss_mb() if track_rss else 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None or track_rss:
                extra = probe(args, kwargs, result) if probe is not None else {}
                if track_rss:
                    extra["rss_growth_mb"] = rss_mb() - rss0
                span[EXTRA] = extra
            return result

        return traced

    def install(self) -> list:
        """Wrap every traced function wherever a kgconformal module holds it; returns the patches."""
        import importlib

        wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"kgconformal.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        patches = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "kgconformal" or modname.startswith("kgconformal.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patches.append((module, attr, value))
        return patches

    def merge(self, spans: list[list], runs: dict) -> None:
        """Append spans recorded by another tracer, e.g. in an operation's child process."""
        offset = len(self.spans)
        for span in spans:
            if span[PARENT] >= 0:
                span[PARENT] += offset
            self.spans.append(span)
        self.runs.update(runs)

    @staticmethod
    def uninstall(patches: list) -> None:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)

    def dump(self, path: Path, meta: dict) -> None:
        """Write the runs and spans as JSON lines: one header, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "runs": self.runs}) + "\n")
            for name, run, parent, start, end, extra in self.spans:
                fh.write(json.dumps([name, run, parent, round(start, 9), round(end, 9), extra]) + "\n")


class _Breakdown:
    """Span arithmetic over the spans of a chosen set of runs."""

    def __init__(self, tracer: Tracer, runs: list[str]):
        wanted = set(runs)
        self.spans = tracer.spans
        self.n_runs = max(len(runs), 1)
        self.wall = sum(tracer.runs[r][1] - tracer.runs[r][0] for r in runs)
        self.by_name: dict[str, list[int]] = {}
        self.top = 0.0
        child: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s[RUN] not in wanted:
                continue
            self.by_name.setdefault(s[NAME], []).append(i)
            if s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
            else:
                self.top += s[END] - s[START]
        self.child = child

    def _dur(self, i: int) -> float:
        s = self.spans[i]
        return s[END] - s[START]

    def _has_ancestor_in(self, i: int, names) -> bool:
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def of(self, names) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        return [i for name in names for i in self.by_name.get(name, ())]

    def calls(self, names) -> float:
        return len(self.of(names)) / self.n_runs

    def time(self, names) -> float:
        """Time under the outermost spans of ``names`` per run (nested calls are not counted twice)."""
        names = (names,) if isinstance(names, str) else names
        return sum(self._dur(i) for i in self.of(names) if not self._has_ancestor_in(i, names)) / self.n_runs

    def self_time(self, names) -> float:
        return sum(self._dur(i) - self.child.get(i, 0.0) for i in self.of(names)) / self.n_runs

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return self.self_time([name for name in self.by_name if name.startswith(prefix)])

    def residual(self) -> float:
        """Wall time of the runs that no top-level span covers, per run."""
        return (self.wall - self.top) / self.n_runs

    def extra_sum(self, name: str, key: str) -> float:
        return sum((self.spans[i][EXTRA] or {}).get(key, 0) for i in self.of(name)) / self.n_runs

    def extra_max(self, name: str, key: str) -> float:
        return max([(self.spans[i][EXTRA] or {}).get(key, 0) for i in self.of(name)], default=0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(tracer: Tracer, runs: list[str], *, n_entities: int, test_pairs: int,
               epochs: int, train_triples: int) -> dict[str, float]:
    """Per-layer metrics of the measured phase, per measured operation."""
    b = _Breakdown(tracer, runs)
    score_calls = b.calls("models.score")
    train_s = b.time("models.train")
    train_calls = b.calls("models.train")
    out = {
        "kg.load_s": b.time("kg.load_kg"),
        "kg.make_queries_s": b.time("kg.make_queries"),
        "kg.answer_index_s": b.time("kg.build_answer_index"),
        "kg.candidate_ranks_s": b.time("kg.candidate_ranks"),
        "kg.candidate_ranks_calls": b.calls("kg.candidate_ranks"),
        "kg.rank_of_s": b.time("kg.rank_of"),
        "kg.rank_of_calls": b.calls("kg.rank_of"),
        "kg.rank_calls_per_test_pair": _ratio(b.calls("kg.candidate_ranks"), test_pairs),
        "models.train_s": train_s,
        "models.train_epoch_s": _ratio(train_s, train_calls * epochs),
        "models.train_triples_per_s": _ratio(train_calls * epochs * train_triples, train_s),
        "models.score_s": b.time("models.score"),
        "models.score_calls": score_calls,
        "models.score_us_per_query": _ratio(1e6 * b.time("models.score"), score_calls),
        "models.score_bytes": score_calls * n_entities * 8,
        "models.import_scores_s": b.time("models.import_scores"),
        "models.import_scores_calls": b.calls("models.import_scores"),
        "models.score_file_mb": b.extra_max("models.import_scores", "file_bytes") / 1e6,
        "scores.nonconformity_s": b.time("scores.nonconformity"),
        "scores.nonconformity_calls": b.calls("scores.nonconformity"),
        "conformal.fit_s": b.time(FIT),
        "conformal.fit_calls": b.calls(FIT),
        "conformal.predict_set_s": b.time("conformal.predict_set"),
        "conformal.predict_set_calls": b.calls("conformal.predict_set"),
        "conformal.verify_shrinkage_s": b.time("conformal.verify_shrinkage"),
        "conformal.set_members": b.extra_sum("conformal.predict_set", "members"),
        "metrics.evaluate_s": b.time(EVALUATE),
        "experiment.prepare_run_s": b.time("experiment.prepare_run"),
        "experiment.prepare_run_self_s": b.self_time("experiment.prepare_run"),
        "experiment.prepare_run_calls": b.calls("experiment.prepare_run"),
        "experiment.prepare_run_rss_mb": b.extra_sum("experiment.prepare_run", "rss_growth_mb"),
        "experiment.rundata_bytes": b.extra_sum("experiment.prepare_run", "bytes"),
        "experiment.run_single_self_s": b.self_time("experiment.run_single"),
        "cli.calibrate_s": b.time("cli.cmd_calibrate"),
        "cli.calibrate_self_s": b.self_time("cli.cmd_calibrate"),
        "cli.evaluate_s": b.time("cli.cmd_evaluate"),
        "cli.evaluate_self_s": b.self_time("cli.cmd_evaluate"),
    }
    for layer in LAYERS:
        if layer != "synth":
            out[f"{layer}.self_s"] = b.layer_self(layer)
    out["residual_s"] = b.residual()
    return out


def setup_metrics(tracer: Tracer, runs: list[str]) -> dict[str, float]:
    """Per-layer metrics of the set-up phase, per set-up."""
    b = _Breakdown(tracer, runs)
    return {
        "synth.generate_s": b.time("synth.generate_triples"),
        "synth.self_s": b.layer_self("synth"),
        "models.export_scores_s": b.time("models.export_scores"),
        "setup.models.train_s": b.time("models.train"),
        "setup.models.score_s": b.time("models.score"),
    }


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median time a tracing wrapper adds to one call, measured on a function that does nothing."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def spans_per_run(tracer: Tracer, runs: list[str]) -> float:
    wanted = set(runs)
    return sum(1 for s in tracer.spans if s[RUN] in wanted) / max(len(runs), 1)


def overhead_frac(spans: float, cost_s: float, traced_s: float) -> float:
    """Tracing overhead of an operation that took ``traced_s`` with ``spans`` spans of ``cost_s`` each.

    Traced and untraced operations each take seconds, so a run holds too few of
    them for the difference of their medians to be more than noise.
    """
    added = spans * cost_s
    return _ratio(added, traced_s - added)
