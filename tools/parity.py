"""Write the parity fixtures: eleven configs, each run staged and end to end, into one directory.

A refactor that claims "same numbers" is checked by running this on two
trees and comparing the outputs byte for byte::

    python3 tools/parity.py OUT_NEW
    python3 tools/parity.py --src OTHER_TREE/src OUT_OLD
    diff -r OUT_OLD OUT_NEW

It generates two datasets (``DATASETS``): ``generate --entities 100 --counts
200 100 60 40 30 --seed 0`` into ``OUT_DIR/data``, which every config reads
unless it names another, and ``generate --entities 100 --counts 600 100 60
--clusters 2 --seed 0`` into ``OUT_DIR/data-rich``, whose direction groups
reach ``tune``'s smallest phi.  It then writes each config to
``OUT_DIR/<name>.json``: 40 epochs and dim 8, the default methods and phi,
plus the settings in ``CONFIGS``.  Each config runs twice:
``train``, ``score``, ``calibrate`` and ``evaluate --plot-data`` into
``OUT_DIR/<name>/staged``, and ``run --plot-data`` into ``OUT_DIR/<name>/run``.
The stdout of each stage is kept in ``OUT_DIR/<name>/<stage>.stdout``.  Last,
the stdout of ``verify-bounds --seed 0`` (its three check lines) goes to
``OUT_DIR/verify-bounds.stdout``.  Every
path is relative to ``OUT_DIR``, so the echoed ``config.json`` files match
across trees too.  Each stage runs ``python -m kgconformal.cli`` from the
tree's ``src`` (this repository's, or ``--src``) in a fresh process.  Exit
status: 0 when every stage exits 0; otherwise the first failing stage's
status, after its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BASE = {"dataset": "data/manifest.json", "epochs": 40, "dim": 8}
CONFIGS = {
    "transe-l2": {"model_kind": "transe", "transe_norm": 2},
    "transe-l1-split": {"model_kind": "transe", "transe_norm": 1, "split_directions": True,
                        "seeds": [0, 1], "epsilons": [0.1, 0.2]},
    "distmult": {"model_kind": "distmult"},
    "complex-tune": {"model_kind": "complex", "tune": True, "epsilons": [0.1, 0.2]},
    "distmult-aps": {"model_kind": "distmult", "scorer": {"kind": "aps"}, "epsilons": [0.1, 0.2]},
    "transe-raps-raw": {"model_kind": "transe", "scorer": {"kind": "raps"}, "filtered": False,
                        "seeds": [0, 1], "epsilons": [0.1, 0.2]},
    "distmult-raw-macro": {"model_kind": "distmult", "filtered": False, "macro_avesize": True,
                           "epsilons": [0.1, 0.2]},
    "transe-tail-only": {"model_kind": "transe", "both_directions": False, "epsilons": [0.1, 0.2]},
    "transe-dim64": {"model_kind": "transe", "dim": 64, "epsilons": [0.05]},
    "transe-aps-tune-split": {"model_kind": "transe", "scorer": {"kind": "aps"}, "tune": True,
                              "split_directions": True, "epsilons": [0.1, 0.2]},
    "transe-aps-tune-split-rich": {"dataset": "data-rich/manifest.json", "model_kind": "transe",
                                   "scorer": {"kind": "aps"}, "tune": True, "split_directions": True,
                                   "epsilons": [0.1, 0.2]},
}
DATASETS = {  # output directory -> generate arguments
    "data": ["--entities", "100", "--counts", "200", "100", "60", "40", "30", "--seed", "0"],
    "data-rich": ["--entities", "100", "--counts", "600", "100", "60", "--clusters", "2", "--seed", "0"],
}


def _cli(out: Path, src: Path, args: list[str], stdout: Path) -> None:
    """Run one CLI stage in ``out``; on failure print its stderr and exit with its status."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kgconformal.cli", *args], cwd=out, env=env,
                          capture_output=True, text=True)
    stdout.write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0:
        print(f"parity: '{' '.join(args)}' exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        sys.exit(proc.returncode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out_dir", type=Path, help="new or empty output directory")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the tree to run (default: this repository's)")
    args = parser.parse_args(argv)
    out, src = args.out_dir.resolve(), args.src.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)

    for data, generate in DATASETS.items():
        _cli(out, src, ["generate", *generate, "--out", data], out / f"generate-{data}.stdout")
    for name, settings in CONFIGS.items():
        config = f"{name}.json"
        (out / config).write_text(json.dumps({**BASE, **settings}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        (out / name).mkdir()
        staged = ["--config", config, "--output-dir", f"{name}/staged"]
        for stage in ("train", "score", "calibrate", "evaluate"):
            extra = ["--plot-data"] if stage == "evaluate" else []
            _cli(out, src, [stage, *staged, *extra], out / name / f"{stage}.stdout")
        _cli(out, src, ["run", "--config", config, "--output-dir", f"{name}/run", "--plot-data"],
             out / name / "run.stdout")
        print(f"parity: {name} done")
    _cli(out, src, ["verify-bounds", "--seed", "0"], out / "verify-bounds.stdout")
    print("parity: verify-bounds done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
