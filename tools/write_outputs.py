"""Write the byte-identity reference set of this checkout's outputs.

    python3 tools/write_outputs.py OUT_DIR

imports ``acda`` from this checkout's ``src/`` and writes into OUT_DIR (which
must not exist yet):

- ``run/``: ``acda run`` on a small two-moons config (120+120 points, 3 query
  rounds, 2+2 epochs, seeds 1 and 2);
- ``compare/``: ``acda run`` on the same config plus ``strategy =
  active,random,none``;
- ``gen/dataset.csv``: ``acda gen`` on it;
- ``check.stdout``: ``acda check``;
- ``perfbench-moons-run/`` and ``perfbench-gauss-wide/``: ``run_experiment``
  with seed 1 on each config under ``perfbench/configs`` (read, not changed);
- ``status.txt``: every command's exit status.

It then prints, as JSON, the numpy, scipy and BLAS versions and the machine
type it ran under, and the sha256 of every file it wrote.
``tests/reference_outputs.json`` holds that print-out for the committed code;
a change that moves output bytes on purpose regenerates it with

    python3 tools/write_outputs.py OUT_DIR > tests/reference_outputs.json

The BLAS pool is fixed at one thread before numpy loads, because the
784-d runs' bytes depend on the thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from acda import cli, experiments  # noqa: E402

CONFIG = """\
budget = 0.1
query_rounds = 3
stage1_epochs = 2
stage3_epochs = 2
batch_size = 40
seeds = 1,2
dataset.kind = two_moons
dataset.n_source = 120
dataset.n_target = 120
dataset.rotation_deg = 30
dataset.noise_sd = 0.1
dataset.label_flip_rate = 0.1
"""

PERFBENCH_CONFIGS = ("moons-run", "gauss-wide")


def _cli(args: list, stdout_file: str | None = None) -> int:
    """``acda ARGS``; its stdout goes to ``stdout_file`` when one is given."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cli.main(args)
    if stdout_file is not None:
        with open(stdout_file, "w", encoding="utf-8") as fh:
            fh.write(captured.getvalue())
    return status


def library_versions() -> dict:
    """The libraries and machine type whose arithmetic the outputs' bytes
    depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "machine": platform.machine()}


def file_hashes(root: str) -> dict:
    """``{path relative to root: sha256}`` for every file under ``root``."""
    hashes = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/write_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    try:
        os.makedirs(argv[0])
    except FileExistsError:
        print(f"write_outputs: {argv[0]} exists already; OUT_DIR must be new", file=sys.stderr)
        return 2
    # relative paths, so the captured stdout does not name OUT_DIR
    os.chdir(argv[0])
    with open("exp.cfg", "w", encoding="utf-8") as fh:
        fh.write(CONFIG)

    statuses = [("run", _cli(["run", "exp.cfg", "--out", "run"]))]
    # exp.cfg plus a strategy list, written outside OUT_DIR: the set holds
    # exp.cfg and the outputs only
    with tempfile.TemporaryDirectory() as tmp:
        compare_cfg = os.path.join(tmp, "compare.cfg")
        with open(compare_cfg, "w", encoding="utf-8") as fh:
            fh.write(CONFIG + "strategy = active,random,none\n")
        statuses.append(("compare", _cli(["run", compare_cfg, "--out", "compare"])))
    statuses += [
        ("gen", _cli(["gen", "exp.cfg", "--out", "gen"], "gen.stdout")),
        ("check", _cli(["check"], "check.stdout")),
    ]
    for name in PERFBENCH_CONFIGS:
        config = replace(experiments.parse_config(os.path.join(ROOT, "perfbench", "configs",
                                                               f"{name}.cfg")), seeds=[1])
        statuses.append((name, experiments.run_experiment(config,
                                                          out_dir=f"perfbench-{name}")))
    with open("status.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {status}\n" for name, status in statuses)
    json.dump({"versions": library_versions(), "sha256": file_hashes(".")},
              sys.stdout, indent=1)
    print()
    return max(status for _, status in statuses)


if __name__ == "__main__":
    sys.exit(main())
