"""Write the byte-identity reference set of this checkout's outputs.

    python3 tools/write_outputs.py OUT_DIR

imports ``acda`` from this checkout's ``src/`` and writes into OUT_DIR (which
must not exist yet):

- ``run/``: ``acda run`` on a small two-moons config (120+120 points, 3 query
  rounds, 2+2 epochs, seeds 1 and 2);
- ``compare/`` and ``compare.stdout``: ``acda compare --strategies
  active,random,none --seeds 1,2`` on the same config;
- ``gen/dataset.csv``: ``acda gen`` on it;
- ``check.stdout``: ``acda check``;
- ``perfbench-moons-run/`` and ``perfbench-gauss-wide/``: ``run_experiment``
  with seed 1 on each config under ``perfbench/configs`` (read, not changed);
- ``status.txt``: every command's exit status.

A change that should keep every output byte-identical is checked by running
this script in the parent's checkout and in the change's, then ``diff -r`` on
the two directories.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/write_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    os.makedirs(argv[0])
    # relative paths, so the captured stdout does not name OUT_DIR
    os.chdir(argv[0])
    with open("exp.cfg", "w", encoding="utf-8") as fh:
        fh.write(CONFIG)

    statuses = [
        ("run", _cli(["run", "exp.cfg", "--out", "run"])),
        ("compare", _cli(["compare", "exp.cfg", "--strategies", "active,random,none",
                          "--seeds", "1,2", "--out", "compare"], "compare.stdout")),
        ("gen", _cli(["gen", "exp.cfg", "--out", "gen"], "gen.stdout")),
        ("check", _cli(["check"], "check.stdout")),
    ]
    for name in PERFBENCH_CONFIGS:
        config = experiments.parse_config(os.path.join(ROOT, "perfbench", "configs",
                                                       f"{name}.cfg"))
        config.seeds = [1]
        statuses.append((name, experiments.run_experiment(config,
                                                          out_dir=f"perfbench-{name}")))
    with open("status.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {status}\n" for name, status in statuses)
    return max(status for _, status in statuses)


if __name__ == "__main__":
    sys.exit(main())
