"""Byte identity of the reference set: every file ``tools/write_outputs.py``
writes has the sha256 recorded in ``tests/reference_outputs.json``.

A change that moves output bytes on purpose regenerates that file in the same
change (the tool's docstring gives the command), so its diff shows which
outputs moved.  The hashes hold only under the numpy, scipy and BLAS versions
and the machine type recorded with them: those pick the summation order and
the vector kernels, so another version may move the last bit of a float with
no change to acda.  Under other versions the test is skipped and names both
sets; criterion 9 still checks that two runs agree under any versions.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "write_outputs.py")
REFERENCE = os.path.join(ROOT, "tests", "reference_outputs.json")


def test_reference_outputs_match_the_recorded_hashes(tmp_path):
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    done = subprocess.run([sys.executable, TOOL, str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    written = json.loads(done.stdout)
    if written["versions"] != reference["versions"]:
        pytest.skip(f"hashes recorded under {reference['versions']}, "
                    f"this is {written['versions']}")
    want, got = reference["sha256"], written["sha256"]
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert moved == [], f"outputs whose bytes moved: {moved}"


def test_an_existing_out_dir_is_refused_before_anything_is_written(tmp_path):
    (tmp_path / "kept.txt").write_text("kept")
    done = subprocess.run([sys.executable, TOOL, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"write_outputs: {tmp_path} exists already; OUT_DIR must be new\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.txt"]
