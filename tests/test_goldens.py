"""The golden list ``tests/data/goldens.json`` and its runner ``tests/goldens.py``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cpcodes
import goldens


def test_every_golden_file_is_listed():
    """Each ``tests/data/golden_*`` file is an entry's output or input, or the
    library goldens of ``test_golden_designs.py``; every entry's files exist,
    and it writes to ``{out}`` once."""
    raw = json.loads((goldens.DATA / "goldens.json").read_text())
    assert len(raw) == len(goldens.ENTRIES)  # names are unique
    outputs = {entry["golden"] for entry in raw}
    inputs = {a.removeprefix("{data}/") for entry in raw for a in entry["argv"]
              if a.startswith("{data}/")}
    for entry in raw:
        assert entry["argv"].count("{out}") == 1, entry["name"]
    assert all((goldens.DATA / name).is_file() for name in outputs | inputs)
    on_disk = {p.name for p in goldens.DATA.glob("golden_*")}
    assert on_disk <= outputs | inputs | {"golden_designs.json"}


@pytest.mark.slow
def test_runner_names_the_entry_whose_golden_differs(tmp_path):
    """With one byte of one golden changed, the runner reproduces every other
    entry, exits 1, names that entry and keeps its output, which is the
    golden as it was."""
    tests = tmp_path / "tests"
    shutil.copytree(goldens.DATA, tests / "data")
    shutil.copy(Path(goldens.__file__), tests)
    name = "design_wsc_var_v2"
    edited = tests / "data" / goldens.ENTRIES[name]["golden"]
    data = bytearray(edited.read_bytes())
    data[len(data) // 2] ^= 1
    edited.write_bytes(data)
    kept = tmp_path / "kept"
    kept.mkdir()
    src = str(Path(cpcodes.__file__).resolve().parent.parent)
    env = dict(os.environ, TMPDIR=str(kept),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(tests / "goldens.py"), sys.executable, "-m", "cpcodes.cli"],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 1, run.stdout + run.stderr
    failed = [line.split()[1].rstrip(":") for line in run.stdout.splitlines() if line.startswith("FAIL")]
    assert failed == [name], run.stdout
    assert f"{len(goldens.ENTRIES) - 1} of {len(goldens.ENTRIES)} golden runs reproduced" in run.stdout
    out = Path(run.stdout.split("kept output: ")[1].split()[0])
    assert out.parent.parent == kept
    assert out.read_bytes() == goldens.golden(name)
