"""Run every golden command of ``tests/data/goldens.json`` and compare its output.

    python tests/goldens.py PREFIX...

for example ``python tests/goldens.py cpc`` for the installed script, or
``PYTHONPATH=src python tests/goldens.py python -m cpcodes.cli``.

Each entry runs as ``PREFIX argv``, with ``{data}`` in its argv standing for
``tests/data`` and ``{out}`` for a file named like its golden in a fresh
temporary directory.  The output must equal the golden byte for byte.
``PREFIX replay`` of the run's manifest must then replace that output (a new
file, not a rewrite in place) with the same bytes, and leave no ``*.part``
file.  Each failing entry is printed with the path of its kept output, and
the runner exits 1 once every entry has run.  After an intended change of
output, copy each kept output over its golden.

The tests import :data:`ENTRIES`, :func:`argv` and :func:`golden` to run the
same commands in process.  Standard library only.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
ENTRIES = {entry["name"]: entry for entry in json.loads((DATA / "goldens.json").read_text())}


def argv(name: str, out) -> list[str]:
    """Entry ``name``'s ``cpc`` argv, with its output written to ``out``."""
    return [a.replace("{data}", str(DATA)).replace("{out}", str(out))
            for a in ENTRIES[name]["argv"]]


def golden(name: str) -> bytes | None:
    """The bytes entry ``name`` must write; None while its golden is not committed."""
    path = DATA / ENTRIES[name]["golden"]
    return path.read_bytes() if path.is_file() else None


def _run(command: list[str]) -> str | None:
    """None when ``command`` exits 0, else its exit code and stderr."""
    run = subprocess.run(command, capture_output=True, text=True, timeout=600)
    return f"exit {run.returncode}: {run.stderr.strip()}" if run.returncode else None


def _problem(prefix: list[str], name: str, out: Path) -> str | None:
    """What entry ``name``, run by ``prefix`` into ``out``, got wrong, or None."""
    want = golden(name)
    failed = _run([*prefix, *argv(name, out)])
    if failed:
        return failed
    if not out.is_file() or out.read_bytes() != want:
        return "output differs from its golden"
    first = out.stat().st_ino
    failed = _run([*prefix, "replay", f"{out}.manifest.json"])
    if failed:
        return f"replay: {failed}"
    if out.stat().st_ino == first:
        return "replay did not replace the output"
    if out.read_bytes() != want:
        return "replayed output differs from its golden"
    parts = sorted(p.name for p in out.parent.glob("*.part"))
    return f"left {', '.join(parts)}" if parts else None


def main(prefix: list[str]) -> int:
    failed = 0
    for name, entry in ENTRIES.items():
        started = time.monotonic()
        out = Path(tempfile.mkdtemp(prefix=f"golden-{name}-")) / entry["golden"]
        problem = _problem(prefix, name, out)
        if problem is None:
            shutil.rmtree(out.parent)
            print(f"ok   {name} ({time.monotonic() - started:.1f} s)")
            continue
        failed += 1
        print(f"FAIL {name}: {problem}\n     entry: {json.dumps(entry)}\n     kept output: {out}")
    print(f"{len(ENTRIES) - failed} of {len(ENTRIES)} golden runs reproduced by {' '.join(prefix)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
