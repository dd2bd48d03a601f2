"""Pinned Lloyd designs: both designers, both variants, J in {2, 3}, one forced reseed.

``tests/data/golden_designs.json`` holds every float of each design as
``float.hex`` so that the comparison is exact. Regenerate it (only when a
change of design output is intended) with

    PYTHONPATH=src python tests/test_golden_designs.py
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpcodes import design
from cpcodes.codec import VARIANT_I, VARIANT_II
from cpcodes.combinatorics import Composition
from cpcodes.design import DesignConfig, design_common_composition, lloyd_general
from cpcodes.order_stats import gaussian_order_stats

import goldens

GOLDEN = Path(__file__).parent / "data" / "golden_designs.json"
SAMPLES = 10_000

# name -> (designer, variant, J, compositions, seed, shared_start); the common
# designer takes the one composition, the general designer one per sphere
CASES = {
    "common_v1_j2": ("common", VARIANT_I, 2, [(1, 2, 3, 2)], 101, False),
    "common_v1_j3": ("common", VARIANT_I, 3, [(2, 2, 2, 2)], 102, False),
    "common_v2_j2": ("common", VARIANT_II, 2, [(3, 3, 2)], 103, False),
    "common_v2_j3": ("common", VARIANT_II, 3, [(1, 2, 3, 2)], 104, False),
    "common_v2_j2_one_level": ("common", VARIANT_II, 2, [(8,)], 105, False),
    "general_v1_j2": ("general", VARIANT_I, 2, [(2, 4, 2), (1, 3, 3, 1)], 201, False),
    "general_v1_j3": ("general", VARIANT_I, 3, [(2, 4, 2), (1, 3, 3, 1), (4, 4)], 202, False),
    "general_v2_j2": ("general", VARIANT_II, 2, [(4, 3, 1), (2, 2, 2, 2)], 203, False),
    "general_v2_j3": ("general", VARIANT_II, 3, [(8,), (3, 3, 2), (1, 2, 3, 2)], 204, False),
    "common_v1_j3_reseed": ("common", VARIANT_I, 3, [(2, 2, 2, 2)], 301, True),
    "general_v2_j3_reseed": ("general", VARIANT_II, 3, [(2, 2, 2, 2)] * 3, 302, True),
}


def _hex(values):
    return [float(v).hex() for v in values]


def run_case(name):
    designer, variant, J, comps, seed, shared_start = CASES[name]
    comps = [Composition(c) for c in comps]
    cfg = DesignConfig(J=J, variant=variant, sample_count=SAMPLES, rng_seed=seed)
    table = gaussian_order_stats(comps[0].n)
    reduced = design._reduced_training
    if shared_start:
        # every sphere starts at one training row, so all but one cell empty at once
        def shared(*args):
            x2, sums, rows = reduced(*args)
            return x2, sums, np.full_like(rows, rows[0])

        design._reduced_training = shared
    try:
        if designer == "common":
            res = design_common_composition(comps[0], cfg, table)
        else:
            res = lloyd_general(comps, cfg, table)
    finally:
        design._reduced_training = reduced
    return {
        "subcodes": [
            {"parts": list(cw.composition.parts), "levels": _hex(cw.levels)}
            for cw in res.code.subcodes
        ],
        "probs": _hex(res.code.probs),
        "distortion": float(res.distortion).hex(),
        "history": _hex(res.distortion_history),
        "iterations": res.iterations,
        "converged": res.converged,
        "empty_cell_events": res.empty_cell_events,
        "merged_levels": res.merged_levels,
        "reduced": None if res.reduced is None else [_hex(p) for p in res.reduced.points],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_design_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name) == golden[name]


def test_golden_covers_reseed():
    golden = json.loads(GOLDEN.read_text())
    assert golden["common_v1_j3_reseed"]["empty_cell_events"] >= 1
    assert golden["general_v2_j3_reseed"]["empty_cell_events"] >= 1


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an x86 OpenBLAS that picks its kernel at run
    time, so that ``OPENBLAS_CORETYPE`` selects one."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        config = np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in str(config)


# every golden case, then each CLI golden design, in a fresh interpreter; the
# report goes to a file because the commands print to stdout
_CHILD = """
import json, sys
from cpcodes.cli import main
from test_golden_designs import CASES, run_case
argvs, report = json.loads(sys.argv[1]), sys.argv[2]
for argv in argvs:
    main.main(args=argv, standalone_mode=False)
files = [open(argv[argv.index("--out") + 1]).read() for argv in argvs]
json.dump({"cases": {name: run_case(name) for name in sorted(CASES)}, "files": files}, open(report, "w"))
"""


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs an x86 OpenBLAS built with DYNAMIC_ARCH")
def test_designs_independent_of_blas_kernel(tmp_path):
    """Every golden case and every CLI golden design gives the same bytes
    under three OpenBLAS kernels, at one and at two BLAS threads: no design
    arithmetic is left to a BLAS call."""
    designs = [name for name, entry in goldens.ENTRIES.items() if entry["argv"][0] == "design"]
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    reports = {}
    for kernel in ("Prescott", "Haswell", "SkylakeX"):
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{kernel}_{threads}"
            out.mkdir()
            argvs = [goldens.argv(name, out / f"{name}.json") for name in designs]
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            report = out / "report.json"
            proc = subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(argvs), str(report)],
                                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            runs.append((threads, report, proc))
        for threads, report, proc in runs:  # the two thread counts run side by side
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            reports[kernel, threads] = json.loads(report.read_text())
    first = reports["SkylakeX", "1"]
    for key, got in reports.items():
        assert got["files"] == first["files"], key
        assert got["cases"] == first["cases"], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1) + "\n")
