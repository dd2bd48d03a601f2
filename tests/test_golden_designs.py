"""Pinned Lloyd designs: both designers, both variants, J in {2, 3}, one forced reseed.

``tests/data/golden_designs.json`` holds every float of each design as
``float.hex`` so that the comparison is exact. Regenerate it (only when a
change of design output is intended) with

    PYTHONPATH=src python tests/test_golden_designs.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cpcodes import design
from cpcodes.codec import VARIANT_I, VARIANT_II
from cpcodes.combinatorics import Composition
from cpcodes.design import DesignConfig, design_common_composition, lloyd_general
from cpcodes.order_stats import gaussian_order_stats

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
    draw = design._training_blocks
    if shared_start:
        # every sphere starts at one training row, so all but one cell empty at once
        def shared(*args):
            rows = draw(*args)
            return np.full_like(rows, rows[0])

        design._training_blocks = shared
    try:
        if designer == "common":
            res = design_common_composition(comps[0], cfg, table)
        else:
            res = lloyd_general(comps, cfg, table)
    finally:
        design._training_blocks = draw
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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1) + "\n")
