#!/usr/bin/env python3
"""Regenerate ``compile_digests.json``: exact digests of compiled op streams.

``golden_determinism.json`` pins simulation *metrics*; this file pins the
compiler's *output* itself -- the sha256 of ``repr(program.operations)`` and
of ``repr(program.placement)`` -- for the six Table II applications at paper
size on three architectures.  Any change to an emitted operation (a field, a
dependency tuple, the op order) or to the initial placement changes a digest.

Only run this after an *intentional* change to compiler behaviour.  Run from
the repository root::

    PYTHONPATH=src python tests/data/regen_compile_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.apps import table2_suite
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for

PATH = Path(__file__).parent / "compile_digests.json"

#: (topology, capacity, reorder) configurations, keyed like the determinism
#: golden: ``"L6-cap22-GS"``.
CONFIGS = (("L6", 22, "GS"), ("L6", 22, "IS"), ("G2x3", 22, "GS"))


def config_key(topology: str, capacity: int, reorder: str) -> str:
    return f"{topology}-cap{capacity}-{reorder}"


def program_digests(program) -> dict:
    """The pinned facts of one compiled program."""

    return {
        "num_ops": len(program),
        "operations": hashlib.sha256(
            repr(program.operations).encode()).hexdigest(),
        "placement": hashlib.sha256(
            repr(program.placement).encode()).hexdigest(),
    }


def snapshot() -> dict:
    suite = table2_suite()
    digests = {}
    for topology, capacity, reorder in CONFIGS:
        config = ArchitectureConfig(topology=topology, trap_capacity=capacity,
                                    reorder=reorder)
        key = config_key(topology, capacity, reorder)
        digests[key] = {}
        for name, circuit in suite.items():
            program, _device = compile_for(circuit, config)
            digests[key][name] = program_digests(program)
            print(f"{key} {name}: {len(program)} ops")
    return digests


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}")
