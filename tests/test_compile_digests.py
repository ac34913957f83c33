"""Compiled op-stream golden: exact digests of paper-scale programs.

``tests/data/compile_digests.json`` holds, for the six Table II applications
at paper size on L6-GS, L6-IS and G2x3-GS (capacity 22), the sha256 of
``repr(program.operations)`` and of ``repr(program.placement)``.  Unlike the
determinism golden, which pins simulation metrics, these digests change on
any difference in an emitted operation: a field, a dependency tuple or the
op order.  Regenerate after an intentional compiler change with::

    PYTHONPATH=src python tests/data/regen_compile_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.apps import table2_suite
from repro.toolflow import ArchitectureConfig
from repro.toolflow.runner import compile_for

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))
try:
    from regen_compile_digests import CONFIGS, config_key, program_digests
finally:
    sys.path.pop(0)

with open(DATA / "compile_digests.json") as _fh:
    GOLDEN = json.load(_fh)


@pytest.fixture(scope="module")
def suite():
    return table2_suite()


def test_golden_covers_every_config_and_app(suite):
    assert sorted(GOLDEN) == sorted(config_key(*c) for c in CONFIGS)
    for per_app in GOLDEN.values():
        assert sorted(per_app) == sorted(suite)


@pytest.mark.parametrize("topology,capacity,reorder", CONFIGS,
                         ids=[config_key(*c) for c in CONFIGS])
def test_compiled_op_stream_matches_golden(suite, topology, capacity, reorder):
    config = ArchitectureConfig(topology=topology, trap_capacity=capacity,
                                reorder=reorder)
    expected = GOLDEN[config_key(topology, capacity, reorder)]
    for name, circuit in suite.items():
        program, _device = compile_for(circuit, config)
        assert program_digests(program) == expected[name], (
            f"{config_key(topology, capacity, reorder)}/{name}: compiled "
            f"program diverged from the golden op stream")
