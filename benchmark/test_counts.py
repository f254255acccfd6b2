"""The benchmark's own tests: traced counts repeat exactly between two runs.

    python3 -m pytest benchmark/test_counts.py

Takes about a minute: every workload runs twice, traced, at the default seed.
"""

import pytest

import run
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

COUNTS = (
    "minimize.iterations",
    "grid.coulomb_calls",
    "grid.kernel_builds",
    "grid.fft_calls",
    "grid.fft_bytes_computed",
)

_runs = {}


def traced_twice(name):
    if name not in _runs:
        _runs[name] = [run.run_op(WORKLOADS[name], DEFAULT_SEED, 0, Tracer()) for _ in range(2)]
    return _runs[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    first, second = traced_twice(name)
    assert first["fails"] == [] and second["fails"] == []
    assert {k: first["layers"][k] for k in COUNTS} == {k: second["layers"][k] for k in COUNTS}


def test_seed_counts():
    assert traced_twice("ground_doped_n32")[0]["layers"]["minimize.iterations"] == 697
    assert traced_twice("floor_boxes_n32")[0]["layers"]["grid.coulomb_calls"] == 3
