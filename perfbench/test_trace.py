"""Checks of the benchmark's outside-in tracer.

    python3 -m pytest perfbench/test_trace.py

Runs every workload traced twice at q = 2, in child processes exactly as
the benchmark does (about 15 s), and checks that each per-layer metric
a workload is meant to move fires on it, that counts repeat exactly, and
that the nullspace path matches the pinned baseline.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import path_signature, run_child  # noqa: E402
from tracer import LAYER_METRICS, PROBES, Probe, Tracer  # noqa: E402
from workloads import EXPECTED, WORKLOADS  # noqa: E402

Q = Fraction(2)


@pytest.fixture(scope="module")
def traced():
    return {name: [run_child(name, Q, 1, timeout=170) for _ in range(2)] for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_listed_layer_fires(traced, name):
    record = traced[name][0]
    assert record["problem"] is None
    assert record["absent"] == []
    silent = [m for m in WORKLOADS[name].layers if not record["layers"].get(m)]
    assert silent == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(traced, name):
    first, second = (r["layers"] for r in traced[name])
    counts = [k for k, unit in LAYER_METRICS.items() if unit != "s"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_nullspace_path_matches_baseline(traced, name):
    for record in traced[name]:
        assert path_signature(record["nullspace"]) == EXPECTED["paths"][name][str(Q)]


def test_gram_compose_count(traced):
    # r = 3 has 34 basis diagrams: 34^2 products, each traced against all 34
    assert traced["gram-trace"][0]["layers"]["diagrams.compose.calls"] == 34**2 + 34**3


def _import_package():
    sys.path.insert(0, str(HERE.parent / "src"))
    from braidrook import linalg, tensor

    return linalg, tensor


def test_importer_bindings_are_patched_and_restored():
    linalg, tensor = _import_package()
    original = linalg.commutant
    assert tensor.commutant is original
    with Tracer():
        assert tensor.commutant is not original
        assert linalg.commutant is tensor.commutant
    assert tensor.commutant is original and linalg.commutant is original


def test_missing_function_is_reported_absent():
    _import_package()
    gone = Probe("linalg", "no_such_function", "linalg.no_such_function", True)
    tracer = Tracer(PROBES + (gone,))
    with tracer:
        pass
    assert tracer.absent == ["linalg.no_such_function"]
    assert "linalg.no_such_function.s" not in tracer.metrics()
    assert "linalg.commutant.s" in tracer.metrics()


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == ["verdict_s", "setup_s", "peak_rss_mib"]
