"""The benchmark's per-layer tracer patches program functions by name.

`bench/spans.py` lists them; a rename or deletion in `fanheavy` would
make `bench/run.py --trace 1` fail, so every listed name must resolve.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    assert spans.FUNCTIONS and spans.METHODS
    for mod_name, fn_name, _suffix, _outcome in spans.FUNCTIONS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, cls_name, meth in spans.METHODS:
        cls = getattr(importlib.import_module(f"{spans.PACKAGE}.{mod_name}"), cls_name)
        assert callable(cls.__dict__.get(meth)), f"{mod_name}.{cls_name}.{meth}"


@pytest.mark.parametrize("workload", ["fheavy-random", "verify-n8"])
def test_traced_benchmark_rechecks_every_result(workload):
    # the benchmark re-checks every witness with its own oracles
    # (bench/oracles.py), and a traced run wraps every listed function
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--tiny",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
