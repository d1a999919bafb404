"""The benchmark's quick mode on the two workloads BENCHMARK.json lists, so
that the harness does not rot between full runs, and a traced quick run of
each, whose tracer wraps functions of every psiwb module by name and so
fails when one of them is deleted or renamed.  Each case runs
``bench/run.py`` in a fresh interpreter; ``bench/smoke.py`` covers every
workload, traced too, outside this suite.  The tracer wraps instance
methods only where a ``CalculusInstance`` subclass of ``params`` defines
them, so a last test checks that every instance takes its traced methods
from such a class."""

import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from psiwb import params

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_quick(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_quick_mode(workload):
    result, stderr = run_quick(workload, 0)
    assert result["correct"], stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def check_traced(workload):
    result, stderr = run_quick(workload, 1)
    assert result["correct"], stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # the tracer wraps process.opened_frame by name, so it counts the
    # engine's frame openings only while the engine calls it by that name
    assert result["metrics"]["process.opened_frame.calls"]["value"] > 0
    return result["metrics"]


def test_bench_traced_quick_mode():
    # conservativity is the one listed workload that runs both engines
    check_traced("conservativity")


def test_bench_traced_quick_mode_of_composites():
    # composites is the one listed workload that runs harmony_check; the
    # tracer counts its keys only while harmony calls congruence_key itself,
    # not a helper behind it
    metrics = check_traced("composites")
    assert metrics["reduction.congruence_key.calls"]["value"] > 0


def test_tracer_reaches_every_instance_method():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    # the classes bench/run.py hands to the tracer
    classes = {cls for cls in vars(params).values()
               if isinstance(cls, type) and issubclass(cls, params.CalculusInstance)}
    methods = [m for ms in layers.METHODS.values() for m in ms]
    for cls, meth in itertools.product(classes, methods):
        owner = next(k for k in cls.__mro__ if meth in vars(k))
        assert owner in classes, (cls.__name__, meth, owner.__name__)
