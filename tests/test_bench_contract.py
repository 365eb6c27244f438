"""The program surface the benchmark depends on.

The traced benchmark wraps the functions in ``bench/tracer.PATCHES`` where
their callers look them up; a renamed or removed one silently drops its
per-layer metrics from the result line.  The result checker refuses a line
that lacks a metric ``BENCHMARK.json`` lists.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# wrapped by the tracer but no longer looked up there: the solver calls the
# stencil kernel directly
ABSENT = {("hysterm.solver", "laplacian")}


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_callable():
    tracer = load(ROOT / "bench" / "tracer.py", "bench_tracer")
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _, _ in tracer.PATCHES
        if (module, attr) not in ABSENT
        and not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_reports_hashlib_has_sha256():
    reports = importlib.import_module("hysterm.reports")
    assert callable(reports.hashlib.sha256)


def test_checker_requires_every_listed_metric():
    checker = load(ROOT / ".github" / "check_bench_result.py", "check_bench_result")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        names = checker.required(trace)
        assert names == [m["name"] for m in bench[key]]
        metrics = {name: {"value": 1.0} for name in names}
        line = json.dumps({"correct": True, "metrics": metrics})
        assert checker.problems(line, names) == []
        del metrics[names[-1]]
        line = json.dumps({"correct": True, "metrics": metrics})
        assert checker.problems(line, names) == [
            f"listed metric {names[-1]} is missing"
        ]
