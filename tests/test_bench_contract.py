"""The program surface the benchmark depends on.

The traced benchmark wraps the functions in ``bench/tracer.PATCHES`` where
their callers look them up; a renamed or removed one silently drops its
per-layer metrics from the result line.  The result checker refuses a line
that lacks a metric ``BENCHMARK.json`` lists.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# wrapped by the tracer but no longer looked up there: the solver calls the
# stencil kernel directly, and classify takes |Du|**2 from
# grid.gradient_norm_sq
ABSENT = {("hysterm.solver", "laplacian"), ("hysterm.free_boundary", "gradient")}


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[name] = module
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


# Patch points a run and an analysis do not reach: the solver steps through
# private kernels, load_run reads through _read_listed, and only a sweep
# calls _sweep_child.
UNREACHED = {
    ("hysterm.solver", "step"),
    ("hysterm.solver", "field_update"),
    ("hysterm.reports", "verify_manifest"),
    ("hysterm.reports", "read_snapshot_csv"),
    ("hysterm.cli", "_sweep_child"),
    *ABSENT,
}

# Installs the tracer, marks every patch point on top of it, then runs and
# analyzes the config given as argv[2] with the CLI; prints the points
# reached, the layers the tracer recorded and what it could not patch.
TRACED_RUN = """
import functools, importlib, json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing
from hysterm.cli import main

t = tracing.Tracer(0)
t.install()
reached = set()
for _, module, attr, _, _ in tracing.PATCHES:
    mod = importlib.import_module(module)
    fn = getattr(mod, attr, None)
    if callable(fn):
        def mark(fn, key):
            @functools.wraps(fn)
            def marked(*args, **kwargs):
                reached.add(key)
                return fn(*args, **kwargs)
            return marked
        setattr(mod, attr, mark(fn, (module, attr)))
codes = [t.run_root("cli." + argv[0], main, argv)
         for argv in (["run", sys.argv[2]], ["analyze", "run"])]
dump = t.dump()
print(json.dumps({
    "codes": codes,
    "reached": sorted(reached),
    "layers": sorted({s["name"] for s in dump["spans"]} | set(dump["counters"])),
    "missing": dump["missing"],
}))
"""


def test_run_and_analyze_reach_every_patch_point(tmp_path):
    """A refactor that routes around a wrapped function fails here, instead
    of reading 0 in the traced benchmark.  The 2D config yields Gamma_0
    centres deep enough for phi tables, so every diagnostic runs."""
    cfg = {
        "name": "contract", "dim": 2, "extent": [2.0, 2.0], "nx": [21, 21],
        "dt": 0.002, "T": 0.3, "alpha": 0.0, "beta": 1.0,
        "bc": {"kind": "neumann"}, "snapshot_stride": 15, "output_dir": "run",
        "preset": {"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "bench"), "cfg.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert sorted(got["missing"]) == sorted(f"{m}.{a}" for m, a in ABSENT)
    tracer = load(ROOT / "bench" / "tracer.py", "bench_tracer")
    points = {(module, attr): name for name, module, attr, _, _ in tracer.PATCHES}
    reached = {tuple(p) for p in got["reached"]}
    assert set(points) - reached == UNREACHED
    assert {points[p] for p in reached} <= set(got["layers"])


# Small runs whose snapshot files the benchmark parses with its own reader:
# a relay oscillator long enough for a full period (the sweep members'
# check) and a 2D Dirichlet run whose relays flip (the heat_2d check).
OSCILLATOR = {
    "name": "osc", "dim": 1, "extent": [1.0], "nx": [5], "dt": 0.01, "T": 3.0,
    "alpha": 0.0, "beta": 1.0, "bc": {"kind": "neumann"},
    "preset": {"kind": "homogeneous", "u0": 0.5, "h0": 1},
}
DIRICHLET_2D = {
    "name": "dirichlet2d", "dim": 2, "extent": [1.0, 1.0], "nx": [11, 11],
    "dt": 1e-3, "T": 0.1, "alpha": 0.2, "beta": 0.7,
    "bc": {"kind": "dirichlet", "value": 0.0}, "snapshot_stride": 10,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}


@pytest.mark.parametrize("cfg", [OSCILLATOR, DIRICHLET_2D], ids=["oscillator", "2d"])
def test_benchmark_checks_accept_cli_run_directories(tmp_path, monkeypatch, cfg):
    """A snapshot format the benchmark's output checks cannot read fails
    here, not only in the benchmark runs."""
    from hysterm.cli import main

    workloads = load(ROOT / "bench" / "workloads.py", "bench_workloads")
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(dict(cfg, output_dir="run")))
    assert main(["run", "cfg.json"]) == 0
    run_dir = tmp_path / "run"
    assert workloads.verify_digests(run_dir) == []
    assert workloads.relay_state_problems(run_dir, cfg) == []
    if cfg is OSCILLATOR:
        assert workloads.oscillator_period_problems(run_dir, cfg) == []
