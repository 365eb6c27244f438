"""hysterm benchmark: time the CLI commands users type, check their outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oscillator_sweep, plateau_walls, heat_2d, levelsets_2d (see
``workloads.py`` and ``NOTES.md``).  Every repetition runs the workload's
command sequence through ``hysterm.cli.main`` in a fresh interpreter, closed
loop: the next command starts when the previous one has finished.
Repetitions continue until the next one would overrun ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: ``setup_s`` (interpreter start, ``import
hysterm`` and config validation), ``pipeline_s`` (the command sequence),
``peak_rss_mb`` (of the repetition's process) and ``run_dir_bytes`` (what
the sequence leaves on disk), each the median over the run.  With ``--trace
1`` repetitions alternate between untraced and traced, and the metrics are
the per-layer ones of the traced repetitions (medians), plus the tracing
overhead.  The lines before the last one are a human-readable report that
also gives ``run_s``, ``analyze_s`` and ``failed_frac``.

The benchmark needs ``src/hysterm`` next to it and exits with code 2 when it
is missing.  It writes only under ``.bench_work/`` in the repository root and
deletes run directories between repetitions, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads
from child import SETUP_FAILED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_PROBES_BEFORE = 5
SETUP_PROBES_PER_REP = 1
# a run must finish within 180 s; no child may push it past this
RUN_LIMIT_S = 170.0


class Fatal(Exception):
    """The program could not be set up at all; no result is printed."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.stat(os.path.join(dirpath, name)).st_size
    return total


class Runner:
    """Spawns the child processes of one benchmark run."""

    def __init__(self, wl: workloads.Workload, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(wl.config, indent=2) + "\n")
        self.log_path = work / "child.log"
        self.nproc = _nproc()
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "HYSTERM_THREADS": str(self.nproc),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.count = 0

    def spawn(self, mode: str, cwd: Path, commands=(), trace=False, rep=0) -> dict:
        """Run one child; returns its result plus ``rc``, ``setup_s`` and
        ``peak_rss_mb``.  A child that wrote no result has ``ok`` False."""
        self.count += 1
        spec_path = self.work / f"spec-{self.count}.json"
        result_path = self.work / f"result-{self.count}.json"
        cfg = str(self.config_path)
        spec = {
            "mode": mode,
            "src": str(ROOT / "src"),
            "config": cfg,
            "commands": [[cfg if a == "{config}" else a for a in argv] for argv in commands],
            "trace": trace,
            "rep": rep,
            "result": str(result_path),
        }
        spec_path.write_text(json.dumps(spec))
        limit = max(1.0, self.deadline - time.monotonic())
        with open(self.log_path, "ab") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path)],
                cwd=cwd, env=self.env, stdout=log, stderr=log,
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc == SETUP_FAILED:
            raise Fatal(f"hysterm could not be set up; see {self.log_path}:\n" + self._log_tail())
        out = {
            "rc": rc,
            "ok": False,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "commands": [],
            "spec_commands": spec["commands"],
        }
        if rc == 0 and result_path.is_file():
            out.update(json.loads(result_path.read_text()))
            out["ok"] = True
            out["setup_s"] = out["ready"] - t_spawn
        return out

    def _log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


def _exit_problems(child: dict, i: int) -> list:
    cmds = child["commands"]
    rc = cmds[i]["rc"] if i < len(cmds) else None
    return [] if rc == 0 else [f"{child['spec_commands'][i][0]} exited with {rc}"]


def check_rep(wl, runner: Runner, rep_dir: Path, child: dict, state: dict) -> list:
    """One list of problems per operation of a repetition; an empty list
    means the operation succeeded.  ``state`` carries what the first
    repetition established to the later ones."""
    runs = rep_dir / "runs"
    cfg = wl.config
    run_dir = runs / cfg["name"]

    if wl.name == "oscillator_sweep":
        out_root = runs / f"{cfg['name']}_sweep"
        rows = workloads.sweep_rows(out_root)
        ops = []
        for i, value in enumerate(wl.values):
            tag = f"v{i:03d}"
            problems = _exit_problems(child, 0)
            row = rows.get(tag)
            if row is None or row.get("status") != "ok" or float(row["value"]) != value:
                problems.append(f"sweep row {tag}: {row}")
            member = out_root / tag
            if member.is_dir():
                problems += workloads.verify_digests(member)
                problems += workloads.oscillator_period_problems(member, cfg)
            else:
                problems.append(f"no member directory {tag}")
            ops.append(problems)
        return ops

    if wl.name == "plateau_walls":
        run_problems = _exit_problems(child, 0) + workloads.verify_digests(run_dir)
        analyze_problems = _exit_problems(child, 1) + workloads.summary_problems(
            run_dir, wl.name, wl.seed
        )
        return [run_problems, analyze_problems]

    if wl.name == "heat_2d":
        problems = _exit_problems(child, 0) + workloads.verify_digests(run_dir)
        problems += workloads.relay_state_problems(run_dir, cfg)
        manifest = run_dir / "manifest.json"
        files = json.loads(manifest.read_text()).get("files") if manifest.is_file() else None
        if "files" not in state:
            # classify the first repetition's output once; later ones must
            # be byte-identical to it
            state["files"] = files
            check = runner.spawn("check", rep_dir, [[
                "analyze", f"runs/{cfg['name']}", "--level-tol", workloads.HEAT_CHECK_LEVEL_TOL,
            ]])
            problems += _exit_problems(check, 0) if check["ok"] else ["check analysis failed"]
            problems += workloads.summary_problems(run_dir, wl.name, wl.seed)
        elif files != state["files"]:
            problems.append("run directory differs from the first repetition's")
        return [problems]

    # levelsets_2d
    problems = _exit_problems(child, 0) + workloads.verify_digests(run_dir)
    problems += workloads.summary_problems(run_dir, wl.name, wl.seed)
    return [problems]


def command_walls(children, argv0=None) -> list:
    """Per child, the wall time of its commands (all, or those named argv0)."""
    out = []
    for c in children:
        cmds = [cmd for cmd in c["commands"] if argv0 in (None, cmd["argv"][0])]
        if cmds:
            out.append(sum(cmd["wall_s"] for cmd in cmds))
    return out


def _median(values):
    return statistics.median(values) if values else None


def measure(wl, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    work = ROOT / ".bench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(wl, work, t_start + RUN_LIMIT_S)

    warm = runner.spawn("warmup", work)
    if not warm["ok"]:
        raise Fatal("warm-up child failed:\n" + runner._log_tail())
    meta = {
        "nproc": runner.nproc,
        "cpu_model": _cpu_model(),
        **warm["meta"],
        "git_commit": _git_commit(ROOT),
    }

    attempted = failed = 0
    problems_seen: list = []

    input_dir = work / "input"
    input_dir.mkdir()
    if wl.prepare:
        prep = runner.spawn("prepare", input_dir, wl.prepare)
        attempted += 1
        if not (prep["ok"] and all(c["rc"] == 0 for c in prep["commands"])):
            failed += 1
            problems_seen.append(f"preparing the input failed (rc {prep['rc']})")

    setup = []
    for _ in range(SETUP_PROBES_BEFORE):
        probe = runner.spawn("setup", work)
        if probe["ok"]:
            setup.append(probe["setup_s"])

    reps = []  # (traced, child result, run_dir_bytes)
    state: dict = {}
    t_loop = time.monotonic()
    deadline = t_loop + seconds
    while True:
        i = len(reps)
        traced = trace and i % 2 == 1
        rep_dir = work / f"rep{i}"
        shutil.copytree(input_dir, rep_dir)
        child = runner.spawn("rep", rep_dir, wl.commands, trace=traced, rep=i)
        run_bytes = _tree_bytes(rep_dir / "runs") if (rep_dir / "runs").is_dir() else 0
        ops = [[f"repetition {i} exited with {child['rc']}"]] * wl.ops_per_rep
        if child["ok"]:
            try:
                ops = check_rep(wl, runner, rep_dir, child, state)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                # malformed output: every operation of the repetition fails
                ops = [[f"output check of repetition {i} failed: {exc!r}"]] * wl.ops_per_rep
        attempted += len(ops)
        failed += sum(1 for p in ops if p)
        problems_seen += [msg for p in ops for msg in p]
        reps.append((traced, child, run_bytes))
        shutil.rmtree(rep_dir)

        for _ in range(SETUP_PROBES_PER_REP):
            probe = runner.spawn("setup", work)
            if probe["ok"]:
                setup.append(probe["setup_s"])

        now = time.monotonic()
        per_rep = (now - t_loop) / len(reps)
        enough = len(reps) >= (2 if trace else 1)
        if enough and (now + per_rep > deadline or now + per_rep > t_start + RUN_LIMIT_S - 10):
            break

    setup += [c["setup_s"] for _, c, _ in reps if c["ok"]]
    good = [(t, c, b) for t, c, b in reps if c["ok"]]
    untraced = [(c, b) for t, c, b in good if not t]

    untraced_children = [c for c, _ in untraced]
    report = {
        "meta": meta,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen,
        "end_to_end": {
            "setup_s": (_median(setup), "s", len(setup)),
            "pipeline_s": (_median(command_walls(untraced_children)), "s", len(untraced)),
            "run_s": (_median(command_walls(untraced_children, "run")), "s", None),
            "analyze_s": (_median(command_walls(untraced_children, "analyze")), "s", None),
            "peak_rss_mb": (_median([c["peak_rss_mb"] for c, _ in untraced]), "MiB", len(untraced)),
            "run_dir_bytes": (_median([b for _, b in untraced]), "bytes", len(untraced)),
        },
        "wall_s": time.monotonic() - t_start,
        "rep_pipeline_s": [(t, command_walls([c])[0]) for t, c, _ in good if c["commands"]],
    }

    if trace:
        traced_reps = [c for t, c, _ in good if t]
        per_rep = [
            tracing.layer_metrics(c["trace"], wall, runner.nproc)
            for c, wall in zip(traced_reps, command_walls(traced_reps))
        ]
        layer = {}
        for name, unit in tracing.PER_LAYER:
            vals = [m[name] for m in per_rep if name in m]
            if vals:
                layer[name] = (_median(vals), unit)
        traced_pipeline = _median(command_walls(traced_reps))
        untraced_pipeline = report["end_to_end"]["pipeline_s"][0]
        if traced_pipeline is not None and untraced_pipeline is not None:
            layer["trace.overhead_s"] = (traced_pipeline - untraced_pipeline, "s")
        report["per_layer"] = layer
        missing = sorted({m for c in traced_reps for m in c["trace"]["missing"]})
        report["missing_patches"] = missing
        traces = ROOT / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{wl.name}-seed{wl.seed}.json").write_text(json.dumps({
            "workload": wl.name,
            "seed": wl.seed,
            "meta": meta,
            "reps": [c["trace"] for c in traced_reps],
        }))

    shutil.rmtree(work, ignore_errors=True)
    return report


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hysterm" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'hysterm'} is missing",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    try:
        report = measure(wl, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"# hysterm benchmark: workload={wl.name} seed={wl.seed} trace={args.trace} "
          f"reps={report['reps']} wall={report['wall_s']:.1f}s")
    print("# meta " + json.dumps(report["meta"]))
    for name, (value, unit, n) in report["end_to_end"].items():
        if value is not None:
            base = f"  (median of {n})" if n else ""
            print(f"{name:<16} {_fmt(value):>14} {unit}{base}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{'failed_frac':<16} {_fmt(failed / attempted if attempted else 1.0):>14} ratio"
          f"  ({failed} of {attempted} operations attempted)")
    print("# pipeline_s per repetition: " + " ".join(
        f"{s:.4f}{'(traced)' if t else ''}" for t, s in report["rep_pipeline_s"]))
    for msg in report["problems"][:20]:
        print(f"# problem: {msg}")

    if args.trace:
        for name, (value, unit) in report["per_layer"].items():
            print(f"{name:<42} {_fmt(value):>14} {unit}")
        if report["missing_patches"]:
            print("# not traced (absent from the program): " + ", ".join(report["missing_patches"]))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in report["per_layer"].items()}
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in report["end_to_end"].items()
            if name in ("setup_s", "pipeline_s", "peak_rss_mb", "run_dir_bytes") and value is not None
        }
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
