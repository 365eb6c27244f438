"""Command line interface.

Subcommands: ``run``, ``analyze``, ``sweep``, ``selftest-oscillator``.
Exit codes: 0 success, 2 config error, 3 data integrity error,
4 diagnostic assertion failure.  ``sweep`` runs its members in worker
processes; ``HYSTERM_THREADS`` caps their number (default: hardware count).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import config_from_dict, load_config, whole_steps
from .errors import ConfigError, DiagnosticError, HystermError
from .reports import analyze_run, save_run, write_sweep_csv
from .solver import run as solver_run


def _default_run_dir(cfg) -> Path:
    return Path(cfg.output_dir) if cfg.output_dir else Path("runs") / cfg.name


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    sol = solver_run(cfg)
    run_dir = save_run(sol, cfg, _default_run_dir(cfg))
    print(f"run complete: {run_dir} ({sol.num_snapshots} snapshots)")
    return 0


def _parse_radii(text):
    if not text:
        return None
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --radii value: {exc}") from exc
    if not vals or any(v <= 0 for v in vals):
        raise ConfigError("--radii needs positive comma-separated values")
    return vals


def cmd_analyze(args) -> int:
    summary = analyze_run(
        args.run_dir,
        grad_tol=args.grad_tol,
        level_tol=args.level_tol,
        radii=_parse_radii(args.radii),
    )
    print(
        f"analysis complete: {Path(args.run_dir)} "
        f"(gamma_v_count={summary['counts']['gamma_v']}, "
        f"sign_violations={summary['sign_violations']['alpha'] + summary['sign_violations']['beta']})"
    )
    return 0


def _set_pointer(data: dict, pointer: str, value):
    """Minimal RFC 6901 JSON-pointer assignment into nested dicts/lists."""
    if not pointer.startswith("/"):
        raise HystermError(f"param must be a JSON pointer starting with '/': {pointer}")
    tokens = [
        t.replace("~1", "/").replace("~0", "~") for t in pointer[1:].split("/")
    ]
    node = data
    for tok in tokens[:-1]:
        node = node[int(tok)] if isinstance(node, list) else node[tok]
    last = tokens[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _sweep_child(base: dict, pointer: str, value, out_root: Path, tag: str):
    data = json.loads(json.dumps(base))
    _set_pointer(data, pointer, value)
    data["name"] = f"{data['name']}_{tag}"
    data["output_dir"] = None
    cfg = config_from_dict(data)
    sol = solver_run(cfg)
    run_dir = save_run(sol, cfg, out_root / tag)
    summary = analyze_run(run_dir)
    return {
        "value": value,
        "status": "ok",
        "gamma_v_count": summary["counts"]["gamma_v"],
        "profile_max": summary["profile_global_max"],
        "error": "",
    }


def _failed_row(value, error: str) -> dict:
    return {
        "value": value,
        "status": "failed",
        "gamma_v_count": "",
        "profile_max": "",
        "error": error,
    }


def _sweep_member(base: dict, pointer: str, value, out_root: Path, tag: str):
    """One sweep member in a worker process; a failure becomes its row."""
    try:
        return _sweep_child(base, pointer, value, out_root, tag)
    except Exception as exc:  # noqa: BLE001 - per-row failure recording
        return _failed_row(value, f"raised {type(exc).__name__}: {exc}")


def _run_members(jobs: list, workers: int) -> list:
    """The rows of the sweep members, in job order.

    A worker process that dies breaks its pool, and every member in flight
    is lost with it, so members run in rounds, each in a fresh pool of
    ``workers`` processes.  A round first runs the members stranded by the
    last break one at a time, then the members not tried yet, at most
    ``workers`` at a time.  A member alone in flight at a break has had its
    own worker die and fails; several become the next round's stranded
    members.  After two rounds in a row, the first round not counted, in
    which no member returns, the members left fail as lost with the pool.
    """
    # imported here: the process pool machinery is slow to import and only
    # the sweep needs it
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    rows = [None] * len(jobs)
    # stacks, popped from the end, so that members run in job order
    stranded, untried = [], list(range(len(jobs)))[::-1]
    idle_rounds, first_round = 0, True
    while (stranded or untried) and idle_rounds < 2:
        returned, running = 0, {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                for limit, queue in ((1, stranded), (workers, untried)):
                    while queue or running:
                        while queue and len(running) < limit:
                            future = pool.submit(_sweep_member, *jobs[queue[-1]])
                            running[future] = queue.pop()
                        done, _ = wait(running, return_when=FIRST_COMPLETED)
                        for future in done:
                            rows[running[future]] = future.result()
                            del running[future]
                            returned += 1
            except BrokenProcessPool:
                lost = []
                for future, i in running.items():
                    try:  # a member may have returned before the break
                        rows[i] = future.result()
                        returned += 1
                    except BrokenProcessPool:
                        lost.append(i)
                if len(lost) == 1:
                    rows[lost[0]] = _failed_row(jobs[lost[0]][2], "BrokenProcessPool: "
                                                "its worker process died while it ran")
                else:
                    stranded.extend(sorted(lost, reverse=True))
        if not first_round:
            idle_rounds = 0 if returned else idle_rounds + 1
        first_round = False
    for i in stranded + untried:
        rows[i] = _failed_row(jobs[i][2], "BrokenProcessPool: lost with a broken "
                              "worker pool and not run again")
    return rows


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [_parse_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("no values")
    threads = os.environ.get("HYSTERM_THREADS")
    try:
        workers = int(threads) if threads is not None else os.cpu_count() or 1
    except ValueError:
        raise ConfigError(
            f"HYSTERM_THREADS must be an integer, got {threads!r}"
        ) from None
    out_root = _default_run_dir(cfg).parent / f"{cfg.name}_sweep"
    out_root.mkdir(parents=True, exist_ok=True)
    base = cfg.to_dict()

    jobs = [(base, args.param, value, out_root, f"v{i:03d}")
            for i, value in enumerate(values)]
    rows = _run_members(jobs, max(1, min(workers, len(values))))

    summary_path = out_root / "sweep_summary.csv"
    write_sweep_csv(rows, summary_path)
    n_fail = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep complete: {summary_path} ({len(rows)} rows, {n_fail} failed)")
    return 0


def measure_oscillator_period(alpha: float, beta: float, dt: float):
    """Run the homogeneous scenario and return (period, expected).

    The run spans five half-periods, rounded up to a whole number of steps.
    """
    span = 5.0 * (beta - alpha)
    # a dt <= 0 is left for the config validation to report
    T = span if dt <= 0 or whole_steps(span, dt) else math.ceil(span / dt) * dt
    cfg = config_from_dict(
        {
            "name": "selftest_oscillator",
            "dim": 1,
            "extent": [1.0],
            "nx": [11],
            "dt": dt,
            "T": T,
            "alpha": alpha,
            "beta": beta,
            "bc": {"kind": "neumann"},
            "preset": {
                "kind": "homogeneous",
                "u0": 0.5 * (alpha + beta),
                "h0": 1,
            },
        }
    )
    sol = solver_run(cfg)
    mid = tuple(n // 2 for n in sol.grid.nx)
    trace = sol.h[(slice(None),) + mid]
    ups = np.nonzero((trace[1:] > 0) & (trace[:-1] < 0))[0] + 1
    if ups.size < 2:
        raise DiagnosticError(
            "oscillator selftest saw fewer than two up-switches"
        )
    periods = np.diff(sol.times[ups])
    return float(periods.mean()), 2.0 * (beta - alpha)


def cmd_selftest(args) -> int:
    period, expected = measure_oscillator_period(args.alpha, args.beta, args.dt)
    ok = abs(period - expected) <= 2.0 * args.dt
    print(
        f"oscillator period: measured {period:.6f}, expected {expected:.6f}, "
        f"tolerance {2.0 * args.dt:.6f} -> {'pass' if ok else 'FAIL'}"
    )
    if not ok:
        raise DiagnosticError(
            f"period {period} deviates from {expected} by more than 2*dt"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hysterm",
        description="Relay-hysteresis heat equation simulator and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and persist it")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="classify and diagnose a run")
    p_an.add_argument("run_dir")
    p_an.add_argument("--grad-tol", type=float, default=None)
    p_an.add_argument("--level-tol", type=float, default=None)
    p_an.add_argument("--radii", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="run+analyze over parameter values")
    p_sw.add_argument("config")
    p_sw.add_argument("--param", required=True, help="JSON pointer, e.g. /preset/amplitude")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.set_defaults(func=cmd_sweep)

    p_st = sub.add_parser(
        "selftest-oscillator", help="check the exact relay oscillator period"
    )
    p_st.add_argument("--alpha", type=float, required=True)
    p_st.add_argument("--beta", type=float, required=True)
    p_st.add_argument("--dt", type=float, required=True)
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HystermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
