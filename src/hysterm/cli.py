"""Command line interface.

Subcommands: ``run``, ``analyze``, ``sweep``, ``selftest-oscillator``.
Exit codes: 0 success, 2 config error, 3 data integrity error,
4 diagnostic assertion failure.  ``sweep`` runs each member in a process
of its own; ``HYSTERM_THREADS``, an integer >= 1, caps how many run at once
(default: hardware count).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import _check_numbers, config_from_dict, load_config, whole_steps
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


def _positive(flag: str, value: float | None) -> float | None:
    """``value`` if it is None or a finite positive number; ConfigError otherwise."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be finite and positive, got {value!r}")
    return value


def _parse_radii(text):
    if not text:
        return None
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --radii value: {exc}") from exc
    if not vals:
        raise ConfigError("--radii needs positive comma-separated values")
    return [_positive("--radii", v) for v in vals]


def cmd_analyze(args) -> int:
    summary = analyze_run(
        args.run_dir,
        grad_tol=_positive("--grad-tol", args.grad_tol),
        level_tol=_positive("--level-tol", args.level_tol),
        radii=_parse_radii(args.radii),
    )
    print(
        f"analysis complete: {Path(args.run_dir)} "
        f"(gamma_v_count={summary['counts']['gamma_v']}, "
        f"sign_violations={summary['sign_violations']['alpha'] + summary['sign_violations']['beta']})"
    )
    return 0


def _set_pointer(data: dict, pointer: str, value):
    """Minimal RFC 6901 JSON-pointer assignment into nested dicts/lists.

    The last token may name a new key of an existing object; a pointer that
    does not resolve otherwise raises ConfigError.
    """
    if not pointer.startswith("/"):
        raise ConfigError(f"param must be a JSON pointer starting with '/': {pointer}")
    *path, last = (
        t.replace("~1", "/").replace("~0", "~") for t in pointer[1:].split("/")
    )
    try:
        node = data
        for tok in path:
            node = node[int(tok)] if isinstance(node, list) else node[tok]
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"param {pointer} does not resolve in the config: "
            f"{type(exc).__name__}: {exc}"
        ) from None


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


def _sweep_member(conn, base: dict, pointer: str, value, out_root: Path, tag: str):
    """One sweep member in a process of its own: sends its row through ``conn``."""
    try:
        row = _sweep_child(base, pointer, value, out_root, tag)
    except Exception as exc:  # noqa: BLE001 - per-row failure recording
        row = _failed_row(value, f"raised {type(exc).__name__}: {exc}")
    conn.send(row)


def _run_members(jobs: list, workers: int) -> list:
    """The rows of the sweep members, in job order.

    Each member runs once, in a process of its own, at most ``workers`` at a
    time, started in job order, and sends its row through a one-way pipe.  A
    process that ends without sending a row fails its member alone, with
    the process's exit code; nothing is run again.
    """
    # imported here: only the sweep needs it
    import multiprocessing
    from multiprocessing.connection import wait

    rows = [None] * len(jobs)
    pending = iter(enumerate(jobs))
    running = {}  # receiving end -> (job index, process)
    while True:
        for i, job in pending:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_sweep_member, args=(send, *job))
            proc.start()
            # the child holds the only sending end: its exit closes the pipe
            send.close()
            running[recv] = (i, proc)
            if len(running) == workers:
                break
        if not running:
            return rows
        for recv in wait(list(running)):
            i, proc = running.pop(recv)
            try:
                row = recv.recv()
            except EOFError:  # the process ended without sending its row
                row = None
            recv.close()
            proc.join()
            rows[i] = row or _failed_row(jobs[i][2],
                                         f"died with exit code {proc.exitcode}")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [_parse_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("no values")
    # a pointer that does not resolve fails every member alike: reject it
    # before any starts, on a copy of the config
    _set_pointer(cfg.to_dict(), args.param, values[0])
    threads = os.environ.get("HYSTERM_THREADS")
    try:
        workers = int(threads) if threads is not None else os.cpu_count() or 1
    except ValueError:
        workers = 0  # refused below, with the counts below 1
    if workers < 1:
        raise ConfigError(
            f"HYSTERM_THREADS must be an integer >= 1, got {threads!r}"
        )
    out_root = _default_run_dir(cfg).parent / f"{cfg.name}_sweep"
    out_root.mkdir(parents=True, exist_ok=True)
    base = cfg.to_dict()

    jobs = [(base, args.param, value, out_root, f"v{i:03d}")
            for i, value in enumerate(values)]
    rows = _run_members(jobs, workers)

    summary_path = out_root / "sweep_summary.csv"
    write_sweep_csv(rows, summary_path)
    n_fail = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep complete: {summary_path} ({len(rows)} rows, {n_fail} failed)")
    return 0


def measure_oscillator_period(alpha: float, beta: float, dt: float):
    """Run the homogeneous scenario and return (period, expected).

    The run spans five half-periods, rounded up to a whole number of steps.
    """
    # checked before they form the span, so that the error names them, not T
    _check_numbers({"alpha": alpha, "beta": beta})
    span = 5.0 * (beta - alpha)
    # a dt that is not finite and positive is left for the config validation
    T = span
    if 0 < dt < math.inf and not whole_steps(span, dt):
        T = math.ceil(span / dt) * dt
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
