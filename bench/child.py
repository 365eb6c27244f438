"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: ``python3 child.py SPEC.json``.  The spec names the scenario config,
the CLI argument lists to run, whether to trace, and where to write the
result.  The child imports ``hysterm``, loads and validates the config (the
set-up every CLI user pays), records the monotonic clock, then runs each
command through ``hysterm.cli.main`` and records its exit code and wall time.

Exit code 90 means ``hysterm`` could not be imported from the checkout or the
config did not load; the parent treats that as fatal.
"""

import json
import os
import sys
import time
import traceback

SETUP_FAILED = 90


def _tree_state(root: str) -> dict:
    state = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state[path] = (st.st_size, st.st_mtime_ns)
    return state


def _run_command(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - an uncaught error is a failed command
        traceback.print_exc()
        return 1


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    try:
        import hysterm
        import hysterm.cli
        from hysterm.config import load_config

        src = os.path.realpath(spec["src"])
        if not os.path.realpath(hysterm.__file__).startswith(src + os.sep):
            raise ImportError(f"hysterm imported from {hysterm.__file__}, not {src}")
        load_config(spec["config"])
    except Exception:  # noqa: BLE001 - any set-up failure is fatal
        traceback.print_exc()
        return SETUP_FAILED
    ready = time.monotonic()

    result = {"ready": ready, "commands": []}
    if spec["mode"] == "warmup":
        import platform

        import numpy

        import hysterm.diagnostics  # noqa: F401 - compiles and caches it

        result["meta"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "hysterm": hysterm.__version__,
        }

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["rep"])
        tracer.install()
        files_written = bytes_written = 0

    for argv in spec["commands"]:
        if tracer is not None:
            before = _tree_state(".")
            t0 = time.perf_counter()
            rc = tracer.run_root(f"cli.{argv[0]}", _run_command, hysterm.cli.main, argv)
            wall = time.perf_counter() - t0
            after = _tree_state(".")
            changed = [p for p, v in after.items() if before.get(p) != v]
            files_written += len(changed)
            bytes_written += sum(after[p][0] for p in changed)
        else:
            t0 = time.perf_counter()
            rc = _run_command(hysterm.cli.main, argv)
            wall = time.perf_counter() - t0
        result["commands"].append({"argv": argv, "rc": rc, "wall_s": wall})

    if tracer is not None:
        result["trace"] = tracer.dump()
        result["trace"]["files_written"] = files_written
        result["trace"]["bytes_written"] = bytes_written
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
