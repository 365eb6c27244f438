"""Check one benchmark result line strictly.

Usage: python3 .github/check_bench_result.py WORKLOAD TRACE LINE

LINE is the last line ``bench/run.py --trace TRACE`` prints.  It must be
strict JSON (``NaN``, ``Infinity`` and ``-Infinity`` are refused), hold
``"correct": true``, and give every metric a finite number as its value.
Every metric that ``BENCHMARK.json`` lists for the mode must be there: the
``end_to_end`` ones on an untraced line (TRACE 0), the ``per_layer`` ones on
a traced line (TRACE 1).  Exits 1 with a message naming the workload
otherwise.
"""

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
LISTS = {"0": "end_to_end", "1": "per_layer"}


def _refuse(constant):
    raise ValueError(f"non-finite constant {constant}")


def required(trace: str) -> list:
    """Names of the metrics BENCHMARK.json lists for the trace mode."""
    return [m["name"] for m in json.loads(BENCHMARK.read_text())[LISTS[trace]]]


def problems(line: str, names) -> list:
    try:
        result = json.loads(line, parse_constant=_refuse)
    except ValueError as exc:
        return [f"not a strict JSON result line: {exc}"]
    if not isinstance(result, dict):
        return ["the result line is not a JSON object"]
    found = [] if result.get("correct") is True else ['"correct" is not true']
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return found + ["no metrics"]
    found += [f"listed metric {name} is missing" for name in names if name not in metrics]
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            found.append(f"metric {name} has value {value!r}")
    return found


if __name__ == "__main__":
    workload, trace, line = sys.argv[1:4]
    if trace not in LISTS:
        sys.exit(f"TRACE must be 0 or 1, not {trace!r}")
    found = problems(line, required(trace))
    for problem in found:
        print(f"{workload}: {problem}", file=sys.stderr)
    sys.exit(1 if found else 0)
