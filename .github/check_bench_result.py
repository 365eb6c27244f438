"""Check one benchmark result line strictly.

Usage: python3 .github/check_bench_result.py WORKLOAD LINE

LINE is the last line ``bench/run.py`` prints.  It must be strict JSON
(``NaN``, ``Infinity`` and ``-Infinity`` are refused), hold ``"correct":
true``, and give every metric a finite number as its value.  Exits 1 with a
message naming the workload otherwise.
"""

import json
import math
import sys


def _refuse(constant):
    raise ValueError(f"non-finite constant {constant}")


def problems(line: str) -> list:
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
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            found.append(f"metric {name} has value {value!r}")
    return found


if __name__ == "__main__":
    workload, line = sys.argv[1], sys.argv[2]
    found = problems(line)
    for problem in found:
        print(f"{workload}: {problem}", file=sys.stderr)
    sys.exit(1 if found else 0)
