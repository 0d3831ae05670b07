"""Compare two sets of benchmark runs, one row per (metric, workload).

    python bench/compare.py out/bench/A1.json out/bench/A2.json ... -- \\
                            out/bench/B1.json out/bench/B2.json ...

A is the parent (or first) set, B the change (or second). Inputs are
the records ``run.py`` writes to ``out/bench/``; untraced records are
compared on every end-to-end metric in ``BENCHMARK.json`` and on the
normalized per-operation medians (``count_ref``, ``resume_ref``, ...).
Plain-seconds values (``count_s``, ``cli_p50_ms``, ...) move with the
host's speed, so they are shown as ``info`` and never judged.

Each judged row reads:

* ``improved``   at least ten (A_i, B_i) pairs, of which B wins at
  least 9 in 10, ties counting for neither, and the medians differ by
  more than A's interquartile range;
* ``unresolved`` A's own spread (IQR over median) is wider than the
  metric's bound, and not every B run beats every A run;
* ``regressed``  B's median is worse than A's by more than the bound;
* ``unchanged``  otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Bound of the normalized per-operation medians (``<kind>_ref``),
#: which are not in ``BENCHMARK.json``: the bound of the ``op_*_ref``
#: quantiles they feed. Lower is better for all.
NAMED_BOUND = 0.20
#: A gain needs at least this many pairs (choosing-metrics §8).
MIN_PAIRS = 10
#: Host speed, not a property of the program: printed, never compared.
CALIBRATION = "calibration_ms"


def load(paths: list[str]) -> dict[str, dict]:
    """``{workload: {"runs": [results], "metrics": {metric: [values]}}}``
    over the untraced records in *paths*."""
    merged: dict[str, dict] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record.get("trace"):
            continue
        for name, result in record["workloads"].items():
            entry = merged.setdefault(name, {"runs": [], "metrics": {}})
            entry["runs"].append(result)
            for metric, value in {**result["metrics"], **result["named"]}.items():
                entry["metrics"].setdefault(metric, []).append(value)
    return merged


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    a: list[float], b: list[float], bound: float | None, lower: bool = True
) -> dict:
    """The comparison row for one metric's A and B values; with no
    *bound* the row is ``info`` only."""
    sign = 1.0 if lower else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    gain = sign * (med_a - med_b)  # > 0: B is better
    spread = iqr(a) / med_a if med_a else 0.0
    if bound is None:
        outcome = "info"
    elif len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > iqr(a):
        outcome = "improved"
    elif spread > bound and not all(sign * (x - y) > 0 for x in a for y in b):
        outcome = "unresolved"
    elif med_a and -gain / med_a > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "a": med_a,
        "b": med_b,
        "change": (med_b - med_a) / med_a if med_a else 0.0,
        "spread": spread,
        "bound": bound,
        "wins": f"{wins}/{len(pairs)}",
        "verdict": outcome,
    }


def compare(a: dict[str, dict], b: dict[str, dict]) -> list[tuple[str, str, dict]]:
    """Rows for every (workload, metric) both sides measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for metric, values in a[workload]["metrics"].items():
            other = b[workload]["metrics"].get(metric)
            if not other or metric == CALIBRATION:
                continue
            default = NAMED_BOUND if metric.endswith("_ref") else None
            bound, lower = bounds.get(metric, (default, True))
            rows.append((workload, metric, verdict(values, other, bound, lower)))
    return rows


def failed_share(runs: list[dict]) -> str:
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return f"{failed}/{attempted}"


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1 :]
    if not a_paths or not b_paths:
        print("need at least one record on each side of --", file=sys.stderr)
        return 2
    a, b = load(a_paths), load(b_paths)
    rows = compare(a, b)
    print(
        f"{'workload':14s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'change':>8s} {'A spread':>9s} {'bound':>6s} {'B wins':>7s}  verdict"
    )
    for workload, metric, row in rows:
        print(
            f"{workload:14s} {metric:18s} {row['a']:12.6g} {row['b']:12.6g} "
            f"{row['change']:+8.2%} {row['spread']:9.2%} "
            f"{format(row['bound'], '6.0%') if row['bound'] else '     -'} "
            f"{row['wins']:>7s}  {row['verdict']}"
        )
    for workload in a:
        if workload in b:
            host = [statistics.median(s[workload]["metrics"][CALIBRATION]) for s in (a, b)]
            print(
                f"{workload}: ops_failed A {failed_share(a[workload]['runs'])}, "
                f"B {failed_share(b[workload]['runs'])}; calibration A "
                f"{host[0]:.2f} ms, B {host[1]:.2f} ms"
            )
    return 1 if any(row["verdict"] == "regressed" for _, _, row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
