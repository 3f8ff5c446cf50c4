"""Median and run-to-run spread of benchmark results.

    python3 perfbench/spread.py perfbench/out/ldgm80-lifecycle-seed*-trace0.json

Each file holds one result line of run.py. For every metric it prints
the median over the files and the spread, the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main(paths) -> int:
    results = [json.loads(Path(p).read_text().strip().splitlines()[-1]) for p in paths]
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{len(results)} runs; correct {all(r['correct'] for r in results)}; "
          f"failed/attempted {sorted({r['failed'] / r['attempted'] for r in results})}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:32s} median {median:14.6g}  spread {spread:7.4f}  "
              f"bound {bound if bound is not None else '-'}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
