"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload ldgm80-lifecycle --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout: ldgmsig is imported from `src/`
next to this directory, never from an installed copy. With --trace 0
the result holds the end-to-end metrics that BENCHMARK.json lists, with
--trace 1 its per-layer metrics, from a run with spans around the layer
calls (see tracing.py).
The last line of standard output is the result; a copy of it, and of
the spans of a traced run, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, Run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"  # names and units of the metrics to print
SETUP_REPEATS = 5
MODULES = ("gf2", "params", "rng", "digest", "keygen", "sign", "fileio", "attacks", "cli")


def load_library():
    """Import ldgmsig afresh from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "ldgmsig" or m.startswith("ldgmsig.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"ldgmsig.{m}") for m in MODULES})
    origin = Path(sys.modules["ldgmsig"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise ImportError(f"ldgmsig imported from {origin}, not from {SRC}")
    return lib


def setup(make_inputs, seed):
    """Everything before the first timed call: import and input making."""
    start = perf_counter()
    lib = load_library()
    inputs = make_inputs(seed)
    return lib, inputs, perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time the warm sign/verify passes take in all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ldgmsig" / "__init__.py").is_file():
        print(f"no ldgmsig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    make_inputs, workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        lib, inputs, elapsed = setup(make_inputs, args.seed)
        setup_times.append(elapsed)

    OUT.mkdir(exist_ok=True)
    tracer = tracing.install(tracing.Tracer(), lib) if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        run = Run(lib, inputs, args.seconds, Path(work_dir), tracer)
        end_to_end = workload(run)
    if tracer is not None:
        tracer.uninstall()
        values, kind = tracing.layer_metrics(tracer.spans, run.layer_notes), "per_layer"
    else:
        values, kind = dict(end_to_end, setup_s=statistics.median(setup_times)), "end_to_end"
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in json.loads(MANIFEST.read_text())[kind]},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
