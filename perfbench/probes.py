"""Reproduce the faults the benchmark found, apart from its timed runs.

    python3 perfbench/probes.py

Prints one JSON line per probe:

* hostile-pk: a 34-byte toy-1 public key whose dense matrix header
  claims (2^31 - 1) x (2^31 - 1) with p = 1, given to
  `python -m ldgmsig.cli verify`. A reader that checks the header
  before reading the payload exits 2 with a FormatError.
* weak-toy-keys: which of the toy1-attacks workload's 200 key seeds give
  an H' with an all-zero column. A flipped signature bit there keeps
  the signature valid, and information sets that leave the column out
  are singular, so isdstrip and keyrec (run as `ldgmsig attack` runs
  them) redraw without using up their budget.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def hostile_pk(work: Path) -> dict:
    name = b"toy-1"
    header = b"LDGMPK" + bytes([1, len(name)]) + name
    huge = 2 ** 31 - 1
    matrix = b"LDGM" + bytes([1]) + struct.pack("<4I", 0, huge, huge, 1)
    pk = work / "hostile.pk"
    pk.write_bytes(header + matrix)
    (work / "message").write_bytes(b"message")
    (work / "message.sig").write_bytes(b"")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "ldgmsig.cli", "verify", "--key", str(pk),
         "--in", str(work / "message"), "--sig", str(work / "message.sig")],
        capture_output=True, text=True, env=env, timeout=120)
    lines = proc.stderr.strip().splitlines()
    return {"probe": "hostile-pk", "pk_bytes": pk.stat().st_size,
            "exit_code": proc.returncode, "expected_exit_code": 2,
            "stderr_last_line": lines[-1] if lines else ""}


def weak_toy_keys() -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from ldgmsig import cli
    from ldgmsig.keygen import assemble
    from ldgmsig.params import get_params
    from ldgmsig.sign import sign, verify
    from checks import PublicView, flipped
    from workloads import TOY_SEEDS
    ps = get_params("toy-1")
    weak = {}
    for i, seed in enumerate(TOY_SEEDS):
        sk, pk = assemble(ps, seed)
        zero = np.flatnonzero(~PublicView(pk).columns.cols.any(axis=1))
        if zero.size:
            sig = sign(sk, b"message")
            weak[i] = {"zero_columns": zero.tolist(),
                       "flipped_bit_accepted": verify(pk, b"message",
                                                      flipped(sig, int(zero[0]))).accepted}
    for i, record in weak.items():
        for name in ("isdstrip", "keyrec"):
            start = perf_counter()
            outcome = cli._attack_outcome(
                argparse.Namespace(name=name, transcript=None, budget=None), ps, TOY_SEEDS[i])
            record[name] = {"seconds": round(perf_counter() - start, 3),
                            "success": outcome.success, "work": outcome.work,
                            "redraws": outcome.details.get("redraws")}
    out = {"probe": "weak-toy-keys", "keys": len(TOY_SEEDS), "weak": weak}
    return out


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        print(json.dumps(hostile_pk(Path(tmp))))
    print(json.dumps(weak_toy_keys()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
