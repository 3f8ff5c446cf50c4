"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py wraps ldgmsig's layer functions and methods by name
for `python3 perfbench/run.py --trace 1`, so a renamed or deleted one
makes `install` fail.  The library namespace is built from the modules
already imported, so no module is reloaded under the other suites.
"""

import importlib
from types import SimpleNamespace

import tracing

from ldgmsig.params import get_params

from conftest import CANON_SEED

MODULES = ("gf2", "digest", "keygen", "sign", "fileio", "attacks", "rng")


def test_tracer_installs_and_restores_every_hook():
    lib = SimpleNamespace(**{m: importlib.import_module(f"ldgmsig.{m}") for m in MODULES})
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, lib)
        originals = {}
        for owner, attr, original in tracer._patched:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
        lib.keygen.assemble(get_params("toy-1"), CANON_SEED)
        assert "keygen.assemble" in {span[0] for span in tracer.spans}
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
