"""Spans around calls into ldgmsig's public functions, recorded from outside.

`install` replaces each traced function with a wrapper under every name
a caller looks it up by: the attribute of each ldgmsig module bound to
that function object (so `sign.find_orthogonal`, imported by name, is
patched along with `digest.find_orthogonal`), or the class attribute
for methods. A wrapper appends one span (name, start, end, parent index,
phase, note) to an in-memory list; `uninstall` puts the originals back.
Nothing here changes what the program computes.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.phase = "setup"
        self._patched: list = []
        self._seen: dict = {}

    def wrap(self, name, fn, note=None, first_name=None):
        """Wrapper recording `name` spans around fn.

        note(args, result) gives a number kept with the span. With
        first_name, the first call on each object (args[0]) is recorded
        under that name instead: that is the call that builds a cache.
        """
        spans, stack = self.spans, self._stack
        seen = self._seen.setdefault(fn, weakref.WeakSet()) if first_name else None

        def wrapper(*args, **kwargs):
            label = name
            if seen is not None and args[0] not in seen:
                seen.add(args[0])
                label = first_name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.phase, None)
            if note is not None:
                spans[idx] = spans[idx][:5] + (note(args, result),)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, note=None):
        fn = getattr(module, attr)
        wrapped = self.wrap(name, fn, note)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("ldgmsig"):
                for key, value in list(mod.__dict__.items()):
                    if value is fn:
                        self._set(mod, key, wrapped)

    def patch_method(self, cls, attr, name, note=None, first_name=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, note)))
        else:
            self._set(cls, attr, self.wrap(name, raw, note, first_name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write the spans as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _n_of(args, result):
    return args[0].rows


def _bytes_of(args, result):
    return int(result.data.nbytes)


def _tries_of(args, result):
    return result.tries


def _redraws_of(args, result):
    return result[1].redraws


def _outcome_work(args, result):
    return result.work


def install(tracer: Tracer, lib) -> Tracer:
    """Wrap the layer functions of the ldgmsig modules in `lib`."""
    gf2, digest, keygen, sign, fileio, attacks, rng = (
        lib.gf2, lib.digest, lib.keygen, lib.sign, lib.fileio, lib.attacks, lib.rng)
    pm, pf = tracer.patch_method, tracer.patch_function
    pm(gf2.DenseMatrix, "invert", "gf2.dense_invert", _n_of)
    pm(gf2.DenseMatrix, "rank", "gf2.dense_rank")
    pm(gf2.QcMatrix, "invert", "gf2.qc_invert")
    pm(gf2.QcMatrix, "multiply", "gf2.qc_multiply")
    pm(gf2.QcMatrix, "expand", "gf2.qc_expand", _bytes_of)
    pf(gf2, "solve", "gf2.solve")
    pf(gf2, "rank", "gf2.rank")
    pf(digest, "unrank", "digest.unrank")
    pf(digest, "map_to_syndrome", "digest.map_to_syndrome")
    pf(digest, "find_orthogonal", "digest.find_orthogonal", _tries_of)
    pf(keygen, "assemble", "keygen.assemble")
    pf(keygen, "derive_systematic_parity", "keygen.systematic")
    pf(keygen, "generate_weight_control", "keygen.weight_control")
    pf(keygen, "generate_scrambler", "keygen.scrambler")
    pf(keygen, "assemble_from_parts", "keygen.public_product")
    for attr in ("generator_rows", "scrambler_columns", "map_support"):
        pm(keygen.PrivateKey, attr, "sign.cache_lookup", first_name="sign.cache_build")
    pm(keygen.PublicKey, "parity_rows", "verify.cache_lookup",
       first_name="verify.cache_build")
    pf(sign, "sign_trace", "sign.sign_trace", _redraws_of)
    pf(sign, "verify", "sign.verify")
    for attr in ("save_private_key", "save_public_key", "save_signature"):
        pf(fileio, attr, "fileio.save")
    pf(fileio, "load_private_key", "fileio.load_private")
    pf(fileio, "load_public_key", "fileio.load_public")
    pf(fileio, "load_signature", "fileio.load_signature")
    pm(attacks.SignatureTranscript, "collect", "attacks.collect")
    pf(attacks, "build_permutation_keypair", "attacks.permutation_keygen")
    pf(attacks, "linearity_forge", "attacks.linearity")
    pf(attacks, "right_inverse_gram", "attacks.gram")
    pf(attacks, "right_inverse_forge", "attacks.rightinv")
    pf(attacks, "support_decompose", "attacks.decompose")
    pf(attacks, "isd_codeword_strip", "attacks.isdstrip",
       lambda args, result: result.details["iterations"])
    pf(attacks, "low_weight_row_recovery", "attacks.keyrec", _outcome_work)
    pm(rng.HashStream, "distinct", "rng.distinct")
    pm(rng.HashStream, "permutation", "rng.permutation")
    return tracer


class SpanTable:
    """Totals, self times and counts per span name, with filters.

    Spans recorded while the benchmark checks outputs are skipped.
    """

    def __init__(self, spans):
        self.spans = spans
        child = defaultdict(float)
        for label, start, end, parent, phase, note in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [end - start - child[i]
                          for i, (_, start, end, *_rest) in enumerate(spans)]

    def select(self, name, phase=None, parent=None):
        for i, span in enumerate(self.spans):
            if span[0] != name or span[4] == "check" or \
                    (phase is not None and span[4] != phase):
                continue
            if parent is not None and (span[3] < 0 or self.spans[span[3]][0] != parent):
                continue
            yield i, span

    def total(self, name, **kw) -> float:
        return sum(s[2] - s[1] for _, s in self.select(name, **kw))

    def self_total(self, name, **kw) -> float:
        return sum(self.self_time[i] for i, _ in self.select(name, **kw))

    def count(self, name, **kw) -> int:
        return sum(1 for _ in self.select(name, **kw))

    def notes(self, name, **kw) -> list:
        """Notes of the spans whose call returned (a raising call has none)."""
        return [s[5] for _, s in self.select(name, **kw) if s[5] is not None]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, notes: dict) -> dict:
    """Per-layer figures from the spans; spans of the checks are left out.

    Keygen stages count only inside `keygen.assemble` in the keygen
    phase, the figures that share a name with a warm call (sign.self_s,
    verify.self_s, digest.*) only in the traced warm pass, cache builds
    per freshly loaded key in the cold phase, attacks in the attack
    phase; gf2 kernel times are self times, so nested kernels are not
    counted twice.
    """
    t = SpanTable(spans)
    stage = {"phase": "keygen", "parent": "keygen.assemble"}
    warm, cold, attack = {"phase": "warm"}, {"phase": "cold"}, {"phase": "attack"}
    stages = ("gf2.rank", "keygen.systematic", "keygen.weight_control",
              "keygen.scrambler", "keygen.public_product")
    tries = sum(t.notes("digest.find_orthogonal", **warm))
    isd_s, keyrec_s = t.total("attacks.isdstrip", **attack), t.total("attacks.keyrec", **attack)
    isd_iters = sum(t.notes("attacks.isdstrip", **attack))
    keyrec_work = sum(t.notes("attacks.keyrec", **attack))
    out = {
        "keygen.generator_attempts": t.count("gf2.rank", **stage),
        "keygen.rank_check_s": t.total("gf2.rank", **stage),
        "keygen.systematic_s": t.total("keygen.systematic", **stage),
        "keygen.weight_control_s": t.total("keygen.weight_control", **stage),
        "keygen.scrambler_s": t.total("keygen.scrambler", **stage),
        "keygen.public_product_s": t.total("keygen.public_product", **stage),
        "keygen.stage_coverage": _ratio(sum(t.total(n, **stage) for n in stages),
                                        t.total("keygen.assemble", phase="keygen")),
        "gf2.dense_invert_s": t.self_total("gf2.dense_invert"),
        "gf2.dense_invert_calls": t.count("gf2.dense_invert"),
        "gf2.dense_invert_max_n": max(t.notes("gf2.dense_invert"), default=0),
        "gf2.dense_rank_s": t.self_total("gf2.dense_rank"),
        "gf2.qc_invert_s": t.self_total("gf2.qc_invert"),
        "gf2.qc_multiply_s": t.self_total("gf2.qc_multiply"),
        "gf2.qc_expand_s": t.self_total("gf2.qc_expand"),
        "gf2.qc_expand_bytes": sum(t.notes("gf2.qc_expand")),
        "gf2.solve_s": t.self_total("gf2.solve"),
        "gf2.solve_calls": t.count("gf2.solve"),
        "digest.unrank_s": t.self_total("digest.unrank", **warm),
        "digest.unrank_calls": t.count("digest.unrank", **warm),
        "digest.counter_tries": tries,
        "digest.scan_yield": _ratio(t.count("digest.find_orthogonal", **warm), tries),
        "sign.cache_build_s": _ratio(t.total("sign.cache_build", **cold),
                                     t.count("sign.sign_trace", **cold)),
        "sign.self_s": t.self_total("sign.sign_trace", **warm),
        "sign.mask_redraws": sum(t.notes("sign.sign_trace", **warm)),
        "verify.cache_build_s": _ratio(t.total("verify.cache_build", **cold),
                                       t.count("sign.verify", **cold)),
        "verify.self_s": t.self_total("sign.verify", **warm),
        "fileio.load_private_s": t.total("fileio.load_private"),
        "fileio.load_public_s": t.total("fileio.load_public"),
        "fileio.load_signature_s": t.total("fileio.load_signature"),
        "fileio.save_s": t.total("fileio.save"),
        "attacks.collect_s": t.total("attacks.collect", **attack),
        "attacks.collect_messages": t.count("sign.sign_trace", parent="attacks.collect", **attack),
        "attacks.linearity_s": t.total("attacks.linearity", **attack),
        "attacks.gram_s": t.total("attacks.gram", **attack),
        "attacks.rightinv_s": t.total("attacks.rightinv", **attack),
        "attacks.decompose_s": t.total("attacks.decompose", **attack),
        "attacks.permutation_keygen_s": t.total("attacks.permutation_keygen", **attack),
        "attacks.isdstrip_s": isd_s,
        "attacks.isdstrip_iterations": isd_iters,
        "attacks.isdstrip_iters_per_s": _ratio(isd_iters, isd_s),
        "attacks.keyrec_s": keyrec_s,
        "attacks.keyrec_candidates": keyrec_work,
        "attacks.keyrec_candidates_per_s": _ratio(keyrec_work, keyrec_s),
        "rng.distinct_s": t.self_total("rng.distinct"),
        "rng.permutation_s": t.self_total("rng.permutation"),
        "trace.spans": len(spans),
    }
    out.update(notes)
    return out
