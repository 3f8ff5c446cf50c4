"""The two workloads: an ldgm-80 key lifecycle and a toy-1 attack suite.

A workload drives ldgmsig through its public functions from one thread
(a closed loop: each call starts when the previous one returned), times
the calls a user waits for, checks every output with `checks.py`, and
counts the operations it attempted and those that failed. An operation
fails when it raises; if it returns a wrong output it fails and the run
is also marked incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from checks import PublicView, check_attack, check_key, check_rightinv_forgery, flipped, signature_verdict
import tracing

# ldgm-80 key seed, SHA-256 of b"perfbench-ldgm80-10": its first generator
# draw is systematic (one attempt) and its Gram matrix H' H'^T is
# invertible, so the forgeries run. README.md says how it was found.
LDGM80_SEED = hashlib.sha256(b"perfbench-ldgm80-10").digest()
LDGM80_COLD_REPS = 10
LDGM80_WARM_MESSAGES = 1000
LDGM80_FORGERIES = 20
LDGM80_KEY_ROWS = 64

# toy-1 key seeds are fixed, SHA-256 of b"perfbench-toy1-<i>", so the
# attack experiments do the same work in every run; --seed varies the
# messages
TOY_KEYS = 200
TOY_SEEDS = [hashlib.sha256(b"perfbench-toy1-%d" % i).digest() for i in range(TOY_KEYS)]
TOY_WARM_MESSAGES = 2000
TOY_KEYS_PER_PASS = 20

WARM_MIN_PASSES = 5
TAMPERED = 8
ATTACKS = ("linearity", "rightinv", "decompose", "isdstrip", "keyrec")
ATTACK_TARGET = b"attack-target"


def derive(seed: int, label: str, i: int) -> bytes:
    return hashlib.sha256(b"perfbench/%d/%s/%d" % (seed, label.encode(), i)).digest()


def messages(seed: int, label: str, count: int) -> list[bytes]:
    """Distinct messages of about 70 to 400 bytes, a function of the seed alone."""
    out = []
    for i in range(count):
        h = derive(seed, label, i)
        out.append(b"%s %d: " % (label.encode(), i) + h.hex().encode() * (1 + h[0] % 6))
    return out


def ldgm80_inputs(seed: int) -> dict:
    return {"cold": messages(seed, "cold", LDGM80_COLD_REPS),
            "warm": messages(seed, "warm", LDGM80_WARM_MESSAGES),
            "forge": messages(seed, "forge", LDGM80_FORGERIES),
            "flip": [int.from_bytes(derive(seed, "flip", i)[:4], "little")
                     for i in range(TAMPERED)],
            "key_rows": [int.from_bytes(derive(seed, "row", i)[:4], "little") % 4900
                         for i in range(LDGM80_KEY_ROWS)]}


def toy1_inputs(seed: int) -> dict:
    return {"seeds": TOY_SEEDS,
            "cold": messages(seed, "cold", TOY_KEYS),
            "warm": messages(seed, "warm", TOY_WARM_MESSAGES),
            "flip": [int.from_bytes(derive(seed, "flip", i)[:4], "little")
                     for i in range(TOY_KEYS)]}


class Run:
    """Operation counts, the check log and the trace phase of one run."""

    def __init__(self, lib, inputs, seconds, work_dir: Path, tracer=None):
        self.lib = lib
        self.inputs = inputs
        self.seconds = seconds
        self.dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.layer_notes: dict = {}
        self.current_phase = "setup"

    def phase(self, name):
        """Name the step that the spans recorded from now on belong to."""
        self.current_phase = name
        if self.tracer is not None:
            self.tracer.phase = name

    def timed(self, what, fn, *args, ops=1):
        """(result, seconds) of one call; (None, None) when it raises."""
        self.attempted += ops
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises is counted, not fatal
            self.failed += 1
            print(f"{what} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None, None
        return result, perf_counter() - start

    def check(self, what, problems):
        """Record the problems found in one operation's output."""
        if problems:
            self.failed += 1
            self.correct = False
            print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)

    @contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            tracing.install(self.tracer, self.lib)

    def same_bytes_after_save(self, what, save, obj, original: Path):
        again = self.dir / ("again-" + original.name)
        save(again, obj)
        if again.read_bytes() != original.read_bytes():
            self.check(what, [f"saved again, the {what} has other bytes than its file"])


def _ms(values):
    return [v * 1e3 for v in values]


def _p99(values):
    return statistics.quantiles(values, n=100)[98]


def cold_round_trip(run, sk_path, pk_path, message, view):
    """Load the private key and sign, then load key and signature and
    verify, as two separate `ldgmsig sign` / `ldgmsig verify` calls pay."""
    fileio, sign = run.lib.fileio, run.lib.sign

    def load_and_sign():
        sk = fileio.load_private_key(sk_path)
        return sk, sign.sign(sk, message)

    run.phase("cold")
    loaded, sign_s = run.timed("cold sign", load_and_sign, ops=2)
    if loaded is None:
        return None, None, None
    sk, sig = loaded
    sig_path = run.dir / "cold.sig"
    fileio.save_signature(sig_path, sk.ps.name, sig)

    def load_and_verify():
        pk = fileio.load_public_key(pk_path)
        name, loaded_sig = fileio.load_signature(sig_path)
        return pk, sign.verify(pk, message, loaded_sig)

    checked, verify_s = run.timed("cold verify", load_and_verify, ops=3)
    run.phase("check")
    run.check("cold signature", signature_verdict(view, message, sig))
    if checked is None:
        return sign_s, None, sk
    verdict = checked[1]
    run.check("cold verify", [] if verdict.accepted else [f"rejected: {verdict.reason}"])
    return sign_s, verify_s, sk


class Warm:
    """Warm signing and verification of a fixed message list on one
    loaded key pair, in whole passes (sign every message, then verify
    every signature) that the workload spreads over its run.

    A message's time is its median over the passes. The passes repeat
    the same work, so the median leaves out a pass in which the process
    sat preempted or stalled by neighbours on a shared machine, and
    spreading the passes over the run averages over the machine's
    slower and faster spells. Later passes must repeat the first pass's
    signatures.
    """

    def __init__(self, run, sk, pk, msgs):
        self.run, self.sk, self.pk, self.msgs = run, sk, pk, msgs
        self.sign_times = [[] for _ in msgs]
        self.verify_times = [[] for _ in msgs]
        self.first = None
        self.passes = 0
        self.busy_s = 0.0

    def one_pass(self):
        run = self.run
        sign, verify = run.lib.sign.sign, run.lib.sign.verify
        start = perf_counter()
        sigs = []
        for i, msg in enumerate(self.msgs):
            sig, dt = run.timed("warm sign", sign, self.sk, msg)
            sigs.append(sig)
            if dt is not None:
                self.sign_times[i].append(dt)
        rejected = 0
        for i, (msg, sig) in enumerate(zip(self.msgs, sigs)):
            if sig is None:
                continue
            verdict, dt = run.timed("warm verify", verify, self.pk, msg, sig)
            if dt is not None:
                self.verify_times[i].append(dt)
                rejected += not verdict.accepted
        self.busy_s += perf_counter() - start
        self.passes += 1
        phase = run.current_phase
        run.phase("check")
        run.check("warm verify", [f"{rejected} valid signatures rejected"] if rejected else [])
        if self.first is None:
            self.first = sigs
        elif sigs != self.first:
            run.check("warm sign", ["a later pass gave other signatures"])
        run.phase(phase)

    def interleaved_pass(self):
        """A pass between other steps; a traced run makes its passes in finish()."""
        if self.run.tracer is None:
            self.one_pass()

    def finish(self):
        """Passes until there are WARM_MIN_PASSES and they took the run's
        seconds. A traced run makes one untraced and one traced pass and
        reports the difference as the tracer's overhead."""
        run = self.run
        if run.tracer is None:
            while self.passes < WARM_MIN_PASSES or self.busy_s < run.seconds:
                self.one_pass()
            return
        with run.untraced():
            self.one_pass()
        untraced_s = self.busy_s
        run.phase("warm")
        self.one_pass()
        run.layer_notes["trace.overhead_pct"] = 100 * (self.busy_s - 2 * untraced_s) / untraced_s
        run.layer_notes["verify.parity_bytes_per_call"] = int(self.pk.parity_rows().nbytes)

    def latencies(self):
        """Each message's median sign and verify time."""
        return ([statistics.median(t) for t in self.sign_times if t],
                [statistics.median(t) for t in self.verify_times if t])


def check_signatures(run, view, pk, msgs, sigs, flips):
    """Reference checks of every signature; a tampered message and a
    flipped bit must be rejected for the first len(flips) of them. The
    bit is one whose column of H' is not zero.

    The tampered message is the first of msg + b"~", msg + b"~~", ...
    whose digest differs: toy-1 digests have 4 bits, so one in sixteen
    tampered messages keeps the digest and the signature stays valid.
    """
    verify, digest = run.lib.sign.verify, run.lib.digest.digest_message
    bad = sum(1 for msg, sig in zip(msgs, sigs)
              if sig is not None and signature_verdict(view, msg, sig))
    run.check("signatures", [f"{bad} signatures fail the reference"] if bad else [])
    for msg, sig, pos in zip(msgs, sigs, flips):
        if sig is None:
            continue
        tampered = msg + b"~"
        while digest(tampered, view.ps) == digest(msg, view.ps):
            tampered += b"~"
        bit = int(view.detectable[pos % len(view.detectable)])
        for label, args in (("tampered message", (pk, tampered, sig)),
                            ("flipped bit", (pk, msg, flipped(sig, bit)))):
            verdict, _ = run.timed(f"{label} verify", verify, *args)
            if verdict is not None and verdict.accepted:
                run.check(label, ["accepted"])


def signature_sizes(run, name, sigs) -> float:
    """Mean size of the signature files of sigs."""
    path = run.dir / "size.sig"
    sizes = []
    for sig in sigs:
        if sig is not None:
            run.lib.fileio.save_signature(path, name, sig)
            sizes.append(path.stat().st_size)
    return statistics.fmean(sizes)


def summary(run, *, keygen_s, sign_cold, verify_cold, sign_lat, verify_lat,
            attack_phase_s, pk_bytes, sk_bytes, sig_bytes) -> dict:
    return {
        "keygen_s": keygen_s,
        "sign_cold_ms": statistics.median(_ms(sign_cold)),
        "verify_cold_ms": statistics.median(_ms(verify_cold)),
        "sign_per_s": len(sign_lat) / sum(sign_lat),
        "sign_p50_ms": statistics.median(_ms(sign_lat)),
        "sign_p99_ms": _p99(_ms(sign_lat)),
        "verify_per_s": len(verify_lat) / sum(verify_lat),
        "verify_p50_ms": statistics.median(_ms(verify_lat)),
        "verify_p99_ms": _p99(_ms(verify_lat)),
        "attack_phase_s": attack_phase_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pk_bytes": pk_bytes,
        "sk_bytes": sk_bytes,
        "sig_bytes": sig_bytes,
    }


def cache_alloc_mb(run, sk_path, message):
    """tracemalloc peak over the first sign on a freshly loaded key."""
    run.phase("check")
    sk = run.lib.fileio.load_private_key(sk_path)
    tracemalloc.start()
    try:
        run.lib.sign.sign(sk, message)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run.layer_notes["sign.cache_alloc_mb"] = peak / 2 ** 20


def warm_up(run, sk_path, pk_path):
    """Load a key pair and sign and verify once, so caches are built."""
    fileio, sign = run.lib.fileio, run.lib.sign
    run.phase("warm-up")
    (sk, pk), _ = run.timed("load", lambda: (fileio.load_private_key(sk_path),
                                             fileio.load_public_key(pk_path)), ops=2)
    run.timed("warm-up", lambda: sign.verify(pk, b"warm-up", sign.sign(sk, b"warm-up")), ops=2)
    return sk, pk


def ldgm80_lifecycle(run: Run) -> dict:
    """Keygen, then WARM_MIN_PASSES rounds of cold round trips and a
    warm pass, with the attack after the first round, so the cold and
    warm medians span the run."""
    lib, inp = run.lib, run.inputs
    fileio = lib.fileio
    ps = lib.params.get_params("ldgm-80")
    run.phase("keygen")
    keys, keygen_s = run.timed("keygen", lib.keygen.assemble, ps, LDGM80_SEED)
    if keys is None:
        raise RuntimeError("ldgm-80 keygen failed; nothing else can run")
    sk_path, pk_path = run.dir / "ldgm80.sk", run.dir / "ldgm80.pk"
    run.phase("save")
    fileio.save_private_key(sk_path, keys[0])
    fileio.save_public_key(pk_path, keys[1])
    run.phase("check")
    view = PublicView(keys[1])
    run.check("ldgm-80 key", check_key(*keys, rows=inp["key_rows"]))
    del keys
    if run.tracer is not None:
        cache_alloc_mb(run, sk_path, inp["cold"][0])

    sk, pk = warm_up(run, sk_path, pk_path)
    run.phase("check")
    run.same_bytes_after_save("private key", fileio.save_private_key, sk, sk_path)
    run.same_bytes_after_save("public key", fileio.save_public_key, pk, pk_path)
    warm = Warm(run, sk, pk, inp["warm"])
    sign_cold, verify_cold = [], []
    per_round = len(inp["cold"]) // WARM_MIN_PASSES
    for r in range(WARM_MIN_PASSES):
        for msg in inp["cold"][r * per_round:(r + 1) * per_round]:
            sign_s, verify_s, _ = cold_round_trip(run, sk_path, pk_path, msg, view)
            sign_cold += [sign_s] if sign_s is not None else []
            verify_cold += [verify_s] if verify_s is not None else []
        run.phase("warm")
        warm.interleaved_pass()
        if r == 0:
            attack_phase_s, forgeries = ldgm80_attack(run, pk)
    warm.finish()
    run.phase("check")
    check_signatures(run, view, pk, inp["warm"], warm.first, inp["flip"])
    for msg, out in zip(inp["forge"], forgeries):
        if out is not None:
            problems = check_rightinv_forgery(view, msg, out)
            if out.success or out.details.get("reject_reason") != "weight":
                problems.append(f"forgery not rejected on weight: {out.details}")
            run.check("right-inverse forgery", problems)
    for name in ATTACKS:
        run.layer_notes[f"attacks.{name}_successes"] = 0
    run.layer_notes["attacks.rightinv_successes"] = sum(bool(out and out.success)
                                                        for out in forgeries)
    sign_lat, verify_lat = warm.latencies()
    return summary(run, keygen_s=keygen_s, sign_cold=sign_cold, verify_cold=verify_cold,
                   sign_lat=sign_lat, verify_lat=verify_lat, attack_phase_s=attack_phase_s,
                   pk_bytes=pk_path.stat().st_size, sk_bytes=sk_path.stat().st_size,
                   sig_bytes=signature_sizes(run, ps.name, warm.first))


def ldgm80_attack(run, pk):
    """Gram inverse once, then one right-inverse forgery per message."""
    attacks = run.lib.attacks
    run.phase("attack")
    start = perf_counter()
    gram_inv, _ = run.timed("gram", attacks.right_inverse_gram, pk)
    forgeries = [run.timed("forge", attacks.right_inverse_forge, pk, msg, gram_inv)[0]
                 for msg in run.inputs["forge"]]
    return perf_counter() - start, forgeries


def toy1_key_round(run, ps, i, seed, message, flip, keygen_times, sign_cold, verify_cold):
    """Keygen, save, load, the cold round trip and the checks of key i."""
    lib, fileio = run.lib, run.lib.fileio
    run.phase("keygen")
    keys, dt = run.timed("keygen", lib.keygen.assemble, ps, seed)
    if keys is None:
        return None
    keygen_times.append(dt)
    sk_path, pk_path = run.dir / f"toy-{i}.sk", run.dir / f"toy-{i}.pk"
    run.phase("save")
    fileio.save_private_key(sk_path, keys[0])
    fileio.save_public_key(pk_path, keys[1])
    run.phase("check")
    view = PublicView(keys[1])
    run.check(f"toy key {i}", check_key(*keys))
    again, _ = run.timed("keygen again", lib.keygen.assemble, ps, seed)
    if again is not None:
        run.same_bytes_after_save("regenerated private key", fileio.save_private_key,
                                  again[0], sk_path)
        run.same_bytes_after_save("regenerated public key", fileio.save_public_key,
                                  again[1], pk_path)
    sign_s, verify_s, sk = cold_round_trip(run, sk_path, pk_path, message, view)
    if sign_s is not None:
        sign_cold.append(sign_s)
        run.same_bytes_after_save("private key", fileio.save_private_key, sk, sk_path)
        run.same_bytes_after_save("public key", fileio.save_public_key,
                                  fileio.load_public_key(pk_path), pk_path)
        _, sig = fileio.load_signature(run.dir / "cold.sig")
        check_signatures(run, view, keys[1], [message], [sig], [flip])
    if verify_s is not None:
        verify_cold.append(verify_s)
    return keys


def toy1_attack_round(run, ps, seed, keys, successes) -> float:
    """The five attacks on one key seed, as `ldgmsig attack` runs them;
    returns their wall time and checks each outcome."""
    lib = run.lib
    run.phase("attack")
    outcomes = []
    start = perf_counter()
    for name in ATTACKS:
        args = argparse.Namespace(name=name, transcript=None, budget=None)
        outcomes.append(run.timed(f"attack {name}", lib.cli._attack_outcome, args, ps, seed)[0])
    elapsed = perf_counter() - start
    run.phase("check")
    for name, out in zip(ATTACKS, outcomes):
        if out is None or keys is None:
            continue
        successes[name] += out.success
        extra = {}
        if name == "isdstrip" and out.success:
            extra["strip_entry"] = lib.attacks.SignatureTranscript.collect(keys[0], 1).pairs[0]
        if name == "decompose" and out.success:
            extra["permutation_key"] = lib.attacks.build_permutation_keypair(ps, seed)[0]
        run.check(f"attack {name}", check_attack(name, out, *keys, message=ATTACK_TARGET, **extra))
    return elapsed


def toy1_attacks(run: Run) -> dict:
    """Per key seed: keygen, cold round trip and the five attacks, with a
    warm pass on the first key after every TOY_KEYS_PER_PASS seeds, so
    every median spans the run."""
    lib, inp = run.lib, run.inputs
    ps = lib.params.get_params("toy-1")
    keygen_times, sign_cold, verify_cold = [], [], []
    successes = dict.fromkeys(ATTACKS, 0)
    attack_phase_s = 0.0
    sk_path, pk_path = run.dir / "toy-0.sk", run.dir / "toy-0.pk"
    warm = None
    for i, seed in enumerate(inp["seeds"]):
        keys = toy1_key_round(run, ps, i, seed, inp["cold"][i], inp["flip"][i],
                              keygen_times, sign_cold, verify_cold)
        attack_phase_s += toy1_attack_round(run, ps, seed, keys, successes)
        if warm is None:
            if run.tracer is not None:
                cache_alloc_mb(run, sk_path, inp["cold"][0])
            warm = Warm(run, *warm_up(run, sk_path, pk_path), inp["warm"])
        if (i + 1) % TOY_KEYS_PER_PASS == 0:
            run.phase("warm")
            warm.interleaved_pass()
    warm.finish()
    run.phase("check")
    check_signatures(run, PublicView(warm.pk), warm.pk, inp["warm"], warm.first,
                     inp["flip"][:TAMPERED])
    for name in ATTACKS:
        run.layer_notes[f"attacks.{name}_successes"] = successes[name]
    sign_lat, verify_lat = warm.latencies()
    return summary(run, keygen_s=statistics.median(keygen_times), sign_cold=sign_cold,
                   verify_cold=verify_cold, sign_lat=sign_lat, verify_lat=verify_lat,
                   attack_phase_s=attack_phase_s, pk_bytes=pk_path.stat().st_size,
                   sk_bytes=sk_path.stat().st_size,
                   sig_bytes=signature_sizes(run, ps.name, warm.first))


WORKLOADS = {
    "ldgm80-lifecycle": (ldgm80_inputs, ldgm80_lifecycle),
    "toy1-attacks": (toy1_inputs, toy1_attacks),
}
