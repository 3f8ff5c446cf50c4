"""Release gate: one test per advertised claim, one verdict line each.

Every test prints `ACCEPTANCE <n> PASS/FAIL - <measurements>` on the
real stdout before asserting, so the verdict survives pytest capture.
A FAIL line means the implementation honestly does not meet the claim;
the assertion message lists which clauses fell short.
"""

import hashlib
import sys
import time
import types
from math import comb

import numpy as np

from ldgmsig import fileio, gf2
from ldgmsig.attacks import (
    SignatureTranscript,
    isd_codeword_strip,
    linearity_forge,
    low_weight_row_recovery,
    right_inverse_forge,
    right_inverse_gram,
)
from ldgmsig.digest import CounterExhausted, rank_support, unrank
from ldgmsig.gf2 import BitVector, DenseMatrix
from ldgmsig.keygen import assemble
from ldgmsig.params import get_params, security_report
from ldgmsig.sign import Signature, sign, sign_trace, verify

from conftest import CANON_SEED, GRAM_SEED, times
from reference import dense, matmul, rank, vec_bits

TABLE = {
    "ldgm-80": (960400, 117, 166.10, 82.76),
    "ldgm-120": (4667520, 570, 242.51, 140.19),
    "ldgm-160": (13800000, 1685, 326.49, 169.23),
}


def report(num: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} {status} - {detail}",
          file=sys.__stdout__, flush=True)
    assert not failures, "; ".join(failures)


def check(failures: list, ok: bool, text: str) -> None:
    if not ok:
        failures.append(text)


def test_c1_report_metrics():
    failures = []
    start = time.perf_counter()
    reports = {name: security_report(get_params(name)) for name in TABLE}
    elapsed = time.perf_counter() - start
    for name, (bits, kib, ns, awc) in TABLE.items():
        rep = reports[name]
        ps = get_params(name)
        check(failures, rep.key_size_bits == ps.r * ps.n // ps.p == bits,
              f"{name} key bits {rep.key_size_bits} != {bits}")
        check(failures, rep.key_size_kib == kib,
              f"{name} KiB {rep.key_size_kib} != {kib}")
        check(failures, abs(rep.log2_ns - ns) <= 0.05,
              f"{name} log2 sig count {rep.log2_ns:.4f} not within 0.05 of {ns}")
        check(failures, abs(rep.log2_awc - awc) <= 0.05,
              f"{name} log2 codeword bound {rep.log2_awc:.4f} "
              f"not within 0.05 of {awc}")
    check(failures, elapsed < 1.0, f"report took {elapsed:.2f}s, limit 1s")
    report(1, failures, f"3 parameter sets, report in {elapsed * 1000:.0f}ms")


def test_c2_end_to_end_ldgm80(ldgm80, tmp_path):
    sk, pk, keygen_seconds = ldgm80
    ps = sk.ps
    failures = []
    check(failures, keygen_seconds < 600,
          f"keygen {keygen_seconds:.0f}s, limit 600s")

    pk_path = tmp_path / "ldgm-80.pk"
    fileio.save_public_key(pk_path, pk)
    payload = fileio.load_public_key(pk_path).payload_bits()
    check(failures, payload == 960400,
          f"public key payload {payload} bits != 960400")

    accepted = 0
    sign_worst = verify_worst = 0.0
    weight_worst = 0
    exhausted = []
    for i in range(10):
        msg = b"round-trip-%d" % i
        start = time.perf_counter()
        try:
            sig = sign(sk, msg)
        except CounterExhausted:
            exhausted.append(i)
            continue
        sign_worst = max(sign_worst, time.perf_counter() - start)
        weight_worst = max(weight_worst, sig.e_prime.weight())
        start = time.perf_counter()
        verdict = verify(pk, msg, sig)
        verify_worst = max(verify_worst, time.perf_counter() - start)
        accepted += verdict.accepted
    check(failures, accepted == 10,
          f"round trips {accepted}/10 accepted, "
          f"counter exhausted on messages {exhausted}")
    check(failures, sign_worst < 1.0, f"slowest sign {sign_worst:.2f}s")
    check(failures, verify_worst < 1.0, f"slowest verify {verify_worst:.2f}s")
    check(failures, weight_worst <= ps.sig_weight_bound == 1602,
          f"signature weight {weight_worst} over bound 1602")
    report(2, failures,
           f"keygen {keygen_seconds:.0f}s, payload {payload} bits, "
           f"{accepted}/10 round trips, max weight {weight_worst}, "
           f"max sign {sign_worst * 1000:.0f}ms")


def test_c3_counter_statistics(toy_keys, ldgm80):
    failures = []
    sk_toy, _ = toy_keys
    sk80, _, _ = ldgm80
    results = {}
    for label, sk in (("toy-1", sk_toy), ("ldgm-80", sk80)):
        tries = []
        skipped = 0
        i = 0
        while len(tries) < 1000:
            msg = b"counter-stat-%d" % i
            i += 1
            try:
                _, trace = sign_trace(sk, msg)
            except CounterExhausted:
                skipped += 1
                continue
            tries.append(trace.tries)
        mean = sum(tries) / len(tries)
        lo, hi = 0.8 * 2 ** sk.ps.z, 1.2 * 2 ** sk.ps.z
        results[label] = (mean, skipped)
        # an all-ones b accepts every even-weight syndrome at the first try
        all_ones = sk.constraints.weight() == sk.ps.z * sk.ps.r
        check(failures, lo <= mean <= hi,
              f"{label} mean tries {mean:.2f} outside [{lo:.2f}, {hi:.2f}]"
              + (f" ({skipped} messages exhausted)" if skipped else "")
              + (f" (z = {sk.ps.z} forces b to all ones and w = {sk.ps.w} "
                 "is even, so every syndrome is orthogonal)"
                 if all_ones and sk.ps.w % 2 == 0 else ""))
    report(3, failures,
           "mean counter tries per 1000 signatures: "
           + ", ".join(f"{k} {v[0]:.2f} (skipped {v[1]})"
                       for k, v in results.items()))


def test_c4_algebraic_invariants(toy, toy_keys, toy_factors):
    # H, Q and the two inverses exist only during keygen: they come from
    # the keygen stages run on the key's seed
    sk, pk = toy_keys
    f = toy_factors
    failures = []

    product = sk.generator.multiply(f.parity_check.transpose())
    check(failures, not product.first_rows.any(), "G H^T != 0")

    q = f.wc.weight_ctrl()
    orthogonal = 0
    clean = True
    for i in range(toy.r):
        for j in range(i + 1, toy.r):
            s = BitVector.from_support(toy.r, [i, j])
            if times(sk.constraints, s).weight():
                continue
            orthogonal += 1
            qs = times(q, s)
            clean &= qs == times(sk.sparse_map, s)
            clean &= qs.weight() <= toy.m_t * toy.w
    check(failures, orthogonal == 66,
          f"only {orthogonal}/66 weight-2 vectors satisfy the constraints")
    check(failures, clean, "Q s != T s or weight over m_t w on some vector")

    check(failures, rank(dense(f.wc.low_rank_part())) <= toy.z,
          "low-rank disturbance exceeds rank z")

    h = f.parity_check
    qh = q.multiply(h)
    check(failures, np.array_equal(dense(qh), matmul(dense(q), dense(h))),
          "QC multiply disagrees with dense multiply")
    check(failures,
          np.array_equal(dense(h.transpose()), dense(h).T),
          "QC transpose disagrees with dense transpose")
    check(failures,
          np.array_equal(matmul(dense(q), dense(f.wc.weight_ctrl_inv)), np.eye(toy.r)),
          "QC inverse disagrees with dense inverse")
    check(failures,
          np.array_equal(matmul(dense(sk.scrambler), dense(f.scr.scrambler_inv)),
                         np.eye(toy.n)),
          "scrambler inverse disagrees with dense inverse")

    total = comb(toy.r, toy.w)
    identity = all(rank_support(unrank(idx, toy.r, toy.w)) == idx
                   for idx in range(total))
    check(failures, identity, "rank(unrank) is not the identity")
    report(4, failures,
           f"exhaustive over {orthogonal} constraint-satisfying vectors "
           f"and {total} digest indices")


def test_c5_linearity_ablation(toy, toy_keys):
    sk, pk = toy_keys
    failures = []
    oracle = SignatureTranscript.collect(sk, 48, zero_mask=True)
    masked = SignatureTranscript.collect(sk, 48)
    masked_rows = np.stack([e.data for _, e in masked.pairs])
    assert all(a[0] == b[0] for a, b in zip(oracle.pairs, masked.pairs))

    forged_ok = 0
    masked_rejected = 0
    for i in range(1000):
        target = b"forge-target-%d" % i
        out = linearity_forge(pk, oracle, target)
        forged_ok += out.success
        combined = BitVector(
            toy.n,
            gf2._rows_xor(masked_rows, out.details.get("combination", ())))
        replay = Signature(out.details.get("theta", 0), combined)
        masked_rejected += not verify(pk, target, replay).accepted
    check(failures, forged_ok == 1000,
          f"only {forged_ok}/1000 forgeries accepted against the "
          "unmasked oracle")
    check(failures, masked_rejected >= 990,
          f"only {masked_rejected}/1000 replayed combinations rejected "
          "against the masked signer (mask codewords keep the syndrome "
          "and stay under the loose toy weight bound)")
    report(5, failures,
           f"unmasked oracle {forged_ok}/1000 forged, masked signer "
           f"rejected {masked_rejected}/1000")


def test_c6_right_inverse_forgery(toy_keys_gram):
    failures = []
    results = {}
    _, pk_toy = toy_keys_gram
    keys = {"toy-1": pk_toy}
    ps80 = get_params("ldgm-80")
    keys["ldgm-80"] = assemble(ps80, GRAM_SEED)[1]
    for label, pk in keys.items():
        gram_inv = right_inverse_gram(pk)
        syndrome_ok = weight_rejected = 0
        for i in range(100):
            out = right_inverse_forge(pk, b"right-inverse-%d" % i, gram_inv)
            syndrome_ok += out.details["syndrome_ok"]
            weight_rejected += (not out.success
                                and out.details["reject_reason"] == "weight")
        results[label] = (syndrome_ok, weight_rejected)
        check(failures, syndrome_ok == 100,
              f"{label}: syndrome equation held in {syndrome_ok}/100 forgeries")
        check(failures, weight_rejected == 100,
              f"{label}: weight check rejected {weight_rejected}/100 "
              f"(bound {pk.ps.sig_weight_bound}, forged weight near r/2 "
              f"= {pk.ps.r // 2})")
    report(6, failures,
           ", ".join(f"{k} syndrome {v[0]}/100 rejected {v[1]}/100"
                     for k, v in results.items()))


def test_c7_isd_strip_rate(toy, toy_keys):
    sk, pk = toy_keys
    failures = []
    entry = SignatureTranscript.collect(sk, 1).pairs[0]
    stripped_bound = toy.m * toy.w
    check(failures, entry[1].weight() > stripped_bound,
          f"entry signature weight {entry[1].weight()} already below "
          f"the stripped bound, trial is vacuous")
    trials = 10_000
    hits = 0
    for t in range(trials):
        seed = hashlib.sha256(b"isd-trial-%d" % t).digest()
        hits += isd_codeword_strip(entry, pk, 1, seed=seed).success
    rate = hits / trials
    expected = comb(toy.n - stripped_bound, toy.k) / comb(toy.n, toy.k)
    check(failures, expected / 3 <= rate <= expected * 3,
          f"success rate {rate:.4f} not within 3x of {expected:.4f}")
    report(7, failures,
           f"single-iteration success {rate:.4f} vs predicted "
           f"{expected:.4f} over {trials} trials (entry weight "
           f"{entry[1].weight()})")


def test_c8_key_recovery_contrast(toy, toy_keys):
    _, pk = toy_keys
    failures = []
    target_weight = toy.w_g * toy.m_s
    budget = 10 ** 6
    out = low_weight_row_recovery(pk, target_weight, budget,
                                  seed=hashlib.sha256(b"keyrec").digest())
    check(failures, out.success, "recovery failed on the real public code")
    words = out.recovered or []
    check(failures, len(words) == toy.k,
          f"{len(words)} codewords recovered, need {toy.k}")
    in_code = all(times(pk.parity_check, w).weight() == 0 for w in words)
    check(failures, in_code, "recovered word outside the public code")
    check(failures, all(w.weight() <= target_weight for w in words),
          f"recovered word heavier than {target_weight}")
    if words:
        stacked = np.stack([vec_bits(w) for w in words])
        check(failures, rank(stacked) == toy.k, "recovered words dependent")

    random_failures = 0
    rng = np.random.default_rng(8)
    for t in range(10):
        while True:
            bits = rng.integers(0, 2, size=(toy.r, toy.n), dtype=np.uint8)
            parity = DenseMatrix.from_bits(bits)
            if parity.rank() == toy.r:
                break
        fake = types.SimpleNamespace(ps=toy,
                                     parity_rows=lambda data=parity.data: data)
        contrast = low_weight_row_recovery(
            fake, target_weight, budget,
            seed=hashlib.sha256(b"keyrec-contrast-%d" % t).digest())
        random_failures += not contrast.success
    check(failures, random_failures >= 9,
          f"random codes of the same size resisted in only "
          f"{random_failures}/10 runs (weight {target_weight} words are "
          f"plentiful at this length, so sparsity does not single out "
          f"the hidden generator)")
    report(8, failures,
           f"real code: {len(words)}/{toy.k} words in {out.work} "
           f"candidates; random contrast failed {random_failures}/10")


def test_c9_determinism(toy, ldgm80, tmp_path):
    failures = []
    message = b"determinism probe"
    toy_bytes = []
    for run in range(2):
        sk, pk = assemble(toy, CANON_SEED)
        sk_path = tmp_path / f"toy-{run}.sk"
        pk_path = tmp_path / f"toy-{run}.pk"
        sig_path = tmp_path / f"toy-{run}.sig"
        fileio.save_private_key(sk_path, sk)
        fileio.save_public_key(pk_path, pk)
        fileio.save_signature(sig_path, toy.name, sign(sk, message))
        toy_bytes.append((sk_path.read_bytes(), pk_path.read_bytes(),
                          sig_path.read_bytes()))
    check(failures, toy_bytes[0] == toy_bytes[1],
          "toy-1 keys or signature differ between identically seeded runs")

    sk80, pk80, _ = ldgm80
    sk80b, pk80b = assemble(sk80.ps, CANON_SEED)
    first = tmp_path / "ldgm-80-a.pk"
    second = tmp_path / "ldgm-80-b.pk"
    fileio.save_public_key(first, pk80)
    fileio.save_public_key(second, pk80b)
    check(failures, first.read_bytes() == second.read_bytes(),
          "ldgm-80 public keys differ between identically seeded runs")
    # exhaustion is deterministic too, so scanning for a message the
    # counter search can sign keeps the comparison reproducible
    sig_a = sig_b = None
    for i in range(64):
        probe = b"determinism-probe-%d" % i
        try:
            sig_a, sig_b = sign(sk80, probe), sign(sk80b, probe)
            break
        except CounterExhausted:
            continue
    check(failures, sig_a is not None,
          "no signable ldgm-80 message among 64 probes")
    check(failures,
          sig_a is not None and sig_a.theta == sig_b.theta
          and sig_a.e_prime == sig_b.e_prime,
          "ldgm-80 signatures differ between identically seeded runs")
    report(9, failures, "toy-1 key pair, ldgm-80 key pair, and both "
           "signatures byte-identical across reruns")
