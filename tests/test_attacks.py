"""Attack experiments at toy scale.

Each outcome's success flag must agree with the real verifier whenever
a forgery is emitted; structure-recovery attacks are judged against
known ground truth (the permutation ablation) or explicit budgets. The
quantitative claims (acceptance rates, binomial ratios, contrasts with
random codes) live in the acceptance suite.
"""

import hashlib
import importlib
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ldgmsig import attacks, gf2
from ldgmsig.attacks import (
    AttackOutcome,
    SignatureTranscript,
    build_permutation_keypair,
    isd_codeword_strip,
    linearity_forge,
    low_weight_row_recovery,
    right_inverse_forge,
    right_inverse_gram,
    support_decompose,
)
from ldgmsig.digest import CounterExhausted, digest_message, find_orthogonal, map_to_syndrome
from ldgmsig.gf2 import BitVector, DenseMatrix, QcMatrix
from ldgmsig.keygen import PublicKey, assemble, generate_systematic
from ldgmsig.params import get_params
from ldgmsig.rng import HashStream
from ldgmsig.sign import _sign_syndrome, sign_trace, verify

from conftest import CANON_SEED, GRAM_SEED

ATTACK_SEED = bytes(range(31, -1, -1))


def permutation_truth(ps, pi1, pi2):
    inv1 = np.empty(ps.r, dtype=np.int64)
    inv1[pi1] = np.arange(ps.r)
    inv2 = np.empty(ps.n, dtype=np.int64)
    inv2[pi2] = np.arange(ps.n)
    return inv2[ps.k + inv1]


# ------------------------------------------------------------ transcripts

def test_transcript_pairs_satisfy_public_parity(toy, toy_keys):
    sk, pk = toy_keys
    h_rows = pk.parity_rows()
    for zero_mask in (False, True):
        tr = SignatureTranscript.collect(sk, 16, zero_mask=zero_mask)
        assert tr.count == 16
        for s, e_prime in tr.pairs:
            parity = gf2._parity_rows(h_rows, e_prime.data)
            got = np.packbits(parity.astype(np.uint8), bitorder="little")
            assert got.tobytes() == s.to_bytes()


def test_transcript_want_predicate_filters(toy, toy_keys):
    sk, _ = toy_keys
    tr = SignatureTranscript.collect(
        sk, 8, want=lambda s: 0 in s.support())
    assert all(0 in s.support() for s, _ in tr.pairs)
    with pytest.raises(CounterExhausted):
        SignatureTranscript.collect(sk, 1, want=lambda s: False)


@pytest.mark.parametrize("zero_mask", [False, True])
def test_transcript_want_signs_only_kept_messages(monkeypatch, toy_keys, zero_mask):
    sk, _ = toy_keys

    def want(s):
        return 0 in s.support()

    # reference: sign every message, then filter on the signed syndrome
    expected, i = [], 0
    while len(expected) < 8:
        sig, trace = sign_trace(sk, b"transcript-%d" % i, zero_mask=zero_mask)
        i += 1
        if want(trace.syndrome):
            expected.append((trace.syndrome, sig.e_prime))
    # each message is scanned once, and only the kept ones are signed,
    # from the syndrome the filter already found
    scanned, signed = [], []

    def counting(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return fn(*args, **kwargs)
        return wrapper

    scan = counting(scanned, find_orthogonal)
    monkeypatch.setattr(attacks, "find_orthogonal", scan)
    # the package exports the function sign, which shadows the module
    monkeypatch.setattr(importlib.import_module("ldgmsig.sign"), "find_orthogonal", scan)
    monkeypatch.setattr(attacks, "_sign_syndrome", counting(signed, _sign_syndrome))
    tr = SignatureTranscript.collect(sk, 8, zero_mask=zero_mask, want=want)
    assert tr.pairs == expected
    assert len(scanned) == i
    assert len(signed) == 8


# -------------------------------------------------------------- linearity

def test_linearity_forge_empty_transcript(toy_keys):
    _, pk = toy_keys
    out = linearity_forge(pk, SignatureTranscript(), b"anything")
    assert not out.success
    assert out.details["no_solution"]


def test_linearity_forge_beats_zero_mask_oracle(toy, toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 48, zero_mask=True)
    out = linearity_forge(pk, tr, b"forge me")
    assert out.success
    assert out.forgery is not None
    assert verify(pk, b"forge me", out.forgery).accepted
    assert out.details["forged_weight"] <= toy.sig_weight_bound
    # the emitted combination really reproduces the forgery
    combo = out.details["combination"]
    rebuilt = BitVector(toy.n)
    for idx in combo:
        rebuilt = rebuilt.xor(tr.pairs[idx][1])
    assert rebuilt == out.forgery.e_prime


def test_linearity_forge_agrees_with_verifier_on_masked_transcript(toy_keys):
    # combinations of masked signatures still satisfy the syndrome
    # equation (masks are codewords); whether the weight survives is the
    # verifier's call, and the outcome must simply agree with it
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 48)
    out = linearity_forge(pk, tr, b"masked target")
    assert out.forgery is not None
    assert out.success == verify(pk, b"masked target", out.forgery).accepted


def test_linearity_forge_outside_span(toy, toy_keys):
    # a transcript of one pair spans almost nothing
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 1, zero_mask=True)
    out = linearity_forge(pk, tr, b"span miss")
    if not out.success:
        assert out.details.get("no_solution")
    else:  # the lone syndrome can still hit one of the 4 counter targets
        assert out.details["terms"] == 1


# ------------------------------------------------------------ right-inverse

def test_right_inverse_gram_singular_reported(toy_keys):
    # the canonical toy key is the documented singular-Gram specimen
    _, pk = toy_keys
    with pytest.raises(gf2.SingularMatrixError):
        right_inverse_gram(pk)
    out = right_inverse_forge(pk, b"no gram")
    assert not out.success
    assert out.details["gram_singular"]


def test_right_inverse_satisfies_syndrome_equation(toy_keys_gram):
    sk, pk = toy_keys_gram
    gram_inv = right_inverse_gram(pk)
    for i in range(5):
        out = right_inverse_forge(pk, b"target-%d" % i, gram_inv)
        assert out.details["syndrome_ok"]
        assert out.forgery is not None
        assert out.success == verify(pk, b"target-%d" % i,
                                     out.forgery).accepted


def test_right_inverse_lift_matches_dense_rows(toy_keys_gram):
    # the lift through the rotated columns of H'^T gives the forgery that
    # XORing the dense rows of H' over the lifted support gives, with the
    # Gram inverse taken densely as well
    _, pk = toy_keys_gram
    ps = pk.ps
    h = pk.parity_check.expand()
    gram_inv = h.mul_matrix(h.transpose()).invert()
    lift = right_inverse_gram(pk)
    for i in range(8):
        message = b"lift-%d" % i
        s_hat = map_to_syndrome(digest_message(message, ps), 0, ps)
        lifted = gram_inv.mul_vec(s_hat)
        dense = BitVector(ps.n, gf2._rows_xor(pk.parity_rows(), lifted.support()))
        assert right_inverse_forge(pk, message, lift).forgery.e_prime == dense


def test_right_inverse_on_trivial_parity_check(toy):
    # H' = [I_r | 0] makes the right inverse the transpose and the
    # forgery the padded target syndrome itself, weight w
    bits = np.concatenate([np.eye(toy.r, dtype=np.uint8),
                           np.zeros((toy.r, toy.k), dtype=np.uint8)], axis=1)
    pk = PublicKey(toy, QcMatrix.from_dense(DenseMatrix.from_bits(bits)),
                   DenseMatrix.zeros(toy.z, toy.r))
    out = right_inverse_forge(pk, b"trivial")
    s_hat = map_to_syndrome(digest_message(b"trivial", toy), 0, toy)
    assert out.details["syndrome_ok"]
    assert out.forgery.e_prime.support() == s_hat.support()
    assert out.details["forged_weight"] == toy.w


# ---------------------------------------------------------- decomposition

def test_decompose_single_sample_is_underdetermined(toy, toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 1, zero_mask=True)
    out = support_decompose(pk, tr)
    assert not out.success
    assert out.details["w_l"] == toy.w
    assert out.details["reason"] == "transcript too small"


def test_decompose_empty_transcript(toy_keys):
    _, pk = toy_keys
    out = support_decompose(pk, SignatureTranscript())
    assert not out.success
    assert out.details["w_l"] == 0


def test_decompose_recovers_permutation_mapping(toy):
    # chosen-message transcript: the attacker keeps signatures whose
    # public syndrome contains position 0, so that bit survives the
    # intersection and its image under the permutations stands out
    sk, pk, pi1, pi2 = build_permutation_keypair(toy, CANON_SEED)
    truth = permutation_truth(toy, pi1, pi2)
    tr = SignatureTranscript.collect(
        sk, 32, zero_mask=True, want=lambda s: 0 in s.support())
    out = support_decompose(pk, tr)
    assert out.success
    assert out.details["holdout_hit_rate"] >= 0.5
    recovered = out.recovered
    assert 0 in recovered["syndrome_positions"]
    for pos in recovered["syndrome_positions"]:
        assert int(truth[pos]) in recovered["signature_positions"]


def test_decompose_zero_mask_pairs_follow_truth(toy):
    # ground truth for the ablation: e' relocates each syndrome bit to
    # inv2[k + inv1[bit]]
    sk, _, pi1, pi2 = build_permutation_keypair(toy, ATTACK_SEED)
    truth = permutation_truth(toy, pi1, pi2)
    tr = SignatureTranscript.collect(sk, 16, zero_mask=True)
    for s, e_prime in tr.pairs:
        want = sorted(int(truth[j]) for j in s.support())
        assert e_prime.support() == want


def test_decompose_defeated_by_masking(toy, toy_keys):
    # same conditioning, real masked signer at toy-1: the mask buries
    # every per-position frequency below the bar
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(
        sk, 32, want=lambda s: 0 in s.support())
    out = support_decompose(pk, tr)
    assert not out.success


def test_decompose_unconditioned_intersection_vanishes(toy, toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 32, zero_mask=True)
    out = support_decompose(pk, tr)
    # 32 natural weight-2 syndromes share no common position
    assert not out.success
    assert out.details["reason"] == "syndrome intersection vanished"


def assert_shift_permutation(m, pi):
    # one single-bit block in every block row and every block column
    weights = np.bitwise_count(m.first_rows).sum(axis=-1)
    assert weights.max() == 1
    assert (weights.sum(axis=0) == 1).all() and (weights.sum(axis=1) == 1).all()
    assert sorted(pi.tolist()) == list(range(m.rows))


def test_permutation_keypair_stays_on_the_grid(toy):
    sk, pk, pi1, pi2 = build_permutation_keypair(toy, CANON_SEED)
    p1, p2 = sk.sparse_map, sk.scrambler
    for m in (sk.generator, pk.parity_check, p1, p2):
        assert m.p == toy.p
    assert (p1.block_rows, p2.block_rows) == (toy.r0, toy.n0)
    for m, pi in ((p1, pi1), (p2, pi2)):
        assert_shift_permutation(m, pi)
        bits = m.expand().to_bits()
        assert np.array_equal(bits[np.arange(m.rows), pi], np.ones(m.rows))
    _, h = generate_systematic(toy, HashStream(CANON_SEED))
    dense = (p1.expand().to_bits().T @ h.expand().to_bits() % 2) @ p2.expand().to_bits().T % 2
    assert np.array_equal(pk.parity_check.expand().to_bits(), dense)


@pytest.fixture(scope="module")
def ldgm80_ablation():
    return build_permutation_keypair(get_params("ldgm-80"), CANON_SEED)


def test_permutation_keypair_builds_at_ldgm80(ldgm80_ablation):
    ps = get_params("ldgm-80")
    sk, pk, pi1, pi2 = ldgm80_ablation
    for m in (sk.generator, pk.parity_check, sk.sparse_map, sk.scrambler):
        assert m.p == ps.p
    assert_shift_permutation(sk.sparse_map, pi1)
    assert_shift_permutation(sk.scrambler, pi2)


def test_decompose_recovers_permutation_mapping_at_ldgm80(ldgm80_ablation):
    # sparse signatures put the 3-sigma bar below one count; the bar of
    # half the training set keeps once-seen positions out
    ps = get_params("ldgm-80")
    sk, pk, pi1, pi2 = ldgm80_ablation
    truth = permutation_truth(ps, pi1, pi2)
    tr = SignatureTranscript.collect(
        sk, 32, zero_mask=True, want=lambda s: 0 in s.support())
    out = support_decompose(pk, tr)
    assert out.success
    assert out.details["holdout_hit_rate"] == 1.0
    assert out.recovered["signature_positions"] == [int(truth[0])]


# -------------------------------------------------------------- isd strip

def test_isd_strip_zero_mask_entry_trivial(toy, toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 1, zero_mask=True)
    out = isd_codeword_strip(tr.pairs[0], pk, 10, seed=ATTACK_SEED)
    assert out.success
    assert out.details["iterations"] == 0
    assert out.recovered.weight() <= toy.m * toy.w


def test_isd_strip_masked_entry_succeeds_with_budget(toy, toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 1)
    entry = tr.pairs[0]
    assert entry[1].weight() > toy.m * toy.w  # genuinely masked
    out = isd_codeword_strip(entry, pk, 5000, seed=ATTACK_SEED)
    assert out.success
    assert out.details["stripped_weight"] <= toy.m * toy.w
    # the stripped vector differs from e' by a public codeword
    diff = out.recovered.xor(entry[1])
    h_rows = pk.parity_rows()
    assert not gf2._parity_rows(h_rows, diff.data).any()


def test_isd_strip_budget_zero_fails(toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 1)
    out = isd_codeword_strip(tr.pairs[0], pk, 0, seed=ATTACK_SEED)
    assert not out.success
    assert out.details["iterations"] == 0


# ------------------------------------------------------------ key recovery

def test_key_recovery_finds_sparse_generator(toy, toy_keys):
    _, pk = toy_keys
    out = low_weight_row_recovery(pk, toy.w_g * toy.m_s, 10 ** 6,
                                  seed=ATTACK_SEED)
    assert out.success
    assert out.details["independent_found"] == toy.k
    h_rows = pk.parity_rows()
    for word in out.recovered:
        assert word.weight() <= toy.w_g * toy.m_s
        assert not gf2._parity_rows(h_rows, word.data).any()
    basis = DenseMatrix(toy.k, toy.n, np.stack([w.data for w in out.recovered]))
    assert basis.rank() == toy.k


def test_key_recovery_budget_zero(toy, toy_keys):
    _, pk = toy_keys
    out = low_weight_row_recovery(pk, toy.w_g * toy.m_s, 0, seed=ATTACK_SEED)
    assert not out.success
    assert out.details["independent_found"] < toy.k


def test_key_recovery_refuses_production_sizes():
    stub = types.SimpleNamespace(ps=get_params("ldgm-80"))
    with pytest.raises(ValueError, match="toy-scale"):
        low_weight_row_recovery(stub, 180, 10)


def test_isd_strip_refuses_production_sizes(ldgm80):
    sk, pk, _ = ldgm80
    entry = SignatureTranscript.collect(sk, 1).pairs[0]
    with pytest.raises(ValueError, match="toy-scale"):
        isd_codeword_strip(entry, pk, 10, seed=ATTACK_SEED)


@given(st.integers(1, 24), st.lists(st.integers(0, 2 ** 24 - 1), max_size=40))
def test_span_basis_banks_like_rank_check(width, words):
    # narrow widths make most words dependent on the earlier ones
    span, kept = attacks._SpanBasis(), []
    for word in (w & ((1 << width) - 1) for w in words):
        stacked = np.array([[(x >> i) & 1 for i in range(width)]
                            for x in kept + [word]], dtype=np.uint8)
        independent = gf2.rank(DenseMatrix.from_bits(stacked)) == len(kept) + 1
        assert span.add(word) == independent
        if independent:
            kept.append(word)


class _InvertThenMultiply(attacks._InformationSets):
    """The route next() replaced: invert H'_rest, then multiply by H'_info."""

    def next(self):
        while True:
            drawn = self.stream.distinct(self.k, self.n)
            info = np.asarray(sorted(drawn))
            rest = np.setdiff1d(np.arange(self.n), info)
            try:
                inv = DenseMatrix.from_bits(self.bits[:, rest]).invert()
            except gf2.SingularMatrixError:
                self.redraws += 1
                if self.redraws > self.cap:
                    return None
                continue
            return info, rest, inv.mul_matrix(
                DenseMatrix.from_bits(self.bits[:, info])).to_bits()


# r = 197 is a larger system than any toy key makes, and not a multiple
# of 8, so A's first columns share a byte with the pivot columns
@example(r=197, k=11, density=0.5, seed=3)
@given(st.integers(1, 16), st.integers(1, 12), st.sampled_from([0.1, 0.3, 0.5]),
       st.integers(0, 2 ** 32 - 1))
def test_information_sets_match_invert_then_multiply(r, k, density, seed):
    # sparse arrays make many draws singular, some make every draw singular
    bits = (np.random.default_rng(seed).random((r, r + k)) < density).astype(np.uint8)
    key = hashlib.sha256(b"%d" % seed).digest()
    sets = attacks._InformationSets(bits, k, HashStream(key), 2)
    ref = _InvertThenMultiply(bits, k, HashStream(key), 2)
    for _ in range(3):
        got, want = sets.next(), ref.next()
        assert sets.redraws == ref.redraws
        if want is None:
            assert got is None
            break
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# ------------------------------------------------- pinned information sets
# isdstrip and keyrec on three toy-1 keys, run as `ldgmsig attack` runs
# them: records (iterations, work and redraws included) and recovered
# words recorded from the elimination on uint8 rows, so any change to the
# information-set draws or to what elimination returns shows here.  The
# perfbench-toy1-35 key redraws 1811 singular sets before its first
# invertible one.

PINNED_ISD = {
    bytes(range(32)): (
        {"success": True, "work": 8, "stripped_weight": 4, "bound": 4,
         "iterations": 8, "redraws": 50},
        [2, 9, 19, 22],
        {"success": True, "work": 59, "independent_found": 12,
         "needed": 12, "target_weight": 6, "redraws": 7},
        [[2, 7, 8, 11, 23], [1, 6, 8, 13], [5, 7, 9, 11], [0, 5, 11, 12],
         [5, 7, 8, 14, 23], [5, 11, 16, 18, 21, 23], [1, 3, 13, 15],
         [3, 5, 7, 13, 17, 19], [1, 3, 5, 7, 20, 22], [1, 4, 10, 13],
         [1, 4, 8, 11, 22], [0, 8, 10, 14, 16, 18]]),
    hashlib.sha256(b"perfbench-toy1-21").digest(): (
        {"success": True, "work": 5, "stripped_weight": 4, "bound": 4,
         "iterations": 5, "redraws": 1377},
        [10, 16, 21, 22],
        {"success": True, "work": 12, "independent_found": 12,
         "needed": 12, "target_weight": 6, "redraws": 110},
        [[0, 5, 13, 16], [1, 12, 14, 17], [3, 12, 14, 19], [4, 14], [6, 12],
         [7, 13], [8, 12, 14], [5, 9, 13], [10, 12, 14], [5, 11, 13],
         [5, 15], [2, 5, 13, 18]]),
    hashlib.sha256(b"perfbench-toy1-35").digest(): (
        {"success": True, "work": 2, "stripped_weight": 3, "bound": 4,
         "iterations": 2, "redraws": 1811},
        [15, 17, 21],
        {"success": True, "work": 12, "independent_found": 12,
         "needed": 12, "target_weight": 6, "redraws": 1384},
        [[0, 6, 16, 22], [3, 4, 6, 19], [5, 6, 7, 22], [8], [9], [10], [11],
         [1, 4, 6, 17], [2, 6, 18, 22], [4, 6, 20, 22], [4, 7, 21, 22],
         [4, 6, 7, 23]]),
}


@pytest.mark.parametrize("seed", list(PINNED_ISD), ids=["canon", "toy1-21", "toy1-35"])
def test_information_set_attacks_are_pinned(toy, seed):
    strip_record, strip_word, keyrec_record, keyrec_words = PINNED_ISD[seed]
    sk, pk = assemble(toy, seed)
    attack_seed = hashlib.sha256(seed + b"/attack").digest()
    entry = SignatureTranscript.collect(sk, 1).pairs[0]
    strip = isd_codeword_strip(entry, pk, 1000, seed=attack_seed)
    assert strip.as_dict() == {"attack": "isdstrip", **strip_record}
    assert strip.recovered.support() == strip_word
    rec = low_weight_row_recovery(pk, toy.w_g * toy.m_s, 10 ** 6, seed=attack_seed)
    assert rec.as_dict() == {"attack": "keyrec", **keyrec_record}
    assert [word.support() for word in rec.recovered] == keyrec_words


# ---------------------------------------------------------------- outcome

def test_outcome_record_shape(toy_keys):
    sk, pk = toy_keys
    tr = SignatureTranscript.collect(sk, 4, zero_mask=True)
    out = linearity_forge(pk, tr, b"record")
    record = out.as_dict()
    assert record["attack"] == "linearity"
    assert set(record) >= {"attack", "success", "work"}


def test_permutation_keypair_needs_unit_sparse_map(toy):
    import dataclasses
    fat = dataclasses.replace(toy, m_t=2)
    with pytest.raises(ValueError):
        build_permutation_keypair(fat, CANON_SEED)
