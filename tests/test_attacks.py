"""Attack experiments at toy scale.

Each outcome's success flag must agree with the real verifier whenever
a forgery is emitted; structure-recovery attacks are judged against
known ground truth (the permutation ablation) or explicit budgets. The
quantitative claims (acceptance rates, binomial ratios, contrasts with
random codes) live in the acceptance suite.
"""

import types

import numpy as np
import pytest

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
from ldgmsig.digest import CounterExhausted, digest_message, map_to_syndrome
from ldgmsig.gf2 import BitVector, DenseMatrix, QcMatrix
from ldgmsig.keygen import PublicKey
from ldgmsig.params import get_params
from ldgmsig.sign import verify

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
    # same conditioning, real masked signer: the mask buries every
    # per-position frequency below the 3-sigma bar
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
