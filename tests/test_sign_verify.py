"""Signing pipeline and verifier behavior."""

import hashlib

import numpy as np
import pytest

from ldgmsig import fileio, gf2
from ldgmsig.digest import CounterExhausted, digest_message, map_to_syndrome
from ldgmsig.gf2 import BitVector, DenseMatrix, QcMatrix
from ldgmsig.keygen import PrivateKey, assemble_from_parts
from ldgmsig.params import ParameterSet
from ldgmsig.sign import (
    REDRAW_CAP,
    Signature,
    SigningError,
    _select_rows,
    sign,
    sign_trace,
    verify,
)

from conftest import CANON_SEED, bit_grid, times
from reference import vec_bits


def row_supports(rows):
    """The supports of the rows of a 0/1 array, in the form
    PrivateKey.generator_rows has."""
    return gf2.ColumnSupports(bit_grid(rows).transpose())


def embed(ps, mapped):
    return BitVector.from_support(ps.n, [ps.k + i for i in mapped.support()])


def private_syndrome(factors, trace):
    """T s, the syndrome the signer pads into e, from the factors' T."""
    return times(factors.wc.sparse_map, trace.syndrome)


def test_padding_decode_satisfies_parity(toy, toy_keys, toy_factors):
    # e = [0_k | s'] reproduces the private syndrome through H = [X | I_r]
    sk, _ = toy_keys
    h = toy_factors.parity_check
    for i in range(20):
        _, trace = sign_trace(sk, b"decode-%d" % i)
        mapped = private_syndrome(toy_factors, trace)
        e = embed(toy, mapped)
        assert e.weight() == mapped.weight()
        assert times(h, e) == mapped


def test_mask_is_a_codeword_with_bounded_weight(toy, toy_keys, toy_factors):
    sk, _ = toy_keys
    h = toy_factors.parity_check
    floor = toy.w_c - 2 * toy.w_g
    for i in range(50):
        _, trace = sign_trace(sk, b"mask-%d" % i)
        assert times(h, trace.mask).weight() == 0
        assert floor < trace.mask.weight() <= toy.w_c


def test_single_row_mask_when_ratio_is_one():
    ps = ParameterSet("one-row", n=16, k=4, p=1, w=2, w_g=4, w_c=4,
                      z=1, m_t=1, m_s=2, x=3, y=2).validate()
    rng = np.random.default_rng(60)
    rows = np.zeros((ps.k, ps.n), dtype=np.uint8)
    for i in range(ps.k):
        rows[i, rng.choice(ps.n, size=ps.w_g, replace=False)] = 1
    s = BitVector.from_support(ps.r, [0, 5])
    c = _select_rows(row_supports(rows), s, 0, ps)[0]
    assert c.weight() == ps.w_g
    assert any(np.array_equal(vec_bits(c), row) for row in rows)


def test_disjoint_rows_mask_has_full_weight():
    ps = ParameterSet("disjoint", n=12, k=4, p=1, w=2, w_g=3, w_c=6,
                      z=1, m_t=1, m_s=2, x=2, y=2).validate()
    rows = np.zeros((4, 12), dtype=np.uint8)
    for i in range(4):
        rows[i, 3 * i : 3 * i + 3] = 1
    for theta in range(4):
        c = _select_rows(row_supports(rows), BitVector.from_support(ps.r, [1, 2]), theta, ps)[0]
        assert c.weight() == ps.w_c


def test_mask_redraw_cap_reported():
    # k = mask_rows forces the same degenerate row trio every redraw
    ps = ParameterSet("degenerate", n=12, k=3, p=1, w=2, w_g=3, w_c=9,
                      z=1, m_t=1, m_s=2, x=3, y=2).validate()
    rows = np.zeros((3, 12), dtype=np.uint8)
    rows[0, [0, 1, 2]] = 1
    rows[1, [3, 4, 5]] = 1
    rows[2, [0, 1, 3]] = 1  # xor of the three has weight 3 = w_c - 2 w_g
    with pytest.raises(SigningError, match=str(REDRAW_CAP)):
        _select_rows(row_supports(rows), BitVector.from_support(ps.r, [0, 1]), 0, ps)[0]


def test_first_sign_and_verify_expand_no_key_matrix(toy_keys, tmp_path, monkeypatch):
    # sign and verify read the quasi-cyclic first rows: a freshly loaded
    # key pair signs and verifies without one dense expansion
    sk, pk = toy_keys
    fileio.save_private_key(tmp_path / "toy.sk", sk)
    fileio.save_public_key(tmp_path / "toy.pk", pk)
    expanded = []
    expand = QcMatrix.expand
    monkeypatch.setattr(QcMatrix, "expand",
                        lambda self: expanded.append(self) or expand(self))
    sig = sign(fileio.load_private_key(tmp_path / "toy.sk"), b"fresh key")
    assert verify(fileio.load_public_key(tmp_path / "toy.pk"), b"fresh key", sig).accepted
    assert expanded == []


def test_sign_is_deterministic(toy_keys):
    sk, _ = toy_keys
    first = sign(sk, b"repeat me")
    second = sign(sk, b"repeat me")
    assert first.theta == second.theta
    assert first.e_prime == second.e_prime


# one SHA-256 over the (theta, e') pairs of messages b"pin-0", b"pin-1",
# ... in order, and the counter tries of each, per key; recorded when
# the counter scan still unranked by binary search over math.comb
PINNED_SIGNATURES = {
    "toy-1": ("3c131aae203ca2d266862f9048701ad440df6937064fcd08e992aeaccc9de9f2",
              [1] * 200),
    "ldgm-80": ("6ccaaa8bdc41cb311aae0604fd1b24ecabb6b8e9abef91ea816a284fb09fe754",
                [1, 1, 6, 4, 14, 1, 8, 1, 2, 1, 1, 1, 1, 5, 1, 2, 3, 5, 17, 1]),
}


def signature_pins(sk, count):
    digest, tries = hashlib.sha256(), []
    for i in range(count):
        sig, trace = sign_trace(sk, b"pin-%d" % i)
        digest.update(sig.theta.to_bytes(4, "little") + sig.e_prime.to_bytes())
        tries.append(trace.tries)
    return digest.hexdigest(), tries


def test_signature_bytes_are_pinned(toy_keys, ldgm80):
    got = {sk.ps.name: signature_pins(sk, count)
           for sk, count in ((toy_keys[0], 200), (ldgm80[0], 20))}
    assert got == PINNED_SIGNATURES


def test_signature_weight_bound_holds(toy, toy_keys):
    sk, pk = toy_keys
    for i in range(200):
        sig, trace = sign_trace(sk, b"bound-%d" % i)
        assert len(sk.map_support(trace.syndrome)) <= toy.m_t * toy.w
        assert sig.e_prime.weight() <= toy.sig_weight_bound
        assert verify(pk, b"bound-%d" % i, sig).accepted


def test_private_syndrome_untouched_by_mask(toy, toy_keys, toy_factors):
    sk, _ = toy_keys
    h = toy_factors.parity_check
    for i in range(50):
        _, trace = sign_trace(sk, b"invariant-%d" % i)
        mapped = private_syndrome(toy_factors, trace)
        masked = embed(toy, mapped).xor(trace.mask)
        assert times(h, masked) == mapped


def test_identity_pipeline_exposes_padded_syndrome(toy, toy_keys, toy_factors):
    # Q = S = identity and c = 0 reduce signing to e' = [0 | s]
    sk, _ = toy_keys
    eye_r = QcMatrix.identity(toy.r0, toy.p)
    eye_n = QcMatrix.identity(toy.n0, toy.p)
    hook_sk, hook_pk = assemble_from_parts(
        toy, CANON_SEED, sk.generator, toy_factors.parity_check,
        sk.constraints, eye_r, eye_n)
    for i in range(20):
        msg = b"hook-%d" % i
        sig, trace = sign_trace(hook_sk, msg, zero_mask=True)
        assert sig.e_prime == embed(toy, trace.syndrome)
        assert verify(hook_pk, msg, sig).accepted


def test_zero_mask_signatures_are_affine(toy, toy_keys):
    # e'(s1) + e'(s2) = e'(s1 + s2) whenever all three syndromes occur
    sk, _ = toy_keys
    seen = {}
    for i in range(400):
        sig, trace = sign_trace(sk, b"affine-%d" % i, zero_mask=True)
        seen.setdefault(trace.syndrome.to_bytes(), (trace.syndrome, sig.e_prime))
    triples = 0
    items = list(seen.values())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            s3 = items[i][0].xor(items[j][0])
            hit = seen.get(s3.to_bytes())
            if hit is None:
                continue
            triples += 1
            assert items[i][1].xor(items[j][1]) == hit[1]
    # natural toy messages only reach the sixteen counter-zero syndromes,
    # which happen to close under xor a handful of times
    assert triples >= 5


def test_verify_rejects_any_single_position_flip(toy, toy_keys):
    # exhaustive: flipping each of the n positions must break the
    # syndrome equation (the message digest is unchanged)
    sk, pk = toy_keys
    for i in range(5):
        msg = b"flip-%d" % i
        sig, _ = sign_trace(sk, msg)
        for pos in range(toy.n):
            bumped = BitVector.from_support(toy.n, [pos])
            tampered = Signature(sig.theta, sig.e_prime.xor(bumped))
            verdict = verify(pk, msg, tampered)
            assert not verdict.accepted
            assert verdict.reason == "syndrome"


def test_verify_reason_ordering(toy, toy_keys):
    sk, pk = toy_keys
    msg = b"reasons"
    sig = sign(sk, msg)
    heavy = BitVector.from_support(toy.n, range(toy.sig_weight_bound + 1))

    bad_theta = Signature(1 << toy.y, heavy)
    assert verify(pk, msg, bad_theta).reason == "format"
    wrong_length = Signature(sig.theta, BitVector.from_support(toy.n + 8, [0]))
    assert verify(pk, msg, wrong_length).reason == "format"
    assert verify(pk, msg, Signature(sig.theta, heavy)).reason == "weight"
    wrong_vector = Signature(sig.theta, BitVector.from_support(toy.n, [0]))
    assert verify(pk, msg, wrong_vector).reason == "syndrome"


def test_verify_rejects_signature_for_other_message(toy_keys):
    sk, pk = toy_keys
    sig = sign(sk, b"message A")
    verdict = verify(pk, b"message B", sig)
    # a 4-bit digest collides for 1 in 16 message pairs; this pair does not
    assert not verdict.accepted
    assert verdict.reason == "syndrome"


def test_counter_exhaustion_propagates(toy, toy_keys):
    # a constraint matrix with a unit row per position rejects every
    # syndrome, so the signer runs out of counters
    sk, _ = toy_keys
    starved = PrivateKey(toy, sk.seed, sk.generator, DenseMatrix.identity(toy.r),
                         sk.sparse_map, sk.scrambler)
    with pytest.raises(CounterExhausted):
        sign(starved, b"anything")


def test_dense_path_signs_and_verifies(dense_keys):
    sk, pk = dense_keys
    accepted = 0
    for i in range(50):
        msg = b"dense-%d" % i
        try:
            sig = sign(sk, msg)
        except CounterExhausted:
            continue
        accepted += int(verify(pk, msg, sig).accepted)
        assert sig.e_prime.weight() <= sk.ps.sig_weight_bound
    assert accepted == 50  # z = 1 with even w signs everything


def test_verifier_only_needs_public_data(toy, toy_keys):
    # the verifier never touches b: a correct signature checked against
    # a key carrying different constraints still verifies
    sk, pk = toy_keys
    msg = b"public data only"
    sig = sign(sk, msg)
    from ldgmsig.keygen import PublicKey
    stripped = PublicKey(toy, pk.parity_check, DenseMatrix(toy.z, toy.r))
    assert verify(stripped, msg, sig).accepted
