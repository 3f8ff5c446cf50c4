"""Key generation: LDGM structure, weight control, scrambler, assembly."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from ldgmsig import fileio, gf2
from ldgmsig.gf2 import BitVector, DenseMatrix, QcMatrix
from ldgmsig.keygen import (
    InformationSetError,
    KeyGenerationError,
    assemble,
    assemble_from_parts,
    derive_systematic_parity,
    generate_scrambler,
    generate_systematic,
    generate_weight_control,
)
from ldgmsig.params import ParameterSet
from ldgmsig.rng import HashStream
from ldgmsig.sign import sign, verify

from conftest import CANON_SEED, DENSE_SET, Z2_SET


def all_weight_w(ps):
    for support in itertools.combinations(range(ps.r), ps.w):
        yield BitVector.from_support(ps.r, support)


def test_systematic_parity_from_identity_block():
    # G = [I_k | D] pins H = [D^T | I_r] exactly
    rng = np.random.default_rng(50)
    k, r = 5, 7
    d = rng.integers(0, 2, size=(k, r), dtype=np.uint8)
    g = QcMatrix.from_dense(DenseMatrix.from_bits(
        np.concatenate([np.eye(k, dtype=np.uint8), d], axis=1)))
    h = derive_systematic_parity(g)
    want = np.concatenate([d.T, np.eye(r, dtype=np.uint8)], axis=1)
    assert np.array_equal(h.expand().to_bits(), want)
    assert g.multiply(h.transpose()).weight() == 0


def test_singular_information_set_reported():
    g = QcMatrix.from_dense(DenseMatrix.from_bits(np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)))
    with pytest.raises(InformationSetError):
        derive_systematic_parity(g)


def test_full_length_rows_rejected():
    ps = ParameterSet("wide", n=8, k=2, p=1, w=2, w_g=8, w_c=8,
                      z=1, m_t=1, m_s=2, x=2, y=1).validate()
    with pytest.raises(KeyGenerationError):
        generate_systematic(ps, HashStream(CANON_SEED))
    over = dataclasses.replace(ps, w_g=9, w_c=9)
    with pytest.raises(KeyGenerationError):
        generate_systematic(over, HashStream(CANON_SEED))


def test_generator_shape_and_row_weight(toy, toy_keys):
    sk, _ = toy_keys
    g = sk.generator
    assert (g.rows, g.cols) == (toy.k, toy.n)
    assert gf2.rank(g) == toy.k
    dense = g.expand()
    assert np.array_equal(dense.row_weights(), np.full(toy.k, toy.w_g))


def test_parity_check_is_systematic(toy, toy_keys):
    sk, _ = toy_keys
    h = sk.parity_check.expand()
    right = DenseMatrix.from_bits(h.to_bits()[:, toy.k:])
    assert right == DenseMatrix.identity(toy.r)
    assert sk.generator.expand().mul_matrix(h.transpose()).weight() == 0


def test_dense_path_mirrors_qc_contracts(dense_keys):
    sk, pk = dense_keys
    ps = sk.ps
    g = sk.generator.expand()
    assert g.mul_matrix(sk.parity_check.expand().transpose()).weight() == 0
    assert np.array_equal(g.row_weights(), np.full(ps.k, ps.w_g))
    assert pk.parity_check.rank() == ps.r
    sig_cols = sk.scrambler.expand().col_weights()
    assert sig_cols.max() <= ps.m_s


def test_keygen_is_seed_deterministic(toy):
    a_sk, a_pk = assemble(toy, CANON_SEED)
    b_sk, b_pk = assemble(toy, CANON_SEED)
    assert a_pk.parity_check == b_pk.parity_check
    assert a_sk.generator == b_sk.generator
    assert a_sk.scrambler == b_sk.scrambler
    assert a_sk.sparse_map == b_sk.sparse_map
    other_sk, other_pk = assemble(toy, bytes(32))
    assert other_pk.parity_check != a_pk.parity_check or \
        other_sk.generator != a_sk.generator


def test_constraints_have_no_zero_column(toy, toy_keys, dense_keys):
    for sk, _ in (toy_keys, dense_keys):
        b = sk.constraints
        assert b.rows == sk.ps.z and b.cols == sk.ps.r
        assert b.col_weights().min() >= 1


def test_low_rank_part_stays_low_rank(toy, toy_keys):
    sk, _ = toy_keys
    assert gf2.rank(sk.low_rank_part()) <= toy.z


def test_sparse_map_is_permutation_when_m_t_is_one(toy, toy_keys):
    sk, _ = toy_keys
    t = sk.sparse_map.expand()
    assert np.array_equal(t.row_weights(), np.ones(toy.r))
    assert np.array_equal(t.col_weights(), np.ones(toy.r))


def test_weight_control_annihilates_orthogonal_syndromes(toy, toy_keys):
    # exhaustive over all C(12,2) = 66 weight-w syndromes: b s = 0 makes
    # Q act as the sparse map alone. z = 1 pins b to the all-ones row,
    # so every even-weight vector is orthogonal; the odd-weight vectors
    # supply the complementary class, which a^T (b s) must perturb.
    sk, _ = toy_keys
    q = sk.weight_ctrl()
    t = sk.sparse_map
    b = sk.constraints
    count = 0
    for s in all_weight_w(toy):
        assert b.mul_vec(s).weight() == 0
        qs = q.mul_vec(s)
        assert qs == t.mul_vec(s)
        assert qs.weight() <= toy.m_t * toy.w
        count += 1
    assert count == 66
    mismatches = odd = 0
    for weight in (1, 3):
        for support in itertools.combinations(range(toy.r), weight):
            s = BitVector.from_support(toy.r, support)
            assert b.mul_vec(s).weight() == 1
            odd += 1
            mismatches += int(q.mul_vec(s) != t.mul_vec(s))
    assert mismatches >= 0.99 * odd


def test_weight_control_random_draws_both_classes(z2_keys):
    # z = 2 splits the weight-w vectors into both classes for real
    sk, _ = z2_keys
    ps = sk.ps
    q, t, b = sk.weight_ctrl(), sk.sparse_map, sk.constraints
    rng = np.random.default_rng(51)
    orthogonal = nonorthogonal = mismatches = 0
    for _ in range(1000):
        s = BitVector.from_support(
            ps.r, rng.choice(ps.r, size=ps.w, replace=False))
        if b.mul_vec(s).weight() == 0:
            orthogonal += 1
            assert q.mul_vec(s) == t.mul_vec(s)
            assert q.mul_vec(s).weight() <= ps.m_t * ps.w
        else:
            nonorthogonal += 1
            mismatches += int(q.mul_vec(s) != t.mul_vec(s))
    assert orthogonal > 100 and nonorthogonal > 100
    assert mismatches >= 0.99 * nonorthogonal


def test_weight_control_inverse_is_inverse(toy_keys):
    sk, _ = toy_keys
    q = sk.weight_ctrl()
    prod = gf2.multiply(q, sk.weight_ctrl_inv)
    assert prod.expand() == DenseMatrix.identity(sk.ps.r)


def test_scrambler_inverse_and_column_bound(toy, toy_keys):
    sk, _ = toy_keys
    s_dense = sk.scrambler.expand()
    prod = gf2.multiply(sk.scrambler, sk.scrambler_inv)
    assert prod.expand() == DenseMatrix.identity(toy.n)
    assert s_dense.col_weights().max() <= toy.m_s


def test_public_key_factorization(toy, toy_keys):
    sk, pk = toy_keys
    lhs = pk.parity_check.expand()
    rhs = sk.weight_ctrl_inv.expand().mul_matrix(
        sk.parity_check.expand()).mul_matrix(sk.scrambler_inv.expand())
    assert lhs == rhs
    assert pk.payload_bits() == toy.r * toy.n // toy.p


def test_identity_hooks_expose_parity_check(toy, toy_keys):
    # wiring Q = S = identity leaves H' = H
    sk, _ = toy_keys
    eye_r = QcMatrix.identity(toy.r0, toy.p)
    eye_n = QcMatrix.identity(toy.n0, toy.p)
    _, pk = assemble_from_parts(
        toy, CANON_SEED, sk.generator, sk.parity_check, sk.lowrank_left,
        sk.constraints, sk.sparse_map, eye_r, eye_n, eye_n)
    assert pk.parity_check == sk.parity_check


def test_bare_permutation_scrambler_warns(toy):
    thin = dataclasses.replace(toy, m_s=1).validate()
    with pytest.warns(UserWarning):
        generate_scrambler(thin, HashStream(CANON_SEED))


def test_weight_control_matches_factors(toy_keys):
    sk, _ = toy_keys
    r_part = sk.low_rank_part()
    q = sk.weight_ctrl()
    assert gf2.add(q, sk.sparse_map).expand() == r_part.expand()
    outer = sk.lowrank_left.transpose().mul_matrix(sk.constraints)
    assert r_part.expand() == outer


def test_generate_weight_control_standalone():
    wc = generate_weight_control(DENSE_SET, HashStream(CANON_SEED))
    q = gf2.add(wc.sparse_map,
                wc.lowrank_left.transpose().mul_matrix(wc.constraints))
    assert gf2.multiply(q, wc.weight_ctrl_inv) == DenseMatrix.identity(
        DENSE_SET.r)



# T(1) = (I + C + ... + C^(m_t - 1)) P_sigma over r0 blocks is singular,
# and with it every draw of T, when 1 + x + ... + x^(m_t - 1) shares a
# factor with x^r0 - 1: for every even m_t, for m_t = 3 and 9 at
# r0 = 24 (x^2 + x + 1) and for m_t = 7 at r0 = 14 (x^3 + x + 1)
@pytest.mark.parametrize("ps, m_t, singular", [
    (Z2_SET, 3, True), (Z2_SET, 4, True), (Z2_SET, 5, False),
    (Z2_SET, 7, False), (Z2_SET, 9, True), (DENSE_SET, 3, False),
    (DENSE_SET, 4, True), (DENSE_SET, 5, False), (DENSE_SET, 7, True),
    (DENSE_SET, 9, False),
], ids=lambda v: getattr(v, "name", v))
def test_sparse_map_weight_screened_before_drawing(ps, m_t, singular):
    heavy = dataclasses.replace(ps, m_t=m_t).validate()
    stream = HashStream(CANON_SEED)
    if singular:
        with pytest.raises(KeyGenerationError, match="singular for every draw"):
            generate_weight_control(heavy, stream)
        return
    wc = generate_weight_control(heavy, stream)
    q = gf2.add(wc.sparse_map,
                wc.lowrank_left.transpose().mul_matrix(wc.constraints))
    assert gf2.multiply(q, wc.weight_ctrl_inv) == DenseMatrix.identity(heavy.r)


def test_weight_three_sparse_map_round_trip():
    # T is no permutation here: Q^-1 takes the general Woodbury route
    # and signing maps s through T by a matrix product
    ps = dataclasses.replace(DENSE_SET, m_t=3).validate()
    sk, pk = assemble(ps, CANON_SEED)
    prod = gf2.multiply(sk.weight_ctrl(), sk.weight_ctrl_inv)
    assert prod.expand() == DenseMatrix.identity(ps.r)
    t = sk.sparse_map.expand()
    assert np.array_equal(t.row_weights(), np.full(ps.r, 3))
    assert np.array_equal(t.col_weights(), np.full(ps.r, 3))
    for i in range(30):
        msg = b"weight-three-%d" % i
        assert verify(pk, msg, sign(sk, msg)).accepted

# SHA-256 of the key files saved from CANON_SEED, recorded with the
# per-pivot dense elimination that keygen used before the table kernel
# and the [A^T | E] inverse route. Acceptance 9 compares two runs of the
# same code, so only these pins catch a kernel that changes every key
# the same way; a new digest here means a deliberate change of keys.
# dense-test's pair was re-recorded when its key matrices moved from
# the dense file kind to p = 1 grids of the qc kind, with the same bits.
PINNED_KEY_DIGESTS = {
    "toy-1.sk": "c43a37c98bb85221463ae41fb617fe12c5a0a05012d82cbfeac5597665775cfa",
    "toy-1.pk": "48eaa18babf33df32a6147972cb9725506ba211237af159250b59c7453a82bf8",
    "z2-test.sk": "3e30b84f79ef689db4bf2ae5269068d23b3ec303a08ffc40c1041bae42f3a171",
    "z2-test.pk": "1b3cdaf9e658c56bdcb077e89ddedf5509c138b2f541a1c3cf8824617b865360",
    "dense-test.sk": "14dd9f8bd1220b3161c9086e2f6745ea1e4b1ae8b52bd3876817ca01a0fdc700",
    "dense-test.pk": "a9c5ae80995b8029f184a5897100d27a2d79fd8d7f53cf2d6e09a9a5a12615f4",
    "ldgm-80.sk": "424fb7f3a878b52f5f922c46f33c3fedf637d08f342931538f8467afff63f90c",
    "ldgm-80.pk": "2d6335e7cb31eac38146620e26ec36f0a9ba9f9593bcd9efae1c9e9609f706aa",
}


def test_saved_key_bytes_are_pinned(tmp_path, toy_keys, z2_keys, dense_keys,
                                    ldgm80):
    got = {}
    for sk, pk in (toy_keys, z2_keys, dense_keys, ldgm80[:2]):
        for ext, save, key in (("sk", fileio.save_private_key, sk),
                               ("pk", fileio.save_public_key, pk)):
            path = tmp_path / f"{sk.ps.name}.{ext}"
            save(path, key)
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PINNED_KEY_DIGESTS
