"""Key generation: LDGM structure, weight control, scrambler, assembly."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from ldgmsig import fileio, gf2, keygen
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
from ldgmsig.sign import sign, sign_trace, verify

from conftest import CANON_SEED, DENSE_SET, Z2_SET, key_factors


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


@pytest.mark.parametrize("p", [3, 4, 6])
def test_information_set_screen_refuses_only_singular_draws(toy, p):
    # x -> 1 is a ring homomorphism, so a left block singular at x = 1 is
    # singular; x^4 - 1 = (x + 1)^4 has no other factor, so at p = 4 the
    # screen refuses exactly the singular draws
    ps = dataclasses.replace(toy, p=p).validate()
    screened = singular = 0
    for attempt in range(200):
        g = keygen._sample_generator(
            ps, HashStream(CANON_SEED).substream(b"ldgm-rows", attempt))
        try:
            QcMatrix(ps.k0, ps.k0, p, g.first_rows[:, :ps.k0]).invert()
            inverts = True
        except gf2.SingularMatrixError:
            inverts = False
        try:
            derive_systematic_parity(g)
            refused = False
        except InformationSetError as e:
            refused = str(e).endswith("at x = 1")
        assert not (refused and inverts)
        if p == 4:
            assert refused == (not inverts)
        screened += refused
        singular += not inverts
    assert 0 < screened <= singular < 200


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


def test_parity_check_is_systematic(toy, toy_keys, toy_factors):
    sk, _ = toy_keys
    h = toy_factors.parity_check.expand()
    right = DenseMatrix.from_bits(h.to_bits()[:, toy.k:])
    assert right == DenseMatrix.identity(toy.r)
    assert sk.generator.expand().mul_matrix(h.transpose()).weight() == 0


def test_dense_path_mirrors_qc_contracts(dense_keys, dense_factors):
    sk, pk = dense_keys
    ps = sk.ps
    g = sk.generator.expand()
    assert g.mul_matrix(dense_factors.parity_check.expand().transpose()).weight() == 0
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


def test_low_rank_part_stays_low_rank(toy, toy_factors):
    assert gf2.rank(toy_factors.wc.low_rank_part()) <= toy.z


def test_sparse_map_is_permutation_when_m_t_is_one(toy, toy_keys):
    sk, _ = toy_keys
    t = sk.sparse_map.expand()
    assert np.array_equal(t.row_weights(), np.ones(toy.r))
    assert np.array_equal(t.col_weights(), np.ones(toy.r))


def test_weight_control_annihilates_orthogonal_syndromes(toy, toy_keys, toy_factors):
    # exhaustive over all C(12,2) = 66 weight-w syndromes: b s = 0 makes
    # Q act as the sparse map alone. z = 1 pins b to the all-ones row,
    # so every even-weight vector is orthogonal; the odd-weight vectors
    # supply the complementary class, which a^T (b s) must perturb.
    sk, _ = toy_keys
    q = toy_factors.wc.weight_ctrl()
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


def test_weight_control_random_draws_both_classes(z2_keys, z2_factors):
    # z = 2 splits the weight-w vectors into both classes for real
    sk, _ = z2_keys
    ps = sk.ps
    q, t, b = z2_factors.wc.weight_ctrl(), sk.sparse_map, sk.constraints
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


def test_weight_control_inverse_is_inverse(toy, toy_factors):
    wc = toy_factors.wc
    q = wc.weight_ctrl()
    prod = q.multiply(wc.weight_ctrl_inv)
    assert prod.expand() == DenseMatrix.identity(toy.r)


def test_scrambler_inverse_and_column_bound(toy, toy_keys, toy_factors):
    sk, _ = toy_keys
    s_dense = sk.scrambler.expand()
    prod = sk.scrambler.multiply(toy_factors.scr.scrambler_inv)
    assert prod.expand() == DenseMatrix.identity(toy.n)
    assert s_dense.col_weights().max() <= toy.m_s


def test_public_key_factorization(toy, toy_keys, toy_factors):
    _, pk = toy_keys
    f = toy_factors
    lhs = pk.parity_check.expand()
    rhs = f.wc.weight_ctrl_inv.expand().mul_matrix(
        f.parity_check.expand()).mul_matrix(f.scr.scrambler_inv.expand())
    assert lhs == rhs
    assert pk.payload_bits() == toy.r * toy.n // toy.p


def test_identity_hooks_expose_parity_check(toy, toy_keys, toy_factors):
    # wiring Q = S = identity leaves H' = H
    sk, _ = toy_keys
    eye_r = QcMatrix.identity(toy.r0, toy.p)
    eye_n = QcMatrix.identity(toy.n0, toy.p)
    _, pk = assemble_from_parts(
        toy, CANON_SEED, sk.generator, toy_factors.parity_check,
        sk.constraints, eye_r, eye_n)
    assert pk.parity_check == toy_factors.parity_check


def test_private_key_is_the_signing_state(toy_keys, toy_factors):
    # assemble keeps exactly G, b, T and S of the factors it drew
    sk, _ = toy_keys
    f = toy_factors
    assert sk.generator == f.generator
    assert sk.constraints == f.wc.constraints
    assert sk.sparse_map == f.wc.sparse_map
    assert sk.scrambler == f.scr.scrambler
    assert {k for k in vars(sk) if not k.startswith("_")} == {
        "ps", "seed", "generator", "constraints", "sparse_map", "scrambler"}


def test_bare_permutation_scrambler_warns(toy):
    thin = dataclasses.replace(toy, m_s=1).validate()
    with pytest.warns(UserWarning):
        scrambler_inverse(thin, HashStream(CANON_SEED))


def test_weight_control_matches_factors(toy_factors):
    wc = toy_factors.wc
    r_part = wc.low_rank_part()
    q = wc.weight_ctrl()
    assert q.add(wc.sparse_map).expand() == r_part.expand()
    outer = wc.lowrank_left.transpose().mul_matrix(wc.constraints)
    assert r_part.expand() == outer


def weight_control_inverse(ps, stream):
    """Keygen's factors of Q and its Q^-1 H for H = I: Q^-1 itself."""
    return generate_weight_control(ps, stream, QcMatrix.identity(ps.r0, ps.p))


def scrambler_inverse(ps, stream):
    """Keygen's S and its H S^-1 for H = I: S^-1 itself."""
    return generate_scrambler(ps, stream, QcMatrix.identity(ps.n0, ps.p))


def test_generate_weight_control_standalone():
    wc, weight_ctrl_inv = weight_control_inverse(DENSE_SET, HashStream(CANON_SEED))
    q = wc.sparse_map.expand().add(
        wc.lowrank_left.transpose().mul_matrix(wc.constraints))
    assert q.mul_matrix(weight_ctrl_inv.expand()) == DenseMatrix.identity(
        DENSE_SET.r)



# odd p > 1 with real circulants (r0 = 16, so every odd m_t can be drawn):
# the Woodbury matrix M = I_z + b T^-1(1) a^T differs from I_z for m_t = 3
# and 5 at CANON_SEED, and the first m_t = 5 draw has a singular M
Z2_ODD = dataclasses.replace(Z2_SET, name="z2-odd", p=3)


# T(1) = (I + C + ... + C^(m_t - 1)) P_sigma over r0 blocks is singular,
# and with it every draw of T, when 1 + x + ... + x^(m_t - 1) shares a
# factor with x^r0 - 1: for every even m_t, for m_t = 3 and 9 at
# r0 = 24 (x^2 + x + 1) and for m_t = 7 at r0 = 14 (x^3 + x + 1)
@pytest.mark.parametrize("ps, m_t, singular", [
    (Z2_SET, 3, True), (Z2_SET, 4, True), (Z2_SET, 5, False),
    (Z2_SET, 7, False), (Z2_SET, 9, True), (DENSE_SET, 3, False),
    (DENSE_SET, 4, True), (DENSE_SET, 5, False), (DENSE_SET, 7, True),
    (DENSE_SET, 9, False), (Z2_ODD, 1, False), (Z2_ODD, 3, False),
    (Z2_ODD, 5, False),
], ids=lambda v: getattr(v, "name", v))
def test_sparse_map_weight_screened_before_drawing(ps, m_t, singular):
    heavy = dataclasses.replace(ps, m_t=m_t).validate()
    stream = HashStream(CANON_SEED)
    if singular:
        with pytest.raises(KeyGenerationError, match="singular for every draw"):
            weight_control_inverse(heavy, stream)
        return
    wc, weight_ctrl_inv = weight_control_inverse(heavy, stream)
    q = wc.sparse_map.expand().add(
        wc.lowrank_left.transpose().mul_matrix(wc.constraints))
    assert q.mul_matrix(weight_ctrl_inv.expand()) == DenseMatrix.identity(heavy.r)


# S(1) = f(P_rho) with f = 1 + y + ... + y^(m_s - 1) over one n0-cycle,
# less one entry for even m_s, has nullity at least
# deg gcd(f, y^n0 - 1) - [m_s even]: deg gcd is 1, 0, 3, 0, 1, 6, 4, 0 for
# m_s = 2..9 at n0 = 28 and 1, 2, 3, 0, 5, 0, 7, 2 at n0 = 48
@pytest.mark.parametrize("ps, m_s, singular", [
    (DENSE_SET, 2, False), (DENSE_SET, 3, False), (DENSE_SET, 4, True),
    (DENSE_SET, 5, False), (DENSE_SET, 6, False), (DENSE_SET, 7, True),
    (DENSE_SET, 8, True), (DENSE_SET, 9, False),
    (Z2_SET, 2, False), (Z2_SET, 3, True), (Z2_SET, 4, True),
    (Z2_SET, 5, False), (Z2_SET, 6, True), (Z2_SET, 7, False),
    (Z2_SET, 8, True), (Z2_SET, 9, True),
], ids=lambda v: getattr(v, "name", v))
def test_scrambler_weight_screened_before_drawing(ps, m_s, singular, monkeypatch):
    heavy = dataclasses.replace(ps, m_s=m_s).validate()
    if singular:
        drawn = []
        monkeypatch.setattr(keygen, "_full_cycle", lambda *args: drawn.append(args))
        with pytest.raises(KeyGenerationError, match="singular for every draw"):
            scrambler_inverse(heavy, HashStream(CANON_SEED))
        assert drawn == []
        return
    scrambler, scrambler_inv = scrambler_inverse(heavy, HashStream(CANON_SEED))
    assert scrambler.multiply(scrambler_inv) == QcMatrix.identity(
        heavy.n0, heavy.p)
    assert scrambler.expand().col_weights().max() <= m_s


def _singular(*args):
    raise gf2.SingularMatrixError("every draw is singular")


# stage, the name a failing draw is patched in at, the failing draw, and
# what the stage reports running out of
CAPPED_STAGES = {
    # an all-zero G has a singular information set on every draw
    "generator": (generate_systematic, keygen, "_sample_generator",
                  lambda ps, sub: QcMatrix.grid(ps.k0, ps.n0, ps.p),
                  "systematic generator"),
    # b is rejected whenever its rank falls short of z
    "constraints": (keygen._sample_constraints, DenseMatrix, "rank",
                    lambda self: 0, "full-rank constraint matrix"),
    # an all-zero a has a zero row on every draw
    "left-factor": (keygen._sample_constraints, keygen, "_random_bits",
                    lambda sub, rows, cols: np.zeros((rows, cols), np.uint8),
                    "constraint left factor without a zero row"),
    "weight-control": (weight_control_inverse, keygen, "_woodbury", _singular,
                       "invertible weight control"),
    # an all-zero S is singular on every draw
    "scrambler": (scrambler_inverse, keygen, "_sample_scrambler",
                  lambda ps, sub: QcMatrix.grid(ps.n0, ps.n0, ps.p),
                  "invertible scrambler"),
}


@pytest.mark.parametrize("case", CAPPED_STAGES)
def test_constraint_draws_are_capped(toy, monkeypatch, case):
    # every stage's redraw loop gives up after RETRY_CAP failing draws in
    # place of spinning forever, and names what ran out
    stage, owner, name, failing, what = CAPPED_STAGES[case]
    draws = []

    def counted(*args):
        draws.append(args)
        return failing(*args)

    monkeypatch.setattr(owner, name, counted)
    with pytest.raises(KeyGenerationError,
                       match=f"^no {what} in {keygen.RETRY_CAP} attempts$"):
        stage(toy, HashStream(CANON_SEED))
    assert len(draws) == keygen.RETRY_CAP


def test_weight_three_sparse_map_round_trip():
    # T is no permutation here: keygen's Q^-1 H comes from the solve of
    # T against H and from T(1)^-1, and the signer's T s, read from T's
    # column supports, must match the expanded product
    ps = dataclasses.replace(DENSE_SET, m_t=3).validate()
    sk, pk = assemble(ps, CANON_SEED)
    wc = key_factors(ps).wc
    prod = wc.weight_ctrl().multiply(wc.weight_ctrl_inv)
    assert prod.expand() == DenseMatrix.identity(ps.r)
    t = sk.sparse_map.expand()
    assert np.array_equal(t.row_weights(), np.full(ps.r, 3))
    assert np.array_equal(t.col_weights(), np.full(ps.r, 3))
    for i in range(30):
        msg = b"weight-three-%d" % i
        sig, trace = sign_trace(sk, msg)
        mapped = BitVector.from_support(ps.r, sk.map_support(trace.syndrome))
        assert mapped == t.mul_vec(trace.syndrome)
        assert verify(pk, msg, sig).accepted

# SHA-256 of the key files saved from CANON_SEED. Acceptance 9 compares
# two runs of the same code, so only these pins catch a kernel that
# changes every key the same way; a new digest here means a deliberate
# change of keys or of the file format. Re-recorded once for format
# version 2 (bare payloads, private key G, b, T, S), with every stored
# matrix bit-identical to the version-1 files.
PINNED_KEY_DIGESTS = {
    "toy-1.sk": "7a151a073e15c58b241bc7b9a06e8cb9ecb3f811b86028d312b40acd89d5c3f3",
    "toy-1.pk": "59527b3eb275508370b993b91e5bd6e280ef1a74ddd1529a53466565914fd395",
    "z2-test.sk": "8cd853805ff7e13ceb6f080e81f25421d5d8844d68f4721672eed5eee15e5d26",
    "z2-test.pk": "273a7fc5009d51876c03a9722d4e03a5505b3d9bf4a489ed5c5fee04afc90b1b",
    "dense-test.sk": "fdfe2e99bbd7501e95f7e646fb37f09c2cd14af84d6c1e702a74bf0c14df415d",
    "dense-test.pk": "14e916825b57bc89e7f6cb99f074942fda812b4cf551513c6e2735960993e405",
    "ldgm-80.sk": "9ac89c00593bd5f7865b436bfca15b62e519125296f2262e064f1f9ffbc7838c",
    "ldgm-80.pk": "f38d8d0685adbc7be2637f577ec6f6ec9474149f80b7371ac450cf3980531b8f",
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
