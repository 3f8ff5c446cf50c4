"""Digest-to-syndrome map: combinadic (un)ranking and the counter search."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldgmsig import digest
from ldgmsig.digest import (
    CounterExhausted,
    digest_message,
    find_orthogonal,
    map_to_syndrome,
    rank_support,
    unrank,
)
from ldgmsig.gf2 import BitVector, DenseMatrix
from ldgmsig.params import ParameterSet, builtin_sets, get_params

from conftest import times

# counter-statistics set: z = 2 and a 6-bit counter keep the geometric
# search essentially untruncated, so the sample mean sits near 2^z
MEAN_SET = ParameterSet("mean-test", n=96, k=48, p=2, w=3, w_g=3, w_c=6,
                        z=2, m_t=1, m_s=2, x=8, y=6).validate()
# three constraint rows: about 8 tries a digest
Z3_SET = ParameterSet("z3-test", n=96, k=48, p=2, w=3, w_g=3, w_c=6,
                      z=3, m_t=1, m_s=2, x=8, y=6).validate()


def reference_unrank(index, r, w):
    """The binary search over math.comb that unrank replaced."""
    support = []
    for i in range(w, 0, -1):
        # largest a with C(a, i) <= index
        lo, hi = i - 1, r - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid, i) <= index:
                lo = mid
            else:
                hi = mid - 1
        support.append(lo)
        index -= math.comb(lo, i)
    support.reverse()
    return support


@st.composite
def unrank_cases(draw):
    """(r, w, indices): a builtin set or a random r <= 64, with indices
    drawn by bit length plus 0, 1, the last rank and, for a builtin
    set, the largest digest index 2^(x+y) - 1."""
    ps = draw(st.none() | st.sampled_from(builtin_sets()))
    if ps is None:
        r = draw(st.integers(1, 64))
        w = draw(st.integers(1, r))
        indices = []
    else:
        r, w = ps.r, ps.w
        indices = [(1 << (ps.x + ps.y)) - 1]
    top = math.comb(r, w) - 1
    for bits in draw(st.lists(st.integers(0, top.bit_length()), max_size=8)):
        indices.append(draw(st.integers(1 << bits >> 1, min((1 << bits) - 1, top))))
    return r, w, indices + [0, min(1, top), top]


@given(unrank_cases())
def test_unrank_matches_binary_search(case):
    r, w, indices = case
    for index in indices:
        assert unrank(index, r, w) == reference_unrank(index, r, w)


@pytest.mark.parametrize("estimate", [
    lambda v: 0.0,                   # below i: starts from the clamp at i
    lambda v: math.exp(v) - 2.5,     # a few steps up
    lambda v: math.exp(v) + 2.5,     # a few steps down
    lambda v: 1e300,                 # far above r: starts from r - 1
], ids=["zero", "low", "high", "huge"])
def test_unrank_exact_whatever_the_root_estimate(monkeypatch, estimate):
    # the float root only picks where the exact steps start: a wrong one
    # costs steps, never a different support, and no binomial beyond the
    # length r is ever evaluated
    for r, w in ((12, 2), (40, 5), (64, 9)):
        def comb(n, k):
            assert n <= r, f"C({n}, {k}) evaluated for length {r}"
            return math.comb(n, k)
        monkeypatch.setattr(digest, "math", SimpleNamespace(
            comb=comb, exp=estimate, log=math.log, lgamma=math.lgamma))
        top = math.comb(r, w) - 1
        for index in sorted({0, 1, 2, top // 3, top // 2, top - 1, top}
                            | set(range(0, top, top // 97 + 1))):
            assert unrank(index, r, w) == reference_unrank(index, r, w)


def test_unrank_endpoints():
    assert unrank(0, 6, 2) == [0, 1]
    assert unrank(math.comb(6, 2) - 1, 6, 2) == [4, 5]


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(math.comb(6, 2), 6, 2)
    with pytest.raises(ValueError):
        unrank(-1, 6, 2)


def test_rank_unrank_identity_exhaustive():
    for i in range(math.comb(12, 2)):
        support = unrank(i, 12, 2)
        assert len(support) == 2
        assert rank_support(support) == i


def test_unrank_is_colex_ordered():
    supports = [tuple(reversed(unrank(i, 12, 2))) for i in range(66)]
    assert supports == sorted(supports)


def test_map_to_syndrome_trivial_counters(toy):
    # the counter is the high part of the index: counter 1 sits 2^x
    # ranks above counter 0
    lo = map_to_syndrome(0, 0, toy)
    hi = map_to_syndrome(0, 1, toy)
    assert lo.support() == unrank(0, toy.r, toy.w)
    assert hi.support() == unrank(1 << toy.x, toy.r, toy.w)
    assert lo != hi


def test_map_to_syndrome_counter_in_high_bits(toy):
    # h = 1010, l = 01 -> index (0b01 << 4) | 0b1010 = 26
    assert map_to_syndrome(0b1010, 0b01, toy).support() == unrank(26, 12, 2)


def test_map_to_syndrome_injective_exhaustive(toy):
    seen = {
        map_to_syndrome(h, l, toy).to_bytes()
        for h in range(1 << toy.x)
        for l in range(1 << toy.y)
    }
    assert len(seen) == 1 << (toy.x + toy.y)


def test_map_to_syndrome_range_checks(toy):
    with pytest.raises(ValueError):
        map_to_syndrome(1 << toy.x, 0, toy)
    with pytest.raises(ValueError):
        map_to_syndrome(0, 1 << toy.y, toy)


def test_digest_message_is_top_bits(toy):
    msg = b"digest pin"
    h = digest_message(msg, toy)
    assert h == hashlib.sha256(msg).digest()[0] >> 4
    wide = digest_message(msg, get_params("ldgm-120"))
    assert wide >> 224 == 0
    assert wide == int.from_bytes(hashlib.sha256(msg).digest(), "big") >> 32


def test_find_orthogonal_all_ones_parity(toy):
    # with b all-ones and w even, every counter qualifies, so l = 0
    ones = DenseMatrix.from_bits(np.ones((1, toy.r), dtype=np.uint8))
    for h in (0, 3, 9):
        pub = find_orthogonal(h, ones, toy)
        assert (pub.theta, pub.tries) == (0, 1)
        assert pub.s == map_to_syndrome(h, 0, toy)


@pytest.mark.parametrize("ps", [MEAN_SET, Z3_SET, get_params("ldgm-80")],
                         ids=lambda ps: ps.name)
def test_find_orthogonal_matches_exhaustive_scan(ps):
    # the scan against the reference unrank and the reference b s^T,
    # counter by counter in the (l << x) | h layout
    rng = np.random.default_rng(40)
    b = DenseMatrix.from_bits(rng.integers(0, 2, size=(ps.z, ps.r),
                                           dtype=np.uint8))

    def syndrome(h, l):
        return BitVector.from_support(ps.r, reference_unrank((l << ps.x) | h, ps.r, ps.w))

    for i in range(20):
        h = digest_message(b"scan-%d" % i, ps)
        want = next((l for l in range(1 << ps.y)
                     if times(b, syndrome(h, l)).weight() == 0),
                    None)
        if want is None:
            with pytest.raises(CounterExhausted):
                find_orthogonal(h, b, ps)
        else:
            pub = find_orthogonal(h, b, ps)
            assert pub.theta == want
            assert pub.tries == want + 1
            assert pub.s == syndrome(h, want)


def test_find_orthogonal_exhausts_when_nothing_qualifies():
    # w odd with b all-ones leaves every syndrome with odd parity
    ps = ParameterSet("odd-test", n=24, k=12, p=1, w=3, w_g=3, w_c=6,
                      z=1, m_t=1, m_s=2, x=4, y=3).validate()
    ones = DenseMatrix.from_bits(np.ones((1, ps.r), dtype=np.uint8))
    with pytest.raises(CounterExhausted):
        find_orthogonal(5, ones, ps)


def test_find_orthogonal_rejects_bad_shape(toy):
    with pytest.raises(ValueError):
        find_orthogonal(0, DenseMatrix(1, toy.r + 1), toy)
    with pytest.raises(ValueError):
        find_orthogonal(1 << toy.x, DenseMatrix(1, toy.r), toy)


def test_mean_tries_near_two_to_the_z():
    # every counter passes the z parity checks with chance about 2^-z, so
    # the smallest qualifying counter needs about 2^z tries on average.
    # The average is over instances, a fresh dense b per digest; one
    # fixed quasi-cyclic b is the next test's case.
    ps = MEAN_SET
    rng = np.random.default_rng(41)
    total = signed = 0
    for i in range(1000):
        while True:
            bits = rng.integers(0, 2, size=(ps.z, ps.r), dtype=np.uint8)
            if bits.any(axis=1).all():
                break
        b = DenseMatrix.from_bits(bits)
        h = digest_message(b"mean-%d" % i, ps)
        try:
            pub = find_orthogonal(h, b, ps)
        except CounterExhausted:
            continue
        total += pub.tries
        signed += 1
    assert signed > 950
    mean = total / signed
    assert 0.8 * 2 ** ps.z <= mean <= 1.2 * 2 ** ps.z


def test_find_orthogonal_qc_constraints_acts_like_independent_trials():
    # one fixed key-shaped b at ldgm-80 size: a nonzero 2-bit pattern per
    # 50-wide block, the same column throughout the block.  Counters that
    # only move the low support positions stay inside a few blocks and
    # get accepted or rejected together (mean near 50 tries, many
    # digests exhausted); counters that act as independent 2^-z trials
    # give a mean near 2^z and essentially never exhaust 2^8 of them.
    ps = get_params("ldgm-80")
    rng = np.random.default_rng(42)
    patterns = rng.integers(1, 1 << ps.z, size=ps.r0)
    block_bits = (patterns[None, :] >> np.arange(ps.z)[:, None]) & 1
    b = DenseMatrix.from_bits(
        np.repeat(block_bits.astype(np.uint8), ps.p, axis=1))
    assert b.rank() == ps.z
    tries = []
    exhausted = 0
    for i in range(300):
        h = digest_message(b"qc-scan-%d" % i, ps)
        try:
            tries.append(find_orthogonal(h, b, ps).tries)
        except CounterExhausted:
            exhausted += 1
    assert exhausted == 0
    mean = sum(tries) / len(tries)
    assert 0.8 * 2 ** ps.z <= mean <= 1.2 * 2 ** ps.z, mean


def test_syndrome_weight_always_w(toy):
    for h in range(0, 1 << toy.x, 3):
        for l in range(1 << toy.y):
            assert map_to_syndrome(h, l, toy).weight() == toy.w
