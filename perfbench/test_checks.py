"""The output checks pass clean outputs and catch corrupted ones.

    python3 -m pytest perfbench/test_checks.py

Each test corrupts one output in memory (a key, a signature, a forgery,
an attack result) and shows the check that guards it reports a problem.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (PublicView, check_attack, check_key, check_rightinv_forgery,  # noqa: E402
                    flipped, signature_verdict)
from reference import dense, rank  # noqa: E402

from ldgmsig import attacks, gf2  # noqa: E402
from ldgmsig.keygen import assemble  # noqa: E402
from ldgmsig.params import get_params  # noqa: E402
from ldgmsig.sign import sign  # noqa: E402

# this toy-1 key has an invertible H' H'^T, so the right-inverse forgery runs
GRAM_SEED = bytes([1]) * 32
MESSAGE = b"attack-target"


@pytest.fixture(scope="module")
def keys():
    return assemble(get_params("toy-1"), GRAM_SEED)


def test_reference_expansion_matches_the_program(keys):
    sk, pk = keys
    for m in (sk.generator, sk.scrambler, pk.parity_check):
        assert np.array_equal(dense(m), m.expand().to_bits())
    bits = pk.parity_check.expand().to_bits()
    assert rank(bits) == gf2.rank(pk.parity_check)


def test_clean_outputs_pass(keys):
    sk, pk = keys
    view = PublicView(pk)
    assert check_key(sk, pk) == []
    assert check_key(sk, pk, rows=range(sk.ps.k)) == []
    assert signature_verdict(view, b"hello", sign(sk, b"hello")) == []
    assert check_rightinv_forgery(view, MESSAGE, attacks.right_inverse_forge(pk, MESSAGE)) == []


@pytest.mark.parametrize("rows", [None, range(12)])
def test_corrupted_public_key_is_caught(keys, rows):
    sk, pk = keys
    h = pk.parity_check
    bad = type(pk)(pk.ps, type(h)(h.block_rows, h.block_cols, h.p, h.first_rows ^ 1),
                   pk.constraints, pk.qc)
    assert any("H' (g S^T)^T" in p for p in check_key(sk, bad, rows=rows))


def test_corrupted_private_weights_are_caught(keys):
    sk, pk = keys
    g, s = sk.generator, sk.scrambler
    heavy_g = type(g)(g.block_rows, g.block_cols, g.p, g.first_rows.copy())
    heavy_g.first_rows[0, 0, 0] ^= 1
    heavy_s = type(s)(s.block_rows, s.block_cols, s.p, s.first_rows | 0x0F)
    for attr, value, text in (("generator", heavy_g, "G row weights"),
                              ("scrambler", heavy_s, "S column weight")):
        bad = type(sk).__new__(type(sk))
        bad.__dict__.update(sk.__dict__, **{attr: value})
        assert any(text in p for p in check_key(bad, pk))


def test_corrupted_signature_is_caught(keys):
    sk, pk = keys
    view = PublicView(pk)
    sig = sign(sk, b"hello")
    for position in range(sk.ps.n):
        assert "H' e'^T != s" in signature_verdict(view, b"hello", flipped(sig, position))


def test_corrupted_forgery_is_caught(keys):
    _, pk = keys
    view = PublicView(pk)
    out = attacks.right_inverse_forge(pk, MESSAGE)
    moved = replace(out, forgery=flipped(out.forgery, 0))
    assert any("H' f^T = s" in p for p in check_rightinv_forgery(view, MESSAGE, moved))
    lying = replace(out, success=not out.success)
    assert any("flag" in p for p in check_rightinv_forgery(view, MESSAGE, lying))
    assert check_attack("rightinv", lying, None, pk, message=MESSAGE)


def test_corrupted_attack_results_are_caught(keys):
    sk, pk = keys
    ps = pk.ps
    words = attacks.low_weight_row_recovery(pk, ps.w_g * ps.m_s, 10 ** 6, seed=bytes(32))
    assert check_attack("keyrec", words, sk, pk, message=MESSAGE) == []
    doubled = replace(words, recovered=[words.recovered[0]] + words.recovered[:-1])
    assert any("rank" in p for p in check_attack("keyrec", doubled, sk, pk, message=MESSAGE))
    entry = attacks.SignatureTranscript.collect(sk, 1).pairs[0]
    strip = attacks.isd_codeword_strip(entry, pk, 1000, seed=bytes(32))
    assert strip.success
    assert check_attack("isdstrip", strip, sk, pk, message=MESSAGE, strip_entry=entry) == []
    off = replace(strip, recovered=strip.recovered.xor(gf2.BitVector.from_support(ps.n, [0])))
    assert check_attack("isdstrip", off, sk, pk, message=MESSAGE, strip_entry=entry)
