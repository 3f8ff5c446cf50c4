"""Signing and verification.

A signature on a message digest (h, with counter theta) is the pair
(theta, e'). The signer maps the digest to a weight-w syndrome s that is
orthogonal to every row of b, so that the private weight control acts on
it as the sparse map alone: s' = Q s = T s, of weight at most m_t w.
The error e = [0_k | s'] then satisfies H e^T = s'. A mask codeword c,
chosen deterministically from w_c / w_g rows of the private generator,
hides the support of e, and the scrambler spreads the sum:

    e' = (e + c) S^T.

Verification recomputes s from the message and theta and accepts when

    weight(e') <= (m_t w + w_c) m_s   and   H' e'^T = s,

which holds because H' e'^T = Q^-1 H S^-1 S (e + c)^T = Q^-1 (s' + 0).

Everything the signer draws is keyed by the syndrome and counter, so a
signature is a deterministic function of (key, message).

Both sides read the quasi-cyclic first rows; no key matrix is expanded.
Each takes the gf2 route that suits how dense its operand is.  The
signer's operands are sparse: s has w ones, the mask XORs w_c / w_g rows
of G, and e + c has at most m_t w + w_c ones.  So T s, the mask and the
scatter through S are each one gather and one bincount parity over a
table of column supports (gf2.ColumnSupports), built on first use.  The
verifier's e' is dense, about n/7 ones, so H' e'^T is the XOR of the
rotated block columns of H' (gf2.ColumnRotations).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import gf2
from .digest import PublicSyndrome, digest_message, find_orthogonal, map_to_syndrome
from .gf2 import BitVector
from .keygen import PrivateKey, PublicKey
from .rng import HashStream

__all__ = [
    "SigningError",
    "Signature",
    "SignTrace",
    "VerifyResult",
    "REDRAW_CAP",
    "sign",
    "sign_trace",
    "verify",
]

REDRAW_CAP = 64


class SigningError(RuntimeError):
    pass


@dataclass(frozen=True)
class Signature:
    theta: int
    e_prime: BitVector


@dataclass(frozen=True)
class SignTrace:
    """Intermediate signer state, for diagnostics and analysis."""

    syndrome: BitVector
    theta: int
    tries: int
    mask: BitVector
    redraws: int


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _mask_stream(s: BitVector, theta: int, redraw: int) -> HashStream:
    key = hashlib.sha256(
        s.to_bytes() + theta.to_bytes(4, "little") + redraw.to_bytes(4, "little")
    ).digest()
    return HashStream(key)


def _select_rows(rows: gf2.ColumnSupports, s: BitVector, theta: int, ps):
    """Mask codeword: w_c / w_g generator rows keyed by (s, theta); rows
    holds the supports of the generator rows (PrivateKey.generator_rows).

    Row cancellations can only shed ones in pairs within a row's worth
    of overlap, so anything at or below w_c - 2 w_g signals a degenerate
    combination and is redrawn.
    """
    floor = ps.w_c - 2 * ps.w_g
    for redraw in range(REDRAW_CAP):
        stream = _mask_stream(s, theta, redraw)
        bits = rows.sum_columns(stream.distinct(ps.mask_rows, rows.cols))
        if np.count_nonzero(bits) > floor:
            return BitVector(ps.n, gf2._pack_bits(bits)), redraw
    raise SigningError(f"no acceptable mask codeword in {REDRAW_CAP} redraws")


def sign(sk: PrivateKey, message: bytes) -> Signature:
    sig, _ = sign_trace(sk, message)
    return sig


def sign_trace(sk: PrivateKey, message: bytes, *,
               zero_mask: bool = False) -> tuple[Signature, SignTrace]:
    """Sign and also report the signer's intermediate values.

    zero_mask drops the codeword c entirely; only analysis code wants
    this, to expose how the construction degrades without the mask.
    """
    ps = sk.ps
    pub = find_orthogonal(digest_message(message, ps), sk.constraints, ps)
    return _sign_syndrome(sk, pub, zero_mask)


def _sign_syndrome(sk: PrivateKey, pub: PublicSyndrome,
                   zero_mask: bool) -> tuple[Signature, SignTrace]:
    """The signature on the syndrome and counter the scan found."""
    ps = sk.ps
    s = pub.s
    if zero_mask:
        c, redraws = BitVector(ps.n), 0
    else:
        c, redraws = _select_rows(sk.generator_rows(), s, pub.theta, ps)
    # e + c as a list of positions: one in both cancels in the parity
    positions = np.concatenate([ps.k + sk.map_support(s), gf2._support(c)])
    e_prime = BitVector(ps.n, gf2._pack_bits(sk.scrambler_columns().sum_columns(positions)))
    sig = Signature(pub.theta, e_prime)
    trace = SignTrace(s, pub.theta, pub.tries, c, redraws)
    return sig, trace


def verify(pk: PublicKey, message: bytes, sig: Signature) -> VerifyResult:
    """Check a signature; the reason names the first failing stage."""
    ps = pk.ps
    if not isinstance(sig.theta, int) or not 0 <= sig.theta < (1 << ps.y):
        return VerifyResult(False, "format")
    if sig.e_prime.length != ps.n:
        return VerifyResult(False, "format")
    support = sig.e_prime.support()
    if len(support) > ps.sig_weight_bound:
        return VerifyResult(False, "weight")
    h = digest_message(message, ps)
    s_hat = map_to_syndrome(h, sig.theta, ps)
    if pk.parity_columns().sum_bytes(support) != s_hat.to_bytes():
        return VerifyResult(False, "syndrome")
    return VerifyResult(True)
