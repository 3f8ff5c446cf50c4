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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import gf2
from .digest import digest_message, find_orthogonal, map_to_syndrome
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
    mapped: BitVector
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


def _select_rows(rows: np.ndarray, s: BitVector, theta: int, ps):
    """Mask codeword: w_c / w_g generator rows keyed by (s, theta).

    Row cancellations can only shed ones in pairs within a row's worth
    of overlap, so anything at or below w_c - 2 w_g signals a degenerate
    combination and is redrawn.
    """
    floor = ps.w_c - 2 * ps.w_g
    for redraw in range(REDRAW_CAP):
        stream = _mask_stream(s, theta, redraw)
        idx = stream.distinct(ps.mask_rows, rows.shape[0])
        c = BitVector(ps.n, gf2._rows_xor(rows, idx))
        if c.weight() > floor:
            return c, redraw
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
    h = digest_message(message, ps)
    pub = find_orthogonal(h, sk.constraints, ps)
    s = pub.s
    mapped = BitVector.from_support(ps.r, sk.map_support(s))
    e_support = [ps.k + i for i in mapped.support()]
    if zero_mask:
        c, redraws = BitVector(ps.n), 0
    else:
        c, redraws = _select_rows(sk.generator_rows(), s, pub.theta, ps)
    combined = sorted(set(e_support) ^ set(c.support()))
    e_prime = BitVector(ps.n, gf2._rows_xor(sk.scrambler_columns(), combined))
    sig = Signature(pub.theta, e_prime)
    trace = SignTrace(s, pub.theta, pub.tries, mapped, c, redraws)
    return sig, trace


def verify(pk: PublicKey, message: bytes, sig: Signature) -> VerifyResult:
    """Check a signature; the reason names the first failing stage."""
    ps = pk.ps
    if not isinstance(sig.theta, int) or not 0 <= sig.theta < (1 << ps.y):
        return VerifyResult(False, "format")
    if sig.e_prime.length != ps.n:
        return VerifyResult(False, "format")
    if sig.e_prime.weight() > ps.sig_weight_bound:
        return VerifyResult(False, "weight")
    h = digest_message(message, ps)
    s_hat = map_to_syndrome(h, sig.theta, ps)
    if s_hat.weight() != ps.w:
        return VerifyResult(False, "digest-weight")
    parity = gf2._parity_rows(pk.parity_rows(), sig.e_prime.data)
    syndrome = np.packbits(parity.astype(np.uint8), bitorder="little")
    if syndrome.tobytes() != s_hat.to_bytes():
        return VerifyResult(False, "syndrome")
    return VerifyResult(True)
