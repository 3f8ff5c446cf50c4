"""Message-to-syndrome map: hash, counter, and combinadic unranking.

A message digest h (x bits) and a counter l (y bits) form the integer
(l << x) | h, which is unranked into the weight-w length-r vector whose
sorted support {a_1 < ... < a_w} has colexicographic rank
sum_i C(a_i, i).  The registry guarantees C(r, w) >= 2^(x+y), so every
(h, l) pair lands on a distinct syndrome.  The signer scans l upward
from zero until the syndrome is orthogonal to the public matrix b and
the smallest such counter is part of the signature, which makes
signatures canonical.

The counter sits in the high bits, not in the low bits of the paper's
[h | l] layout.  Consecutive colex ranks differ only in their smallest
support positions, so with l in the low bits the 2^y candidates of one
digest share all but their lowest positions; a quasi-cyclic b has the
same column throughout each block, and those candidates then fall into
a handful of syndrome classes that b accepts or rejects together.
With l in the high bits each counter step moves the index by 2^x,
which changes the high support positions, and the candidates behave
like independent draws.

Each try of the scan unranks one index of x + y bits (168 at ldgm-80).
For each level i, from w down to 1, unrank needs the largest a with
C(a, i) <= index.  Since C(a, i) <= (a - (i-1)/2)^i / i!, the root of
that bound in floating point, clamped to [i, r-1], is a starting point
at or just below the answer.  One exact binomial at the start, then
exact integer steps up or down by the ratios C(a+1, i) / C(a, i) and
C(a-1, i) / C(a, i), reach the answer, usually with no step at all.
The float only picks where to start, so a rounding error costs a step
and never changes the result.  The syndrome of a try stays a Python int
until it passes: b s = 0 is the parity of each row of b, held as an
int, ANDed with it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .gf2 import BitVector, DenseMatrix
from .params import ParameterSet

__all__ = [
    "CounterExhausted",
    "PublicSyndrome",
    "rank_support",
    "unrank",
    "digest_message",
    "map_to_syndrome",
    "find_orthogonal",
]


class CounterExhausted(RuntimeError):
    """No counter value in [0, 2^y) produced a b-orthogonal syndrome."""


@dataclass(frozen=True)
class PublicSyndrome:
    """Weight-w syndrome with the counter that produced it.

    tries counts how many counter values were tested (theta + 1 for the
    canonical smallest-counter search).
    """

    s: BitVector
    theta: int
    tries: int


def rank_support(support) -> int:
    """Colex rank of a sorted support tuple."""
    return sum(math.comb(a, i + 1) for i, a in enumerate(sorted(support)))


def unrank(index: int, r: int, w: int) -> list[int]:
    """Support of the index-th weight-w vector of length r, colex order.

    Level i takes the largest a with C(a, i) <= index, starting from the
    estimated root and stepping by exact binomial ratios (see the module
    docstring), so the support is exact whatever the float estimate.
    """
    if not 0 <= index < math.comb(r, w):
        raise ValueError(f"index {index} outside [0, C({r},{w}))")
    support = []
    for i in range(w, 0, -1):
        if index == 0:
            support.extend(range(i - 1, -1, -1))
            break
        a = int(math.exp((math.log(index) + math.lgamma(i + 1)) / i) + (i - 1) / 2)
        a = min(max(a, i), r - 1)
        c = math.comb(a, i)
        while c > index:
            c = c * (a - i) // a
            a -= 1
        while True:
            up = c * (a + 1) // (a + 1 - i)
            if up > index:
                break
            a += 1
            c = up
        support.append(a)
        index -= c
    support.reverse()
    return support


def digest_message(message: bytes, ps: ParameterSet) -> int:
    """x most significant bits of the message hash, as an integer."""
    if ps.x <= 256:
        raw = hashlib.sha256(message).digest()
    elif ps.x <= 512:
        raw = hashlib.sha512(message).digest()
    else:
        raise ValueError(f"digest width {ps.x} not supported")
    return int.from_bytes(raw, "big") >> (8 * len(raw) - ps.x)


def _syndrome_bits(h: int, l: int, ps: ParameterSet) -> int:
    """Syndrome of digest h and counter l as an int, bit j for position j.

    The index is (l << x) | h: the counter sits in the high bits.
    """
    if not 0 <= h < 1 << ps.x:
        raise ValueError(f"digest value needs more than {ps.x} bits")
    if not 0 <= l < 1 << ps.y:
        raise ValueError(f"counter value needs more than {ps.y} bits")
    bits = 0
    for j in unrank((l << ps.x) | h, ps.r, ps.w):
        bits |= 1 << j
    return bits


def _bit_vector(bits: int, length: int) -> BitVector:
    return BitVector.from_bytes(length, bits.to_bytes((length + 7) // 8, "little"))


def map_to_syndrome(h: int, l: int, ps: ParameterSet) -> BitVector:
    """Unrank [l | h] (the counter in the high bits) into a weight-w syndrome."""
    return _bit_vector(_syndrome_bits(h, l, ps), ps.r)


def find_orthogonal(h: int, b: DenseMatrix, ps: ParameterSet) -> PublicSyndrome:
    """Smallest counter whose syndrome satisfies b s = 0.

    b is the expanded z x r public constraint matrix.  Raises
    CounterExhausted when no counter below 2^y works; with z parity
    constraints a counter is accepted with chance about 2^-z, so the
    expected number of tries is 2^z and exhaustion has probability
    around (1 - 2^-z)^(2^y).  That fails when the row span of b holds
    the all-ones vector, whose parity on a weight-w syndrome is always
    w mod 2.  For z = 1 keygen always draws b all ones (b has no zero
    column), so with w even every syndrome passes at the first try and
    with w odd none does.
    """
    if b.cols != ps.r:
        raise ValueError(f"constraint matrix is {b.rows}x{b.cols}, expected z x {ps.r}")
    rows = [int.from_bytes(row.tobytes(), "little") for row in b.data]
    for l in range(1 << ps.y):
        s = _syndrome_bits(h, l, ps)
        if not any((row & s).bit_count() & 1 for row in rows):
            return PublicSyndrome(s=_bit_vector(s, ps.r), theta=l, tries=l + 1)
    raise CounterExhausted(f"no orthogonal syndrome within 2^{ps.y} counters")
