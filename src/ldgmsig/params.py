"""Parameter sets and big-integer security metrics.

A parameter set fixes the code geometry and the signing weights:

* n, k, r = n - k: code length, dimension, redundancy (bits);
* p: circulant block size (n0 = n/p, k0 = k/p, r0 = r/p block counts);
* w: weight of a public syndrome;
* w_g: row weight of the private generator matrix;
* w_c: target weight of the masking codeword (built from w_c/w_g rows);
* z: number of parity constraints carried by the public matrix b
  (the rank bound of the dense summand of the weight-control matrix);
* m_t, m_s: row/column weights of the sparse transform and scrambler;
* x, y: digest and counter widths of the syndrome map;
* d: minimum distance of the code whose parity-check is b (enforced
  >= 2 by forbidding all-zero columns of b).

The derived metrics reported here: public key size r*n/p bits, the
signature count N_s ~ C(r,w)/2^z, the low-weight codeword count
A_wc ~ C(k, w_c/w_g), the birthday bound log2(N_s)/2, and the
information-set-decoding escape exponent
-log2[ C(n - m_t*m_s*w, k) / C(n, k) ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ParameterError",
    "ParameterSet",
    "SecurityReport",
    "builtin_sets",
    "get_params",
    "key_size_bits",
    "signature_count",
    "codeword_count",
    "isd_escape_log2",
    "security_report",
    "log2_int",
    "log2_binomial",
]

KIB_BITS = 1024 * 8


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class ParameterSet:
    name: str
    n: int
    k: int
    p: int
    w: int
    w_g: int
    w_c: int
    z: int
    m_t: int
    m_s: int
    x: int
    y: int
    d: int = 2

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def n0(self) -> int:
        return self.n // self.p

    @property
    def k0(self) -> int:
        return self.k // self.p

    @property
    def r0(self) -> int:
        return self.r // self.p

    @property
    def m(self) -> int:
        return self.m_t * self.m_s

    @property
    def mask_rows(self) -> int:
        return self.w_c // self.w_g

    @property
    def sig_weight_bound(self) -> int:
        return (self.m_t * self.w + self.w_c) * self.m_s

    def validate(self) -> "ParameterSet":
        ps = self
        if min(ps.n, ps.k, ps.p, ps.w, ps.w_g, ps.w_c, ps.z, ps.m_t, ps.m_s, ps.x, ps.y) < 1:
            raise ParameterError(f"{ps.name}: all parameters must be positive")
        if ps.k >= ps.n:
            raise ParameterError(f"{ps.name}: k must be below n")
        for field, value in (("n", ps.n), ("k", ps.k), ("r", ps.r)):
            if value % ps.p:
                raise ParameterError(f"{ps.name}: p={ps.p} does not divide {field}={value}")
        if ps.w_c % ps.w_g:
            raise ParameterError(f"{ps.name}: w_g={ps.w_g} does not divide w_c={ps.w_c}")
        if ps.mask_rows > ps.k:
            raise ParameterError(f"{ps.name}: mask needs more rows than the code has")
        if ps.w > ps.r:
            raise ParameterError(f"{ps.name}: syndrome weight {ps.w} exceeds r={ps.r}")
        if ps.d < 2:
            raise ParameterError(f"{ps.name}: d must be at least 2")
        if ps.w < ps.d:
            raise ParameterError(f"{ps.name}: w={ps.w} below the distance floor d={ps.d}")
        if math.comb(ps.r, ps.w) < 1 << (ps.x + ps.y):
            raise ParameterError(
                f"{ps.name}: C({ps.r},{ps.w}) cannot host a {ps.x}+{ps.y}-bit index"
            )
        return ps


_BUILTIN = [
    ParameterSet("ldgm-80", n=9800, k=4900, p=50, w=18, w_g=20, w_c=160,
                 z=2, m_t=1, m_s=9, x=160, y=8),
    ParameterSet("ldgm-120", n=24960, k=10000, p=80, w=23, w_g=25, w_c=325,
                 z=2, m_t=1, m_s=14, x=224, y=16),
    ParameterSet("ldgm-160", n=46000, k=16000, p=100, w=29, w_g=31, w_c=465,
                 z=2, m_t=1, m_s=20, x=288, y=16),
    ParameterSet("toy-1", n=24, k=12, p=4, w=2, w_g=3, w_c=6,
                 z=1, m_t=1, m_s=2, x=4, y=2),
]

_REGISTRY = {ps.name: ps.validate() for ps in _BUILTIN}


def builtin_sets() -> list[ParameterSet]:
    return list(_REGISTRY.values())


def get_params(name: str) -> ParameterSet:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ParameterError(f"unknown parameter set {name!r} (known: {known})") from None


def log2_int(v: int) -> float:
    """log2 of a positive big integer, exact to double precision."""
    if v <= 0:
        raise ValueError("log2 of a non-positive value")
    shift = max(0, v.bit_length() - 53)
    return math.log2(v >> shift) + shift


def log2_binomial(n: int, k: int) -> float:
    return log2_int(math.comb(n, k))


def key_size_bits(ps: ParameterSet) -> int:
    return ps.r * ps.n // ps.p


def signature_count(ps: ParameterSet) -> tuple[int, float]:
    """(floor(C(r,w)/2^z), log2 of the exact ratio)."""
    c = math.comb(ps.r, ps.w)
    return c >> ps.z, log2_int(c) - ps.z


def codeword_count(ps: ParameterSet) -> tuple[int, float]:
    c = math.comb(ps.k, ps.mask_rows)
    return c, log2_int(c)


def isd_escape_log2(ps: ParameterSet) -> float:
    """-log2 of the chance that k random coordinates dodge every error bit."""
    span = ps.m * ps.w
    if span > ps.r:
        raise ParameterError(
            f"{ps.name}: error span {span} exceeds redundancy {ps.r}"
        )
    return log2_binomial(ps.n, ps.k) - log2_binomial(ps.n - span, ps.k)


@dataclass(frozen=True)
class SecurityReport:
    name: str
    key_size_bits: int
    key_size_kib: int
    log2_ns: float
    log2_awc: float
    log2_birthday: float
    isd_escape_log2: float
    sig_weight_bound: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "key_size_bits": self.key_size_bits,
            "key_size_kib": self.key_size_kib,
            "log2_ns": round(self.log2_ns, 6),
            "log2_awc": round(self.log2_awc, 6),
            "log2_birthday": round(self.log2_birthday, 6),
            "isd_escape_log2": round(self.isd_escape_log2, 6),
            "sig_weight_bound": self.sig_weight_bound,
        }

    def as_record(self) -> str:
        d = self.as_dict()
        return " ".join(f"{key}={d[key]}" for key in d)

    def as_text(self) -> str:
        rows = [
            ("parameter set", self.name),
            ("public key size", f"{self.key_size_bits} bits (~{self.key_size_kib} KiB)"),
            ("log2 signature count", f"{self.log2_ns:.2f}"),
            ("log2 low-weight codewords", f"{self.log2_awc:.2f}"),
            ("log2 birthday bound", f"{self.log2_birthday:.2f}"),
            ("ISD escape exponent", f"{self.isd_escape_log2:.2f}"),
            ("signature weight bound", str(self.sig_weight_bound)),
        ]
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)


def security_report(ps: ParameterSet) -> SecurityReport:
    bits = key_size_bits(ps)
    _, log2_ns = signature_count(ps)
    _, log2_awc = codeword_count(ps)
    return SecurityReport(
        name=ps.name,
        key_size_bits=bits,
        key_size_kib=round(bits / KIB_BITS),
        log2_ns=log2_ns,
        log2_awc=log2_awc,
        log2_birthday=log2_ns / 2,
        isd_escape_log2=isd_escape_log2(ps),
        sig_weight_bound=ps.sig_weight_bound,
    )
