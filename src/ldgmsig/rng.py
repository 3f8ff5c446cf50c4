"""Deterministic byte stream for reproducible key generation and signing.

Everything random in this package is drawn from a counter-mode SHA-256
stream: block i of the stream is SHA256(key || i) with i as a 64-bit
little-endian counter.  A 32-byte master seed keys the top-level stream;
independent substreams are derived by hashing the parent key together
with an ASCII label and a 32-bit index, so retries and parallel draws
never reuse stream positions.
"""

from __future__ import annotations

import hashlib
import secrets

SEED_BYTES = 32


class HashStream:
    """Counter-mode SHA-256 byte stream with uniform integer sampling."""

    def __init__(self, key: bytes):
        if len(key) != SEED_BYTES:
            raise ValueError(f"stream key must be {SEED_BYTES} bytes, got {len(key)}")
        self.key = key
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def read(self, n: int) -> bytes:
        while len(self._buf) - self._pos < n:
            block = self._counter.to_bytes(8, "little")
            digest = hashlib.sha256(self.key + block).digest()
            self._buf = self._buf[self._pos :] + digest
            self._pos = 0
            self._counter += 1
        pos = self._pos
        self._pos = pos + n
        return self._buf[pos : pos + n]

    def u32(self) -> int:
        return int.from_bytes(self.read(4), "little")

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on 32-bit draws."""
        if not 0 < bound <= 1 << 32:
            raise ValueError(f"bound out of range: {bound}")
        limit = ((1 << 32) // bound) * bound
        while True:
            v = self.u32()
            if v < limit:
                return v % bound

    def distinct(self, count: int, bound: int) -> list[int]:
        """count distinct integers in [0, bound), in draw order."""
        if count > bound:
            raise ValueError(f"cannot draw {count} distinct values below {bound}")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.below(bound)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def substream(self, label: bytes, index: int = 0) -> "HashStream":
        key = hashlib.sha256(
            self.key + b"/" + label + index.to_bytes(4, "little")
        ).digest()
        return HashStream(key)


def fresh_seed() -> bytes:
    """Draw a master seed from the system entropy source."""
    return secrets.token_bytes(SEED_BYTES)


def parse_seed(text: str) -> bytes:
    """Parse a 64-hex-char seed string."""
    if len(text) != 2 * SEED_BYTES:
        raise ValueError(f"seed must be {2 * SEED_BYTES} hex chars, got {len(text)}")
    return bytes.fromhex(text)
