"""The counter-mode SHA-256 stream against its definition.

Byte j of the stream keyed by K is byte j mod 32 of SHA256(K || j // 32),
the counter as 8 little-endian bytes.  However reads are split, and
whatever sampling calls consume them, the stream must hand out exactly
these bytes in order.
"""

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from ldgmsig.rng import SEED_BYTES, HashStream

keys = st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES)


def stream_bytes(key: bytes, start: int, stop: int) -> bytes:
    """Bytes start..stop of the stream, straight from the definition."""
    blocks = b"".join(hashlib.sha256(key + i.to_bytes(8, "little")).digest()
                      for i in range(start // 32, -(-stop // 32)))
    return blocks[start % 32 : start % 32 + stop - start]


class DefinitionStream(HashStream):
    """HashStream whose reads come from stream_bytes, one call each."""

    def __init__(self, key: bytes):
        super().__init__(key)
        self.offset = 0

    def read(self, n: int) -> bytes:
        out = stream_bytes(self.key, self.offset, self.offset + n)
        self.offset += n
        return out


@given(keys, st.lists(st.integers(0, 100), max_size=20))
def test_split_reads_match_one_read(key, sizes):
    split = HashStream(key)
    pieces = b"".join(split.read(n) for n in sizes)
    assert pieces == HashStream(key).read(sum(sizes))
    assert pieces == stream_bytes(key, 0, sum(sizes))
    # the position carries on past the split reads
    assert split.read(40) == stream_bytes(key, sum(sizes), sum(sizes) + 40)


calls = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 70)),
    st.tuples(st.just("below"), st.integers(1, 1 << 32)),
    st.integers(1, 30).flatmap(
        lambda bound: st.tuples(st.just("distinct"), st.integers(0, bound),
                                st.just(bound))),
    st.tuples(st.just("permutation"), st.integers(0, 30)),
)


@given(keys, st.lists(calls, max_size=12))
def test_sampling_reads_the_defined_bytes(key, script):
    fast, slow = HashStream(key), DefinitionStream(key)
    for name, *args in script:
        assert getattr(fast, name)(*args) == getattr(slow, name)(*args)
    assert fast.read(8) == slow.read(8)
