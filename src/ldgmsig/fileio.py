"""On-disk formats for keys and signatures.

Each file is an envelope: a 6-byte magic, one version byte (KEY_VERSION
for both keys, SIGNATURE_VERSION for signatures) and the parameter set's
name as one length byte and that many ASCII bytes.  The parameter set
fixes every shape, so the payloads that follow are bare and their sizes
are computed by the reader, never read from the file:

* private key: the 32-byte seed, the first rows of G (k0 x n0 blocks),
  the rows of b (z x r), the first rows of T (r0 x r0), then the first
  rows of S (n0 x n0);
* public key: the first rows of H' (r0 x n0), then the rows of b;
* signature: the 32-bit counter, then e' as an n-bit bitmap.

A circulant's first row takes ceil(p/8) bytes, a row of b ceil(r/8)
bytes and e' ceil(n/8) bytes.  Integers are little-endian, bit payloads
are packed LSB-first within a byte, and every writer is deterministic,
so identical seeds produce byte-identical files.  A writer that refuses
its input leaves the path untouched.  Readers treat the bytes as hostile
and raise FormatError on anything that does not parse, trailing bytes
included, so a truncated file is never mistaken for a short-but-valid
one.  No file supplies a count.  The signature reader refuses a counter
of y bits or more and a set bit past n, so each signature has one file.
The private key reader also checks the weights that the signature weight
bound rests on: w_g in every row of G, m_t in every row and column of T,
and 1 to m_s in every column of S.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .gf2 import BitVector, DenseMatrix, QcMatrix
from .keygen import PrivateKey, PublicKey
from .params import ParameterError, ParameterSet, get_params
from .sign import Signature

__all__ = [
    "FormatError",
    "save_private_key",
    "load_private_key",
    "save_public_key",
    "load_public_key",
    "save_signature",
    "load_signature",
]

SECRET_MAGIC = b"LDGMSK"
PUBLIC_MAGIC = b"LDGMPK"
SIGNATURE_MAGIC = b"LDGMSG"
KEY_VERSION = 2
SIGNATURE_VERSION = 3
SEED_BYTES = 32


class FormatError(ValueError):
    """The bytes do not parse as the expected file format."""


def _read_exact(fh, count: int, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise FormatError(f"truncated {what}: wanted {count} bytes, got {len(raw)}")
    return raw


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read_u32(fh, what: str) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, what))[0]


def _write_header(fh, magic: bytes, version: int, name: str) -> None:
    raw = name.encode("ascii")
    if not 0 < len(raw) < 256:
        raise ValueError(f"parameter set name {name!r} does not fit")
    fh.write(magic + bytes([version, len(raw)]) + raw)


def _read_header(fh, magic: bytes, version: int, what: str) -> ParameterSet:
    got = _read_exact(fh, len(magic), f"{what} magic")
    if got != magic:
        raise FormatError(f"bad {what} magic {got!r}")
    got_version = _read_exact(fh, 1, f"{what} version")[0]
    if got_version != version:
        raise FormatError(f"unsupported {what} version {got_version}")
    length = _read_exact(fh, 1, f"{what} set id")[0]
    raw = _read_exact(fh, length, f"{what} set id")
    try:
        name = raw.decode("ascii")
    except UnicodeDecodeError:
        raise FormatError(f"{what} set id is not ascii") from None
    try:
        return get_params(name)
    except ParameterError:
        raise FormatError(f"unknown parameter set {name!r}") from None


def _no_trailing(fh, what: str) -> None:
    if fh.read(1):
        raise FormatError(f"trailing data after {what}")


def _write_grid(fh, ps: ParameterSet, mat: QcMatrix, block_rows: int,
                block_cols: int) -> None:
    """The first rows of mat, which must lie on the grid the reader will
    compute from ps: nothing in the file records the shape."""
    if (mat.block_rows, mat.block_cols, mat.p) != (block_rows, block_cols, ps.p):
        raise ValueError(f"{mat.rows}x{mat.cols} matrix of p = {mat.p} does not "
                         f"fit the {ps.name} layout")
    fh.write(mat.first_rows.tobytes())


def _read_grid(fh, ps: ParameterSet, block_rows: int, block_cols: int,
               what: str) -> QcMatrix:
    width = (ps.p + 7) // 8
    raw = _read_exact(fh, block_rows * block_cols * width, what)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(block_rows, block_cols, width)
    return QcMatrix(block_rows, block_cols, ps.p, rows)


def _write_constraints(fh, ps: ParameterSet, b: DenseMatrix) -> None:
    if (b.rows, b.cols) != (ps.z, ps.r):
        raise ValueError(f"{b.rows}x{b.cols} constraint matrix does not fit "
                         f"the {ps.name} layout")
    fh.write(b.data.tobytes())


def _read_constraints(fh, ps: ParameterSet) -> DenseMatrix:
    width = (ps.r + 7) // 8
    raw = _read_exact(fh, ps.z * width, "constraint matrix")
    return DenseMatrix(ps.z, ps.r, np.frombuffer(raw, dtype=np.uint8).reshape(ps.z, width))


def _check_weights(m: QcMatrix, axis: int, low: int, high: int, what: str) -> None:
    """Every row (axis 1) or column (axis 0) of m weighs low..high: the
    rows of block row i weigh what its first rows weigh together, and
    the columns of block column j what its blocks' first rows weigh."""
    counts = np.bitwise_count(m.first_rows)
    # each sum runs along contiguous memory; a sum over axes (0, 2) or
    # (1, 2) at once takes about ten times as long
    per_byte = counts.reshape(m.block_rows, -1) if axis else counts.sum(axis=0, dtype=np.int32)
    weights = per_byte.sum(axis=1, dtype=np.int32).tolist()
    if min(weights) < low or max(weights) > high:
        bound = low if low == high else f"{low} to {high}"
        raise FormatError(f"{what} weights {min(weights)} to {max(weights)}, "
                          f"expected {bound}")


def _dump_private(fh, sk: PrivateKey) -> None:
    ps = sk.ps
    if len(sk.seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes")
    _write_header(fh, SECRET_MAGIC, KEY_VERSION, ps.name)
    fh.write(sk.seed)
    _write_grid(fh, ps, sk.generator, ps.k0, ps.n0)
    _write_constraints(fh, ps, sk.constraints)
    _write_grid(fh, ps, sk.sparse_map, ps.r0, ps.r0)
    _write_grid(fh, ps, sk.scrambler, ps.n0, ps.n0)


def _load_private(fh) -> PrivateKey:
    ps = _read_header(fh, SECRET_MAGIC, KEY_VERSION, "private key")
    seed = _read_exact(fh, SEED_BYTES, "private key seed")
    g = _read_grid(fh, ps, ps.k0, ps.n0, "generator")
    b = _read_constraints(fh, ps)
    t = _read_grid(fh, ps, ps.r0, ps.r0, "sparse map")
    s = _read_grid(fh, ps, ps.n0, ps.n0, "scrambler")
    _no_trailing(fh, "private key")
    # the signature weight bound rests on these weights
    _check_weights(g, 1, ps.w_g, ps.w_g, "generator row")
    _check_weights(t, 1, ps.m_t, ps.m_t, "sparse map row")
    _check_weights(t, 0, ps.m_t, ps.m_t, "sparse map column")
    _check_weights(s, 0, 1, ps.m_s, "scrambler column")
    return PrivateKey(ps, seed, g, b, t, s)


def _dump_public(fh, pk: PublicKey) -> None:
    ps = pk.ps
    _write_header(fh, PUBLIC_MAGIC, KEY_VERSION, ps.name)
    _write_grid(fh, ps, pk.parity_check, ps.r0, ps.n0)
    _write_constraints(fh, ps, pk.constraints)


def _load_public(fh) -> PublicKey:
    ps = _read_header(fh, PUBLIC_MAGIC, KEY_VERSION, "public key")
    h_prime = _read_grid(fh, ps, ps.r0, ps.n0, "public parity check")
    b = _read_constraints(fh, ps)
    _no_trailing(fh, "public key")
    return PublicKey(ps, h_prime, b)


def _dump_signature(fh, name: str, sig: Signature) -> None:
    ps = get_params(name)
    if sig.e_prime.length != ps.n:
        raise ValueError(f"signature of length {sig.e_prime.length} does not fit "
                         f"the {ps.name} layout")
    if not 0 <= sig.theta < 1 << ps.y:
        raise ValueError(f"counter {sig.theta} exceeds {ps.y} bits")
    _write_header(fh, SIGNATURE_MAGIC, SIGNATURE_VERSION, ps.name)
    _write_u32(fh, sig.theta)
    fh.write(sig.e_prime.to_bytes())


def _load_signature(fh) -> tuple[str, Signature]:
    ps = _read_header(fh, SIGNATURE_MAGIC, SIGNATURE_VERSION, "signature")
    theta = _read_u32(fh, "signature counter")
    if theta >> ps.y:
        raise FormatError(f"counter {theta} exceeds {ps.y} bits")
    raw = _read_exact(fh, (ps.n + 7) // 8, "signature bitmap")
    _no_trailing(fh, "signature")
    # BitVector clears tail bits, so a set one is caught on the raw byte
    if ps.n & 7 and raw[-1] >> (ps.n & 7):
        raise FormatError(f"signature bit set past length {ps.n}")
    return ps.name, Signature(theta, BitVector.from_bytes(ps.n, raw))


def _save(path, dump, *args) -> None:
    """Serialize in memory first, so a refused layout leaves the path as
    it was: an existing file keeps its bytes and no new one appears."""
    buf = io.BytesIO()
    dump(buf, *args)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def save_private_key(path, sk: PrivateKey) -> None:
    _save(path, _dump_private, sk)


def load_private_key(path) -> PrivateKey:
    with open(path, "rb") as fh:
        return _load_private(fh)


def save_public_key(path, pk: PublicKey) -> None:
    _save(path, _dump_public, pk)


def load_public_key(path) -> PublicKey:
    with open(path, "rb") as fh:
        return _load_public(fh)


def save_signature(path, name: str, sig: Signature) -> None:
    _save(path, _dump_signature, name, sig)


def load_signature(path) -> tuple[str, Signature]:
    with open(path, "rb") as fh:
        return _load_signature(fh)
