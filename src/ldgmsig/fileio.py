"""On-disk formats for keys and signatures.

One shared container carries a matrix, dense or quasi-cyclic; three
envelopes wrap it: private key, public key, signature. All integers
are little-endian 32-bit, bit payloads are packed LSB-first within a
byte, and every writer is deterministic, so identical seeds produce
byte-identical files. Readers raise FormatError on anything that does
not parse, including trailing bytes, so a truncated file is never
mistaken for a short-but-valid one. Readers treat the bytes as hostile:
each matrix header is checked against the shape its envelope's parameter
set implies before any payload is read, and payloads are read in bounded
chunks, so a size claimed by the file never becomes an allocation.
"""

from __future__ import annotations

import struct

import numpy as np

from .gf2 import BitVector, DenseMatrix, QcMatrix
from .keygen import PrivateKey, PublicKey
from .params import ParameterError, ParameterSet, get_params
from .sign import Signature

__all__ = [
    "FormatError",
    "dump_matrix",
    "load_matrix",
    "save_private_key",
    "load_private_key",
    "save_public_key",
    "load_public_key",
    "save_signature",
    "load_signature",
]

MATRIX_MAGIC = b"LDGM"
SECRET_MAGIC = b"LDGMSK"
PUBLIC_MAGIC = b"LDGMPK"
SIGNATURE_MAGIC = b"LDGMSG"
FORMAT_VERSION = 1
SEED_BYTES = 32

KIND_DENSE = 0
KIND_QC = 1

READ_CHUNK = 1 << 20


class FormatError(ValueError):
    """The bytes do not parse as the expected file format."""


def _read_exact(fh, count: int, what: str) -> bytes:
    """count bytes; a count above READ_CHUNK is read a chunk at a time, so
    that a size taken from the file costs no more memory than it holds."""
    if count <= READ_CHUNK:
        raw = fh.read(count)
    else:
        buf = bytearray()
        while len(buf) < count and (more := fh.read(min(count - len(buf), READ_CHUNK))):
            buf += more
        raw = bytes(buf)
    if len(raw) != count:
        raise FormatError(f"truncated {what}: wanted {count} bytes, got {len(raw)}")
    return raw


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read_u32(fh, what: str) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, what))[0]


def _expect_magic(fh, magic: bytes, what: str) -> None:
    got = _read_exact(fh, len(magic), f"{what} magic")
    if got != magic:
        raise FormatError(f"bad {what} magic {got!r}")
    version = _read_exact(fh, 1, f"{what} version")[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {what} version {version}")


def _write_name(fh, name: str) -> None:
    raw = name.encode("ascii")
    if not 0 < len(raw) < 256:
        raise ValueError(f"parameter set name {name!r} does not fit")
    fh.write(bytes([len(raw)]))
    fh.write(raw)


def _read_params(fh, what: str) -> ParameterSet:
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


def dump_matrix(fh, mat) -> None:
    fh.write(MATRIX_MAGIC)
    fh.write(bytes([FORMAT_VERSION]))
    if isinstance(mat, QcMatrix):
        for value in (KIND_QC, mat.rows, mat.cols, mat.p):
            _write_u32(fh, value)
        fh.write(mat.first_rows.tobytes())
    else:
        for value in (KIND_DENSE, mat.rows, mat.cols, 1):
            _write_u32(fh, value)
        fh.write(mat.data.tobytes())


def load_matrix(fh, shape, what="matrix"):
    """Read one matrix of the given (rows, cols); a header claiming any
    other shape is rejected before the payload is read."""
    _expect_magic(fh, MATRIX_MAGIC, "matrix")
    kind = _read_u32(fh, "matrix kind")
    rows = _read_u32(fh, "matrix rows")
    cols = _read_u32(fh, "matrix cols")
    p = _read_u32(fh, "matrix block size")
    if min(rows, cols, p) < 1:
        raise FormatError(f"bad matrix header {rows}x{cols}, p={p}")
    if (rows, cols) != tuple(shape):
        raise FormatError(
            f"{what} is {rows}x{cols}, expected {shape[0]}x{shape[1]}")
    if kind == KIND_DENSE:
        if p != 1:
            raise FormatError(f"dense matrix with block size {p}")
        width = (cols + 7) // 8
        raw = _read_exact(fh, rows * width, "dense payload")
        data = np.frombuffer(raw, dtype=np.uint8).reshape(rows, width)
        return DenseMatrix(rows, cols, data)
    if kind == KIND_QC:
        if rows % p or cols % p:
            raise FormatError(f"qc matrix {rows}x{cols} not divisible by p={p}")
        width = (p + 7) // 8
        br, bc = rows // p, cols // p
        raw = _read_exact(fh, br * bc * width, "qc payload")
        grid = np.frombuffer(raw, dtype=np.uint8).reshape(br, bc, width)
        return QcMatrix(br, bc, p, grid)
    raise FormatError(f"unknown matrix kind {kind}")


def _left_block(parity, ps: ParameterSet):
    """X from H = [X | I_r]."""
    if isinstance(parity, QcMatrix):
        return QcMatrix(ps.r0, ps.k0, ps.p, parity.first_rows[:, : ps.k0].copy())
    return parity.take_columns(range(ps.k))


def _parity_from_left(x, ps: ParameterSet):
    """Rebuild H = [X | I_r]; the identity half is never stored."""
    if isinstance(x, QcMatrix):
        h = QcMatrix.zeros(ps.r0, ps.n0, ps.p)
        h.first_rows[:, : ps.k0] = x.first_rows
        for i in range(ps.r0):
            h.first_rows[i, ps.k0 + i, 0] = 1
        return h
    bits = np.concatenate([x.to_bits(), DenseMatrix.identity(ps.r).to_bits()],
                          axis=1)
    return DenseMatrix.from_bits(bits)


def _dump_private(fh, sk: PrivateKey) -> None:
    if len(sk.seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes")
    fh.write(SECRET_MAGIC)
    fh.write(bytes([FORMAT_VERSION]))
    _write_name(fh, sk.ps.name)
    fh.write(sk.seed)
    x = _left_block(sk.parity_check, sk.ps)
    for mat in (sk.generator, x, sk.lowrank_left, sk.constraints,
                sk.sparse_map, sk.scrambler, sk.scrambler_inv,
                sk.weight_ctrl_inv):
        dump_matrix(fh, mat)


def _load_private(fh) -> PrivateKey:
    _expect_magic(fh, SECRET_MAGIC, "private key")
    ps = _read_params(fh, "private key")
    seed = _read_exact(fh, SEED_BYTES, "private key seed")
    expected = (
        ("generator", ps.k, ps.n),
        ("parity left block", ps.r, ps.k),
        ("constraint left factor", ps.z, ps.r),
        ("constraint matrix", ps.z, ps.r),
        ("sparse map", ps.r, ps.r),
        ("scrambler", ps.n, ps.n),
        ("scrambler inverse", ps.n, ps.n),
        ("weight control inverse", ps.r, ps.r),
    )
    g, x, a, b, t, s, s_inv, q_inv = (
        load_matrix(fh, (rows, cols), what) for what, rows, cols in expected)
    _no_trailing(fh, "private key")
    qc = isinstance(g, QcMatrix)
    kinds = {isinstance(m, QcMatrix) for m in (g, x, t, s, s_inv, q_inv)}
    if len(kinds) != 1:
        raise FormatError("mixed dense/qc matrices in private key")
    return PrivateKey(ps, seed, g, _parity_from_left(x, ps), a, b, t,
                      q_inv, s, s_inv, qc)


def _dump_public(fh, pk: PublicKey) -> None:
    fh.write(PUBLIC_MAGIC)
    fh.write(bytes([FORMAT_VERSION]))
    _write_name(fh, pk.ps.name)
    dump_matrix(fh, pk.parity_check)
    dump_matrix(fh, pk.constraints)


def _load_public(fh) -> PublicKey:
    _expect_magic(fh, PUBLIC_MAGIC, "public key")
    ps = _read_params(fh, "public key")
    h_prime = load_matrix(fh, (ps.r, ps.n), "public parity check")
    b = load_matrix(fh, (ps.z, ps.r), "constraint matrix")
    _no_trailing(fh, "public key")
    return PublicKey(ps, h_prime, b, isinstance(h_prime, QcMatrix))


def _dump_signature(fh, name: str, sig: Signature) -> None:
    fh.write(SIGNATURE_MAGIC)
    fh.write(bytes([FORMAT_VERSION]))
    _write_name(fh, name)
    _write_u32(fh, sig.theta)
    support = sig.e_prime.support()
    _write_u32(fh, len(support))
    fh.write(np.asarray(support, dtype="<u4").tobytes())


def _load_signature(fh) -> tuple[str, Signature]:
    _expect_magic(fh, SIGNATURE_MAGIC, "signature")
    ps = _read_params(fh, "signature")
    theta = _read_u32(fh, "signature counter")
    if theta >> ps.y:
        raise FormatError(f"counter {theta} exceeds {ps.y} bits")
    count = _read_u32(fh, "signature support count")
    if count > ps.n:
        raise FormatError(f"support count {count} exceeds length {ps.n}")
    raw = _read_exact(fh, 4 * count, "signature support")
    _no_trailing(fh, "signature")
    idx = np.frombuffer(raw, dtype="<u4")
    if count and (idx[-1] >= ps.n or np.any(idx[1:] <= idx[:-1])):
        raise FormatError("signature support not sorted below length")
    e_prime = BitVector.from_support(ps.n, idx.astype(np.int64))
    return ps.name, Signature(theta, e_prime)


def save_private_key(path, sk: PrivateKey) -> None:
    with open(path, "wb") as fh:
        _dump_private(fh, sk)


def load_private_key(path) -> PrivateKey:
    with open(path, "rb") as fh:
        return _load_private(fh)


def save_public_key(path, pk: PublicKey) -> None:
    with open(path, "wb") as fh:
        _dump_public(fh, pk)


def load_public_key(path) -> PublicKey:
    with open(path, "rb") as fh:
        return _load_public(fh)


def save_signature(path, name: str, sig: Signature) -> None:
    with open(path, "wb") as fh:
        _dump_signature(fh, name, sig)


def load_signature(path) -> tuple[str, Signature]:
    with open(path, "rb") as fh:
        return _load_signature(fh)
