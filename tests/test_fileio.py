"""File formats: matrices, key pairs, signatures, and their failure modes."""

import io
import struct

import numpy as np
import pytest

from ldgmsig import fileio
from ldgmsig.fileio import (
    FORMAT_VERSION,
    FormatError,
    SECRET_MAGIC,
    SIGNATURE_MAGIC,
    dump_matrix,
    load_matrix,
    load_private_key,
    load_public_key,
    load_signature,
    save_private_key,
    save_public_key,
    save_signature,
)
from ldgmsig.gf2 import DenseMatrix, QcMatrix
from ldgmsig.keygen import PublicKey
from ldgmsig.sign import Signature, sign, verify

from conftest import hostile_public_key


def roundtrip_matrix(mat):
    buf = io.BytesIO()
    dump_matrix(buf, mat)
    buf.seek(0)
    back = load_matrix(buf, (mat.rows, mat.cols))
    assert not buf.read(1)
    return back


def test_matrix_roundtrip_dense():
    rng = np.random.default_rng(70)
    mat = DenseMatrix.from_bits(rng.integers(0, 2, size=(5, 13), dtype=np.uint8))
    back = roundtrip_matrix(mat)
    assert isinstance(back, DenseMatrix)
    assert back == mat


def test_matrix_roundtrip_qc():
    rng = np.random.default_rng(71)
    mat = QcMatrix(3, 4, 5, rng.integers(0, 256, size=(3, 4, 1), dtype=np.uint8))
    back = roundtrip_matrix(mat)
    assert isinstance(back, QcMatrix)
    assert back == mat


def test_matrix_rejects_bad_header():
    buf = io.BytesIO()
    dump_matrix(buf, DenseMatrix.identity(4))
    raw = bytearray(buf.getvalue())

    for mutate in (
        lambda b: b"XXXX" + bytes(b[4:]),              # magic
        lambda b: bytes(b[:4]) + b"\x07" + bytes(b[5:]),  # version
        lambda b: bytes(b[:5]) + struct.pack("<I", 2) + bytes(b[9:]),  # kind
        lambda b: bytes(b[:-1]),                        # truncated payload
    ):
        with pytest.raises(FormatError):
            load_matrix(io.BytesIO(mutate(raw)), (4, 4))
    # extra bytes are the caller's problem: load_matrix must leave them
    buf = io.BytesIO(bytes(raw) + b"\x55")
    load_matrix(buf, (4, 4))
    assert buf.read() == b"\x55"


def test_matrix_rejects_shape_lies():
    buf = io.BytesIO()
    dump_matrix(buf, QcMatrix(2, 2, 4, None))
    raw = bytearray(buf.getvalue())
    # p = 3 no longer divides the stored 8 x 8 dimensions
    raw[17:21] = struct.pack("<I", 3)
    with pytest.raises(FormatError):
        load_matrix(io.BytesIO(raw), (8, 8))
    # dense kind must carry p = 1
    buf = io.BytesIO()
    dump_matrix(buf, DenseMatrix.identity(4))
    raw = bytearray(buf.getvalue())
    raw[17:21] = struct.pack("<I", 4)
    with pytest.raises(FormatError):
        load_matrix(io.BytesIO(raw), (4, 4))


def test_hostile_header_rejected_before_payload(tmp_path):
    raw = hostile_public_key()
    assert len(raw) == 34
    path = tmp_path / "hostile.pk"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="expected 12x24"):
        load_public_key(path)
    # asked for that shape, the reader stops where the bytes end
    huge = 2 ** 31 - 1
    with pytest.raises(FormatError, match="truncated"):
        load_matrix(io.BytesIO(raw[13:]), (huge, huge))


def test_payload_read_in_chunks(monkeypatch):
    monkeypatch.setattr(fileio, "READ_CHUNK", 3)
    rng = np.random.default_rng(72)
    mat = DenseMatrix.from_bits(rng.integers(0, 2, size=(5, 13), dtype=np.uint8))
    assert roundtrip_matrix(mat) == mat
    buf = io.BytesIO()
    dump_matrix(buf, mat)
    with pytest.raises(FormatError, match="wanted 10 bytes, got 9"):
        load_matrix(io.BytesIO(buf.getvalue()[:-1]), (5, 13))


def test_private_key_roundtrip(tmp_path, toy_keys):
    sk, _ = toy_keys
    path = tmp_path / "toy.sk"
    save_private_key(path, sk)
    back = load_private_key(path)
    assert back.ps.name == "toy-1"
    assert isinstance(back.generator, QcMatrix)
    assert back.generator == sk.generator
    assert back.parity_check == sk.parity_check
    assert back.constraints == sk.constraints
    assert back.scrambler == sk.scrambler
    assert back.seed == sk.seed
    # the reloaded key signs identically
    msg = b"persisted key"
    assert sign(back, msg).e_prime == sign(sk, msg).e_prime
    # and resaving is byte-stable
    second = tmp_path / "again.sk"
    save_private_key(second, back)
    assert second.read_bytes() == path.read_bytes()


def test_private_key_rejects_mixed_kinds(tmp_path, toy_keys):
    # any one of the six key matrices stored in the dense kind is refused
    sk, _ = toy_keys
    name = sk.ps.name.encode()
    parts = [("generator", sk.generator),
             ("parity left block", fileio._left_block(sk.parity_check)),
             ("constraint left factor", sk.lowrank_left),
             ("constraint matrix", sk.constraints), ("sparse map", sk.sparse_map),
             ("scrambler", sk.scrambler), ("scrambler inverse", sk.scrambler_inv),
             ("weight control inverse", sk.weight_ctrl_inv)]

    def key_bytes(dense=None):
        buf = io.BytesIO()
        buf.write(SECRET_MAGIC + bytes([FORMAT_VERSION, len(name)]) + name + sk.seed)
        for what, mat in parts:
            dump_matrix(buf, mat.expand() if what == dense else mat)
        return buf.getvalue()

    path = tmp_path / "mixed.sk"
    save_private_key(path, sk)
    assert key_bytes() == path.read_bytes()
    for what, mat in parts:
        if isinstance(mat, DenseMatrix):
            continue
        path.write_bytes(key_bytes(dense=what))
        with pytest.raises(FormatError,
                           match=f"{what} is stored dense, expected quasi-cyclic"):
            load_private_key(path)


def test_public_key_rejects_dense_parity_check(tmp_path, toy_keys):
    _, pk = toy_keys
    path = tmp_path / "dense.pk"
    save_public_key(path, PublicKey(pk.ps, pk.parity_check.expand(), pk.constraints))
    with pytest.raises(FormatError, match="public parity check is stored dense"):
        load_public_key(path)
    grid_b = QcMatrix.from_dense(pk.constraints)
    save_public_key(path, PublicKey(pk.ps, pk.parity_check, grid_b))
    with pytest.raises(FormatError, match="constraint matrix is stored quasi-cyclic"):
        load_public_key(path)


def test_public_key_roundtrip(tmp_path, toy_keys):
    sk, pk = toy_keys
    path = tmp_path / "toy.pk"
    save_public_key(path, pk)
    back = load_public_key(path)
    assert back.parity_check == pk.parity_check
    assert back.constraints == pk.constraints
    assert back.payload_bits() == pk.payload_bits()
    msg = b"loaded verifier"
    assert verify(back, msg, sign(sk, msg)).accepted


def test_key_loaders_insist_on_their_magic(tmp_path, toy_keys):
    sk, pk = toy_keys
    sk_path, pk_path = tmp_path / "k.sk", tmp_path / "k.pk"
    save_private_key(sk_path, sk)
    save_public_key(pk_path, pk)
    with pytest.raises(FormatError):
        load_private_key(pk_path)
    with pytest.raises(FormatError):
        load_public_key(sk_path)


def test_unknown_parameter_set_reported(tmp_path, toy_keys):
    _, pk = toy_keys
    path = tmp_path / "k.pk"
    save_public_key(path, pk)
    raw = path.read_bytes().replace(b"toy-1", b"toy-9")
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="toy-9"):
        load_public_key(path)


def test_signature_roundtrip(tmp_path, toy_keys):
    sk, _ = toy_keys
    sig = sign(sk, b"round trip")
    path = tmp_path / "m.sig"
    save_signature(path, "toy-1", sig)
    name, back = load_signature(path)
    assert name == "toy-1"
    assert back.theta == sig.theta
    assert back.e_prime == sig.e_prime
    again = tmp_path / "again.sig"
    save_signature(again, name, back)
    assert again.read_bytes() == path.read_bytes()


def sig_bytes(theta, support, name=b"toy-1"):
    out = bytearray()
    out += SIGNATURE_MAGIC
    out += bytes([FORMAT_VERSION, len(name)])
    out += name
    out += struct.pack("<I", theta)
    out += struct.pack("<I", len(support))
    out += np.asarray(support, dtype="<u4").tobytes()
    return bytes(out)


def test_signature_validation(tmp_path):
    path = tmp_path / "bad.sig"
    cases = [
        sig_bytes(4, [1, 2]),          # counter above 2^y - 1 = 3
        sig_bytes(0, list(range(25))), # support count above n
        sig_bytes(0, [5, 3]),          # unsorted
        sig_bytes(0, [3, 3]),          # duplicate
        sig_bytes(0, [3, 24]),         # index off the end
        sig_bytes(0, [1, 2]) + b"\x00",  # trailing byte
        sig_bytes(0, [1, 2])[:-1],     # truncated
    ]
    for raw in cases:
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            load_signature(path)
    path.write_bytes(sig_bytes(3, [0, 23]))
    name, sig = load_signature(path)
    assert (name, sig.theta, sig.e_prime.support()) == ("toy-1", 3, [0, 23])


def test_empty_support_signature_roundtrips(tmp_path):
    path = tmp_path / "zero.sig"
    path.write_bytes(sig_bytes(0, []))
    _, sig = load_signature(path)
    assert sig.e_prime.weight() == 0
