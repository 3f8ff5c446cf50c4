"""File formats: key pairs, signatures, and their failure modes."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldgmsig import fileio
from ldgmsig.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from ldgmsig.fileio import (
    KEY_VERSION,
    SIGNATURE_VERSION,
    FormatError,
    PUBLIC_MAGIC,
    SECRET_MAGIC,
    SIGNATURE_MAGIC,
    load_private_key,
    load_public_key,
    load_signature,
    save_private_key,
    save_public_key,
    save_signature,
)
from ldgmsig.gf2 import BitVector, DenseMatrix, QcMatrix
from ldgmsig.keygen import PublicKey
from ldgmsig.sign import Signature, sign, verify

from conftest import DENSE_SET, bit_grid, hostile_public_key
from reference import dense, pack


def test_hostile_header_rejected_before_payload(tmp_path, toy_keys):
    # a version-1 public key whose matrix header claims a 2^31 x 2^31
    # payload is refused at its version byte
    raw = hostile_public_key()
    assert len(raw) == 34
    path = tmp_path / "hostile.pk"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="unsupported public key version 1"):
        load_public_key(path)
    # a current public key cut off inside H' stops where the bytes end
    save_public_key(path, toy_keys[1])
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(FormatError, match="truncated public parity check"):
        load_public_key(path)


def test_private_key_roundtrip(tmp_path, toy_keys):
    sk, _ = toy_keys
    path = tmp_path / "toy.sk"
    save_private_key(path, sk)
    back = load_private_key(path)
    assert back.ps.name == "toy-1"
    assert isinstance(back.generator, QcMatrix)
    assert back.generator == sk.generator
    assert back.constraints == sk.constraints
    assert back.sparse_map == sk.sparse_map
    assert back.scrambler == sk.scrambler
    assert back.seed == sk.seed
    # the reloaded key signs identically
    msg = b"persisted key"
    assert sign(back, msg).e_prime == sign(sk, msg).e_prime
    # and resaving is byte-stable
    second = tmp_path / "again.sk"
    save_private_key(second, back)
    assert second.read_bytes() == path.read_bytes()


def payload(mat):
    """The bytes a key file holds for mat: first rows, or dense rows."""
    return (mat.first_rows if isinstance(mat, QcMatrix) else mat.data).tobytes()


def test_private_key_rejects_mixed_kinds(tmp_path, toy_keys):
    # any one of the key matrices stored as its dense expansion is refused
    sk, _ = toy_keys
    name = sk.ps.name.encode()
    parts = [("generator", sk.generator), ("constraint matrix", sk.constraints),
             ("sparse map", sk.sparse_map), ("scrambler", sk.scrambler)]

    def key_bytes(dense_one=None):
        out = SECRET_MAGIC + bytes([KEY_VERSION, len(name)]) + name + sk.seed
        for what, mat in parts:
            out += pack(dense(mat)).tobytes() if what == dense_one else payload(mat)
        return out

    path = tmp_path / "mixed.sk"
    save_private_key(path, sk)
    assert key_bytes() == path.read_bytes()
    assert len(path.read_bytes()) == 110
    for what, mat in parts:
        if isinstance(mat, DenseMatrix):
            continue
        path.write_bytes(key_bytes(dense_one=what))
        with pytest.raises(FormatError, match="trailing data after private key"):
            load_private_key(path)


def test_public_key_rejects_dense_parity_check(tmp_path, toy_keys):
    _, pk = toy_keys
    name = pk.ps.name.encode()
    header = PUBLIC_MAGIC + bytes([KEY_VERSION, len(name)]) + name
    path = tmp_path / "dense.pk"
    save_public_key(path, pk)
    assert path.read_bytes() == header + payload(pk.parity_check) + payload(pk.constraints)
    assert len(path.read_bytes()) == 33
    path.write_bytes(header + pack(dense(pk.parity_check)).tobytes()
                     + payload(pk.constraints))
    with pytest.raises(FormatError, match="trailing data after public key"):
        load_public_key(path)
    grid_b = bit_grid(dense(pk.constraints))
    path.write_bytes(header + payload(pk.parity_check) + payload(grid_b))
    with pytest.raises(FormatError, match="trailing data after public key"):
        load_public_key(path)
    # and the writer refuses to store H' off the parameter set's grid,
    # leaving an existing file as it was and creating no new one
    off_grid = PublicKey(pk.ps, bit_grid(dense(pk.parity_check)), pk.constraints)
    before = path.read_bytes()
    fresh = tmp_path / "fresh.pk"
    for target in (path, fresh):
        with pytest.raises(ValueError, match="does not fit the toy-1 layout"):
            save_public_key(target, off_grid)
    assert path.read_bytes() == before
    assert not fresh.exists()


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


def sig_bytes(theta, bitmap, name=b"toy-1", version=SIGNATURE_VERSION):
    return (SIGNATURE_MAGIC + bytes([version, len(name)]) + name
            + struct.pack("<I", theta) + bytes(bitmap))


def test_signature_file_is_counter_and_bitmap(tmp_path, toy_keys, ldgm80):
    # header, 4 counter bytes, then ceil(n/8) bytes of e'
    for sk, size in ((toy_keys[0], 20), (ldgm80[0], 1244)):
        sig = sign(sk, b"sized")
        path = tmp_path / f"{sk.ps.name}.sig"
        save_signature(path, sk.ps.name, sig)
        assert path.read_bytes() == sig_bytes(sig.theta, sig.e_prime.to_bytes(),
                                              sk.ps.name.encode())
        assert len(path.read_bytes()) == size


def test_signature_validation(tmp_path):
    # toy-1: y = 2 counter bits, n = 24 bits of e' in 3 bytes
    path = tmp_path / "bad.sig"
    good = sig_bytes(3, b"\x01\x00\x80")
    cases = [
        (sig_bytes(4, b"\x01\x00\x80"), "counter 4 exceeds 2 bits"),
        (good[:-1], "truncated signature bitmap"),
        (good + b"\x00", "trailing data after signature"),
        (sig_bytes(3, b"\x01\x00\x80", version=2), "unsupported signature version 2"),
    ]
    for raw, reason in cases:
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=reason):
            load_signature(path)
    path.write_bytes(good)
    name, sig = load_signature(path)
    assert (name, sig.theta, sig.e_prime.support()) == ("toy-1", 3, [0, 23])


def test_signature_bit_past_length_refused(tmp_path, monkeypatch):
    # no registered set has spare bits in its last byte, so the reader is
    # pointed at DENSE_SET: n = 28 leaves the top 4 bits of byte 3 spare
    monkeypatch.setattr(fileio, "get_params", lambda name: DENSE_SET)
    path = tmp_path / "tail.sig"
    path.write_bytes(sig_bytes(0, b"\x00\x00\x00\x0f"))
    assert load_signature(path)[1].e_prime.support() == [24, 25, 26, 27]
    path.write_bytes(sig_bytes(0, b"\x00\x00\x00\x10"))
    with pytest.raises(FormatError, match="bit set past length 28"):
        load_signature(path)


def test_signature_writer_refuses_other_layouts(tmp_path, toy_keys):
    # a refused write leaves an existing file byte-identical and creates
    # no new one
    sig = sign(toy_keys[0], b"off layout")
    path = tmp_path / "alien.sig"
    save_signature(path, "toy-1", sig)
    before = path.read_bytes()
    fresh = tmp_path / "fresh.sig"
    for target in (path, fresh):
        with pytest.raises(ValueError, match="length 24 does not fit the ldgm-80 layout"):
            save_signature(target, "ldgm-80", sig)
        with pytest.raises(ValueError, match="counter 4 exceeds 2 bits"):
            save_signature(target, "toy-1", Signature(4, sig.e_prime))
        with pytest.raises(ValueError, match="toy-9"):
            save_signature(target, "toy-9", sig)
    assert path.read_bytes() == before
    assert not fresh.exists()


def test_empty_support_signature_roundtrips(tmp_path):
    path = tmp_path / "zero.sig"
    path.write_bytes(sig_bytes(0, bytes(3)))
    _, sig = load_signature(path)
    assert sig.e_prime == BitVector(24)
    again = tmp_path / "again.sig"
    save_signature(again, "toy-1", sig)
    assert again.read_bytes() == path.read_bytes()


MESSAGE = b"fuzzed file"
HEADER_BYTES = 13  # magic, version, name length and b"toy-1"


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory, toy_keys):
    """A saved toy-1 key pair and a signature of MESSAGE under it."""
    sk, pk = toy_keys
    root = tmp_path_factory.mktemp("toy-files")
    save_private_key(root / "k.sk", sk)
    save_public_key(root / "k.pk", pk)
    save_signature(root / "m.sig", "toy-1", sign(sk, MESSAGE))
    (root / "m.txt").write_bytes(MESSAGE)
    return root


@pytest.mark.parametrize("name, what, load", [
    ("k.sk", "private key", load_private_key),
    ("k.pk", "public key", load_public_key),
    ("m.sig", "signature", load_signature),
])
def test_version_one_files_are_refused(tmp_path, toy_files, name, what, load):
    # keys are at version 2 and signatures, stored as bitmaps, at 3
    raw = bytearray(toy_files.joinpath(name).read_bytes())
    assert raw[6] == (3 if what == "signature" else 2)
    raw[6] = 1
    path = tmp_path / name
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"unsupported {what} version 1"):
        load(path)


@pytest.mark.parametrize("part", ["generator", "sparse map", "scrambler"])
def test_private_key_weights_are_checked(tmp_path, toy_files, toy_keys, capsys, part):
    # one live bit flipped in G, T or S breaks a weight that the
    # signature weight bound rests on: the reader refuses the key, and
    # `ldgmsig sign` exits 2 without a traceback
    sk, _ = toy_keys
    ps = sk.ps
    raw = bytearray(toy_files.joinpath("k.sk").read_bytes())
    width = (ps.p + 7) // 8
    g_at = HEADER_BYTES + 32
    t_at = g_at + ps.k0 * ps.n0 * width + ps.z * ((ps.r + 7) // 8)
    s_at = t_at + ps.r0 * ps.r0 * width
    if part == "scrambler":
        # S's column weights are only bounded, so add a one to block
        # (0, j) of a block column j already at weight m_s
        weights = np.bitwise_count(sk.scrambler.first_rows).sum(axis=(0, 2))
        j = int(np.argmax(weights))
        assert weights[j] == ps.m_s
        at = s_at + j * width
        bit = next(t for t in range(ps.p) if not raw[at] >> t & 1)
    else:
        at, bit = {"generator": g_at, "sparse map": t_at}[part], 0
    assert bit < ps.p  # a live bit, not a masked tail bit
    raw[at] ^= 1 << bit
    path = tmp_path / "flipped.sk"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"^{part} (row|column) weights"):
        load_private_key(path)
    assert run(["sign", "--key", str(path), "--in", str(toy_files / "m.txt"),
                "--out", str(tmp_path / "m.sig")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {part}") and "Traceback" not in err


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """raw after one to three truncations, byte flips, header edits or
    appended bytes."""
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "header", "append"]))
        if kind == "truncate":
            del out[draw(st.integers(0, len(out))):]
        elif kind == "append":
            out += draw(st.binary(min_size=1, max_size=40))
        elif out:
            top = min(len(out), HEADER_BYTES) if kind == "header" else len(out)
            at = draw(st.integers(0, top - 1))
            out[at] ^= draw(st.integers(1, 255))
    return bytes(out)


def _mutation_loads(tmp_path, toy_files, data, name, load):
    raw = data.draw(mutated(toy_files.joinpath(name).read_bytes()))
    path = tmp_path / name
    path.write_bytes(raw)
    try:
        load(path)
    except FormatError:
        pass
    return path


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_private_key_loads_or_raises_format_error(tmp_path, toy_files, data):
    _mutation_loads(tmp_path, toy_files, data, "k.sk", load_private_key)


@pytest.mark.parametrize("name, load", [("k.pk", load_public_key),
                                        ("m.sig", load_signature)])
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_verify_inputs_exit_cleanly(tmp_path, toy_files, capsys, name, load, data):
    # the reader returns or raises FormatError, and `ldgmsig verify` on
    # the mutated file ends in an exit code, never an exception
    path = _mutation_loads(tmp_path, toy_files, data, name, load)
    files = {"k.pk": toy_files / "k.pk", "m.sig": toy_files / "m.sig", name: path}
    code = run(["verify", "--key", str(files["k.pk"]), "--in", str(toy_files / "m.txt"),
                "--sig", str(files["m.sig"])])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in capsys.readouterr().err
