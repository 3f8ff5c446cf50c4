"""Command-line behavior: exit codes, outputs, artifacts, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ldgmsig
from ldgmsig import fileio
from ldgmsig.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from ldgmsig.sign import sign

from conftest import CANON_SEED, GRAM_SEED, hostile_public_key

SEED_HEX = CANON_SEED.hex()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def keygen(workdir, seed=SEED_HEX, name="toy-1"):
    assert run(["keygen", "--params", name, "--seed", seed]) == EXIT_OK
    return workdir / f"{name}.sk", workdir / f"{name}.pk"


def test_params_info_prints_report(capsys):
    assert run(["params", "info", "ldgm-80"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "name=ldgm-80" in out
    assert "960400" in out


def test_params_info_unknown_set(capsys):
    assert run(["params", "info", "nope"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_keygen_writes_key_pair(workdir, capsys):
    sk_path, pk_path = keygen(workdir)
    out = capsys.readouterr().out
    assert sk_path.exists() and pk_path.exists()
    assert "72 payload bits" in out
    assert fileio.load_public_key(pk_path).ps.name == "toy-1"


def test_keygen_same_seed_is_byte_identical(workdir):
    sk_path, pk_path = keygen(workdir)
    first = sk_path.read_bytes(), pk_path.read_bytes()
    sk_path.unlink(), pk_path.unlink()
    keygen(workdir)
    assert (sk_path.read_bytes(), pk_path.read_bytes()) == first


def test_keygen_fresh_seed_printed_and_reusable(workdir, capsys):
    assert run(["keygen", "--params", "toy-1",
                "--sk", "a.sk", "--pk", "a.pk"]) == EXIT_OK
    out = capsys.readouterr().out
    seed = re.search(r"^seed ([0-9a-f]{64})$", out, re.M).group(1)
    assert run(["keygen", "--params", "toy-1", "--seed", seed,
                "--sk", "b.sk", "--pk", "b.pk"]) == EXIT_OK
    assert (workdir / "a.sk").read_bytes() == (workdir / "b.sk").read_bytes()


def test_keygen_rejects_bad_seed(workdir, capsys):
    assert run(["keygen", "--params", "toy-1", "--seed", "f00"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_sign_verify_round_trip(workdir, capsys):
    sk_path, pk_path = keygen(workdir)
    msg = workdir / "message.txt"
    msg.write_bytes(b"hello syndrome world")
    assert run(["sign", "--key", str(sk_path), "--in", str(msg),
                "--out", "message.sig"]) == EXIT_OK
    assert "signature message.sig" in capsys.readouterr().out
    assert run(["verify", "--key", str(pk_path), "--in", str(msg),
                "--sig", "message.sig"]) == EXIT_OK
    assert "accepted" in capsys.readouterr().out


def test_sign_reports_exhausted_mask_redraws(workdir, capsys, monkeypatch):
    # no acceptable mask codeword is a signing failure, as an exhausted
    # counter is: a message on stderr, exit 1 and no signature file
    sk_path, _ = keygen(workdir)
    msg = workdir / "message.txt"
    msg.write_bytes(b"no mask")
    # the package exports the function sign, which hides the module
    monkeypatch.setattr(sys.modules["ldgmsig.sign"], "REDRAW_CAP", 0)
    assert run(["sign", "--key", str(sk_path), "--in", str(msg),
                "--out", "message.sig"]) == EXIT_FAIL
    assert "signing failed: no acceptable mask codeword" in capsys.readouterr().err
    assert not (workdir / "message.sig").exists()


def test_verify_rejects_tampered_message(workdir, capsys):
    sk_path, pk_path = keygen(workdir)
    msg = workdir / "message.txt"
    msg.write_bytes(b"original text")
    run(["sign", "--key", str(sk_path), "--in", str(msg),
         "--out", "m.sig"])
    capsys.readouterr()
    msg.write_bytes(b"tampered text")
    assert run(["verify", "--key", str(pk_path), "--in", str(msg),
                "--sig", "m.sig"]) == EXIT_FAIL
    assert "rejected: syndrome" in capsys.readouterr().err


def test_verify_rejects_foreign_set_signature(workdir, capsys, ldgm80):
    # a genuine ldgm-80 signature checked against a toy-1 key
    _, pk_path = keygen(workdir)
    msg = workdir / "m.txt"
    msg.write_bytes(b"cross-set")
    fileio.save_signature(workdir / "alien.sig", "ldgm-80",
                          sign(ldgm80[0], b"cross-set"))
    assert run(["verify", "--key", str(pk_path), "--in", str(msg),
                "--sig", "alien.sig"]) == EXIT_FAIL
    assert "ldgm-80" in capsys.readouterr().err


def test_verify_hostile_public_key_is_usage_error(workdir, capsys):
    sk_path, pk_path = keygen(workdir)
    msg = workdir / "m.txt"
    msg.write_bytes(b"x")
    assert run(["sign", "--key", str(sk_path), "--in", str(msg),
                "--out", "m.sig"]) == EXIT_OK
    # a version-1 key whose matrix header claims 2^31 x 2^31 bits, and a
    # current key cut off inside H' (13 header bytes, then 18 of H')
    for raw, reason in ((hostile_public_key(), "unsupported public key version 1"),
                        (pk_path.read_bytes()[:20], "truncated public parity check")):
        pk_path.write_bytes(raw)
        capsys.readouterr()
        assert run(["verify", "--key", str(pk_path), "--in", str(msg),
                    "--sig", "m.sig"]) == EXIT_USAGE
        assert reason in capsys.readouterr().err


def test_verify_dense_public_key_is_usage_error(workdir, capsys):
    # H' written as its dense expansion is a format error, not a crash
    # inside the verifier
    sk_path, pk_path = keygen(workdir)
    msg = workdir / "m.txt"
    msg.write_bytes(b"x")
    assert run(["sign", "--key", str(sk_path), "--in", str(msg),
                "--out", "m.sig"]) == EXIT_OK
    pk = fileio.load_public_key(pk_path)
    header = pk_path.read_bytes()[:13]  # magic, version and b"\x05toy-1"
    pk_path.write_bytes(header + pk.parity_check.expand().data.tobytes()
                        + pk.constraints.data.tobytes())
    capsys.readouterr()
    assert run(["verify", "--key", str(pk_path), "--in", str(msg),
                "--sig", "m.sig"]) == EXIT_USAGE
    assert "trailing data after public key" in capsys.readouterr().err


def test_missing_files_are_usage_errors(workdir, capsys):
    assert run(["sign", "--key", "absent.sk", "--in", "absent.txt",
                "--out", "x.sig"]) == EXIT_USAGE
    (workdir / "junk.sig").write_bytes(b"not a signature")
    sk_path, pk_path = keygen(workdir)
    msg = workdir / "m.txt"
    msg.write_bytes(b"x")
    assert run(["verify", "--key", str(pk_path), "--in", str(msg),
                "--sig", "junk.sig"]) == EXIT_USAGE
    capsys.readouterr()


def test_argparse_errors_map_to_usage(capsys):
    assert run([]) == EXIT_USAGE
    assert run(["attack", "meteor", "--params", "toy-1"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--budget", "--transcript"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_attack_rejects_non_positive_counts(workdir, capsys, flag, value):
    # the parser refuses the count before any attack runs
    assert run(["attack", "keyrec", "--params", "toy-1", "--seed", SEED_HEX,
                flag, value]) == EXIT_USAGE
    assert "must be positive" in capsys.readouterr().err
    assert not (workdir / "keyrec-outcome.json").exists()


def attack_record(capsys):
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1])


def test_attack_linearity(workdir, capsys):
    assert run(["attack", "linearity", "--params", "toy-1",
                "--seed", SEED_HEX, "--artifacts", "art"]) == EXIT_OK
    record = attack_record(capsys)
    assert record["attack"] == "linearity" and record["success"]
    assert (workdir / "art" / "linearity-outcome.json").exists()
    assert (workdir / "art" / "linearity-forgery.sig").exists()
    _, forged = fileio.load_signature(workdir / "art" / "linearity-forgery.sig")
    assert forged.e_prime.weight() == record["forged_weight"]


def test_attack_rightinv_gram_split(workdir, capsys):
    # canonical seed: singular Gram, attack reports and fails
    assert run(["attack", "rightinv", "--params", "toy-1",
                "--seed", SEED_HEX]) == EXIT_FAIL
    record = attack_record(capsys)
    assert record["gram_singular"]
    # a key with invertible Gram forges; at toy scale the bound is too
    # loose to reject it, so the attack reports success
    assert run(["attack", "rightinv", "--params", "toy-1",
                "--seed", GRAM_SEED.hex()]) == EXIT_OK
    record = attack_record(capsys)
    assert record["syndrome_ok"]


def test_attack_decompose(workdir, capsys):
    assert run(["attack", "decompose", "--params", "toy-1",
                "--seed", SEED_HEX, "--artifacts", "art"]) == EXIT_OK
    record = attack_record(capsys)
    assert record["w_l"] >= 1
    assert (workdir / "art" / "decompose-outcome.json").exists()


def test_attack_isdstrip(workdir, capsys):
    assert run(["attack", "isdstrip", "--params", "toy-1",
                "--seed", SEED_HEX, "--budget", "5000"]) == EXIT_OK
    record = attack_record(capsys)
    assert record["stripped_weight"] <= 4


def test_attack_keyrec_writes_words(workdir, capsys, toy):
    assert run(["attack", "keyrec", "--params", "toy-1",
                "--seed", SEED_HEX, "--artifacts", "art"]) == EXIT_OK
    record = attack_record(capsys)
    assert record["independent_found"] == toy.k
    words = (workdir / "art" / "keyrec-words.txt").read_text().splitlines()
    assert len(words) == toy.k
    for line in words:
        support = [int(tok) for tok in line.split()]
        assert len(support) <= toy.w_g * toy.m_s
        assert all(0 <= i < toy.n for i in support)
    stored = json.loads(
        (workdir / "art" / "keyrec-outcome.json").read_text())
    assert stored["success"]


def test_attack_outcome_json_is_replayable(workdir, capsys):
    # identical seeds give identical printed records
    args = ["attack", "isdstrip", "--params", "toy-1",
            "--seed", SEED_HEX, "--budget", "500"]
    assert run(args) == EXIT_OK
    first = attack_record(capsys)
    assert run(args) == EXIT_OK
    assert attack_record(capsys) == first


def test_module_entry_point():
    # `python -m ldgmsig.cli` reaches the same main() that the console
    # script names, and needs no install: put the package on the path
    package_root = str(Path(ldgmsig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "ldgmsig.cli"]

    proc = subprocess.run(command, input="", capture_output=True,
                          text=True, env=env)
    assert proc.returncode == EXIT_USAGE

    proc = subprocess.run(command + ["params", "info", "toy-1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK
    assert "name=toy-1" in proc.stdout


@pytest.mark.skipif(shutil.which("ldgmsig") is None,
                    reason="ldgmsig console script not on PATH "
                           "(pip install -e . installs it)")
def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ldgmsig.cli"],
        input="", capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE

    proc = subprocess.run(
        ["ldgmsig", "params", "info", "toy-1"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "name=toy-1" in proc.stdout
