"""Command-line frontend.

Subcommands: `params info <set>` prints the security report, `keygen`
writes a key pair, `sign`/`verify` run the file round trip, and
`attack` drives one of the cryptanalysis experiments, writing its
artifacts next to the printed record.

Exit codes: 0 on success or accept; 1 on verification reject, signing
failure, or attack failure; 2 on usage, format, or I/O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import attacks, fileio, keygen, params
from .digest import CounterExhausted
from .keygen import KeyGenerationError
from .rng import fresh_seed, parse_seed
from .sign import SigningError
from .sign import sign as sign_message
from .sign import verify as verify_signature

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

ATTACKS = ("linearity", "rightinv", "decompose", "isdstrip", "keyrec")


def _positive_int(text: str) -> int:
    if (value := int(text)) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ldgmsig",
                                  description=__doc__.split("\n\n")[1])
    sub = top.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="parameter set inspection")
    p_params.add_argument("action", choices=["info"])
    p_params.add_argument("set", help="parameter set name")

    p_keygen = sub.add_parser("keygen", help="generate a key pair")
    p_keygen.add_argument("--params", required=True, dest="set",
                          help="parameter set name")
    p_keygen.add_argument("--seed", help="64 hex chars; omitted = fresh "
                          "entropy, printed for reproducibility")
    p_keygen.add_argument("--sk", help="private key path (default <set>.sk)")
    p_keygen.add_argument("--pk", help="public key path (default <set>.pk)")

    p_sign = sub.add_parser("sign", help="sign a file")
    p_sign.add_argument("--key", required=True, help="private key path")
    p_sign.add_argument("--in", required=True, dest="infile",
                        help="message file")
    p_sign.add_argument("--out", required=True, help="signature path")

    p_verify = sub.add_parser("verify", help="verify a file signature")
    p_verify.add_argument("--key", required=True, help="public key path")
    p_verify.add_argument("--in", required=True, dest="infile",
                          help="message file")
    p_verify.add_argument("--sig", required=True, help="signature path")

    p_attack = sub.add_parser("attack", help="run an attack experiment")
    p_attack.add_argument("name", choices=ATTACKS)
    p_attack.add_argument("--params", required=True, dest="set",
                          help="parameter set name")
    p_attack.add_argument("--seed", help="64 hex chars; omitted = fresh "
                          "entropy, printed for reproducibility")
    p_attack.add_argument("--budget", type=_positive_int,
                          help="iteration/candidate budget "
                          "(isdstrip default 1000, keyrec default 10^6)")
    p_attack.add_argument("--transcript", type=_positive_int,
                          help="signatures to collect (default 48, "
                          "decompose 32)")
    p_attack.add_argument("--artifacts", default=".",
                          help="directory for outcome artifacts (default .)")
    return top


def _take_seed(args) -> bytes:
    if args.seed is None:
        seed = fresh_seed()
        print(f"seed {seed.hex()}")
        return seed
    return parse_seed(args.seed)


def _cmd_params(args) -> int:
    report = params.security_report(params.get_params(args.set))
    print(report.as_text())
    print(report.as_record())
    return EXIT_OK


def _cmd_keygen(args) -> int:
    ps = params.get_params(args.set)
    seed = _take_seed(args)
    sk, pk = keygen.assemble(ps, seed)
    sk_path = Path(args.sk if args.sk else f"{ps.name}.sk")
    pk_path = Path(args.pk if args.pk else f"{ps.name}.pk")
    fileio.save_private_key(sk_path, sk)
    fileio.save_public_key(pk_path, pk)
    print(f"private key {sk_path}")
    print(f"public key {pk_path} ({pk.payload_bits()} payload bits)")
    return EXIT_OK


def _cmd_sign(args) -> int:
    sk = fileio.load_private_key(args.key)
    message = Path(args.infile).read_bytes()
    try:
        sig = sign_message(sk, message)
    except (CounterExhausted, SigningError) as exc:
        print(f"signing failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    fileio.save_signature(args.out, sk.ps.name, sig)
    print(f"signature {args.out} (counter {sig.theta}, "
          f"weight {sig.e_prime.weight()})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    pk = fileio.load_public_key(args.key)
    message = Path(args.infile).read_bytes()
    name, sig = fileio.load_signature(args.sig)
    if name != pk.ps.name:
        print(f"rejected: signature for parameter set {name!r}, "
              f"key is {pk.ps.name!r}", file=sys.stderr)
        return EXIT_FAIL
    verdict = verify_signature(pk, message, sig)
    if verdict.accepted:
        print("accepted")
        return EXIT_OK
    print(f"rejected: {verdict.reason}", file=sys.stderr)
    return EXIT_FAIL


def _attack_outcome(args, ps, seed: bytes) -> attacks.AttackOutcome:
    """Run one attack; a budget or transcript of None takes its default."""
    transcript = args.transcript
    attack_seed = hashlib.sha256(seed + b"/attack").digest()
    target = b"attack-target"
    if args.name == "decompose":
        sk, pk, _, _ = attacks.build_permutation_keypair(ps, seed)
        position = 0
        tr = attacks.SignatureTranscript.collect(
            sk, 32 if transcript is None else transcript, zero_mask=True,
            want=lambda s: position in s.support())
        return attacks.support_decompose(pk, tr, args.budget)
    sk, pk = keygen.assemble(ps, seed)
    if args.name == "linearity":
        tr = attacks.SignatureTranscript.collect(
            sk, 48 if transcript is None else transcript, zero_mask=True)
        return attacks.linearity_forge(pk, tr, target)
    if args.name == "rightinv":
        return attacks.right_inverse_forge(pk, target)
    if args.name == "isdstrip":
        tr = attacks.SignatureTranscript.collect(sk, 1)
        budget = 1000 if args.budget is None else args.budget
        return attacks.isd_codeword_strip(tr.pairs[0], pk, budget,
                                          seed=attack_seed)
    budget = 10 ** 6 if args.budget is None else args.budget
    return attacks.low_weight_row_recovery(pk, ps.w_g * ps.m_s, budget,
                                           seed=attack_seed)


def _cmd_attack(args) -> int:
    ps = params.get_params(args.set)
    seed = _take_seed(args)
    outcome = _attack_outcome(args, ps, seed)
    art_dir = Path(args.artifacts)
    art_dir.mkdir(parents=True, exist_ok=True)
    record = outcome.as_dict()
    if outcome.forgery is not None:
        forgery_path = art_dir / f"{outcome.attack}-forgery.sig"
        fileio.save_signature(forgery_path, ps.name, outcome.forgery)
        record["forgery"] = str(forgery_path)
    if outcome.attack == "keyrec" and outcome.recovered:
        words_path = art_dir / "keyrec-words.txt"
        words_path.write_text("".join(
            " ".join(str(i) for i in word.support()) + "\n"
            for word in outcome.recovered))
        record["recovered"] = str(words_path)
    outcome_path = art_dir / f"{outcome.attack}-outcome.json"
    outcome_path.write_text(json.dumps(record, sort_keys=True) + "\n")
    record["artifacts"] = str(outcome_path)
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK if outcome.success else EXIT_FAIL


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "params":
            return _cmd_params(args)
        if args.command == "keygen":
            return _cmd_keygen(args)
        if args.command == "sign":
            return _cmd_sign(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_attack(args)
    # FormatError and ParameterError are ValueErrors
    except (ValueError, OSError, KeyGenerationError, CounterExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
