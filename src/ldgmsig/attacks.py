"""Executable attack demonstrations against the signature scheme.

Each attack is an experiment that either produces a forgery, which is
always fed back through the real verifier (the success flag agrees with
the verifier's verdict), or recovers structure from public data, in
which case success is judged against held-out signatures or explicit
budgets. The work counter is a coarse tally of the dominant operations
(solves, information sets, enumerated candidates), not wall time.

The module also houses the two ablation constructors used to show why
each countermeasure matters:

* zero-mask signing (the mask codeword c forced to zero) exposes the
  linearity of syndrome decoding, see linearity_forge;
* permutation masking (Q and S replaced by permutations) exposes the
  support of the private error, see support_decompose.

Both exist for analysis and tests only; normal key generation cannot
produce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .digest import CounterExhausted, digest_message, map_to_syndrome
from .gf2 import BitVector, DenseMatrix, QcMatrix, SingularMatrixError
from .keygen import PrivateKey, PublicKey, assemble_from_parts, generate_systematic
from .params import ParameterSet
from .rng import HashStream, fresh_seed
from .sign import Signature, sign_trace, verify

__all__ = [
    "SignatureTranscript",
    "AttackOutcome",
    "build_permutation_keypair",
    "linearity_forge",
    "right_inverse_gram",
    "right_inverse_forge",
    "support_decompose",
    "isd_codeword_strip",
    "low_weight_row_recovery",
]

KEYREC_MAX_LENGTH = 1 << 12


@dataclass
class SignatureTranscript:
    """Attacker's view of a signing oracle: (s, e') pairs."""

    pairs: list[tuple[BitVector, BitVector]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.pairs)

    @classmethod
    def collect(cls, sk: PrivateKey, count: int, *, zero_mask: bool = False,
                prefix: bytes = b"transcript",
                want=None) -> "SignatureTranscript":
        """Sign distinct messages until `count` pairs are gathered.

        Messages whose counter search exhausts are skipped; the syndrome
        in each pair is recomputable from public data alone, so this is
        exactly what a transcript eavesdropper sees. An optional `want`
        predicate on the syndrome keeps only matching pairs, modelling a
        chosen-message attacker who preselects messages by their public
        syndrome (the digest map needs no key material).
        """
        pairs = []
        i = 0
        cap = (40 * count + 256) * (8 if want is not None else 1)
        while len(pairs) < count:
            if i > cap:
                raise CounterExhausted(
                    f"could not gather {count} signatures in {i} messages")
            msg = prefix + b"-%d" % i
            i += 1
            try:
                sig, trace = sign_trace(sk, msg, zero_mask=zero_mask)
            except CounterExhausted:
                continue
            if want is not None and not want(trace.syndrome):
                continue
            pairs.append((trace.syndrome, sig.e_prime))
        return cls(pairs)


@dataclass
class AttackOutcome:
    attack: str
    success: bool
    work: int
    details: dict
    forgery: Signature | None = None
    recovered: object | None = None

    def as_dict(self) -> dict:
        out = {"attack": self.attack, "success": self.success, "work": self.work}
        out.update(self.details)
        return out


def _permutation_grid(perm: np.ndarray) -> QcMatrix:
    """Permutation matrix with its row-i bit at column perm[i], p = 1."""
    grid = QcMatrix.zeros(perm.size, perm.size, 1)
    grid.first_rows[np.arange(perm.size), perm, 0] = 1
    return grid


def build_permutation_keypair(ps: ParameterSet, seed: bytes):
    """Ablation key pair with Q = P1, S = P2 (both permutations).

    G and H are generated normally; the weight control degenerates to
    a permutation (a = b = 0, T = P1) and the scrambler to P2, so
    H' = P1^T H P2^T. A permutation of the n bits does not respect the
    circulant blocks, so every matrix of this key is a p = 1 grid, G
    and H regrouped from their blocks of p. Returns (sk, pk, pi1, pi2)
    where pi1, pi2 give row -> column of the set bit in P1, P2.
    """
    if ps.m_t != 1:
        raise ValueError("permutation ablation needs m_t = 1")
    stream = HashStream(seed)
    g, h = generate_systematic(ps, stream)
    pi1 = np.asarray(stream.substream(b"perm-q").permutation(ps.r))
    pi2 = np.asarray(stream.substream(b"perm-s").permutation(ps.n))
    p1, p2 = _permutation_grid(pi1), _permutation_grid(pi2)
    zeros = DenseMatrix(ps.z, ps.r)
    sk, pk = assemble_from_parts(
        ps, seed, QcMatrix.from_dense(g.expand()), QcMatrix.from_dense(h.expand()),
        zeros, zeros, p1, p1.transpose(), p2, p2.transpose())
    return sk, pk, pi1, pi2


def _stack_packed(vectors: list[BitVector]) -> np.ndarray:
    return np.stack([v.data for v in vectors])


def linearity_forge(pk: PublicKey, transcript: SignatureTranscript,
                    message: bytes) -> AttackOutcome:
    """Forge by expressing the target syndrome as a combination of
    observed syndromes and combining the matching signatures.

    Against the zero-mask ablation this is exact: signatures are linear
    in the syndrome, so the combination has weight <= m_t w m_s and
    passes. Against the masked signer the same combination still meets
    the syndrome equation, but every combined term drags its own mask
    codeword along.
    """
    ps = pk.ps
    if transcript.count == 0:
        return AttackOutcome("linearity", False, 0, {"no_solution": True,
                                                     "transcript": 0})
    syn_bits = np.stack([np.unpackbits(s.data, count=ps.r, bitorder="little")
                         for s, _ in transcript.pairs], axis=1)
    syn_matrix = DenseMatrix.from_bits(syn_bits)
    sig_rows = _stack_packed([e for _, e in transcript.pairs])
    h = digest_message(message, ps)
    work = 0
    for theta in range(1 << ps.y):
        target = map_to_syndrome(h, theta, ps)
        work += 1
        coeff = gf2.solve(syn_matrix, target)
        if coeff is None:
            continue
        support = coeff.support()
        forged = Signature(theta, BitVector(ps.n, gf2._rows_xor(sig_rows, support)))
        verdict = verify(pk, message, forged)
        return AttackOutcome(
            "linearity", verdict.accepted, work,
            {"theta": theta, "terms": len(support),
             "combination": tuple(int(i) for i in support),
             "forged_weight": forged.e_prime.weight(),
             "weight_bound": ps.sig_weight_bound,
             "reject_reason": verdict.reason},
            forgery=forged)
    return AttackOutcome("linearity", False, work,
                         {"no_solution": True, "transcript": transcript.count})


def right_inverse_gram(pk: PublicKey):
    """(H' H'^T)^-1, the reusable half of the right-inverse forgery.

    Raises SingularMatrixError when the Gram matrix is singular; the
    caller reports and stops, since other right-inverses exist but this
    construction does not reach them.
    """
    gram = gf2.multiply(pk.parity_check, gf2.transpose(pk.parity_check))
    return gf2.invert(gram)


def right_inverse_forge(pk: PublicKey, message: bytes,
                        gram_inv=None) -> AttackOutcome:
    """Forge f = (H'^T (H' H'^T)^-1 s)^T for the target digest.

    f satisfies the syndrome equation by construction but behaves like
    a random solution, with weight near r/2, far above the bound near
    r/3; the outcome records the verifier rejecting on weight. Pass a
    precomputed gram_inv (from right_inverse_gram) to amortize repeated
    forgeries under one key.
    """
    ps = pk.ps
    if gram_inv is None:
        try:
            gram_inv = right_inverse_gram(pk)
        except SingularMatrixError:
            return AttackOutcome("rightinv", False, 1, {"gram_singular": True})
    h = digest_message(message, ps)
    s_hat = map_to_syndrome(h, 0, ps)
    lifted = gf2.multiply(gram_inv, s_hat)
    f = BitVector(ps.n, gf2._rows_xor(pk.parity_rows(), lifted.support()))
    parity = gf2._parity_rows(pk.parity_rows(), f.data)
    syndrome_ok = np.packbits(parity.astype(np.uint8),
                              bitorder="little").tobytes() == s_hat.to_bytes()
    forged = Signature(0, f)
    verdict = verify(pk, message, forged)
    return AttackOutcome(
        "rightinv", verdict.accepted, 1,
        {"syndrome_ok": bool(syndrome_ok), "forged_weight": f.weight(),
         "weight_bound": ps.sig_weight_bound, "reject_reason": verdict.reason},
        forgery=forged)


def support_decompose(pk: PublicKey, transcript: SignatureTranscript,
                      budget: int | None = None) -> AttackOutcome:
    """Undo permutation masking by intersecting syndrome supports.

    ANDing the transcript syndromes leaves an intersection vector of
    weight w_L >= 1 when the attacker preselected messages sharing
    syndrome positions. The signature positions tied to those surviving
    syndrome bits fire in (nearly) every transcript entry, so they are
    flagged by frequency: positions whose count exceeds the mean by 3
    standard deviations, at most m per surviving bit. The last quarter
    of the transcript is held out, and success means at least one
    flagged position that appears in at least half of the held-out
    signatures. Failure modes: the intersection vanishes (w_L = 0), or
    no position stands out (the masked, non-permutation scheme).
    """
    ps = pk.ps
    pairs = transcript.pairs[:budget] if budget else list(transcript.pairs)
    if len(pairs) < 4:
        # a single sample intersects to s itself (w_l = w): far too many
        # candidate signature positions per surviving bit to tell apart
        inter = np.ones(ps.r, dtype=bool) if pairs else np.zeros(ps.r, bool)
        for s, _ in pairs:
            inter &= np.unpackbits(s.data, count=ps.r,
                                   bitorder="little").astype(bool)
        return AttackOutcome("decompose", False, len(pairs),
                             {"reason": "transcript too small",
                              "w_l": int(inter.sum()),
                              "transcript": len(pairs)})
    split = max(2, (3 * len(pairs)) // 4)
    train, holdout = pairs[:split], pairs[split:]
    inter = np.ones(ps.r, dtype=bool)
    freq = np.zeros(ps.n, dtype=np.int64)
    for s, e in train:
        inter &= np.unpackbits(s.data, count=ps.r, bitorder="little").astype(bool)
        freq += np.unpackbits(e.data, count=ps.n, bitorder="little")
    surviving = [int(j) for j in np.flatnonzero(inter)]
    w_l = len(surviving)
    if w_l == 0:
        return AttackOutcome("decompose", False, len(train),
                             {"reason": "syndrome intersection vanished",
                              "w_l": 0, "transcript": len(pairs)})
    threshold = freq.mean() + 3 * freq.std()
    flagged = np.flatnonzero(freq > threshold)
    flagged = flagged[np.argsort(freq[flagged])[::-1]][: ps.m * w_l]
    flagged = [int(v) for v in flagged]
    predicted = hits = 0
    for _, e in holdout:
        e_bits = np.unpackbits(e.data, count=ps.n, bitorder="little")
        for pos in flagged:
            predicted += 1
            hits += int(e_bits[pos])
    hit_rate = hits / predicted if predicted else 0.0
    success = bool(flagged) and predicted > 0 and hit_rate >= 0.5
    return AttackOutcome(
        "decompose", success, len(train),
        {"w_l": w_l, "positions_flagged": len(flagged),
         "holdout_predictions": predicted,
         "holdout_hit_rate": round(hit_rate, 4), "transcript": len(pairs)},
        recovered={"syndrome_positions": surviving,
                   "signature_positions": flagged})


def _public_bits(pk: PublicKey) -> np.ndarray:
    rows = pk.parity_rows()
    return np.unpackbits(rows, axis=1, count=pk.ps.n, bitorder="little")


def isd_codeword_strip(entry: tuple[BitVector, BitVector], pk: PublicKey,
                       budget: int, *, seed: bytes | None = None) -> AttackOutcome:
    """Strip the mask codeword from one signature by information sets.

    Each iteration guesses a size-k error-free coordinate set of e',
    solves for the public codeword c'' agreeing with e' there, and
    succeeds when weight(e' + c'') <= m_t m_s w, exposing a low-weight
    error e''. Singular coordinate sets are redrawn without consuming
    budget. Success odds per iteration are about
    C(n - m_t m_s w, k) / C(n, k), see params.isd_escape_log2.
    """
    ps = pk.ps
    _, e_prime = entry
    stream = HashStream(seed if seed is not None else fresh_seed())
    bits = _public_bits(pk)
    e_bits = np.unpackbits(e_prime.data, count=ps.n, bitorder="little")
    bound = ps.m * ps.w
    if e_prime.weight() <= bound:
        # already below the stripped bound: c'' = 0 works outright
        return AttackOutcome(
            "isdstrip", True, 0,
            {"stripped_weight": e_prime.weight(), "bound": bound,
             "iterations": 0, "redraws": 0},
            recovered=e_prime)
    all_cols = np.arange(ps.n)
    iterations = 0
    redraws = 0
    while iterations < budget:
        info = np.asarray(sorted(stream.distinct(ps.k, ps.n)))
        rest = np.setdiff1d(all_cols, info, assume_unique=True)
        try:
            h_rest_inv = DenseMatrix.from_bits(bits[:, rest]).invert()
        except SingularMatrixError:
            redraws += 1
            if redraws > 50 * budget + 50:
                break
            continue
        iterations += 1
        rhs_bits = ((bits[:, info] @ e_bits[info]) & 1).astype(np.uint8)
        rhs = BitVector.from_bytes(
            ps.r, np.packbits(rhs_bits, bitorder="little").tobytes())
        solution = h_rest_inv.mul_vec(rhs)
        cw_bits = np.zeros(ps.n, dtype=np.uint8)
        cw_bits[info] = e_bits[info]
        cw_bits[rest] = np.unpackbits(solution.data, count=ps.r,
                                      bitorder="little")
        stripped = e_bits ^ cw_bits
        weight = int(stripped.sum())
        if weight <= bound:
            e_low = BitVector.from_support(ps.n, np.nonzero(stripped)[0])
            return AttackOutcome(
                "isdstrip", True, iterations,
                {"stripped_weight": weight, "bound": bound,
                 "iterations": iterations, "redraws": redraws},
                recovered=e_low)
    return AttackOutcome("isdstrip", False, iterations,
                         {"iterations": iterations, "redraws": redraws,
                          "bound": bound})


def low_weight_row_recovery(pk: PublicKey, target_weight: int, budget: int,
                            *, seed: bytes | None = None) -> AttackOutcome:
    """Recover a sparse generator of the public code (toy scale only).

    Lee-Brickell iteration with an enumeration depth of 2: for each
    information set, codewords with at most 2 nonzero information
    symbols are enumerated and kept when their weight is at or below
    the target. Succeeds once k independent low-weight codewords are
    banked; the budget counts enumerated candidates.
    """
    ps = pk.ps
    if ps.n > KEYREC_MAX_LENGTH:
        raise ValueError(f"refusing length {ps.n} > {KEYREC_MAX_LENGTH}: "
                         "low-weight search is a toy-scale demonstration")
    stream = HashStream(seed if seed is not None else fresh_seed())
    bits = _public_bits(pk)
    all_cols = np.arange(ps.n)
    found_bits: list[np.ndarray] = []
    found: list[BitVector] = []

    def bank(word_bits: np.ndarray) -> None:
        stacked = np.stack(found_bits + [word_bits])
        if gf2.rank(DenseMatrix.from_bits(stacked)) == len(found_bits) + 1:
            found_bits.append(word_bits.copy())
            found.append(BitVector(ps.n, np.packbits(word_bits,
                                                     bitorder="little")))

    work = 0
    redraws = 0
    while work < budget and len(found) < ps.k:
        info = np.asarray(sorted(stream.distinct(ps.k, ps.n)))
        rest = np.setdiff1d(all_cols, info, assume_unique=True)
        try:
            h_rest_inv = DenseMatrix.from_bits(bits[:, rest]).invert()
        except SingularMatrixError:
            redraws += 1
            if redraws > 50 * budget + 50:
                break
            continue
        # systematic generator: row t is the unit vector at info[t]
        # completed on `rest` by x_t = H_rest^-1 (column info[t] of H')
        unit_cols = DenseMatrix.from_bits(bits[:, info].T)  # row t = column info[t]
        completion = np.unpackbits(
            np.stack([h_rest_inv.mul_vec(unit_cols.row(t)).data
                      for t in range(ps.k)]),
            axis=1, count=ps.r, bitorder="little")
        for t in range(ps.k):
            if work >= budget or len(found) >= ps.k:
                break
            work += 1
            word = np.zeros(ps.n, dtype=np.uint8)
            word[info[t]] = 1
            word[rest] = completion[t]
            if word.sum() <= target_weight:
                bank(word)
        for t1 in range(ps.k):
            if work >= budget or len(found) >= ps.k:
                break
            for t2 in range(t1 + 1, ps.k):
                if work >= budget or len(found) >= ps.k:
                    break
                work += 1
                merged = completion[t1] ^ completion[t2]
                if 2 + int(merged.sum()) <= target_weight:
                    word = np.zeros(ps.n, dtype=np.uint8)
                    word[info[t1]] = 1
                    word[info[t2]] = 1
                    word[rest] = merged
                    bank(word)
    success = len(found) >= ps.k
    return AttackOutcome(
        "keyrec", success, work,
        {"independent_found": len(found), "needed": ps.k,
         "target_weight": target_weight, "redraws": redraws},
        recovered=found if success else None)
