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
  support of the private error, see support_decompose.  The
  permutations are shift permutations on the set's own grid, a permuted
  block identity with one cyclic shift per block row, so the ablation
  key is built with the same quasi-cyclic solves as a real one.

Both exist for analysis and tests only; normal key generation cannot
produce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import gf2
from .digest import CounterExhausted, digest_message, find_orthogonal, map_to_syndrome
from .gf2 import BitVector, DenseMatrix, QcMatrix, SingularMatrixError
from .keygen import PrivateKey, PublicKey, assemble_from_parts, generate_systematic
from .params import ParameterSet
from .rng import HashStream, fresh_seed
from .sign import Signature, _sign_syndrome, sign_trace, verify

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

# longest code the information-set attacks (isdstrip, keyrec) accept: each
# draw eliminates an r x n system, 4900 x 9800 at ldgm-80
ISD_MAX_LENGTH = 1 << 12


@dataclass
class SignatureTranscript:
    """Attacker's view of a signing oracle: (s, e') pairs."""

    pairs: list[tuple[BitVector, BitVector]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.pairs)

    @classmethod
    def collect(cls, sk: PrivateKey, count: int, *, zero_mask: bool = False,
                want=None) -> "SignatureTranscript":
        """Sign the messages b"transcript-0", b"transcript-1", ... until
        `count` pairs are gathered.

        Messages whose counter search exhausts are skipped; the syndrome
        in each pair is recomputable from public data alone, so this is
        exactly what a transcript eavesdropper sees. An optional `want`
        predicate on the syndrome keeps only matching pairs, modelling a
        chosen-message attacker who preselects messages by their public
        syndrome (the digest map needs no key material): only the
        messages that pass are signed.
        """
        ps = sk.ps
        pairs = []
        i = 0
        cap = (40 * count + 256) * (8 if want is not None else 1)
        while len(pairs) < count:
            if i > cap:
                raise CounterExhausted(
                    f"could not gather {count} signatures in {i} messages")
            msg = b"transcript-%d" % i
            i += 1
            try:
                if want is None:
                    sig, trace = sign_trace(sk, msg, zero_mask=zero_mask)
                else:
                    pub = find_orthogonal(digest_message(msg, ps), sk.constraints, ps)
                    if not want(pub.s):
                        continue
                    sig, trace = _sign_syndrome(sk, pub, zero_mask)
            except CounterExhausted:
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


def _shift_permutation(sub: HashStream, size: int, p: int):
    """A permutation of size * p bits that keeps the circulant grid: block
    row bi holds one block, at block column sigma[bi], shifted by s_bi.
    Returns the grid and its map pi, where row bi*p + u has its one at
    column pi[bi*p + u] = sigma[bi]*p + (u + s_bi) mod p."""
    sigma = sub.permutation(size)
    shifts = [sub.below(p) for _ in range(size)]
    grid = QcMatrix.grid(size, size, p, list(zip(range(size), sigma, shifts)))
    pi = [sigma[bi] * p + (u + s) % p for bi, s in enumerate(shifts) for u in range(p)]
    return grid, np.asarray(pi)


def build_permutation_keypair(ps: ParameterSet, seed: bytes):
    """Ablation key pair with Q = P1, S = P2 (both permutations).

    G and H are generated normally; the weight control degenerates to
    a permutation (a = b = 0, T = P1) and the scrambler to P2, so
    H' = P1^T H P2^T. P1 (r0 blocks) and P2 (n0 blocks) are shift
    permutations on the set's own p x p grid, a permuted block identity
    with one drawn shift per block row, so every solve is a product by
    a transpose. Returns (sk, pk, pi1, pi2) where pi1, pi2 give row ->
    column of the set bit in P1, P2.
    """
    if ps.m_t != 1:
        raise ValueError("permutation ablation needs m_t = 1")
    stream = HashStream(seed)
    g, h = generate_systematic(ps, stream)
    p1, pi1 = _shift_permutation(stream.substream(b"perm-q"), ps.r0, ps.p)
    p2, pi2 = _shift_permutation(stream.substream(b"perm-s"), ps.n0, ps.p)
    sk, pk = assemble_from_parts(ps, seed, g, h, DenseMatrix(ps.z, ps.r), p1, p2)
    return sk, pk, pi1, pi2


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
    sig_rows = np.stack([e.data for _, e in transcript.pairs])
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


def right_inverse_gram(pk: PublicKey) -> tuple[gf2.ColumnRotations, gf2.ColumnRotations]:
    """What every right-inverse forgery under pk multiplies by, built once
    from H''s first rows: (H' H'^T)^-1 and H'^T, each as rotated columns.

    Raises SingularMatrixError when the Gram matrix is singular; the
    caller reports and stops, since other right-inverses exist but this
    construction does not reach them.
    """
    h_t = pk.parity_check.transpose()
    gram = pk.parity_check.multiply(h_t)
    return gf2.ColumnRotations(gram.invert()), gf2.ColumnRotations(h_t)


def right_inverse_forge(pk: PublicKey, message: bytes,
                        gram_inv=None) -> AttackOutcome:
    """Forge f = (H'^T (H' H'^T)^-1 s)^T for the target digest.

    f satisfies the syndrome equation by construction but behaves like
    a random solution, with weight near r/2, far above the bound near
    r/3; the outcome records the verifier rejecting on weight. Pass a
    precomputed gram_inv (from right_inverse_gram) to amortize repeated
    forgeries under one key.  H' is never expanded: H'^T u is the XOR of
    the rotated columns of H'^T over the support of u.
    """
    ps = pk.ps
    if gram_inv is None:
        try:
            gram_inv = right_inverse_gram(pk)
        except SingularMatrixError:
            return AttackOutcome("rightinv", False, 1, {"gram_singular": True})
    h = digest_message(message, ps)
    s_hat = map_to_syndrome(h, 0, ps)
    gram_columns, h_t_columns = gram_inv
    f = h_t_columns.mul_vec(gram_columns.mul_vec(s_hat))
    syndrome_ok = pk.parity_columns().mul_vec(f) == s_hat
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
    standard deviations and half the training signatures, at most m per
    surviving bit. The second bar is the success rule's own, applied to
    the training part; without it sparse signatures (ldgm-80, where the
    3-sigma bar is below one count) flag every position seen once. The
    last quarter of the transcript is held out, and success means at
    least one flagged position that appears in at least half of the
    held-out signatures. Failure modes: the intersection vanishes
    (w_L = 0), or no position stands out (the masked, non-permutation
    scheme at toy-1).
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
    threshold = max(freq.mean() + 3 * freq.std(), len(train) / 2)
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
    """H' as 0/1 bits for the information-set attacks; refuses codes
    longer than ISD_MAX_LENGTH."""
    if pk.ps.n > ISD_MAX_LENGTH:
        raise ValueError(f"refusing length {pk.ps.n} > {ISD_MAX_LENGTH}: "
                         "information-set attacks are toy-scale demonstrations")
    rows = pk.parity_rows()
    return np.unpackbits(rows, axis=1, count=pk.ps.n, bitorder="little")


class _InformationSets:
    """Random size-k coordinate sets `info` of H' (as 0/1 bits) whose
    complement `rest` leaves H'_rest invertible.

    A singular H'_rest is redrawn without counting as an iteration; once
    the redraws in all pass 50 budget + 50, next() gives None.
    """

    def __init__(self, bits: np.ndarray, k: int, stream: HashStream, budget: int):
        self.bits, self.k, self.stream = bits, k, stream
        self.r, self.n = bits.shape
        self.cap = 50 * budget + 50
        self.redraws = 0

    def next(self):
        """(info, rest, A), or None past the redraw cap.

        A = H'_rest^-1 H'_info as r x k bits: eliminating [H'_rest |
        H'_info] on its first r columns reduces it to [I | A].
        """
        while True:
            drawn = self.stream.distinct(self.k, self.n)
            chosen = set(drawn)
            info = np.asarray(sorted(drawn))
            rest = np.asarray([c for c in range(self.n) if c not in chosen])
            work = gf2._pack_bits(self.bits[:, np.concatenate([rest, info])])
            _, rk = gf2._eliminate(work, self.r)
            if rk == self.r:
                return info, rest, gf2._unpack(work, self.n)[:, self.r:]
            self.redraws += 1
            if self.redraws > self.cap:
                return None


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
    sets = _InformationSets(bits, ps.k, stream, budget)
    iterations = 0
    while iterations < budget and (drawn := sets.next()) is not None:
        info, rest, a = drawn
        iterations += 1
        # e' plus the codeword that agrees with it on info: c''_rest = A e'_info
        stripped = e_bits.copy()
        stripped[info] = 0
        stripped[rest] ^= (a @ e_bits[info]) & 1
        weight = int(stripped.sum())
        if weight <= bound:
            e_low = BitVector.from_support(ps.n, np.nonzero(stripped)[0])
            return AttackOutcome(
                "isdstrip", True, iterations,
                {"stripped_weight": weight, "bound": bound,
                 "iterations": iterations, "redraws": sets.redraws},
                recovered=e_low)
    return AttackOutcome("isdstrip", False, iterations,
                         {"iterations": iterations, "redraws": sets.redraws,
                          "bound": bound})


class _SpanBasis:
    """Words (as ints, bit i for position i) kept in reduced form, one
    per leading bit, so that testing a new word for independence costs
    one reduction pass in place of a rank of the whole stack."""

    def __init__(self):
        self.rows: dict[int, int] = {}

    def add(self, word: int) -> bool:
        """Keep word and return True when it is independent of the words
        kept so far; it is exactly when it does not reduce to 0."""
        while word:
            lead = word.bit_length() - 1
            if lead not in self.rows:
                self.rows[lead] = word
                return True
            word ^= self.rows[lead]
        return False


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
    stream = HashStream(seed if seed is not None else fresh_seed())
    bits = _public_bits(pk)
    found: list[BitVector] = []
    span = _SpanBasis()

    def bank(word_bits: np.ndarray) -> None:
        packed = np.packbits(word_bits, bitorder="little")
        if span.add(int.from_bytes(packed.tobytes(), "little")):
            found.append(BitVector(ps.n, packed))

    sets = _InformationSets(bits, ps.k, stream, budget)
    work = 0
    while work < budget and len(found) < ps.k and (drawn := sets.next()) is not None:
        info, rest, a = drawn
        # systematic generator: row t is the unit vector at info[t]
        # completed on `rest` by column t of A = H'_rest^-1 H'_info
        completion = a.T
        # at most 2 nonzero information symbols: singles, then pairs
        for combo in chain(combinations(range(ps.k), 1), combinations(range(ps.k), 2)):
            if work >= budget or len(found) >= ps.k:
                break
            work += 1
            picks = list(combo)
            merged = np.bitwise_xor.reduce(completion[picks])
            if len(picks) + int(merged.sum()) <= target_weight:
                word = np.zeros(ps.n, dtype=np.uint8)
                word[info[picks]] = 1
                word[rest] = merged
                bank(word)
    success = len(found) >= ps.k
    return AttackOutcome(
        "keyrec", success, work,
        {"independent_found": len(found), "needed": ps.k,
         "target_weight": target_weight, "redraws": sets.redraws},
        recovered=found if success else None)
