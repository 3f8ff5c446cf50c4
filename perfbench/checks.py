"""Output checks, computed with the reference in `reference.py`.

Each function returns a list of problems, empty when the output is
right. The checks never compare against a stored copy of an earlier
run: they test the algebra the scheme promises.
"""

from __future__ import annotations

import numpy as np

from reference import ColumnTable, col_weights, dense, matmul, qc_row, rank, row_weights, vec_bits


class PublicView:
    """What the checks need of a public key: columns of H' and b."""

    def __init__(self, pk):
        self.ps = pk.ps
        self.columns = ColumnTable(pk.parity_check)
        self.constraints = dense(pk.constraints)
        # flipping e' where H' has a zero column leaves H' e'^T alone;
        # some toy-1 keys have such columns (see README, Findings)
        self.detectable = np.flatnonzero(self.columns.cols.any(axis=1))

    def syndrome_of(self, bits: np.ndarray) -> np.ndarray:
        """H' x^T for a 0/1 vector x."""
        return self.columns.times(np.flatnonzero(bits))


def check_key(sk, pk, rows=None) -> list[str]:
    """Private weights, the public payload size, and H' (g S^T)^T = 0.

    `rows` names the rows g of G to test; None tests all of them with
    dense products, which only toy sizes afford.
    """
    ps = sk.ps
    problems = []
    gw = row_weights(sk.generator)
    if not np.all(gw == ps.w_g):
        problems.append(f"G row weights {sorted(set(gw.tolist()))}, expected {ps.w_g}")
    sw = col_weights(sk.scrambler)
    if sw.max() > ps.m_s:
        problems.append(f"S column weight {int(sw.max())} exceeds m_s = {ps.m_s}")
    h = pk.parity_check
    payload = h.first_rows.shape[0] * h.first_rows.shape[1] * h.p
    if payload != ps.r * ps.n // ps.p or pk.payload_bits() != payload:
        problems.append(f"public payload {payload} bits "
                        f"(key reports {pk.payload_bits()}), expected {ps.r * ps.n // ps.p}")
    if rows is None:
        gs = matmul(dense(sk.generator), dense(sk.scrambler).T)
        bad = int(matmul(dense(h), gs.T).any(axis=0).sum())
    else:
        s_cols = ColumnTable(sk.scrambler)
        view = PublicView(pk)
        bad = 0
        for i in rows:
            x = s_cols.times(np.flatnonzero(qc_row(sk.generator, int(i))))
            bad += bool(view.syndrome_of(x).any())
    if bad:
        problems.append(f"{bad} rows g of G with H' (g S^T)^T != 0")
    return problems


def expected_syndrome(ps, message: bytes, theta: int) -> np.ndarray:
    from ldgmsig.digest import digest_message, map_to_syndrome
    return vec_bits(map_to_syndrome(digest_message(message, ps), theta, ps))


def signature_verdict(view: PublicView, message: bytes, sig) -> list[str]:
    """Why the reference would reject (theta, e'); empty means accept."""
    ps = view.ps
    problems = []
    e = vec_bits(sig.e_prime)
    if e.sum() > ps.sig_weight_bound:
        problems.append(f"weight {int(e.sum())} above bound {ps.sig_weight_bound}")
    s = expected_syndrome(ps, message, sig.theta)
    if s.sum() != ps.w:
        problems.append(f"syndrome weight {int(s.sum())}, expected w = {ps.w}")
    if matmul(view.constraints, s).any():
        problems.append("b s != 0")
    if not np.array_equal(view.syndrome_of(e), s):
        problems.append("H' e'^T != s")
    return problems


def flipped(sig, position: int):
    """The signature with bit `position` of e' flipped."""
    from ldgmsig.gf2 import BitVector
    from ldgmsig.sign import Signature
    e = sig.e_prime
    return Signature(sig.theta, e.xor(BitVector.from_support(e.length, [position])))


def check_rightinv_forgery(view: PublicView, message: bytes, outcome) -> list[str]:
    """A right-inverse forgery meets H' f^T = s; its flag follows its weight."""
    ps = view.ps
    f = vec_bits(outcome.forgery.e_prime)
    problems = []
    if not np.array_equal(view.syndrome_of(f), expected_syndrome(ps, message, 0)):
        problems.append("right-inverse forgery misses H' f^T = s")
    if outcome.success != (f.sum() <= ps.sig_weight_bound):
        problems.append(f"right-inverse flag {outcome.success} with weight "
                        f"{int(f.sum())} against bound {ps.sig_weight_bound}")
    return problems


def check_attack(name: str, outcome, sk, pk, *, message: bytes,
                 strip_entry=None, permutation_key=None) -> list[str]:
    """Does the attack's success flag agree with what it returned?

    An attack that honestly fails (a singular Gram matrix, no strip in
    budget) is a correct outcome; a failure that the reference can
    refute, or a success it cannot confirm, is a problem.
    """
    ps = pk.ps
    view = PublicView(pk)
    if name == "linearity":
        if outcome.forgery is None:
            return ["linearity claims success without a forgery"] if outcome.success else []
        accepted = not signature_verdict(view, message, outcome.forgery)
        if accepted != outcome.success:
            return [f"linearity flag {outcome.success}, reference verdict {accepted}"]
        return []
    if name == "rightinv":
        if outcome.details.get("gram_singular"):
            h = dense(pk.parity_check)
            if rank(matmul(h, h.T)) == ps.r:
                return ["rightinv reports a singular Gram matrix that has full rank"]
            return ["rightinv claims success on a singular Gram matrix"] if outcome.success else []
        return check_rightinv_forgery(view, message, outcome)
    if name == "isdstrip":
        if not outcome.success:
            return []
        e_low = vec_bits(outcome.recovered)
        e_prime = vec_bits(strip_entry[1])
        problems = []
        if e_low.sum() > ps.m * ps.w:
            problems.append(f"stripped error weight {int(e_low.sum())} above {ps.m * ps.w}")
        if view.syndrome_of(e_prime ^ e_low).any():
            problems.append("e' + e'' is not a public codeword")
        return problems
    if name == "keyrec":
        if not outcome.success:
            return []
        words = np.stack([vec_bits(w) for w in outcome.recovered])
        target = ps.w_g * ps.m_s
        problems = []
        if len(words) != ps.k or rank(words) != ps.k:
            problems.append(f"keyrec words have rank {rank(words)} of {len(words)}, need {ps.k}")
        if words.sum(axis=1).max() > target:
            problems.append(f"keyrec word weight {int(words.sum(axis=1).max())} above {target}")
        if matmul(dense(pk.parity_check), words.T).any():
            problems.append("keyrec word outside the public code")
        return problems
    if name == "decompose":
        if not outcome.success:
            return []
        psk = permutation_key
        t, s = dense(psk.sparse_map), dense(psk.scrambler)
        tracked = set()
        for j in outcome.recovered["syndrome_positions"]:
            e = np.zeros(ps.n, dtype=np.uint8)
            e[ps.k:] = t[:, j]
            tracked.update(np.flatnonzero(matmul(s, e)).tolist())
        if not tracked.intersection(outcome.recovered["signature_positions"]):
            return ["decompose flags no signature position that tracks a surviving syndrome bit"]
        return []
    raise ValueError(f"unknown attack {name}")
