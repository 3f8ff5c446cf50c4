"""Key generation: sparse generator, systematic parity check, weight
control, scrambler, and the published parity-check matrix.

Keygen draws

* G: k x n generator with rows of weight exactly w_g;
* H = [X | I_r]: systematic parity check of the code generated by G;
* Q = R + T: the weight-control matrix, where R = a^T b has rank at
  most z and T is sparse with row/column weight m_t, so Q s = T s
  whenever b s = 0;
* S: sparse non-singular scrambler with column weight at most m_s.

The public side is H' = Q^-1 H S^-1 together with b, which may be
published: it only describes which syndromes the signer accepts.  The
private key is the signing state alone, G, b, T and S, with the seed
that names it; H, a and Q^-1 H exist only while keygen runs, and the
stages below re-derive them from the seed.  Neither Q^-1 nor S^-1 is
ever formed.

Every key matrix (G, H, T, S, Q^-1 H and H') is a QcMatrix, a grid of
p x p circulants; with p = 1 each block is one bit and the grid is a
plain binary matrix.  Only the z x r factors a and b are DenseMatrix.
They are constant on each block of p columns.

Every grid is built by QcMatrix.grid, from (block row, block column,
shift) entries or from block-level bits; nothing here sets first-row
bits by hand.

Every random draw comes from a HashStream substream labelled by purpose
and attempt number, so a master seed reproduces a key pair bit for bit.
One redraw loop, _redraw, serves every stage (information set,
constraints, Q and S invertibility): it redraws on a singular or
rejected draw and, after RETRY_CAP attempts, raises KeyGenerationError
naming what ran out rather than looping forever.
A sparse-map weight m_t or scrambler weight m_s that no draw of T or S
can make invertible is rejected before the first draw (see
_sample_sparse_map and _sample_scrambler).

No QC matrix is inverted: QcMatrix.solve returns A^-1 B from one
Gauss-Jordan over GF(2)[x]/(x^p - 1) on the grid [A | B], and a singular
A makes the stage redraw.  The systematic form is X = (L^-1 R)^T for
G = [L | R]; H' is the solve of S^T against (Q^-1 H)^T, transposed.

Q^-1 H never eliminates an r x r system: binary Woodbury gives
Q^-1 = T^-1 + U, U = (T^-1 a^T) M^-1 (b T^-1), M = I_z + b T^-1 a^T.
A circulant times a block-constant vector is that vector times the
circulant's weight mod 2, so T^-1 acts on a^T and b through T(1)^-1,
T(1) being the r0 x r0 bit matrix of T's block weights mod 2.  U is
then constant on every block, so U H is U's block bits times H(1), and
M degenerates to I_z + (p mod 2) * (block-level product); for even p
the matrix Q is unconditionally invertible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import DenseMatrix, QcMatrix, SingularMatrixError
from .params import ParameterSet
from .rng import HashStream

__all__ = [
    "KeyGenerationError",
    "InformationSetError",
    "RETRY_CAP",
    "PrivateKey",
    "PublicKey",
    "WeightControl",
    "generate_systematic",
    "derive_systematic_parity",
    "generate_weight_control",
    "generate_scrambler",
    "assemble",
    "assemble_from_parts",
]

RETRY_CAP = 64


class KeyGenerationError(RuntimeError):
    pass


class InformationSetError(KeyGenerationError):
    """Leftmost k x k block of G is singular; the caller redraws G."""


@dataclass
class WeightControl:
    """Q = R + T factors: a, b are stored expanded to z x r."""

    lowrank_left: DenseMatrix
    constraints: DenseMatrix
    sparse_map: QcMatrix


def _at_one(m: QcMatrix) -> np.ndarray:
    """M(1), the bit matrix of M's block weights mod 2: x -> 1 is a ring
    homomorphism, so M(1) is singular whenever M is."""
    return np.bitwise_count(m.first_rows).sum(axis=-1, dtype=np.int64) & 1


def _block_constant(bits: np.ndarray, p: int) -> QcMatrix:
    """The grid whose block (i, j) is all ones where bits[i, j] is 1 and
    zero elsewhere."""
    return QcMatrix.grid(*bits.shape, p, bits=np.broadcast_to(bits[:, :, None], (*bits.shape, p)))


def _redraw(what: str, draw):
    """draw(attempt) for attempt = 0, 1, ... until it returns something
    other than None (a rejected draw) without meeting a singular matrix;
    KeyGenerationError naming what ran out after RETRY_CAP attempts."""
    for attempt in range(RETRY_CAP):
        try:
            out = draw(attempt)
        except (SingularMatrixError, InformationSetError):
            continue
        if out is not None:
            return out
    raise KeyGenerationError(f"no {what} in {RETRY_CAP} attempts")


class PrivateKey:
    """The signing state: G for the mask, b for the counter scan, T for
    T s and S for the scatter.  H, a and Q^-1 H exist only while keygen
    runs; the seed names the key and re-derives them."""

    def __init__(self, ps, seed, generator, constraints, sparse_map, scrambler):
        self.ps = ps
        self.seed = seed
        self.generator = generator
        self.constraints = constraints
        self.sparse_map = sparse_map
        self.scrambler = scrambler
        self._gen_rows = None
        self._scr_cols = None
        self._map_cols = None

    def generator_rows(self) -> gf2.ColumnSupports:
        """Supports of the rows of G, built on first use from G's first
        rows; the mask is the XOR of a few rows."""
        if self._gen_rows is None:
            self._gen_rows = gf2.ColumnSupports.of_rows(self.generator)
        return self._gen_rows

    def scrambler_columns(self) -> gf2.ColumnSupports:
        """Supports of the columns of S (the rows of S^T), built on first
        use from S's first rows, for the scatter e' = (e + c) S^T."""
        if self._scr_cols is None:
            self._scr_cols = gf2.ColumnSupports(self.scrambler)
        return self._scr_cols

    def map_support(self, s: gf2.BitVector) -> np.ndarray:
        """Sorted support of T s, from the column supports of T (built on
        first use): s is sparse, so T s is the parity of a few columns."""
        if self._map_cols is None:
            self._map_cols = gf2.ColumnSupports(self.sparse_map)
        return self._map_cols.sum_columns(gf2._support(s)).nonzero()[0]


class PublicKey:
    def __init__(self, ps, parity_check, constraints, qc=True):
        self.ps = ps
        self.parity_check = parity_check
        self.constraints = constraints
        # every key is quasi-cyclic; the flag stays for callers that pass
        # it (perfbench/test_checks.py) and nothing reads it
        self.qc = qc
        self._columns = None

    def parity_rows(self) -> np.ndarray:
        """Packed dense rows of H', expanded afresh on every call and held
        by no one: the toy-size information-set attacks' bit matrix.
        Verification and the right-inverse lift read the first rows."""
        return self.parity_check.expand().data

    def parity_columns(self) -> gf2.ColumnRotations:
        """H' as the rotated column 0 of each block, built on first use
        from the first rows, for the syndrome H' e'^T of verification."""
        if self._columns is None:
            self._columns = gf2.ColumnRotations(self.parity_check)
        return self._columns

    def payload_bits(self) -> int:
        return self.parity_check.payload_bits()


def generate_systematic(ps: ParameterSet, stream: HashStream):
    """(G, H): G has k rows of weight w_g and is redrawn until its
    leftmost k x k block is invertible, which also proves rank k."""
    if ps.w_g > ps.n:
        raise KeyGenerationError(f"row weight {ps.w_g} exceeds length {ps.n}")
    if ps.w_g == ps.n and ps.k > 1:
        raise KeyGenerationError("weight-n rows cannot be independent beyond one row")

    def draw(attempt):
        g = _sample_generator(ps, stream.substream(b"ldgm-rows", attempt))
        return g, derive_systematic_parity(g)
    return _redraw("systematic generator", draw)


def _sample_generator(ps, sub):
    # w_g ones spread over the concatenated first rows of each block row
    return QcMatrix.grid(ps.k0, ps.n0, ps.p, [
        (bi, *divmod(pos, ps.p))
        for bi in range(ps.k0) for pos in sub.distinct(ps.w_g, ps.n)])


def derive_systematic_parity(g: QcMatrix) -> QcMatrix:
    """H = [X | I_r] with G H^T = 0, G = [L | R]: L X^T = R, so X is the
    solve of L against R, transposed.  Raises InformationSetError when L
    is singular, at once when L(1) already is."""
    k0 = g.block_rows
    left = QcMatrix(k0, k0, g.p, g.first_rows[:, :k0])
    right = QcMatrix(k0, g.block_cols - k0, g.p, g.first_rows[:, k0:])
    if DenseMatrix.from_bits(_at_one(left)).rank() < k0:
        raise InformationSetError("leftmost k x k block is singular at x = 1")
    try:
        x = left.solve(right).transpose()
    except SingularMatrixError as e:
        raise InformationSetError(str(e)) from None
    h = np.concatenate([x.first_rows, QcMatrix.identity(x.block_rows, g.p).first_rows], axis=1)
    return QcMatrix(x.block_rows, g.block_cols, g.p, h)


def _expand_block_bits(bits: np.ndarray, p: int) -> DenseMatrix:
    return DenseMatrix.from_bits(np.repeat(bits, p, axis=1))


def _random_bits(sub, rows, cols):
    raw = np.frombuffer(b"".join(sub.read((cols + 7) // 8) for _ in range(rows)), np.uint8)
    return np.unpackbits(raw.reshape(rows, -1), axis=1, count=cols, bitorder="little")


def _sample_constraints(ps, sub):
    """(a_bits, b_bits) at block level, z x r0: b has no all-zero column
    and full rank z, a has no all-zero row."""
    z, ncols = ps.z, ps.r0

    def draw_b(_):
        # column j of b holds the bits of a nonzero z-bit pattern
        patterns = [1 + sub.below((1 << z) - 1) if z > 1 else 1 for _ in range(ncols)]
        b = ((np.array(patterns) >> np.arange(z)[:, None]) & 1).astype(np.uint8)
        return b if DenseMatrix.from_bits(b).rank() == z else None

    def draw_a(_):
        a = _random_bits(sub, z, ncols)
        return a if a.any(axis=1).all() else None

    b = _redraw("full-rank constraint matrix", draw_b)
    return _redraw("constraint left factor without a zero row", draw_a), b


def _sample_sparse_map(ps, sub):
    """T with row and column weight exactly m_t: m_t layers of one
    permutation composed with cyclic offsets, so the layer positions in
    any row (and column) never collide.

    Mapping each circulant to its weight mod 2 sends T to
    T(1) = (I + C + ... + C^(m_t - 1)) P_sigma, with C the cyclic shift
    on r0 blocks, and a unit determinant survives that map.  So when
    1 + x + ... + x^(m_t - 1) shares a factor with x^r0 - 1, as it does
    for every even m_t, no draw of T is invertible and none is made.
    """
    size = ps.r0
    if ps.m_t > size:
        raise KeyGenerationError("sparse-map weight exceeds block count")
    if gf2._poly_xgcd((1 << ps.m_t) - 1, (1 << size) | 1)[0] != 1:
        raise KeyGenerationError(
            f"sparse map is singular for every draw: m_t = {ps.m_t} makes "
            f"1 + x + ... + x^{ps.m_t - 1} share a factor with x^{size} - 1")
    sigma = sub.permutation(size)
    # layer j puts row i's one in block column sigma[(i + j) mod size]
    return QcMatrix.grid(size, size, ps.p, [
        (i, sigma[(i + j) % size], sub.below(ps.p))
        for j in range(ps.m_t) for i in range(size)])


def generate_weight_control(ps: ParameterSet, stream: HashStream, parity_check: QcMatrix):
    """(Q's factors, Q^-1 H) for Q = a^T b + T and H = parity_check:
    T^-1 H + U H, T^-1 H being the solve of T against H (the sparse
    product T^T H at m_t = 1), which redraws a singular T.

    Both the constraint pair and the sparse map are redrawn on retry:
    shifts cancel out of M, so with few blocks a fixed (a, b) could make
    every available T useless.
    """

    def draw(attempt):
        a_bits, b_bits = _sample_constraints(
            ps, stream.substream(b"constraints", attempt))
        t = _sample_sparse_map(ps, stream.substream(b"sparse-map", attempt))
        # at m_t = 1, T(1) is a permutation matrix: its inverse is T(1)^T
        t1_inv = (_at_one(t).T if ps.m_t == 1 else
                  DenseMatrix.from_bits(_at_one(t)).invert().to_bits())
        update = _woodbury(ps, a_bits, b_bits, t1_inv)
        u_h = _block_constant((update @ _at_one(parity_check)) & 1, ps.p)
        return (WeightControl(_expand_block_bits(a_bits, ps.p),
                              _expand_block_bits(b_bits, ps.p), t),
                t.solve(parity_check).add(u_h))
    return _redraw("invertible weight control", draw)


def _woodbury(ps, a_bits, b_bits, t1_inv):
    """U's block bits, Q^-1 = T^-1 + U with U = (T^-1 a^T) M^-1 (b T^-1)
    and M = I + b T^-1 a^T: T^-1 acts on the block-constant a^T and b
    through T^-1(1) = t1_inv, and U is zero or all ones on every block."""
    ta = (t1_inv @ a_bits.T) & 1
    tb = (b_bits @ t1_inv) & 1
    m = np.eye(ps.z, dtype=np.uint8)
    if ps.p & 1:
        m ^= ((b_bits @ ta) & 1).astype(np.uint8)
    m_inv = DenseMatrix.from_bits(m).invert().to_bits()
    return (((ta @ m_inv) & 1) @ tb) & 1


def generate_scrambler(ps: ParameterSet, stream: HashStream, weighted: QcMatrix):
    """(S, weighted S^-1) for a non-singular S with column weight at most
    m_s: identity diagonal plus m_s - 1 layers following powers of one
    full cycle.  With weighted = Q^-1 H this is the public H'.

    A matrix whose row and column weights are all even is singular (the
    all-ones vector lies in its kernel), so for even m_s one off-diagonal
    placement is dropped; every column weight stays <= m_s, which is all
    the verification bound relies on.

    S^-1 is never formed: X = weighted S^-1 is the solve of S^T against
    weighted^T, transposed, which redraws a singular S at its attempt.
    """
    if ps.m_s == 1:
        warnings.warn("column weight 1 makes the scrambler a bare permutation",
                      stacklevel=2)

    def draw(attempt):
        s = _sample_scrambler(ps, stream.substream(b"scrambler", attempt))
        return s, s.transpose().solve(weighted.transpose()).transpose()
    return _redraw("invertible scrambler", draw)


def _full_cycle(sub, size):
    tau = np.asarray(sub.permutation(size))
    rho = np.empty(size, dtype=np.int64)
    rho[tau] = tau[np.arange(1, size + 1) % size]
    return rho.tolist()


def _layer_exponents(ps) -> list[int]:
    """J, the powers of rho that S's layers follow: 0, ..., m_s - 1 where
    the screen passes, else with the top one replaced by the smallest
    e >= m_s that passes.

    Mapping each circulant to its weight mod 2 sends S to
    S(1) = f(P_rho), f the sum of y^j over J, less one entry for even
    m_s: a rank-1 change.  f(P_rho) has nullity deg gcd(f, y^n0 - 1), so
    when that exceeds 1 (even m_s) or 0 (odd m_s), no draw of S is
    invertible.  If no e below n0 passes, keygen refuses before the
    first draw.
    """
    size, drop_last = ps.n0, ps.m_s % 2 == 0
    if ps.m_s > size:
        raise KeyGenerationError("scrambler weight exceeds block count")
    low = (1 << (ps.m_s - 1)) - 1  # 1 + y + ... + y^(m_s - 2)
    for e in range(ps.m_s - 1, size):
        nullity = gf2._poly_xgcd(low | 1 << e, (1 << size) | 1)[0].bit_length() - 1
        if nullity <= drop_last:
            return [*range(ps.m_s - 1), e]
    raise KeyGenerationError(
        f"scrambler is singular for every draw: with m_s = {ps.m_s}, every "
        f"1 + y + ... + y^{ps.m_s - 2} + y^e shares a factor with y^{size} - 1")


def _sample_scrambler(ps, sub):
    """S = I + m_s - 1 layers along the powers J of one n0-cycle rho
    (_layer_exponents)."""
    exponents = _layer_exponents(ps)
    size = ps.n0
    rho = _full_cycle(sub, size)
    # layer 0 is the identity; layer j puts row i's one in block column
    # rho^j(i) at a drawn shift
    entries = [(i, i, 0) for i in range(size)]
    cur = list(range(size))
    for step in np.diff(exponents).tolist():
        for _ in range(step):
            cur = [rho[c] for c in cur]
        entries += [(i, cur[i], sub.below(ps.p)) for i in range(size)]
    if ps.m_s % 2 == 0:  # the last layer's entry in row 0, its shift drawn all the same
        del entries[-size]
    return QcMatrix.grid(size, size, ps.p, entries)


def assemble(ps: ParameterSet, seed: bytes):
    """Full key pair from a 32-byte master seed."""
    stream = HashStream(seed)
    g, h = generate_systematic(ps, stream)
    wc, weighted = generate_weight_control(ps, stream, h)
    s, h_prime = generate_scrambler(ps, stream, weighted)
    return (PrivateKey(ps, seed, g, wc.constraints, wc.sparse_map, s),
            PublicKey(ps, h_prime, wc.constraints))


def assemble_from_parts(ps, seed, generator, parity_check, constraints,
                        sparse_map, scrambler):
    """Wire explicit factors into a key pair whose weight control is the
    sparse map alone (Q = T): H' = T^-1 H S^-1, from one solve each."""
    weighted = sparse_map.solve(parity_check)
    h_prime = scrambler.transpose().solve(weighted.transpose()).transpose()
    sk = PrivateKey(ps, seed, generator, constraints, sparse_map, scrambler)
    pk = PublicKey(ps, h_prime, constraints)
    return sk, pk
