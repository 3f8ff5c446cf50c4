"""Key generation: sparse generator, systematic parity check, weight
control, scrambler, and the published parity-check matrix.

The private side consists of

* G: k x n generator with rows of weight exactly w_g;
* H = [X | I_r]: systematic parity check of the code generated by G;
* Q = R + T: the weight-control matrix, where R = a^T b has rank at
  most z and T is sparse with row/column weight m_t, so Q s = T s
  whenever b s = 0;
* S: sparse non-singular scrambler with column weight at most m_s.

The public side is H' = Q^-1 H S^-1 together with b, which may be
published: it only describes which syndromes the signer accepts.

Every key matrix (G, H, T, Q^-1, S, S^-1 and H') is a QcMatrix, a grid
of p x p circulants; with p = 1 each block is one bit and the grid is a
plain binary matrix.  Only the z x r factors a and b are DenseMatrix.
They are constant on each block of p columns.

Every random draw comes from a HashStream substream labelled by purpose
and attempt number, so a master seed reproduces a key pair bit for bit.
Retry loops (information set, Q and S invertibility) share a common
attempt cap and abort with a diagnostic rather than looping forever.
A sparse-map weight m_t that no draw of T can make invertible is
rejected before the first draw (see _sample_sparse_map).

Inverting Q never eliminates an r x r system: with T invertible and
R = a^T b of rank at most z, binary Woodbury gives
Q^-1 = T^-1 + (T^-1 a^T) M^-1 (b T^-1) with M = I_z + b T^-1 a^T,
a z x z matrix.  As a and b act block-constantly, M degenerates to
I_z + (p mod 2) * (block-level product); for even p the matrix Q is
unconditionally invertible.
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
    "Scrambler",
    "generate_systematic",
    "derive_systematic_parity",
    "parity_from_left",
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
    weight_ctrl_inv: QcMatrix


@dataclass
class Scrambler:
    scrambler: QcMatrix
    scrambler_inv: QcMatrix


def _ones_row(p: int) -> np.ndarray:
    """Packed first row of the all-ones p x p circulant."""
    return np.packbits(np.ones(p, dtype=np.uint8), bitorder="little")


class PrivateKey:
    def __init__(self, ps, seed, generator, parity_check, lowrank_left,
                 constraints, sparse_map, weight_ctrl_inv, scrambler,
                 scrambler_inv):
        self.ps = ps
        self.seed = seed
        self.generator = generator
        self.parity_check = parity_check
        self.lowrank_left = lowrank_left
        self.constraints = constraints
        self.sparse_map = sparse_map
        self.weight_ctrl_inv = weight_ctrl_inv
        self.scrambler = scrambler
        self.scrambler_inv = scrambler_inv
        self._gen_rows = None
        self._scr_cols = None
        self._map_perm = None

    def generator_rows(self) -> np.ndarray:
        """Packed dense rows of G, cached for mask selection."""
        if self._gen_rows is None:
            self._gen_rows = self.generator.expand().data
        return self._gen_rows

    def scrambler_columns(self) -> np.ndarray:
        """Packed rows of S^T (columns of S), cached for the e' gather."""
        if self._scr_cols is None:
            self._scr_cols = self.scrambler.transpose().expand().data
        return self._scr_cols

    def map_support(self, s: gf2.BitVector) -> list[int]:
        """Support of T s; fast path when T is a permutation."""
        t = self.sparse_map
        if self._map_perm is None and self.ps.m_t == 1:
            cols = np.argmax(t.expand().to_bits(), axis=1)
            inv = np.empty(self.ps.r, dtype=np.int64)
            inv[cols] = np.arange(self.ps.r)
            self._map_perm = inv
        if self._map_perm is not None:
            return sorted(int(self._map_perm[i]) for i in s.support())
        return gf2.multiply(t, s).support()

    def low_rank_part(self) -> QcMatrix:
        """Materialize R = a^T b on the grid of T: a and b are constant on
        each block of p columns, so every block of R is zero or all ones."""
        t = self.sparse_map
        outer = self.lowrank_left.transpose().mul_matrix(self.constraints)
        r = QcMatrix.zeros(t.block_rows, t.block_cols, t.p)
        r.first_rows[outer.to_bits()[:: t.p, :: t.p].astype(bool)] = _ones_row(t.p)
        return r

    def weight_ctrl(self) -> QcMatrix:
        """Materialize Q = R + T."""
        return gf2.add(self.low_rank_part(), self.sparse_map)


class PublicKey:
    def __init__(self, ps, parity_check, constraints, qc=True):
        self.ps = ps
        self.parity_check = parity_check
        self.constraints = constraints
        # every key is quasi-cyclic; the flag stays for callers that pass
        # it (perfbench/test_checks.py) and nothing reads it
        self.qc = qc
        self._rows = None

    def parity_rows(self) -> np.ndarray:
        """Packed dense rows of H', cached for verification."""
        if self._rows is None:
            self._rows = self.parity_check.expand().data
        return self._rows

    def payload_bits(self) -> int:
        return self.parity_check.payload_bits()


def generate_systematic(ps: ParameterSet, stream: HashStream):
    """(G, H): G has k rows of weight w_g and is redrawn until its
    leftmost k x k block is invertible, which also proves rank k."""
    if ps.w_g > ps.n:
        raise KeyGenerationError(f"row weight {ps.w_g} exceeds length {ps.n}")
    if ps.w_g == ps.n and ps.k > 1:
        raise KeyGenerationError("weight-n rows cannot be independent beyond one row")
    for attempt in range(RETRY_CAP):
        g = _sample_generator(ps, stream.substream(b"ldgm-rows", attempt))
        try:
            return g, derive_systematic_parity(g)
        except InformationSetError:
            continue
    raise KeyGenerationError(f"no systematic generator in {RETRY_CAP} attempts")


def _sample_generator(ps, sub):
    grid = QcMatrix.zeros(ps.k0, ps.n0, ps.p)
    for bi in range(ps.k0):
        # w_g ones spread over the concatenated first rows of the block-row
        for pos in sub.distinct(ps.w_g, ps.n):
            bj, t = divmod(pos, ps.p)
            grid.first_rows[bi, bj, t >> 3] |= 1 << (t & 7)
    return grid


def derive_systematic_parity(g: QcMatrix) -> QcMatrix:
    """H = [X | I_r] with G H^T = 0; raises InformationSetError when the
    leftmost k x k block of G is singular."""
    k0 = g.block_rows
    left = QcMatrix(k0, k0, g.p, g.first_rows[:, :k0])
    right = QcMatrix(k0, g.block_cols - k0, g.p, g.first_rows[:, k0:])
    try:
        left_inv = left.invert()
    except SingularMatrixError as e:
        raise InformationSetError(str(e)) from None
    return parity_from_left(left_inv.multiply(right).transpose())


def parity_from_left(x: QcMatrix) -> QcMatrix:
    """H = [X | I_r] from its r x k left block X."""
    r0, k0 = x.block_rows, x.block_cols
    h = QcMatrix.zeros(r0, k0 + r0, x.p)
    h.first_rows[:, :k0] = x.first_rows
    h.first_rows[np.arange(r0), k0 + np.arange(r0), 0] = 1
    return h


def _expand_block_bits(bits: np.ndarray, p: int) -> DenseMatrix:
    return DenseMatrix.from_bits(np.repeat(bits, p, axis=1))


def _random_bits(sub, rows, cols):
    out = np.zeros((rows, cols), dtype=np.uint8)
    width = (cols + 7) // 8
    for i in range(rows):
        raw = np.frombuffer(sub.read(width), dtype=np.uint8)
        out[i] = np.unpackbits(raw, count=cols, bitorder="little")
    return out


def _sample_constraints(ps, sub):
    """(a_bits, b_bits) at block level, z x r0: b has no all-zero column
    and full rank z, a has no all-zero row."""
    z, ncols = ps.z, ps.r0
    for _ in range(RETRY_CAP):
        b = np.zeros((z, ncols), dtype=np.uint8)
        for j in range(ncols):
            pattern = 1 + sub.below((1 << z) - 1) if z > 1 else 1
            for i in range(z):
                b[i, j] = (pattern >> i) & 1
        if DenseMatrix.from_bits(b).rank() == z:
            break
    else:
        raise KeyGenerationError("no full-rank constraint matrix")
    while True:
        a = _random_bits(sub, z, ncols)
        if a.any(axis=1).all():
            return a, b


def _poly_gcd(a: int, b: int) -> int:
    """gcd of two GF(2) polynomials held as bit masks (bit i is x^i)."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


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
    if _poly_gcd((1 << ps.m_t) - 1, (1 << size) | 1) != 1:
        raise KeyGenerationError(
            f"sparse map is singular for every draw: m_t = {ps.m_t} makes "
            f"1 + x + ... + x^{ps.m_t - 1} share a factor with x^{size} - 1")
    sigma = sub.permutation(size)
    grid = QcMatrix.zeros(size, size, ps.p)
    for j in range(ps.m_t):
        for i in range(size):
            col = sigma[(i + j) % size]
            shift = sub.below(ps.p)
            grid.first_rows[i, col, shift >> 3] ^= 1 << (shift & 7)
    return grid, sigma


def generate_weight_control(ps: ParameterSet, stream: HashStream):
    """Q = a^T b + T, returned as its factors with Q^-1 from the
    Woodbury identity.

    Both the constraint pair and the sparse map are redrawn on retry:
    shifts cancel out of M, so with few blocks a fixed (a, b) could make
    every available T useless.
    """
    for attempt in range(RETRY_CAP):
        a_bits, b_bits = _sample_constraints(
            ps, stream.substream(b"constraints", attempt))
        t, sigma = _sample_sparse_map(ps, stream.substream(b"sparse-map", attempt))
        try:
            t_inv = t.transpose() if ps.m_t == 1 else gf2.invert(t)
            q_inv = _woodbury(ps, a_bits, b_bits, t, t_inv, sigma)
        except SingularMatrixError:
            continue
        return WeightControl(_expand_block_bits(a_bits, ps.p),
                             _expand_block_bits(b_bits, ps.p), t, q_inv)
    raise KeyGenerationError(f"no invertible weight control in {RETRY_CAP} attempts")


def _woodbury(ps, a_bits, b_bits, t, t_inv, sigma):
    """Q^-1 = T^-1 + (T^-1 a^T) M^-1 (b T^-1), M = I + b T^-1 a^T."""
    z, p = ps.z, ps.p
    if ps.m_t == 1:
        # block level: T^-1 scatters block-row i of a^T to row sigma(i),
        # and intra-block shifts vanish against block-constant operands
        ta = np.zeros((ps.r0, z), dtype=np.uint8)
        ta[sigma] = a_bits.T
        tb = b_bits[:, sigma]
        m = np.eye(z, dtype=np.uint8)
        if p & 1:
            m ^= (b_bits @ ta) & 1
        m_inv = DenseMatrix.from_bits(m).invert().to_bits()
        w = (((ta @ m_inv) & 1) @ tb) & 1
        q_inv = QcMatrix(ps.r0, ps.r0, p, t_inv.first_rows.copy())
        q_inv.first_rows[w.astype(bool)] ^= _ones_row(p)
        return q_inv
    # general route: dense Woodbury, folded back to the grid (the rank-z
    # update is block-constant, so Q^-1 stays quasi-cyclic)
    ti_dense = t_inv.expand()
    b_dm = _expand_block_bits(b_bits, p)
    u0 = ti_dense.mul_matrix(_expand_block_bits(a_bits, p).transpose())
    m_inv = DenseMatrix.identity(z).add(b_dm.mul_matrix(u0)).invert()
    q_inv = ti_dense.add(u0.mul_matrix(m_inv).mul_matrix(b_dm.mul_matrix(ti_dense)))
    return QcMatrix.fold_dense_rows(q_inv.data[::p], ps.r0, p)


def generate_scrambler(ps: ParameterSet, stream: HashStream):
    """Non-singular S with column weight at most m_s: identity diagonal
    plus m_s - 1 layers following powers of one full cycle.

    A matrix whose row and column weights are all even is singular (the
    all-ones vector lies in its kernel), so for even m_s one off-diagonal
    placement is dropped; every column weight stays <= m_s, which is all
    the verification bound relies on.

    S^-1 comes from QcMatrix.invert, which eliminates [S^T | E] with only
    the n0 unit columns e_{i*p} in E and so yields just the leading rows
    that the QC inverse is made of; it never forms the dense n x n
    inverse.
    """
    if ps.m_s == 1:
        warnings.warn("column weight 1 makes the scrambler a bare permutation",
                      stacklevel=2)
    for attempt in range(RETRY_CAP):
        s = _sample_scrambler(ps, stream.substream(b"scrambler", attempt))
        try:
            return Scrambler(s, gf2.invert(s))
        except SingularMatrixError:
            continue
    raise KeyGenerationError(f"no invertible scrambler in {RETRY_CAP} attempts")


def _full_cycle(sub, size):
    tau = np.asarray(sub.permutation(size))
    rho = np.empty(size, dtype=np.int64)
    rho[tau] = tau[np.arange(1, size + 1) % size]
    return rho


def _sample_scrambler(ps, sub):
    drop_last = ps.m_s % 2 == 0
    size = ps.n0
    if ps.m_s > size:
        raise KeyGenerationError("scrambler weight exceeds block count")
    rho = _full_cycle(sub, size)
    grid = QcMatrix.identity(size, ps.p)
    cur = np.arange(size)
    for j in range(1, ps.m_s):
        cur = rho[cur]
        for i in range(size):
            shift = sub.below(ps.p)
            if drop_last and j == ps.m_s - 1 and i == 0:
                continue
            grid.first_rows[i, cur[i], shift >> 3] ^= 1 << (shift & 7)
    return grid


def assemble(ps: ParameterSet, seed: bytes):
    """Full key pair from a 32-byte master seed."""
    stream = HashStream(seed)
    g, h = generate_systematic(ps, stream)
    wc = generate_weight_control(ps, stream)
    scr = generate_scrambler(ps, stream)
    return assemble_from_parts(ps, seed, g, h, wc.lowrank_left, wc.constraints,
                               wc.sparse_map, wc.weight_ctrl_inv,
                               scr.scrambler, scr.scrambler_inv)


def assemble_from_parts(ps, seed, generator, parity_check, lowrank_left,
                        constraints, sparse_map, weight_ctrl_inv, scrambler,
                        scrambler_inv):
    """Wire explicit factors into a key pair; H' = Q^-1 H S^-1."""
    h_prime = gf2.multiply(gf2.multiply(weight_ctrl_inv, parity_check), scrambler_inv)
    sk = PrivateKey(ps, seed, generator, parity_check, lowrank_left, constraints,
                    sparse_map, weight_ctrl_inv, scrambler, scrambler_inv)
    pk = PublicKey(ps, h_prime, constraints)
    return sk, pk
