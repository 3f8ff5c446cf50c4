"""Key generation: sparse generator, systematic parity check, weight
control, scrambler, and the published parity-check matrix.

The private side consists of

* G: k x n generator with rows of weight exactly w_g (quasi-cyclic mode
  keeps it as a k0 x n0 grid of circulants);
* H = [X | I_r]: systematic parity check of the code generated by G;
* Q = R + T: the weight-control matrix, where R = a^T b has rank at
  most z and T is sparse with row/column weight m_t, so Q s = T s
  whenever b s = 0;
* S: sparse non-singular scrambler with column weight at most m_s.

The public side is H' = Q^-1 H S^-1 together with b, which may be
published: it only describes which syndromes the signer accepts.

Every random draw comes from a HashStream substream labelled by purpose
and attempt number, so a master seed reproduces a key pair bit for bit.
Retry loops (generator rank, information set, Q and S invertibility)
share a common attempt cap and abort with a diagnostic rather than
looping forever.

Inverting Q never eliminates an r x r system: with T invertible and
R = a^T b of rank at most z, binary Woodbury gives
Q^-1 = T^-1 + (T^-1 a^T) M^-1 (b T^-1) with M = I_z + b T^-1 a^T,
a z x z matrix.  In quasi-cyclic mode a and b act block-constantly, so
M degenerates to I_z + (p mod 2) * (block-level product); for even p
the matrix Q is unconditionally invertible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import (
    BitVector,
    CirculantBlock,
    DenseMatrix,
    QcMatrix,
    SingularMatrixError,
)
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
    "generate_ldgm",
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
    sparse_map: object
    weight_ctrl: object
    weight_ctrl_inv: object


@dataclass
class Scrambler:
    scrambler: object
    scrambler_inv: object


class PrivateKey:
    def __init__(self, ps, seed, generator, parity_check, lowrank_left,
                 constraints, sparse_map, weight_ctrl_inv, scrambler,
                 scrambler_inv, qc):
        self.ps = ps
        self.seed = seed
        self.qc = qc
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
            g = self.generator
            self._gen_rows = (g.expand() if isinstance(g, QcMatrix) else g).data
        return self._gen_rows

    def scrambler_columns(self) -> np.ndarray:
        """Packed rows of S^T (columns of S), cached for the e' gather."""
        if self._scr_cols is None:
            st = self.scrambler.transpose()
            self._scr_cols = (st.expand() if isinstance(st, QcMatrix) else st).data
        return self._scr_cols

    def map_support(self, s: BitVector) -> list[int]:
        """Support of T s; fast path when T is a permutation."""
        t = self.sparse_map
        if self._map_perm is None and self.ps.m_t == 1:
            dense = t.expand() if isinstance(t, QcMatrix) else t
            cols = np.argmax(dense.to_bits(), axis=1)
            inv = np.empty(self.ps.r, dtype=np.int64)
            inv[cols] = np.arange(self.ps.r)
            self._map_perm = inv
        if self._map_perm is not None:
            return sorted(int(self._map_perm[i]) for i in s.support())
        return gf2.multiply(t, s).support()

    def low_rank_part(self):
        """Materialize R = a^T b in the representation of the key."""
        at = self.lowrank_left.transpose()
        r_dense = at.mul_matrix(self.constraints)
        if not self.qc:
            return r_dense
        p = self.parity_check.p
        r0 = self.ps.r0
        grid = QcMatrix.zeros(r0, r0, p)
        ones = BitVector.from_support(p, range(p))
        for i in range(r0):
            for j in range(r0):
                if r_dense.row(i * p).get(j * p):
                    grid.set_block(i, j, CirculantBlock(p, ones))
        return grid

    def weight_ctrl(self):
        """Materialize Q = R + T."""
        return gf2.add(self.low_rank_part(), self.sparse_map)


class PublicKey:
    def __init__(self, ps, parity_check, constraints, qc):
        self.ps = ps
        self.parity_check = parity_check
        self.constraints = constraints
        self.qc = qc
        self._rows = None

    def parity_rows(self) -> np.ndarray:
        """Packed dense rows of H', cached for verification."""
        if self._rows is None:
            h = self.parity_check
            self._rows = (h.expand() if isinstance(h, QcMatrix) else h).data
        return self._rows

    def payload_bits(self) -> int:
        h = self.parity_check
        if isinstance(h, QcMatrix):
            return h.payload_bits()
        return h.rows * h.cols


def generate_ldgm(ps: ParameterSet, stream: HashStream, qc: bool = True):
    """k independent rows of weight w_g, retried until full rank."""
    if ps.w_g > ps.n:
        raise KeyGenerationError(f"row weight {ps.w_g} exceeds length {ps.n}")
    if ps.w_g == ps.n and ps.k > 1:
        raise KeyGenerationError("weight-n rows cannot be independent beyond one row")
    for attempt in range(RETRY_CAP):
        sub = stream.substream(b"ldgm-rows", attempt)
        g = _sample_generator(ps, sub, qc)
        if gf2.rank(g) == ps.k:
            return g
    raise KeyGenerationError(f"no full-rank generator in {RETRY_CAP} attempts")


def _sample_generator(ps, sub, qc):
    if qc:
        grid = QcMatrix.zeros(ps.k0, ps.n0, ps.p)
        for bi in range(ps.k0):
            # w_g ones spread over the concatenated first rows of the block-row
            for pos in sub.distinct(ps.w_g, ps.n):
                bj, t = divmod(pos, ps.p)
                grid.first_rows[bi, bj, t >> 3] |= 1 << (t & 7)
        return grid
    dense = DenseMatrix(ps.k, ps.n)
    for i in range(ps.k):
        for pos in sub.distinct(ps.w_g, ps.n):
            dense.data[i, pos >> 3] |= 1 << (pos & 7)
    return dense


def derive_systematic_parity(g):
    """H = [X | I_r] with G H^T = 0; raises InformationSetError when the
    leftmost k x k block of G is singular."""
    if isinstance(g, QcMatrix):
        k0, n0, p = g.block_rows, g.block_cols, g.p
        left = QcMatrix(k0, k0, p, g.first_rows[:, :k0])
        right = QcMatrix(k0, n0 - k0, p, g.first_rows[:, k0:])
        try:
            left_inv = left.invert()
        except SingularMatrixError as e:
            raise InformationSetError(str(e)) from None
        x = left_inv.multiply(right).transpose()
        h = QcMatrix.zeros(n0 - k0, n0, p)
        h.first_rows[:, :k0] = x.first_rows
        for i in range(n0 - k0):
            h.first_rows[i, k0 + i, 0] = 1
        return h
    k, n = g.rows, g.cols
    r = n - k
    left = g.take_columns(range(k))
    right = g.take_columns(range(k, n))
    try:
        left_inv = left.invert()
    except SingularMatrixError as e:
        raise InformationSetError(str(e)) from None
    x = left_inv.mul_matrix(right).transpose()
    bits = np.concatenate([x.to_bits(), DenseMatrix.identity(r).to_bits()], axis=1)
    return DenseMatrix.from_bits(bits)


def _expand_block_bits(bits: np.ndarray, p: int) -> DenseMatrix:
    return DenseMatrix.from_bits(np.repeat(bits, p, axis=1))


def _random_bits(sub, rows, cols):
    out = np.zeros((rows, cols), dtype=np.uint8)
    width = (cols + 7) // 8
    for i in range(rows):
        raw = np.frombuffer(sub.read(width), dtype=np.uint8)
        out[i] = np.unpackbits(raw, count=cols, bitorder="little")
    return out


def _sample_constraints(ps, sub, ncols):
    """(a_bits, b_bits): b has no all-zero column and full rank z, a has
    no all-zero row."""
    z = ps.z
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


def _sample_sparse_map(ps, sub, qc):
    """T with row and column weight exactly m_t: m_t layers of one
    permutation composed with cyclic offsets, so the layer positions in
    any row (and column) never collide."""
    size = ps.r0 if qc else ps.r
    if ps.m_t > size:
        raise KeyGenerationError("sparse-map weight exceeds block count")
    if qc:
        sigma = sub.permutation(size)
        grid = QcMatrix.zeros(size, size, ps.p)
        for j in range(ps.m_t):
            for i in range(size):
                col = sigma[(i + j) % size]
                shift = sub.below(ps.p)
                grid.first_rows[i, col, shift >> 3] ^= 1 << (shift & 7)
        return grid, sigma
    sigma = sub.permutation(size)
    dense = DenseMatrix(size, size)
    for j in range(ps.m_t):
        for i in range(size):
            col = sigma[(i + j) % size]
            dense.data[i, col >> 3] ^= 1 << (col & 7)
    return dense, sigma


def generate_weight_control(ps: ParameterSet, stream: HashStream, qc: bool = True):
    """Q = a^T b + T together with Q^-1 via the Woodbury identity.

    Both the constraint pair and the sparse map are redrawn on retry:
    shifts cancel out of M, so with few blocks a fixed (a, b) could make
    every available T useless.
    """
    ncols = ps.r0 if qc else ps.r
    for attempt in range(RETRY_CAP):
        a_bits, b_bits = _sample_constraints(
            ps, stream.substream(b"constraints", attempt), ncols)
        sub = stream.substream(b"sparse-map", attempt)
        t, sigma = _sample_sparse_map(ps, sub, qc)
        try:
            if ps.m_t == 1:
                t_inv = t.transpose()
            else:
                t_inv = gf2.invert(t)
        except SingularMatrixError:
            continue
        try:
            q, q_inv = _woodbury(ps, a_bits, b_bits, t, t_inv, sigma, qc)
        except SingularMatrixError:
            continue
        if qc:
            a_e = _expand_block_bits(a_bits, ps.p)
            b_e = _expand_block_bits(b_bits, ps.p)
        else:
            a_e = DenseMatrix.from_bits(a_bits)
            b_e = DenseMatrix.from_bits(b_bits)
        return WeightControl(a_e, b_e, t, q, q_inv)
    raise KeyGenerationError(f"no invertible weight control in {RETRY_CAP} attempts")


def _woodbury(ps, a_bits, b_bits, t, t_inv, sigma, qc):
    """Q and Q^-1 = T^-1 + (T^-1 a^T) M^-1 (b T^-1), M = I + b T^-1 a^T."""
    z = ps.z
    if qc and ps.m_t == 1:
        # block level: T^-1 scatters block-row i of a^T to row sigma(i),
        # and intra-block shifts vanish against block-constant operands
        size = ps.r0
        ta = np.zeros((size, z), dtype=np.uint8)
        ta[sigma] = a_bits.T
        tb = b_bits[:, sigma]
        m = np.eye(z, dtype=np.uint8)
        if ps.p & 1:
            m ^= (b_bits @ ta) & 1
        m_inv = DenseMatrix.from_bits(m).invert().to_bits()
        u = (ta @ m_inv) & 1
        w = (u @ tb) & 1
        ones = np.packbits(np.ones(ps.p, dtype=np.uint8), bitorder="little")
        q_inv = QcMatrix(size, size, ps.p, t_inv.first_rows.copy())
        q_inv.first_rows[w.astype(bool)] ^= ones
        q = QcMatrix(size, size, ps.p, t.first_rows.copy())
        rb = (a_bits.T @ b_bits) & 1
        q.first_rows[rb.astype(bool)] ^= ones
        return q, q_inv
    # general route: dense Woodbury, folded back when quasi-cyclic (the
    # rank-z update is block-constant, so Q^-1 stays quasi-cyclic)
    t_dense = t.expand() if qc else t
    ti_dense = t_inv.expand() if qc else t_inv
    if qc:
        a_dm = _expand_block_bits(a_bits, ps.p)
        b_dm = _expand_block_bits(b_bits, ps.p)
    else:
        a_dm = DenseMatrix.from_bits(a_bits)
        b_dm = DenseMatrix.from_bits(b_bits)
    at = a_dm.transpose()
    u0 = ti_dense.mul_matrix(at)
    m = DenseMatrix.identity(z).add(b_dm.mul_matrix(u0))
    m_inv = m.invert()
    u = u0.mul_matrix(m_inv)
    v = b_dm.mul_matrix(ti_dense)
    q_inv = ti_dense.add(u.mul_matrix(v))
    q = t_dense.add(at.mul_matrix(b_dm))
    if qc:
        q = QcMatrix.fold_dense_rows(q.data[::ps.p], ps.r0, ps.p)
        q_inv = QcMatrix.fold_dense_rows(q_inv.data[::ps.p], ps.r0, ps.p)
    return q, q_inv


def generate_scrambler(ps: ParameterSet, stream: HashStream, qc: bool = True):
    """Non-singular S with column weight at most m_s: identity diagonal
    plus m_s - 1 layers following powers of one full cycle.

    A matrix whose row and column weights are all even is singular (the
    all-ones vector lies in its kernel), so for even m_s one off-diagonal
    placement is dropped; every column weight stays <= m_s, which is all
    the verification bound relies on.

    In quasi-cyclic mode S^-1 comes from QcMatrix.invert, which
    eliminates [S^T | E] with only the n0 unit columns e_{i*p} in E and
    so yields just the leading rows that the QC inverse is made of; it
    never forms the dense n x n inverse.
    """
    if ps.m_s == 1:
        warnings.warn("column weight 1 makes the scrambler a bare permutation",
                      stacklevel=2)
    for attempt in range(RETRY_CAP):
        sub = stream.substream(b"scrambler", attempt)
        s = _sample_scrambler(ps, sub, qc)
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


def _sample_scrambler(ps, sub, qc):
    drop_last = ps.m_s % 2 == 0
    size = ps.n0 if qc else ps.n
    if ps.m_s > size:
        raise KeyGenerationError("scrambler weight exceeds block count")
    if qc:
        rho = _full_cycle(sub, size)
        grid = QcMatrix.zeros(size, size, ps.p)
        for i in range(size):
            grid.first_rows[i, i, 0] = 1
        cur = np.arange(size)
        for j in range(1, ps.m_s):
            cur = rho[cur]
            for i in range(size):
                shift = sub.below(ps.p)
                if drop_last and j == ps.m_s - 1 and i == 0:
                    continue
                grid.first_rows[i, cur[i], shift >> 3] ^= 1 << (shift & 7)
        return grid
    rho = _full_cycle(sub, size)
    dense = DenseMatrix(size, size)
    for i in range(size):
        dense.data[i, i >> 3] ^= 1 << (i & 7)
    cur = np.arange(size)
    for j in range(1, ps.m_s):
        cur = rho[cur]
        for i in range(size):
            if drop_last and j == ps.m_s - 1 and i == 0:
                continue
            col = int(cur[i])
            dense.data[i, col >> 3] ^= 1 << (col & 7)
    return dense


def assemble(ps: ParameterSet, seed: bytes, qc: bool = True):
    """Full key pair from a 32-byte master seed."""
    stream = HashStream(seed)
    g = h = None
    for attempt in range(RETRY_CAP):
        sub = stream.substream(b"ldgm-rows", attempt)
        cand = _sample_generator(ps, sub, qc)
        # an invertible left k x k block also proves that G has rank k
        try:
            h = derive_systematic_parity(cand)
        except InformationSetError:
            continue
        g = cand
        break
    if g is None:
        raise KeyGenerationError(f"no systematic generator in {RETRY_CAP} attempts")
    wc = generate_weight_control(ps, stream, qc)
    scr = generate_scrambler(ps, stream, qc)
    return assemble_from_parts(ps, seed, g, h, wc.lowrank_left, wc.constraints,
                               wc.sparse_map, wc.weight_ctrl_inv,
                               scr.scrambler, scr.scrambler_inv, qc)


def assemble_from_parts(ps, seed, generator, parity_check, lowrank_left,
                        constraints, sparse_map, weight_ctrl_inv, scrambler,
                        scrambler_inv, qc):
    """Wire explicit factors into a key pair; H' = Q^-1 H S^-1."""
    h_prime = gf2.multiply(gf2.multiply(weight_ctrl_inv, parity_check), scrambler_inv)
    sk = PrivateKey(ps, seed, generator, parity_check, lowrank_left, constraints,
                    sparse_map, weight_ctrl_inv, scrambler, scrambler_inv, qc)
    pk = PublicKey(ps, h_prime, constraints, qc)
    return sk, pk
