"""GF(2) reference for the benchmark's output checks.

Everything here works from the raw arrays a key object carries
(`DenseMatrix.data`, `QcMatrix.first_rows`) and the documented layout:
bits packed LSB-first, and row t of a circulant block is its first row
shifted right by t, so entry (t, v) of the block is first_row[(v - t) % p].
It uses numpy alone, never `ldgmsig.gf2`, so a fault in the program's
kernels cannot hide itself in the checks.

Dense expansion and elimination are for toy sizes. At ldgm-80 the checks
use `ColumnTable`, the packed columns of a quasi-cyclic matrix built one
block column at a time, so a product with a sparse vector is a XOR of a
few hundred short columns.
"""

from __future__ import annotations

import numpy as np


def unpack(packed: np.ndarray, nbits: int) -> np.ndarray:
    return np.unpackbits(packed, axis=-1, count=nbits, bitorder="little")


def pack(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")


def vec_bits(v) -> np.ndarray:
    """0/1 array of a BitVector."""
    return unpack(v.data, v.length)


def is_qc(m) -> bool:
    return hasattr(m, "first_rows")


def _circulant_index(p: int) -> np.ndarray:
    return (np.arange(p)[None, :] - np.arange(p)[:, None]) % p


def dense(m) -> np.ndarray:
    """0/1 rows x cols array of a dense or quasi-cyclic matrix (toy sizes)."""
    if not is_qc(m):
        return unpack(m.data, m.cols)
    p = m.p
    fr = unpack(m.first_rows, p)                       # (br, bc, p)
    blocks = fr[:, :, _circulant_index(p)]             # (br, bc, t, v)
    br, bc = fr.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(br * p, bc * p)


def row_weights(m) -> np.ndarray:
    """Weight of every row; a circulant shift keeps a row's weight."""
    if not is_qc(m):
        return unpack(m.data, m.cols).sum(axis=1)
    per_block_row = unpack(m.first_rows, m.p).sum(axis=(1, 2))
    return np.repeat(per_block_row, m.p)


def col_weights(m) -> np.ndarray:
    """Weight of every column; a circulant's columns weigh what its rows do."""
    if not is_qc(m):
        return unpack(m.data, m.cols).sum(axis=0)
    per_block_col = unpack(m.first_rows, m.p).sum(axis=(0, 2))
    return np.repeat(per_block_col, m.p)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product mod 2 of 0/1 arrays."""
    return (a.astype(np.int64) @ b.astype(np.int64) & 1).astype(np.uint8)


def rank(bits: np.ndarray) -> int:
    """Rank over GF(2) by row reduction of a 0/1 array (toy sizes)."""
    work = np.array(bits, dtype=np.uint8) & 1
    rows, cols = work.shape
    rk = 0
    for col in range(cols):
        if rk == rows:
            break
        nz = np.flatnonzero(work[rk:, col])
        if nz.size == 0:
            continue
        piv = rk + int(nz[0])
        work[[rk, piv]] = work[[piv, rk]]
        below = rk + 1 + np.flatnonzero(work[rk + 1:, col])
        work[below] ^= work[rk]
        rk += 1
    return rk


class ColumnTable:
    """Packed columns of a matrix: row q holds column q, LSB-first.

    `times(support)` is M x^T for the vector x with that support, the XOR
    of the selected columns.
    """

    def __init__(self, m):
        self.rows = m.rows
        width = (m.rows + 7) // 8
        if not is_qc(m):
            self.cols = pack(unpack(m.data, m.cols).T)
            return
        p = m.p
        fr = unpack(m.first_rows, p)                   # (br, bc, p)
        br, bc = fr.shape[:2]
        # entry (t, v) of a block is f[(v - t) % p], so column v lists
        # f[(v - t) % p] down t
        down = _circulant_index(p).T                   # [v, t] = (v - t) % p
        self.cols = np.empty((bc * p, width), dtype=np.uint8)
        for j in range(bc):
            col_bits = fr[:, j, :][:, down]            # (br, v, t)
            self.cols[j * p:(j + 1) * p] = pack(
                col_bits.transpose(1, 0, 2).reshape(p, br * p))

    def times(self, support) -> np.ndarray:
        idx = np.asarray(support, dtype=np.intp)
        if idx.size == 0:
            return np.zeros(self.rows, dtype=np.uint8)
        return unpack(np.bitwise_xor.reduce(self.cols[idx], axis=0), self.rows)


def qc_row(m, i: int) -> np.ndarray:
    """0/1 row i of a quasi-cyclic matrix, without expanding the rest."""
    p = m.p
    bi, t = divmod(i, p)
    fr = unpack(m.first_rows[bi], p)                   # (bc, p)
    return fr[:, (np.arange(p) - t) % p].reshape(-1)
