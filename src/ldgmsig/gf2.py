"""Bit-exact GF(2) vectors and matrices: dense, circulant, and quasi-cyclic.

Layout conventions used throughout the package:

* bit i of a length-n vector is stored LSB-first, i.e. in byte i >> 3 at
  bit position i & 7 (numpy's bitorder='little');
* the string form of a vector lists position 0 first, so support {0, 1}
  over length 6 prints as "110000";
* a p x p circulant is represented by its first row, row i being the
  first row cyclically shifted right by i, so multiplication of blocks
  is polynomial multiplication modulo x^p - 1;
* a quasi-cyclic matrix is a grid of such blocks and stores only the
  first rows (block_rows * block_cols * p bits of payload); with p = 1
  every block is one bit, so the grid is a plain binary matrix.

The key matrices are all quasi-cyclic.  Dense matrices keep packed rows
and are the expanded form that elimination, products and the signer's
caches work on; operations are vectorized over numpy uint8 arrays.
Vectors that are much sparser than 1/64 are also handled as sorted
index lists by the callers (signing works on supports, not on packed
words).

Gauss-Jordan elimination (behind invert, rank and solve) picks its kernel
by the number of rows.  From TABLE_MIN_ROWS rows up it runs the Method of
Four Russians (Albrecht, Bard & Hart 2010) on uint64 words: eight pivot
columns at a time, whose pivot rows are reduced among themselves into a
2^8-row table that updates every other row with one gather.  Below that
it eliminates one pivot at a time on uint8 rows, which costs fewer numpy
calls per pivot on the small systems the attacks solve by the thousand.
Both kernels reach the same reduced form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "ShapeError",
    "BitVector",
    "DenseMatrix",
    "CirculantBlock",
    "QcMatrix",
    "multiply",
    "add",
    "transpose",
    "invert",
    "rank",
    "weight",
    "solve",
]

# rows from which _eliminate uses the table kernel: eliminating a random
# [A | I], it takes 1.3-1.4x the per-pivot loop's time at 12-48 rows,
# 1.03x at 128, 0.90x at 256 and 0.56x at 1024 (2-vCPU x86-64 VM)
TABLE_MIN_ROWS = 256


class SingularMatrixError(ValueError):
    """Raised when inversion meets a singular matrix; keygen retries on it."""


class ShapeError(ValueError):
    """Raised when operand dimensions do not conform."""


def _width(nbits: int) -> int:
    return (nbits + 7) // 8


def _tail_mask(nbits: int) -> int:
    rem = nbits & 7
    return 0xFF if rem == 0 else (1 << rem) - 1


def _mask_tail(data: np.ndarray, nbits: int) -> np.ndarray:
    """Zero any phantom bits beyond nbits in the last byte."""
    if data.shape[-1]:
        data[..., -1] &= _tail_mask(nbits)
    return data


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits.astype(np.uint8, copy=False), axis=-1, bitorder="little")


def _unpack(data: np.ndarray, nbits: int) -> np.ndarray:
    return np.unpackbits(data, axis=-1, count=nbits, bitorder="little")


def _rows_xor(data: np.ndarray, idx) -> np.ndarray:
    """XOR of the selected rows of a packed row array."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size == 0:
        return np.zeros(data.shape[1], dtype=np.uint8)
    return np.bitwise_xor.reduce(data[idx], axis=0)


def _parity_rows(data: np.ndarray, packed_vec: np.ndarray) -> np.ndarray:
    """Per-row parity of <row, vec> for packed rows; returns 0/1 bytes."""
    return (np.bitwise_count(data & packed_vec).sum(axis=1, dtype=np.int64) & 1).astype(
        np.uint8
    )


class BitVector:
    """Immutable packed bit vector of a declared length."""

    def __init__(self, length: int, data: np.ndarray | None = None):
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        self.length = length
        if data is None:
            self.data = np.zeros(_width(length), dtype=np.uint8)
        else:
            if data.shape != (_width(length),):
                raise ShapeError(f"payload width {data.shape} for length {length}")
            self.data = _mask_tail(data.astype(np.uint8, copy=True), length)

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length)

    @classmethod
    def from_support(cls, length: int, support) -> "BitVector":
        v = cls(length)
        idx = np.asarray(list(support), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= length:
                raise ValueError("support index out of range")
            np.bitwise_or.at(v.data, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
        return v

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
        if not np.all(bits <= 1):
            raise ValueError("expected a 0/1 string")
        return cls(len(text), _pack_bits(bits))

    @classmethod
    def from_bytes(cls, length: int, raw: bytes) -> "BitVector":
        buf = np.frombuffer(raw, dtype=np.uint8)
        return cls(length, buf)

    def to_bytes(self) -> bytes:
        return self.data.tobytes()

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in _unpack(self.data, self.length))

    def weight(self) -> int:
        return int(np.bitwise_count(self.data).sum())

    def support(self) -> list[int]:
        return np.nonzero(_unpack(self.data, self.length))[0].tolist()

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (int(self.data[i >> 3]) >> (i & 7)) & 1

    def xor(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ShapeError(f"xor of lengths {self.length} and {other.length}")
        return BitVector(self.length, self.data ^ other.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.length, self.data.tobytes()))

    def __repr__(self):
        if self.length <= 64:
            return f"BitVector({self.to01()!r})"
        return f"BitVector(length={self.length}, weight={self.weight()})"


class DenseMatrix:
    """Packed row-major GF(2) matrix."""

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"bad shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = np.zeros((rows, _width(cols)), dtype=np.uint8)
        else:
            if data.shape != (rows, _width(cols)):
                raise ShapeError(f"payload shape {data.shape} for {rows}x{cols}")
            self.data = _mask_tail(data.astype(np.uint8, copy=True), cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        m = cls(n, n)
        idx = np.arange(n)
        m.data[idx, idx >> 3] |= (1 << (idx & 7)).astype(np.uint8)
        return m

    @classmethod
    def from_rows(cls, vectors) -> "DenseMatrix":
        vecs = list(vectors)
        cols = vecs[0].length
        if any(v.length != cols for v in vecs):
            raise ShapeError("rows of unequal length")
        return cls(len(vecs), cols, np.stack([v.data for v in vecs]))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "DenseMatrix":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(bits.shape[0], bits.shape[1], _pack_bits(bits))

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.data[i])

    def to_bits(self) -> np.ndarray:
        return _unpack(self.data, self.cols)

    def copy(self) -> "DenseMatrix":
        return DenseMatrix(self.rows, self.cols, self.data)

    def weight(self) -> int:
        return int(np.bitwise_count(self.data).sum())

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self.data).sum(axis=1)

    def col_weights(self) -> np.ndarray:
        return self.to_bits().sum(axis=0)

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add of unequal shapes")
        return DenseMatrix(self.rows, self.cols, self.data ^ other.data)

    def transpose(self) -> "DenseMatrix":
        out = DenseMatrix(self.cols, self.rows)
        # chunked so huge matrices never materialize a full bit tensor
        chunk = 4096
        for start in range(0, self.rows, chunk):
            stop = min(start + chunk, self.rows)
            bits = _unpack(self.data[start:stop], self.cols)
            out.data[:, start >> 3 : (start >> 3) + _width(stop - start)] = _pack_bits(
                bits.T
            )
        _mask_tail(out.data, self.rows)
        return out

    def mul_matrix(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = DenseMatrix(self.rows, other.cols)
        bits = self.to_bits()
        for i in range(self.rows):
            out.data[i] = _rows_xor(other.data, np.nonzero(bits[i])[0])
        return out

    def mul_vec(self, v: BitVector) -> BitVector:
        if self.cols != v.length:
            raise ShapeError(f"{self.rows}x{self.cols} times length-{v.length}")
        return BitVector(self.rows, _pack_bits(_parity_rows(self.data, v.data)))

    def vec_mul(self, v: BitVector) -> BitVector:
        if self.rows != v.length:
            raise ShapeError(f"length-{v.length} times {self.rows}x{self.cols}")
        return BitVector(self.cols, _rows_xor(self.data, v.support()))

    def rank(self) -> int:
        work = self.data.copy()
        _, rk = _eliminate(work, self.cols, reduce_above=False)
        return rk

    def invert(self) -> "DenseMatrix":
        if self.rows != self.cols:
            raise ShapeError(f"cannot invert {self.rows}x{self.cols}")
        n = self.rows
        work = np.concatenate([self.data, DenseMatrix.identity(n).data], axis=1)
        _, rk = _eliminate(work, n)
        if rk < n:
            raise SingularMatrixError(f"rank {rk} < {n}")
        return DenseMatrix(n, n, np.ascontiguousarray(work[:, _width(n) :]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols}, weight={self.weight()})"


def _eliminate(work, ncols, reduce_above=True):
    """Gauss-Jordan on packed uint8 rows, in place.

    Pivots are searched in the first ncols columns only; augmented
    columns ride along because whole packed rows are XORed.  With
    reduce_above the pivot columns end as unit columns (reduced row
    echelon form), otherwise only the rows below each pivot are cleared.
    Returns (pivot column list, rank).
    """
    if work.shape[0] >= TABLE_MIN_ROWS:
        return _eliminate_table(work, ncols, reduce_above)
    return _eliminate_pivots(work, ncols, reduce_above)


def _eliminate_pivots(work, ncols, reduce_above=True):
    """_eliminate one pivot at a time on the uint8 rows."""
    nrows = work.shape[0]
    pivots = []
    rk = 0
    for col in range(ncols):
        if rk == nrows:
            break
        byte, bit = col >> 3, col & 7
        colbits = (work[rk:, byte] >> bit) & 1
        nz = np.nonzero(colbits)[0]
        if nz.size == 0:
            continue
        piv = rk + int(nz[0])
        if piv != rk:
            tmp = work[rk].copy()
            work[rk] = work[piv]
            work[piv] = tmp
        if reduce_above:
            allbits = (work[:, byte] >> bit) & 1
            allbits[rk] = 0
            sel = np.nonzero(allbits)[0]
        else:
            below = (work[rk + 1 :, byte] >> bit) & 1
            sel = rk + 1 + np.nonzero(below)[0]
        if sel.size:
            work[sel] ^= work[rk]
        pivots.append(col)
        rk += 1
    return pivots, rk


def _eliminate_table(work, ncols, reduce_above=True):
    """_eliminate by the Method of Four Russians on uint64 words.

    Columns go in groups of eight.  The group's pivots are found on a
    copy of its byte in the rows below the pivots, which each new pivot
    reduces; only the row swaps touch the words.  The 2^m XOR
    combinations of the m pivot rows form a table.  Their bits in the
    pivot columns are distinct, so every row finds the one entry that
    clears its pivot columns: the pivot rows take the entries that leave
    a unit block, every other row XORs its entry in one gather.  All
    XORs start at the word holding the group: pivot rows are zero before
    it.
    """
    nrows, nbytes = work.shape
    words = np.zeros((nrows, -(-nbytes // 8)), dtype=np.uint64)
    octets = words.view(np.uint8)
    octets[:, :nbytes] = work
    pivots = []
    rk = 0
    for c0 in range(0, ncols, 8):
        if rk == nrows:
            break
        byte, word = c0 >> 3, c0 >> 6
        start, span = rk, min(8, ncols - c0)
        pending = octets[start:, byte] & ((1 << span) - 1)
        for j in range(span):
            top = rk - start
            hits = np.flatnonzero(pending[top:] & (1 << j))
            if hits.size == 0:
                continue
            if hits[0]:
                piv = rk + int(hits[0])
                words[[rk, piv]] = words[[piv, rk]]
                pending[[top, piv - start]] = pending[[piv - start, top]]
            pending[top + hits[1:]] ^= pending[top]
            pivots.append(c0 + j)
            rk += 1
        m = rk - start
        if m == 0:
            continue
        table = np.zeros((1 << m, words.shape[1] - word), dtype=np.uint64)
        code = np.zeros(1 << m, dtype=np.intp)
        for i, bits in enumerate(octets[start:rk, byte].tolist()):
            table[1 << i : 2 << i] = table[: 1 << i] ^ words[start + i, word:]
            code[1 << i : 2 << i] = code[: 1 << i] ^ bits
        units = [1 << (col - c0) for col in pivots[start:]]
        mask = sum(units)
        lookup = np.zeros(256, dtype=np.intp)
        lookup[code & mask] = np.arange(1 << m)
        words[start:rk, word:] = table[lookup[units]]
        first = 0 if reduce_above else rk
        index = lookup[octets[first:, byte] & mask]
        index[max(start - first, 0) : rk - first] = 0
        rows = np.flatnonzero(index)
        if 2 * rows.size > index.size:
            # most rows change: XOR in place, without gathering them
            tail = words[first:, word:]
            np.bitwise_xor(tail, table[index], out=tail)
        else:
            words[first + rows, word:] ^= table[index[rows]]
    work[:] = octets[:, :nbytes]
    return pivots, rk


def solve(a: DenseMatrix, rhs: BitVector) -> BitVector | None:
    """One solution x of a x^T = rhs^T, free variables zero; None if none."""
    if a.rows != rhs.length:
        raise ShapeError("rhs length does not match row count")
    # rhs bits ride in a dedicated trailing byte per row
    aug = np.concatenate(
        [a.data, _pack_bits(_unpack(rhs.data, rhs.length).reshape(-1, 1))], axis=1
    )
    pivots, rk = _eliminate(aug, a.cols)
    wbyte = aug.shape[1] - 1
    for i in range(rk, a.rows):
        if (aug[i, wbyte] >> 0) & 1:
            return None
    x = BitVector.zeros(a.cols)
    for i, col in enumerate(pivots):
        if (aug[i, wbyte] >> 0) & 1:
            x.data[col >> 3] |= 1 << (col & 7)
    return x


class CirculantBlock:
    """p x p circulant held as its first row."""

    def __init__(self, p: int, first_row: BitVector):
        if first_row.length != p:
            raise ShapeError(f"first row length {first_row.length} for p={p}")
        self.p = p
        self.first_row = first_row

    @classmethod
    def zero(cls, p: int) -> "CirculantBlock":
        return cls(p, BitVector.zeros(p))

    @classmethod
    def identity(cls, p: int) -> "CirculantBlock":
        return cls(p, BitVector.from_support(p, [0]))

    @classmethod
    def from_poly(cls, p: int, poly: int) -> "CirculantBlock":
        if poly >> p:
            raise ValueError("polynomial degree exceeds p")
        raw = poly.to_bytes(_width(p), "little")
        return cls(p, BitVector.from_bytes(p, raw))

    def poly(self) -> int:
        return int.from_bytes(self.first_row.to_bytes(), "little")

    def is_zero(self) -> bool:
        return self.poly() == 0

    def is_identity(self) -> bool:
        return self.poly() == 1

    def expand(self) -> DenseMatrix:
        fr = _unpack(self.first_row.data, self.p)
        idx = (np.arange(self.p)[None, :] - np.arange(self.p)[:, None]) % self.p
        return DenseMatrix.from_bits(fr[idx])

    def add(self, other: "CirculantBlock") -> "CirculantBlock":
        self._check(other)
        return CirculantBlock(self.p, self.first_row.xor(other.first_row))

    def multiply(self, other: "CirculantBlock") -> "CirculantBlock":
        self._check(other)
        p, mask = self.p, (1 << self.p) - 1
        a, b, acc = self.poly(), other.poly(), 0
        t = 0
        while b:
            if b & 1:
                acc ^= ((a << t) | (a >> (p - t))) & mask if t else a
            b >>= 1
            t += 1
        return CirculantBlock.from_poly(p, acc)

    def transpose(self) -> "CirculantBlock":
        bits = _unpack(self.first_row.data, self.p)
        rev = np.concatenate([bits[:1], bits[:0:-1]])
        return CirculantBlock(self.p, BitVector(self.p, _pack_bits(rev)))

    def invert(self) -> "CirculantBlock":
        inv = self.expand().invert()
        return CirculantBlock(self.p, inv.row(0))

    def _check(self, other):
        if self.p != other.p:
            raise ShapeError(f"block sizes {self.p} and {other.p}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CirculantBlock)
            and self.p == other.p
            and self.first_row == other.first_row
        )

    def __repr__(self):
        return f"CirculantBlock(p={self.p}, first_row={self.first_row.to01()})"


class QcMatrix:
    """Grid of p x p circulant blocks, stored as packed first rows.

    first_rows has shape (block_rows, block_cols, ceil(p/8)).
    """

    def __init__(self, block_rows: int, block_cols: int, p: int, first_rows=None):
        self.block_rows = block_rows
        self.block_cols = block_cols
        self.p = p
        w = _width(p)
        if first_rows is None:
            self.first_rows = np.zeros((block_rows, block_cols, w), dtype=np.uint8)
        else:
            if first_rows.shape != (block_rows, block_cols, w):
                raise ShapeError(f"first_rows shape {first_rows.shape}")
            self.first_rows = _mask_tail(first_rows.astype(np.uint8, copy=True), p)

    @property
    def rows(self) -> int:
        return self.block_rows * self.p

    @property
    def cols(self) -> int:
        return self.block_cols * self.p

    def payload_bits(self) -> int:
        return self.block_rows * self.block_cols * self.p

    @classmethod
    def zeros(cls, block_rows: int, block_cols: int, p: int) -> "QcMatrix":
        return cls(block_rows, block_cols, p)

    @classmethod
    def identity(cls, block_rows: int, p: int) -> "QcMatrix":
        m = cls(block_rows, block_rows, p)
        for i in range(block_rows):
            m.first_rows[i, i, 0] = 1
        return m

    @classmethod
    def from_blocks(cls, grid) -> "QcMatrix":
        p = grid[0][0].p
        m = cls(len(grid), len(grid[0]), p)
        for i, brow in enumerate(grid):
            for j, blk in enumerate(brow):
                if blk.p != p:
                    raise ShapeError("mixed block sizes")
                m.first_rows[i, j] = blk.first_row.data
        return m

    def block(self, i: int, j: int) -> CirculantBlock:
        return CirculantBlock(self.p, BitVector(self.p, self.first_rows[i, j]))

    def set_block(self, i: int, j: int, blk: CirculantBlock) -> None:
        self.first_rows[i, j] = blk.first_row.data

    def _shift_index(self) -> np.ndarray:
        return (np.arange(self.p)[None, :] - np.arange(self.p)[:, None]) % self.p

    def expand_block_row(self, bi: int) -> np.ndarray:
        """Packed dense rows of block-row bi (p x cols)."""
        fr = _unpack(self.first_rows[bi], self.p)  # (bcols, p)
        e = fr[:, self._shift_index()]  # (bcols, p, p): [j, t, s]
        bits = e.transpose(1, 0, 2).reshape(self.p, self.cols)
        return _pack_bits(bits)

    def leading_row(self, bi: int) -> BitVector:
        """Dense row bi*p (the first row of block-row bi)."""
        bits = _unpack(self.first_rows[bi], self.p).reshape(self.cols)
        return BitVector(self.cols, _pack_bits(bits))

    def expand(self) -> DenseMatrix:
        out = DenseMatrix(self.rows, self.cols)
        for bi in range(self.block_rows):
            out.data[bi * self.p : (bi + 1) * self.p] = self.expand_block_row(bi)
        return out

    @classmethod
    def fold_dense_rows(cls, leading: np.ndarray, block_cols: int, p: int) -> "QcMatrix":
        """Build from packed leading rows (block_rows x ceil(block_cols*p/8))."""
        brows = leading.shape[0]
        bits = _unpack(leading, block_cols * p).reshape(brows, block_cols, p)
        return cls(brows, block_cols, p, _pack_bits(bits))

    @classmethod
    def from_dense(cls, m: DenseMatrix) -> "QcMatrix":
        """The same matrix as a grid of 1 x 1 blocks (p = 1)."""
        return cls.fold_dense_rows(m.data, m.cols, 1)

    def add(self, other: "QcMatrix") -> "QcMatrix":
        self._check_same_grid(other)
        return QcMatrix(
            self.block_rows, self.block_cols, self.p, self.first_rows ^ other.first_rows
        )

    def transpose(self) -> "QcMatrix":
        bits = _unpack(self.first_rows, self.p)
        rev = np.arange(self.p)
        rev[1:] = rev[:0:-1]
        folded = _pack_bits(bits[:, :, rev])
        return QcMatrix(
            self.block_cols, self.block_rows, self.p, folded.transpose(1, 0, 2)
        )

    def multiply(self, other: "QcMatrix") -> "QcMatrix":
        if self.p != other.p:
            raise ShapeError(f"block sizes {self.p} and {other.p}")
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        dense_b = other.expand()
        leading = np.empty((self.block_rows, _width(other.cols)), dtype=np.uint8)
        for bi in range(self.block_rows):
            sup = self.leading_row(bi).support()
            leading[bi] = _rows_xor(dense_b.data, sup)
        return QcMatrix.fold_dense_rows(leading, other.block_cols, self.p)

    def mul_vec(self, v: BitVector) -> BitVector:
        if self.cols != v.length:
            raise ShapeError(f"{self.rows}x{self.cols} times length-{v.length}")
        out = np.empty(self.rows, dtype=np.uint8)
        for bi in range(self.block_rows):
            out[bi * self.p : (bi + 1) * self.p] = _parity_rows(
                self.expand_block_row(bi), v.data
            )
        return BitVector(self.rows, _pack_bits(out))

    def vec_mul(self, v: BitVector) -> BitVector:
        if self.rows != v.length:
            raise ShapeError(f"length-{v.length} times {self.rows}x{self.cols}")
        acc = np.zeros(_width(self.cols), dtype=np.uint8)
        for i in v.support():
            bi, t = divmod(i, self.p)
            row = self.expand_block_row(bi)[t] if t else self.leading_row(bi).data
            acc = acc ^ row
        return BitVector(self.cols, acc)

    def rank(self) -> int:
        return self.expand().rank()

    def invert(self) -> "QcMatrix":
        """Inverse, from the n0 leading rows of the dense inverse.

        A QC inverse is fixed by its leading rows (rows i*p), and row i*p
        of A^-1 is the solution u of A^T u^T = e_{i*p}.  So this eliminates
        [A^T | E], where E holds only the n0 unit columns e_{i*p}, not the
        full identity: its right n x n0 half ends as the leading rows,
        transposed.  A copy of the A^T rows checks the first of them.
        """
        if self.block_rows != self.block_cols:
            raise ShapeError(f"cannot invert {self.rows}x{self.cols}")
        n, n0 = self.rows, self.block_rows
        at = self.transpose().expand().data
        work = np.zeros((n, _width(n + n0)), dtype=np.uint8)
        work[:, : at.shape[1]] = at
        unit = n + np.arange(n0)
        work[np.arange(n0) * self.p, unit >> 3] |= (1 << (unit & 7)).astype(np.uint8)
        _, rk = _eliminate(work, n)
        if rk < n:
            raise SingularMatrixError(f"rank {rk} < {n}")
        right = _unpack(work[:, n >> 3 :], (n & 7) + n0)[:, n & 7 :]
        leading = _pack_bits(np.ascontiguousarray(right.T))
        check = _parity_rows(at, leading[0])
        if check[0] != 1 or check[1:].any():
            raise AssertionError("first leading row u fails A^T u^T = e_0")
        return QcMatrix.fold_dense_rows(leading, self.block_cols, self.p)

    def weight(self) -> int:
        return int(np.bitwise_count(self.first_rows).sum()) * self.p

    def _check_same_grid(self, other):
        if (self.block_rows, self.block_cols, self.p) != (
            other.block_rows,
            other.block_cols,
            other.p,
        ):
            raise ShapeError("grid shapes differ")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QcMatrix)
            and (self.block_rows, self.block_cols, self.p)
            == (other.block_rows, other.block_cols, other.p)
            and bool(np.array_equal(self.first_rows, other.first_rows))
        )

    def __repr__(self):
        return (
            f"QcMatrix({self.rows}x{self.cols}, p={self.p}, "
            f"grid={self.block_rows}x{self.block_cols})"
        )


def _as_dense(m) -> DenseMatrix:
    return m.expand() if isinstance(m, QcMatrix) else m


def multiply(a, b):
    """Product over GF(2); QC x QC stays QC, vectors dispatch by side."""
    if isinstance(a, BitVector) and isinstance(b, (DenseMatrix, QcMatrix)):
        return b.vec_mul(a)
    if isinstance(a, (DenseMatrix, QcMatrix)) and isinstance(b, BitVector):
        return a.mul_vec(b)
    if isinstance(a, QcMatrix) and isinstance(b, QcMatrix):
        return a.multiply(b)
    if isinstance(a, CirculantBlock) and isinstance(b, CirculantBlock):
        return a.multiply(b)
    return _as_dense(a).mul_matrix(_as_dense(b))


def add(a, b):
    if type(a) is type(b) and not isinstance(a, DenseMatrix):
        return a.add(b)
    return _as_dense(a).add(_as_dense(b))


def transpose(a):
    return a.transpose()


def invert(a):
    return a.invert()


def rank(a) -> int:
    if isinstance(a, CirculantBlock):
        return a.expand().rank()
    return a.rank()


def weight(v) -> int:
    return v.weight()
