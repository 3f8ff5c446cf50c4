"""Bit-exact GF(2) vectors and matrices: dense and quasi-cyclic.

Layout conventions used throughout the package:

* bit i of a length-n vector is stored LSB-first, i.e. in byte i >> 3 at
  bit position i & 7 (numpy's bitorder='little');
* the string form of a vector lists position 0 first, so support {0, 1}
  over length 6 prints as "110000";
* a quasi-cyclic matrix is a grid of p x p blocks, each the cyclic
  shifts of its first row (row i is the first row shifted right by i),
  and stores only the first rows (block_rows * block_cols * p bits of
  payload); with p = 1 every block is one bit, so the grid is a plain
  binary matrix.  QcMatrix.grid builds one from unpacked bits or from
  XOR-accumulated (block row, block column, shift) entries, so no other
  module sets first-row bits.

The key matrices are all quasi-cyclic.  Dense matrices keep packed rows,
and operations on them are vectorized over numpy uint8 arrays.  A QC
matrix times a vector never expands the matrix, and neither does a
QC x QC product: leading row i of A B is B^T times leading row i of A.
Each product takes one of two routes, each read straight from the first
rows and each matched to how dense the vector is:

* ColumnRotations, for a dense vector (verify's e' has about n/7
  ones).  Column t of a circulant is its column 0 rotated by t, so
  M v^T is the XOR, over the support of v, of the column 0 of each
  block column, rotated: one rows-bit integer per support bit, and one
  rotation per distinct t.
* ColumnSupports, for a sparse one (the signer's T s, mask rows and
  scrambler scatter touch at most m_t w + w_c positions).  A padded
  table lists the rows where each column is 1, so M v^T is one gather
  and one bincount parity over the support of v.

Dense Gauss-Jordan elimination (behind invert, rank and solve) holds
each packed row as one Python int, so a pivot costs one int XOR per row
that has its bit and no numpy call: the attacks solve 12-row systems by
the thousand.

A QC system A X = B is solved in the ring R = GF(2)[x]/(x^p - 1), never
expanded: circulants multiply as their first-row polynomials, so
Gauss-Jordan runs on the blocks of [A | B], each row one Python int of
p-bit fields, and times x^t rotates every field by t.  An inverse is
the solve against the identity.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "ShapeError",
    "BitVector",
    "DenseMatrix",
    "QcMatrix",
    "ColumnRotations",
    "ColumnSupports",
    "rank",
    "solve",
]

# unpacked bits (one byte each) that QcMatrix.expand holds per group of
# block rows: the one paper-size expand, ldgm-80's 4900 x 9800 H' for the
# parity_rows note of perfbench's traced run, would hold about 48 MB at once
EXPAND_GROUP_BITS = 1 << 20


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


def _support(v: BitVector) -> np.ndarray:
    """Sorted positions of the ones of v, as an index array."""
    return _unpack(v.data, v.length).nonzero()[0]


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
            self.data = data.astype(np.uint8, copy=True)
            if length & 7:
                self.data[-1] &= (1 << (length & 7)) - 1

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length)

    @classmethod
    def from_support(cls, length: int, support) -> "BitVector":
        idx = np.asarray(list(support), dtype=np.int64)
        bits = np.zeros(length, dtype=np.uint8)
        if idx.size:
            if idx.min() < 0 or idx.max() >= length:
                raise ValueError("support index out of range")
            bits[idx] = 1
        return cls(length, _pack_bits(bits))

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
    def from_bits(cls, bits: np.ndarray) -> "DenseMatrix":
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(bits.shape[0], bits.shape[1], _pack_bits(bits))

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.data[i])

    def to_bits(self) -> np.ndarray:
        return _unpack(self.data, self.cols)

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
        return DenseMatrix.from_bits(self.to_bits().T)

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
        _, rk = _eliminate(work, self.cols)
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


def _eliminate(work, ncols):
    """Gauss-Jordan on packed uint8 rows, in place.

    Pivots are searched in the first ncols columns only; augmented
    columns ride along because whole packed rows are XORed.  The pivot
    columns end as unit columns (reduced row echelon form).  Each packed
    row is held as one Python int whose bit c is column c, so a pivot
    row clears its column from every other row with one int XOR.
    Returns (pivot column list, rank).
    """
    nrows, nbytes = work.shape
    raw = work.tobytes()
    rows = [int.from_bytes(raw[i : i + nbytes], "little")
            for i in range(0, nrows * nbytes, nbytes)]
    pivots = []
    rk = 0
    for col in range(ncols):
        if rk == nrows:
            break
        bit = 1 << col
        for piv in range(rk, nrows):
            if rows[piv] & bit:
                break
        else:
            continue
        # swap rows rk and piv: row rk clears to 0 below and gets top back
        top = rows[piv]
        rows[piv] = rows[rk]
        rows = [row ^ top if row & bit else row for row in rows]
        rows[rk] = top
        pivots.append(col)
        rk += 1
    out = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    work[:] = np.frombuffer(out, dtype=np.uint8).reshape(nrows, nbytes)
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


def _ones(x: int) -> list[int]:
    """Positions of the ones of a non-negative int, lowest first."""
    return [t for t, ch in enumerate(reversed(bin(x))) if ch == "1"]


def _field_masks(nbits: int, p: int) -> list[tuple[int, int]]:
    """masks[t] for rotating every p-bit field of an nbits-bit int by t
    (bit i of a field to bit (i + t) mod p): the bits i >= t of every
    field, where x << t lands, and the bits i < t, where x >> (p - t)
    lands."""
    full = (1 << nbits) - 1
    fields = full // ((1 << p) - 1)  # bit 0 of every field
    return [(high, full ^ high)
            for high in (((1 << p) - (1 << t)) * fields for t in range(p))]


def _poly_xgcd(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Extended Euclid on GF(2) polynomials held as bit masks (bit i is
    x^i), a and b not both 0: (g, u, v, a / g, b / g) with
    g = gcd(a, b) = u a + v b, so [[u, v], [b / g, a / g]] has
    determinant 1 and takes (a, b) to (g, 0)."""
    # a = u a0 + v b0 and b = u1 a0 + v1 b0 throughout, and each step
    # keeps the determinant of [[u, v], [u1, v1]] at 1; once b = 0 its
    # second row is therefore the coprime pair (b0 / g, a0 / g)
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        while a.bit_length() >= b.bit_length():
            s = a.bit_length() - b.bit_length()
            a ^= b << s
            u ^= u1 << s
            v ^= v1 << s
        a, b, u, v, u1, v1 = b, a, u1, v1, u, v
    return a, u, v, v1, u1


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
    def grid(cls, block_rows: int, block_cols: int, p: int, entries=(),
             bits=None) -> "QcMatrix":
        """The grid whose first rows are bits, an unpacked (block_rows,
        block_cols, p) 0/1 array whose [i, j, t] is bit t of block (i, j)'s
        first row (all zero when None), with entries XORed on: each
        (i, j, t), 0 <= t < p, flips that bit, so a repeat cancels.  Every
        grid built from bits or shifts is built here."""
        m = cls(block_rows, block_cols, p)
        if bits is not None:
            if bits.shape != (block_rows, block_cols, p):
                raise ShapeError(f"bits shape {bits.shape}")
            m.first_rows[:] = _pack_bits(bits)  # p bits leave no tail
        if entries:
            # keys place a few thousand entries at most, and at toy size a
            # loop over a bytearray costs less per call than np.bitwise_xor.at
            width = m.first_rows.shape[2]
            buf = bytearray(m.first_rows.tobytes())
            for i, j, t in entries:
                buf[(i * block_cols + j) * width + (t >> 3)] ^= 1 << (t & 7)
            m.first_rows = np.frombuffer(buf, dtype=np.uint8).reshape(m.first_rows.shape)
        return m

    @classmethod
    def identity(cls, block_rows: int, p: int) -> "QcMatrix":
        return cls.grid(block_rows, block_rows, p, [(i, i, 0) for i in range(block_rows)])

    def expand(self) -> DenseMatrix:
        """The dense matrix, built a group of block rows at a time so that
        no step holds more than about EXPAND_GROUP_BITS unpacked bits."""
        p = self.p
        out = DenseMatrix(self.rows, self.cols)
        shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p  # [t, s]
        group = max(1, EXPAND_GROUP_BITS // (p * self.cols))
        for b0 in range(0, self.block_rows, group):
            fr = _unpack(self.first_rows[b0 : b0 + group], p)  # (g, bcols, p)
            bits = fr[:, :, shift].transpose(0, 2, 1, 3)  # [g, t, j, s]
            out.data[b0 * p : b0 * p + bits.shape[0] * p] = _pack_bits(
                bits.reshape(-1, self.cols)
            )
        return out

    @classmethod
    def fold_dense_rows(cls, leading: np.ndarray, block_cols: int, p: int) -> "QcMatrix":
        """Build from packed leading rows (block_rows x ceil(block_cols*p/8))."""
        bits = _unpack(leading, block_cols * p).reshape(leading.shape[0], block_cols, p)
        return cls.grid(*bits.shape, bits=bits)

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
        rev = -np.arange(self.p) % self.p
        bits = _unpack(self.first_rows, self.p)[:, :, rev].transpose(1, 0, 2)
        return QcMatrix.grid(*bits.shape, bits=bits)

    def multiply(self, other: "QcMatrix") -> "QcMatrix":
        """A B from the leading rows: row bi*p of A B is B^T times row
        bi*p of A, summed from the rotated columns of B^T."""
        if self.p != other.p:
            raise ShapeError(f"block sizes {self.p} and {other.p}")
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        columns = ColumnRotations(other.transpose())
        lead_bits = _unpack(self.first_rows, self.p).reshape(self.block_rows, self.cols)
        leading = np.frombuffer(b"".join(
            columns.sum_bytes(np.flatnonzero(row).tolist()) for row in lead_bits
        ), dtype=np.uint8).reshape(self.block_rows, _width(other.cols))
        return QcMatrix.fold_dense_rows(leading, other.block_cols, self.p)

    def mul_vec(self, v: BitVector) -> BitVector:
        return ColumnRotations(self).mul_vec(v)

    def vec_mul(self, v: BitVector) -> BitVector:
        if self.rows != v.length:
            raise ShapeError(f"length-{v.length} times {self.rows}x{self.cols}")
        return ColumnRotations(self.transpose()).mul_vec(v)

    def rank(self) -> int:
        return self.expand().rank()

    def invert(self) -> "QcMatrix":
        """A^-1: the solve against the identity."""
        return self.solve(QcMatrix.identity(self.block_rows, self.p))

    def solve(self, rhs: "QcMatrix") -> "QcMatrix":
        """A^-1 B for A = self, B = rhs: Gauss-Jordan over
        R = GF(2)[x]/(x^p - 1) on [A | B], whose row i is one int with
        block (i, c) in field c as a polynomial (first-row bit t is x^t).

        A pivot must be a unit of R (the extended gcd against x^p - 1
        inverts it); while it is not, the next row below is merged in by
        the extended gcd of the two entries, [[u, v], [b/g, a/g]] of
        determinant 1, and if the rows run out A is singular.  The
        forward pass shifts each cleared column off the rows below; back
        substitution clears A's upper triangle on B's fields alone.  Each
        pivot row's multiples are tabulated per 4 bits of the multiplier.
        Row 0 of A times the result is checked against B's.  A permutation
        of circulant shifts needs no elimination: A^-1 = A^T.
        """
        n0, m0, p = self.block_rows, rhs.block_cols, self.p
        if self.block_cols != n0 or (rhs.block_rows, rhs.p) != (n0, p):
            raise ShapeError(f"cannot solve {self!r} against {rhs!r}")
        fr = self.first_rows
        if np.count_nonzero(fr) == n0:  # A^-1 = A^T for a shift permutation
            bi, bj, byte = np.nonzero(fr)
            if np.bitwise_count(fr[bi, bj, byte]).max() == 1 and len(set(bi)) == len(set(bj)) == n0:
                return self.transpose().multiply(rhs)
        field, modulus = (1 << p) - 1, (1 << p) | 1
        masks = _field_masks((n0 + m0) * p, p)

        def rotate(row, t):
            high, low = masks[t]
            return ((row << t) & high) | ((row >> (p - t)) & low)

        def times(f, row):
            out = 0
            for t in _ones(f):
                out ^= rotate(row, t)
            return out

        def tables(row):
            # tabs[k][v] = row times v x^(4k) for the 16 polynomials v of
            # degree below 4, so times f costs one XOR per 4 bits of f
            tabs = []
            for k in range(0, p, 4):
                tab = [0]
                for t in range(k, min(k + 4, p)):
                    r = rotate(row, t)
                    tab += [x ^ r for x in tab]
                tabs.append(tab)
            return tabs

        def plus_times(acc, f, tabs):
            k = 0
            while f:
                acc ^= tabs[k][f & 15]
                f >>= 4
                k += 1
            return acc

        lead_a, lead_b = ([int.from_bytes(row.tobytes(), "little") for row in
                           _pack_bits(_unpack(m.first_rows, p).reshape(n0, m.cols))]
                          for m in (self, rhs))
        rows = [a | b << (n0 * p) for a, b in zip(lead_a, lead_b)]
        for c in range(n0):
            for j in range(c + 1, n0 + 1):
                a = rows[c] & field
                g, inv = _poly_xgcd(a, modulus)[:2]
                if g == 1 or j == n0:
                    break
                b = rows[j] & field
                if b:
                    _, u, v, a_g, b_g = _poly_xgcd(a, b)
                    rows[c], rows[j] = (times(u, rows[c]) ^ times(v, rows[j]),
                                        times(b_g, rows[c]) ^ times(a_g, rows[j]))
            if g != 1:
                raise SingularMatrixError(f"block column {c} has no unit pivot")
            top = times(inv, rows[c])
            tabs = None
            rows[c] = top >> p
            for i in range(c + 1, n0):
                entry = rows[i] & field
                if entry:
                    tabs = tabs or tables(top)
                    rows[i] = plus_times(rows[i], entry, tabs)
                rows[i] >>= p
        # rows[i] holds A's fields right of column i, then B's
        solved = [row >> ((n0 - 1 - i) * p) for i, row in enumerate(rows)]
        for c in range(n0 - 1, 0, -1):
            tabs = None
            for i in range(c):
                entry = (rows[i] >> ((c - i - 1) * p)) & field
                if entry:
                    tabs = tabs or tables(solved[c])
                    solved[i] = plus_times(solved[i], entry, tabs)
        check = 0
        for c in range(n0):
            check ^= times((lead_a[0] >> (c * p)) & field, solved[c])
        if check != lead_b[0]:
            raise AssertionError("leading row 0 of A A^-1 B is not that of B")
        leading = b"".join(row.to_bytes(_width(m0 * p), "little") for row in solved)
        return QcMatrix.fold_dense_rows(np.frombuffer(leading, np.uint8).reshape(n0, -1), m0, p)

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


class ColumnRotations:
    """M v^T for a QC matrix M and a dense v, read from M's first rows.

    Column t of a p x p circulant is its column 0 rotated down by t: bit
    i moves to bit (i + t) mod p.  For each block column, column 0 of
    its blocks, stacked over the block rows (block row bi in bits
    [bi p, bi p + p)), is held as one Python integer of `rows` bits.
    M v^T is the XOR, over the support of v, of those integers, each
    rotated field by field by its t.  Rotation is linear, so the
    integers are XORed per t first and each of the at most p sums is
    rotated once, by two shifts under the field masks of t.  A support
    bit costs one rows-bit XOR; nothing is expanded.
    """

    def __init__(self, m: QcMatrix):
        p, bc = m.p, m.block_cols
        self.rows, self.cols, self.p = m.rows, m.cols, p
        col0 = _unpack(m.first_rows, p)[:, :, -np.arange(p) % p]  # (br, bc, p)
        stacked = _pack_bits(col0.transpose(1, 0, 2).reshape(bc, self.rows))
        self.columns = [int.from_bytes(row.tobytes(), "little") for row in stacked]
        self.masks = _field_masks(self.rows, p)

    def sum_bytes(self, support) -> bytes:
        """XOR of the columns in support (ints; a repeat cancels), packed
        LSB-first as BitVector.to_bytes packs a vector."""
        p, columns = self.p, self.columns
        by_shift = [0] * p
        for j in support:
            bj, t = divmod(j, p)
            by_shift[t] ^= columns[bj]
        total = by_shift[0]
        for t in range(1, p):
            x = by_shift[t]
            if x:
                high, low = self.masks[t]
                total ^= ((x << t) & high) | ((x >> (p - t)) & low)
        return total.to_bytes(_width(self.rows), "little")

    def mul_vec(self, v: BitVector) -> BitVector:
        if self.cols != v.length:
            raise ShapeError(f"{self.rows}x{self.cols} times length-{v.length}")
        return BitVector.from_bytes(self.rows, self.sum_bytes(v.support()))


class ColumnSupports:
    """M v^T for a QC matrix M and a sparse v, read from M's first rows.

    Row u of a circulant whose first row has a one at shift s holds that
    one at column (u + s) mod p, so column t of block (bi, bj) is 1 at
    rows bi*p + (t - s) mod p.  `table[j]` lists the rows where column j
    is 1, padded with the sentinel `rows` to the largest column weight;
    it is built from the (block row, block column, shift) triples of
    the first rows, and M v^T is one gather and one bincount parity.
    """

    def __init__(self, m: QcMatrix):
        p = m.p
        self.rows, self.cols = m.rows, m.cols
        # unpack only the nonzero bytes of the first rows: keys are sparse
        bj, bi, byte = np.nonzero(m.first_rows.transpose(1, 0, 2))
        hit, bit = np.nonzero(_unpack(m.first_rows[bi, bj, byte][:, None], 8))
        bj, bi, s = bj[hit], bi[hit], 8 * byte[hit] + bit
        counts = np.bincount(bj, minlength=m.block_cols)
        slot = np.arange(bj.size) - np.repeat(np.cumsum(counts) - counts, counts)
        t = np.arange(p)
        self.table = np.full((m.cols, counts.max(initial=0)), m.rows, dtype=np.int32)
        self.table[bj[:, None] * p + t, slot[:, None]] = bi[:, None] * p + (t - s[:, None]) % p

    def sum_columns(self, idx) -> np.ndarray:
        """XOR of the columns idx as a 0/1 array; a repeated index cancels."""
        counts = np.bincount(self.table[idx].ravel(), minlength=self.rows + 1)
        return counts[: self.rows] & 1


def rank(a) -> int:
    """Rank of a DenseMatrix or QcMatrix (a QC matrix expands)."""
    return a.rank()
