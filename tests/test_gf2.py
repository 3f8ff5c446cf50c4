"""GF(2) linear algebra: dense and quasi-cyclic agreement.

perfbench/reference.py, which uses numpy alone and never this package's
gf2, is the oracle: dense and QC results are checked against its
expansion, products and rank, inverses and solves as A X = B in its
arithmetic, and the grouped expansion against blocks built from their
first rows with np.roll.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldgmsig import gf2
from ldgmsig.gf2 import (
    BitVector,
    DenseMatrix,
    QcMatrix,
    ShapeError,
    SingularMatrixError,
    solve,
)

from conftest import times
from reference import ColumnTable, dense, matmul, rank, vec_bits


def random_dense(rng, rows, cols):
    return DenseMatrix.from_bits(
        rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def random_qc(rng, br, bc, p):
    raw = rng.integers(0, 256, size=(br, bc, (p + 7) // 8), dtype=np.uint8)
    return QcMatrix(br, bc, p, raw)


def random_invertible(rng, make, *shape):
    for _ in range(200):
        m = make(rng, *shape)
        try:
            return m, m.invert()
        except SingularMatrixError:
            continue
    raise AssertionError("no invertible sample in 200 draws")


# ---------------------------------------------------------------- vectors

def test_bitvector_support_roundtrip():
    v = BitVector.from_support(13, [0, 5, 12])
    assert v.support() == [0, 5, 12]
    assert v.weight() == 3
    assert np.flatnonzero(vec_bits(v)).tolist() == [0, 5, 12]


def test_bitvector_xor():
    a = BitVector.from_support(4, [0, 1])
    b = BitVector.from_support(4, [1, 2])
    assert a.xor(b).to01() == "1010"
    assert np.array_equal(vec_bits(a.xor(b)), vec_bits(a) ^ vec_bits(b))


def test_bitvector_tail_masked():
    raw = np.array([0xFF], dtype=np.uint8)
    assert BitVector(5, raw).weight() == 5


def test_bitvector_bad_support():
    with pytest.raises(ValueError):
        BitVector.from_support(4, [4])


# ----------------------------------------------------------------- dense

def test_dense_identity_acts_trivially():
    rng = np.random.default_rng(1)
    a = dense(random_dense(rng, 7, 7))
    eye = dense(DenseMatrix.identity(7))
    assert np.array_equal(matmul(eye, a), a)
    assert np.array_equal(matmul(a, eye), a)
    assert DenseMatrix.identity(7).rank() == 7


def test_dense_invert_roundtrip():
    rng = np.random.default_rng(6)
    for n in (4, 9, 16):
        a, a_inv = random_invertible(rng, random_dense, n, n)
        assert np.array_equal(matmul(dense(a), dense(a_inv)), np.eye(n))
        assert np.array_equal(matmul(dense(a_inv), dense(a)), np.eye(n))


def test_dense_singular_raises():
    m = DenseMatrix(3, 3)
    with pytest.raises(SingularMatrixError):
        m.invert()


def test_dense_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        DenseMatrix(3, 4).invert()
    with pytest.raises(ShapeError):
        solve(DenseMatrix(3, 4), BitVector(4))


def test_rank_of_outer_product_is_two():
    # a^T b for full-rank 2 x 12 factors has rank exactly 2
    rng = np.random.default_rng(7)
    while True:
        a = random_dense(rng, 2, 12)
        b = random_dense(rng, 2, 12)
        if a.rank() == 2 and b.rank() == 2:
            break
    assert DenseMatrix.from_bits(matmul(dense(a).T, dense(b))).rank() == 2


def test_solve_recovers_vector():
    rng = np.random.default_rng(8)
    a, _ = random_invertible(rng, random_dense, 8, 8)
    v = BitVector.from_support(8, [2, 5])
    assert solve(a, times(a, v)) == v


def test_solve_reports_no_solution():
    # rank-1 matrix, target outside the column space
    a = DenseMatrix.from_bits(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    assert solve(a, BitVector.from_support(2, [0])) is None


# ------------------------------------------------------------------- qc

@pytest.mark.parametrize("p", [3, 4, 5])
def test_qc_expand_agrees_with_dense(p):
    rng = np.random.default_rng(10 + p)
    for _ in range(8):
        br, bc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = random_qc(rng, br, bc, p)
        b = random_qc(rng, bc, int(rng.integers(1, 7)), p)
        assert np.array_equal(dense(a.multiply(b)), matmul(dense(a), dense(b)))
        assert np.array_equal(dense(a.transpose()), dense(a).T)
        a2 = random_qc(rng, br, bc, p)
        assert np.array_equal(dense(a.add(a2)), dense(a) ^ dense(a2))
        assert np.array_equal(a.expand().to_bits(), dense(a))
        assert a.rank() == rank(dense(a))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_qc_invert_agrees_with_dense(p):
    rng = np.random.default_rng(20 + p)
    done = 0
    while done < 5:
        br = int(rng.integers(1, 7))
        a = random_qc(rng, br, br, p)
        try:
            a_inv = a.invert()
        except SingularMatrixError:
            continue
        assert np.array_equal(matmul(dense(a), dense(a_inv)), np.eye(br * p))
        assert np.array_equal(matmul(dense(a_inv), dense(a)), np.eye(br * p))
        done += 1


def test_qc_mul_vec_agrees_with_dense():
    # M v^T and u M from the rotated columns of M and of M^T
    rng = np.random.default_rng(30)
    a = random_qc(rng, 3, 5, 4)
    v = BitVector.from_support(20, [0, 7, 13, 19])
    assert gf2.ColumnRotations(a).mul_vec(v) == times(a, v)
    u = BitVector.from_support(12, [2, 11])
    assert np.array_equal(vec_bits(gf2.ColumnRotations(a.transpose()).mul_vec(u)),
                          matmul(vec_bits(u), dense(a)))


def test_qc_identity_and_blocks():
    eye = QcMatrix.identity(3, 5)
    assert np.array_equal(dense(eye), np.eye(15))
    assert np.array_equal(eye.first_rows[:, :, 0], np.eye(3, dtype=np.uint8))
    # first row x puts block (0, 2) at the cyclic shift right by one
    eye.first_rows[0, 2, 0] = 0b10
    bits = dense(eye)
    assert np.array_equal(bits[:5, 10:], np.roll(np.eye(5, dtype=np.uint8), 1, axis=1))


def circulant(p, t):
    """The p x p circulant of first row x^t: row u has its one at column
    (u + t) mod p."""
    out = np.zeros((p, p), dtype=np.uint8)
    out[np.arange(p), (np.arange(p) + t) % p] = 1
    return out


@given(st.sampled_from([1, 2, 3, 8, 9, 50]), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.data())
def test_grid_is_the_xor_of_single_shift_circulants(p, br, bc, with_bits, data):
    entry = st.tuples(st.integers(0, br - 1), st.integers(0, bc - 1), st.integers(0, p - 1))
    entries = data.draw(st.lists(entry, max_size=12))
    if entries:
        # repeats cancel in pairs
        entries += data.draw(st.lists(st.sampled_from(entries), max_size=6))
    bits = None
    if with_bits:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        bits = (rng.random((br, bc, p)) < data.draw(st.sampled_from([0.0, 0.1, 0.5]))
                ).astype(np.uint8)
    want = np.zeros((br * p, bc * p), dtype=np.uint8)
    ones = [] if bits is None else [tuple(e) for e in np.argwhere(bits)]
    for i, j, t in ones + entries:
        want[i * p:(i + 1) * p, j * p:(j + 1) * p] ^= circulant(p, t)
    got = QcMatrix.grid(br, bc, p, entries, bits)
    assert np.array_equal(got.expand().to_bits(), want)
    assert got.first_rows.shape == (br, bc, (p + 7) // 8)


def test_grid_refuses_bits_of_another_shape():
    with pytest.raises(ShapeError):
        QcMatrix.grid(2, 3, 4, bits=np.zeros((3, 2, 4), dtype=np.uint8))


def test_random_invertible_battery():
    # 200 fresh invertible instances across representations and sizes
    rng = np.random.default_rng(31)
    for i in range(200):
        if i % 2:
            n = int(rng.integers(2, 12))
            a, a_inv = random_invertible(rng, random_dense, n, n)
            assert np.array_equal(matmul(dense(a), dense(a_inv)), np.eye(n))
        else:
            p = int(rng.integers(2, 6))
            br = int(rng.integers(1, 5))
            a, a_inv = random_invertible(rng, random_qc, br, br, p)
            assert np.array_equal(matmul(dense(a), dense(a_inv)), np.eye(br * p))


def test_generic_helpers_dispatch():
    rng = np.random.default_rng(32)
    d = random_dense(rng, 4, 6)
    q = random_qc(rng, 2, 3, 4)
    assert gf2.rank(d) == rank(dense(d))
    assert gf2.rank(q) == rank(dense(q))


# ------------------------------------------------------ elimination kernels
# _eliminate holds each packed row as one Python int.  It must agree
# with reference_eliminate, the per-pivot loop on uint8 rows that it
# replaced, through invert, rank and solve.

@st.composite
def bit_arrays(draw, square=False, min_rows=1):
    """0/1 arrays up to 140 x 140: random (sparse or dense), made
    rank-deficient, or, when square, made invertible."""
    rows = draw(st.integers(min_rows, 140))
    cols = rows if square else draw(st.integers(1, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(
        ["random", "deficient"] + (["invertible"] if square else [])))
    if kind == "invertible":
        # unit lower times unit upper triangular, rows permuted
        lower = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(rows, dtype=int)
        upper = np.triu(rng.integers(0, 2, (rows, rows)), 1) + np.eye(rows, dtype=int)
        return ((lower @ upper) & 1)[rng.permutation(rows)].astype(np.uint8)
    density = draw(st.sampled_from([0.05, 0.5]))
    bits = (rng.random((rows, cols)) < density).astype(np.uint8)
    if kind == "deficient" and rows > 1:
        bits[-1] = bits[0] ^ bits[rows // 2]
    return bits


def invertible_qc(rng, br, p):
    """Block unit upper times block unit lower triangular: QC, invertible."""
    upper, lower = random_qc(rng, br, br, p), random_qc(rng, br, br, p)
    upper.first_rows[np.tril_indices(br)] = 0
    lower.first_rows[np.triu_indices(br)] = 0
    for i in range(br):
        upper.first_rows[i, i, 0] = lower.first_rows[i, i, 0] = 1
    return upper.multiply(lower)


def reference_eliminate(work, ncols):
    """Gauss-Jordan one pivot at a time on the uint8 rows, in place: the
    slow reference for _eliminate."""
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
        allbits = (work[:, byte] >> bit) & 1
        allbits[rk] = 0
        sel = np.nonzero(allbits)[0]
        if sel.size:
            work[sel] ^= work[rk]
        pivots.append(col)
        rk += 1
    return pivots, rk


def kernels_agree(work, ncols):
    """Eliminate copies of work with the reference and with _eliminate,
    assert the same pivots, rank and work array from each, and return
    the reference's ((pivots, rank), work)."""
    done = work.copy()
    want = reference_eliminate(done, ncols)
    copy = work.copy()
    assert gf2._eliminate(copy, ncols) == want
    assert np.array_equal(copy, done)
    return want, done


@given(bit_arrays(square=True))
def test_table_kernel_inverts_like_pivot_loop(bits):
    a = DenseMatrix.from_bits(bits)
    n, width = a.rows, a.data.shape[1]
    work = np.concatenate([a.data, DenseMatrix.identity(n).data], axis=1)
    (_, rk), done = kernels_agree(work, n)
    if rk < n:
        with pytest.raises(SingularMatrixError):
            a.invert()
        return
    assert DenseMatrix(n, n, done[:, width:]) == a.invert()


@given(bit_arrays(), st.data())
def test_table_kernel_ranks_like_pivot_loop(bits, data):
    # pivots only in the first ncols columns; the rest ride along, and
    # ncols need not end on a byte boundary
    ncols = data.draw(st.integers(1, bits.shape[1]))
    (pivots, rk), _ = kernels_agree(DenseMatrix.from_bits(bits).data, ncols)
    assert rk == len(pivots) == rank(bits[:, :ncols])


@given(bit_arrays(min_rows=2), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_table_kernel_solves_like_pivot_loop(bits, consistent, seed):
    a = DenseMatrix.from_bits(bits)
    rng = np.random.default_rng(seed)
    x = BitVector.from_support(
        a.cols, np.flatnonzero(rng.integers(0, 2, a.cols)).tolist())
    rhs = times(a, x)
    if not consistent:
        # a repeated row with a different right-hand side
        bits = bits.copy()
        bits[-1] = bits[0]
        a = DenseMatrix.from_bits(bits)
        want = vec_bits(rhs)
        want[-1] = want[0] ^ 1
        rhs = BitVector.from_support(a.rows, np.flatnonzero(want))
    got = solve(a, rhs)
    if consistent:
        assert got is not None and times(a, got) == rhs
    else:
        assert got is None


# most block rows drawn per block size p: the reference ranks up to
# about 400 expanded rows
QC_INVERT_BLOCKS = {1: 40, 2: 30, 3: 20, 4: 20, 5: 16, 7: 12, 50: 8, 64: 6,
                    65: 6, 80: 5, 100: 4}


def solves(a, x, b) -> bool:
    """A X = B in the reference's arithmetic."""
    return np.array_equal(matmul(dense(a), dense(x)), dense(b))


def singular(a) -> bool:
    return rank(dense(a)) < a.rows


@given(st.sampled_from(sorted(QC_INVERT_BLOCKS)), st.data())
def test_qc_invert_route_matches_dense_inverse(p, data):
    # x^p - 1 has several distinct irreducible factors for p = 3, 5, 7,
    # 50, 65, 80 and 100, so a column of an invertible grid may hold no
    # unit; it has one for p = 1, 2, 4 and 64
    most = QC_INVERT_BLOCKS[p]
    br = data.draw(st.one_of(st.integers(1, most), st.just(most)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        a = invertible_qc(rng, br, p)
    else:
        a = random_qc(rng, br, br, p)
    if singular(a):
        with pytest.raises(SingularMatrixError):
            a.invert()
        return
    assert solves(a, a.invert(), QcMatrix.identity(br, p))


def qc_from_polys(polys, p):
    """Square grid whose block (i, j) has first-row polynomial polys[i][j]
    (bit t is x^t)."""
    n0 = len(polys)
    first = np.array([[list(f.to_bytes(gf2._width(p), "little")) for f in row]
                      for row in polys], dtype=np.uint8)
    return QcMatrix(n0, n0, p, first)


def test_qc_invert_without_a_unit_pivot():
    # x^3 - 1 = (x + 1)(x^2 + x + 1), and neither x + 1 nor x^2 + x + 1
    # is a unit; the determinant x^2 is one, so the matrix is invertible
    a = qc_from_polys([[0b011, 0b001], [0b111, 0b001]], 3)
    assert not singular(a)
    assert solves(a, a.invert(), QcMatrix.identity(2, 3))


def shift_permutation(rng, br, p):
    """A permutation of circulant shifts: one single-one block per block
    row and block column."""
    return QcMatrix.grid(br, br, p, [(i, int(j), int(rng.integers(p)))
                                     for i, j in enumerate(rng.permutation(br))])


@given(st.sampled_from(sorted(QC_INVERT_BLOCKS)), st.integers(1, 3),
       st.sampled_from(["invertible", "random", "permutation", "singular"]),
       st.data())
def test_qc_solve_matches_dense_solve(p, rhs_blocks, kind, data):
    # A^-1 B from the ring elimination, checked as A X = B against the
    # reference; a zero block column makes A singular
    br = data.draw(st.integers(1, QC_INVERT_BLOCKS[p]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "invertible":
        a = invertible_qc(rng, br, p)
    elif kind == "permutation":
        a = shift_permutation(rng, br, p)
    else:
        a = random_qc(rng, br, br, p)
        if kind == "singular":
            a.first_rows[:, 0] = 0
    b = random_qc(rng, br, rhs_blocks, p)
    if singular(a):
        with pytest.raises(SingularMatrixError):
            a.solve(b)
        return
    assert kind != "singular"
    assert solves(a, a.solve(b), b)


def test_qc_solve_without_a_unit_pivot():
    # the p = 3 pivot merge of test_qc_invert_without_a_unit_pivot,
    # against a right-hand side of three block columns
    a = qc_from_polys([[0b011, 0b001], [0b111, 0b001]], 3)
    b = random_qc(np.random.default_rng(60), 2, 3, 3)
    assert solves(a, a.solve(b), b)


def test_qc_invert_singular_modulo_one_factor():
    # diag(x + 1, 1) is singular modulo x + 1 only: its determinant
    # x + 1 is nonzero, yet no unit
    a = qc_from_polys([[0b011, 0], [0, 0b001]], 3)
    assert singular(a)
    with pytest.raises(SingularMatrixError):
        a.invert()


def clmul(a, b):
    """Product of GF(2) polynomials held as bit masks."""
    out = 0
    for t in range(b.bit_length()):
        if b >> t & 1:
            out ^= a << t
    return out


@given(st.integers(0, 2 ** 100 - 1), st.integers(0, 2 ** 100 - 1))
def test_poly_xgcd_bezout_and_divides(a, b):
    if a == b == 0:
        return
    g, u, v, a_g, b_g = gf2._poly_xgcd(a, b)
    assert clmul(u, a) ^ clmul(v, b) == g
    assert clmul(a_g, g) == a and clmul(b_g, g) == b
    # [[u, v], [b / g, a / g]] has determinant 1
    assert clmul(u, a_g) ^ clmul(v, b_g) == 1


# ------------------------------------------------- first-row products
# ColumnRotations (verify, QC x QC products) and ColumnSupports (sign)
# compute M v^T from the first rows; the reference's expansion and
# column table are their oracle, and blocks rolled from their first rows
# are the reference of the grouped expand.

@st.composite
def qc_grids(draw):
    """QC matrices up to 4 x 4 blocks over p in {1, 3, 4, 50, 64, 65, 80,
    100}: random first rows of some density (0 for the zero matrix), or
    zero to three shifts in each block."""
    p = draw(st.sampled_from([1, 3, 4, 50, 64, 65, 80, 100]))
    br, bc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from([None, 0.0, 0.05, 0.5, 1.0]))
    if density is None:
        bits = np.zeros((br, bc, p), dtype=np.uint8)
        for i, j in np.ndindex(br, bc):
            bits[i, j, rng.choice(p, size=int(rng.integers(0, min(p, 3) + 1)),
                                  replace=False)] = 1
    else:
        bits = (rng.random((br, bc, p)) < density).astype(np.uint8)
    return QcMatrix(br, bc, p, np.packbits(bits, axis=-1, bitorder="little"))


def draw_vector(data, length):
    """The empty vector, the all-ones vector or a random one."""
    kind = data.draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "empty":
        return BitVector(length)
    if kind == "full":
        return BitVector.from_support(length, range(length))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    bits = rng.random(length) < data.draw(st.sampled_from([0.02, 0.15, 0.5]))
    return BitVector.from_support(length, np.flatnonzero(bits).tolist())


@given(qc_grids(), st.data())
def test_rotated_columns_multiply_like_expanded(m, data):
    table = ColumnTable(m)
    v = draw_vector(data, m.cols)
    rotations = gf2.ColumnRotations(m)
    assert np.array_equal(vec_bits(rotations.mul_vec(v)), table.times(v.support()))
    # a repeated column cancels
    support = v.support()
    want = BitVector.from_support(m.rows, np.flatnonzero(table.times(support[2:])))
    assert rotations.sum_bytes(support + support[:2]) == want.to_bytes()
    u = draw_vector(data, m.rows)
    assert np.array_equal(vec_bits(gf2.ColumnRotations(m.transpose()).mul_vec(u)),
                          matmul(vec_bits(u), dense(m)))
    assert np.array_equal(dense(m.multiply(m.transpose())), matmul(dense(m), dense(m).T))


@given(qc_grids(), st.data())
def test_column_supports_sum_like_expanded(m, data):
    bits = dense(m)
    idx = data.draw(st.one_of(
        st.just([]), st.just(list(range(m.cols))),
        st.lists(st.integers(0, m.cols - 1), max_size=40)))
    # a repeated column cancels, as e and c overlapping do in the signer
    want = bits[:, np.asarray(idx, dtype=np.intp)].sum(axis=1) & 1
    assert np.array_equal(gf2.ColumnSupports(m).sum_columns(idx), want)


@given(qc_grids(), st.sampled_from([1, 300, gf2.EXPAND_GROUP_BITS]))
def test_grouped_expand_matches_blockwise_circulants(m, group_bits):
    p = m.p
    first = np.unpackbits(m.first_rows, axis=-1, count=p, bitorder="little")
    want = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for i, j in np.ndindex(m.block_rows, m.block_cols):
        # row u of a circulant is its first row shifted right by u
        block = np.stack([np.roll(first[i, j], u) for u in range(p)])
        want[i * p:(i + 1) * p, j * p:(j + 1) * p] = block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "EXPAND_GROUP_BITS", group_bits)
        got = m.expand()
    assert np.array_equal(got.to_bits(), want)
