"""GF(2) linear algebra: dense, circulant, and quasi-cyclic agreement.

The dense routines are the oracle for everything else; circulant and
QC results are checked against their expanded dense counterparts.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldgmsig import gf2
from ldgmsig.gf2 import (
    BitVector,
    CirculantBlock,
    DenseMatrix,
    QcMatrix,
    ShapeError,
    SingularMatrixError,
    solve,
)


def random_dense(rng, rows, cols):
    return DenseMatrix.from_bits(
        rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def random_qc(rng, br, bc, p):
    m = QcMatrix.zeros(br, bc, p)
    raw = rng.integers(0, 256, size=m.first_rows.shape, dtype=np.uint8)
    return QcMatrix(br, bc, p, raw)


def random_invertible(rng, make, *shape):
    for _ in range(200):
        m = make(rng, *shape)
        try:
            return m, gf2.invert(m)
        except SingularMatrixError:
            continue
    raise AssertionError("no invertible sample in 200 draws")


# ---------------------------------------------------------------- vectors

def test_bitvector_support_roundtrip():
    v = BitVector.from_support(13, [0, 5, 12])
    assert v.support() == [0, 5, 12]
    assert v.weight() == 3
    assert v.get(5) == 1 and v.get(6) == 0


def test_bitvector_from01_to01():
    v = BitVector.from01("01101")
    assert v.support() == [1, 2, 4]
    assert v.to01() == "01101"


def test_bitvector_xor():
    a = BitVector.from01("1100")
    b = BitVector.from01("0110")
    assert a.xor(b).to01() == "1010"


def test_bitvector_tail_masked():
    raw = np.array([0xFF], dtype=np.uint8)
    assert BitVector(5, raw).weight() == 5


def test_bitvector_bad_support():
    with pytest.raises(ValueError):
        BitVector.from_support(4, [4])


# ----------------------------------------------------------------- dense

def test_dense_identity_acts_trivially():
    rng = np.random.default_rng(1)
    a = random_dense(rng, 7, 7)
    eye = DenseMatrix.identity(7)
    assert eye.mul_matrix(a) == a
    assert a.mul_matrix(eye) == a
    assert a.add(a) == DenseMatrix.zeros(7, 7)
    assert eye.rank() == 7


def test_dense_multiply_against_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_dense(rng, 5, 9)
        b = random_dense(rng, 9, 6)
        want = (a.to_bits() @ b.to_bits()) & 1
        assert np.array_equal(a.mul_matrix(b).to_bits(), want)


def test_dense_mul_vec_matches_rows():
    rng = np.random.default_rng(3)
    a = random_dense(rng, 6, 11)
    v = BitVector.from_support(11, [0, 4, 7])
    want = (a.to_bits() @ np.array([v.get(i) for i in range(11)])) & 1
    assert np.array_equal(
        [a.mul_vec(v).get(i) for i in range(6)], want)


def test_dense_transpose_product_rule():
    rng = np.random.default_rng(4)
    a = random_dense(rng, 5, 8)
    b = random_dense(rng, 8, 7)
    lhs = a.mul_matrix(b).transpose()
    rhs = b.transpose().mul_matrix(a.transpose())
    assert lhs == rhs


def test_dense_multiply_associates_on_vectors():
    rng = np.random.default_rng(5)
    a = random_dense(rng, 6, 9)
    b = random_dense(rng, 9, 12)
    v = BitVector.from_support(12, [1, 3, 10])
    assert a.mul_matrix(b).mul_vec(v) == a.mul_vec(b.mul_vec(v))


def test_dense_invert_roundtrip():
    rng = np.random.default_rng(6)
    for n in (4, 9, 16):
        a, a_inv = random_invertible(rng, random_dense, n, n)
        assert a.mul_matrix(a_inv) == DenseMatrix.identity(n)
        assert a_inv.mul_matrix(a) == DenseMatrix.identity(n)


def test_dense_singular_raises():
    m = DenseMatrix.zeros(3, 3)
    with pytest.raises(SingularMatrixError):
        m.invert()


def test_dense_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        DenseMatrix.zeros(3, 4).mul_matrix(DenseMatrix.zeros(3, 4))
    with pytest.raises(ShapeError):
        DenseMatrix.zeros(3, 4).add(DenseMatrix.zeros(3, 5))


def test_rank_of_outer_product_is_two():
    # a^T b for full-rank 2 x 12 factors has rank exactly 2
    rng = np.random.default_rng(7)
    while True:
        a = random_dense(rng, 2, 12)
        b = random_dense(rng, 2, 12)
        if a.rank() == 2 and b.rank() == 2:
            break
    assert a.transpose().mul_matrix(b).rank() == 2


def test_solve_recovers_vector():
    rng = np.random.default_rng(8)
    a, _ = random_invertible(rng, random_dense, 8, 8)
    v = BitVector.from_support(8, [2, 5])
    assert solve(a, a.mul_vec(v)) == v


def test_solve_reports_no_solution():
    # rank-1 matrix, target outside the column space
    a = DenseMatrix.from_bits(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    assert solve(a, BitVector.from01("10")) is None


# ------------------------------------------------------------- circulant

def test_circulant_polynomial_product():
    # x^3 * x^3 = x^6 = x^2 mod (x^4 - 1)
    a = CirculantBlock(4, BitVector.from01("0001"))
    assert a.multiply(a).first_row == BitVector.from01("0010")


@pytest.mark.parametrize("p", [3, 5])
def test_circulant_inverse_matches_exhaustive_scan(p):
    # oracle: scan all 2^p first rows for a multiplicative inverse; invert()
    # must return exactly the scan's answer or report singular when the scan
    # comes up empty (as it does for every even-weight row, e.g. 110 at p=3,
    # whose product with the all-ones row vanishes)
    eye = CirculantBlock.identity(p)
    for poly in range(1 << p):
        a = CirculantBlock.from_poly(p, poly)
        brute = [
            c for q in range(1 << p)
            if (c := CirculantBlock.from_poly(p, q)).multiply(a) == eye
        ]
        if brute:
            assert len(brute) == 1
            got = a.invert()
            assert got == brute[0]
            assert a.multiply(got) == eye
        else:
            with pytest.raises(SingularMatrixError):
                a.invert()
    assert not CirculantBlock(3, BitVector.from01("110")).multiply(
        CirculantBlock(3, BitVector.from01("111"))).poly()


def test_circulant_commutes():
    rng = np.random.default_rng(9)
    for p in (3, 4, 5):
        for _ in range(10):
            a = CirculantBlock.from_poly(p, int(rng.integers(0, 1 << p)))
            b = CirculantBlock.from_poly(p, int(rng.integers(0, 1 << p)))
            assert a.multiply(b) == b.multiply(a)


def test_circulant_expand_is_cyclic():
    blk = CirculantBlock(4, BitVector.from01("1001"))
    bits = blk.expand().to_bits()
    for i in range(4):
        assert np.array_equal(bits[i], np.roll(bits[0], i))


# ------------------------------------------------------------------- qc

@pytest.mark.parametrize("p", [3, 4, 5])
def test_qc_expand_agrees_with_dense(p):
    rng = np.random.default_rng(10 + p)
    for _ in range(8):
        br, bc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = random_qc(rng, br, bc, p)
        b = random_qc(rng, bc, int(rng.integers(1, 7)), p)
        assert a.multiply(b).expand() == a.expand().mul_matrix(b.expand())
        assert a.transpose().expand() == a.expand().transpose()
        a2 = random_qc(rng, br, bc, p)
        assert a.add(a2).expand() == a.expand().add(a2.expand())
        assert a.rank() == a.expand().rank()


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
        assert a_inv.expand() == a.expand().invert()
        assert a.multiply(a_inv).expand() == DenseMatrix.identity(br * p)
        done += 1


def test_qc_mul_vec_agrees_with_dense():
    rng = np.random.default_rng(30)
    a = random_qc(rng, 3, 5, 4)
    v = BitVector.from_support(20, [0, 7, 13, 19])
    assert a.mul_vec(v) == a.expand().mul_vec(v)
    u = BitVector.from_support(12, [2, 11])
    assert a.vec_mul(u) == a.expand().vec_mul(u)


def test_qc_identity_and_blocks():
    eye = QcMatrix.identity(3, 5)
    assert eye.expand() == DenseMatrix.identity(15)
    blk = eye.block(1, 1)
    assert blk.is_identity()
    eye.set_block(0, 2, CirculantBlock.from_poly(5, 0b10))
    assert eye.block(0, 2).poly() == 0b10


def test_random_invertible_battery():
    # 200 fresh invertible instances across representations and sizes
    rng = np.random.default_rng(31)
    for i in range(200):
        if i % 2:
            n = int(rng.integers(2, 12))
            a, a_inv = random_invertible(rng, random_dense, n, n)
            assert gf2.multiply(a, a_inv) == DenseMatrix.identity(n)
        else:
            p = int(rng.integers(2, 6))
            br = int(rng.integers(1, 5))
            a, a_inv = random_invertible(rng, random_qc, br, br, p)
            assert gf2.multiply(a, a_inv).expand() == DenseMatrix.identity(br * p)


def test_generic_helpers_dispatch():
    rng = np.random.default_rng(32)
    d = random_dense(rng, 4, 6)
    q = random_qc(rng, 2, 3, 4)
    assert gf2.rank(d) == d.rank()
    assert gf2.rank(q) == q.expand().rank()
    assert gf2.transpose(q).expand() == q.expand().transpose()
    assert gf2.add(d, d).weight() == 0
    assert gf2.weight(BitVector.from01("0110")) == 2
    # mixed-representation product falls back to dense
    other = random_qc(rng, 3, 2, 4)
    mixed = gf2.multiply(q, other.expand())
    assert mixed == q.expand().mul_matrix(other.expand())


# ------------------------------------------------------ elimination kernels
# The table kernel (Method of Four Russians) serves systems from
# gf2.TABLE_MIN_ROWS rows up; here it runs at small shapes, called
# directly or through solve with the threshold lowered, and must agree
# with the per-pivot loop, the reference it replaces.

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


def both_kernels(work, ncols, reduce_above):
    """(result, work) of the table kernel and of the per-pivot loop."""
    out = []
    for kernel in (gf2._eliminate_table, gf2._eliminate_pivots):
        copy = work.copy()
        out.append((kernel(copy, ncols, reduce_above), copy))
    return out


@given(bit_arrays(square=True))
def test_table_kernel_inverts_like_pivot_loop(bits):
    a = DenseMatrix.from_bits(bits)
    n, width = a.rows, a.data.shape[1]
    work = np.concatenate([a.data, DenseMatrix.identity(n).data], axis=1)
    (table, table_work), (loop, loop_work) = both_kernels(work, n, True)
    assert table == loop
    # the left half ends in reduced echelon form, which is unique
    assert np.array_equal(table_work[:, :width], loop_work[:, :width])
    if loop[1] < n:
        with pytest.raises(SingularMatrixError):
            a.invert()
        return
    assert np.array_equal(table_work, loop_work)
    assert DenseMatrix(n, n, table_work[:, width:]) == a.invert()


@given(bit_arrays(), st.booleans())
def test_table_kernel_ranks_like_pivot_loop(bits, reduce_above):
    a = DenseMatrix.from_bits(bits)
    (table, table_work), (loop, loop_work) = both_kernels(
        a.data, a.cols, reduce_above)
    assert table[1] == loop[1] == a.rank()
    if reduce_above:
        assert table == loop
        assert np.array_equal(table_work, loop_work)


@given(bit_arrays(min_rows=2), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_table_kernel_solves_like_pivot_loop(bits, consistent, seed):
    a = DenseMatrix.from_bits(bits)
    rng = np.random.default_rng(seed)
    x = BitVector.from_support(
        a.cols, np.flatnonzero(rng.integers(0, 2, a.cols)).tolist())
    rhs = a.mul_vec(x)
    if not consistent:
        # a repeated row with a different right-hand side
        bits = bits.copy()
        bits[-1] = bits[0]
        a = DenseMatrix.from_bits(bits)
        flip = rhs.get(0) ^ 1
        rhs = BitVector.from_support(a.rows, [i for i in rhs.support()
                                              if i != a.rows - 1]
                                     + ([a.rows - 1] if flip else []))
    want = solve(a, rhs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "TABLE_MIN_ROWS", 1)
        got = solve(a, rhs)
    assert got == want
    if consistent:
        assert got is not None and a.mul_vec(got) == rhs
    else:
        assert got is None


@given(st.sampled_from([1, 3, 4, 50]), st.data())
def test_qc_invert_route_matches_dense_inverse(p, data):
    # p = 50 from 6 blocks up reaches the table kernel (300 rows and more)
    most = {1: 40, 3: 20, 4: 20, 50: 11}[p]
    br = data.draw(st.one_of(st.integers(1, most), st.just(most)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        a = invertible_qc(rng, br, p)
    else:
        a = random_qc(rng, br, br, p)
    try:
        want = a.expand().invert()
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            a.invert()
        return
    got = a.invert()
    assert got.expand() == want
    assert a.multiply(got) == QcMatrix.identity(br, p)
