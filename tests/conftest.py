"""Shared fixtures: one toy key pair per session plus custom sets.

The private key holds only the signing state (G, b, T, S).  Tests of
H, a, Q, Q^-1 and S^-1 read them from the *_factors fixtures, which run
the keygen stages on the same seed stream as assemble.  Keygen forms
none of Q, Q^-1 and S^-1 (it solves against T and S), so WeightFactors
materializes Q and Q^-1 and key_factors inverts S here.

DENSE_SET has block size p = 1, so its key matrices are plain binary
grids of 1 x 1 blocks; its denser generator rows keep the leftmost
k x k block invertible within the retry cap.  Z2_SET has two constraint
rows.
"""

import struct
import sys
import time
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from ldgmsig import keygen
from ldgmsig.fileio import PUBLIC_MAGIC
from ldgmsig.keygen import (
    WeightControl,
    assemble,
    generate_scrambler,
    generate_systematic,
    generate_weight_control,
)
from ldgmsig.gf2 import BitVector, QcMatrix
from ldgmsig.params import ParameterSet, get_params
from ldgmsig.rng import HashStream

# the suites check gf2's kernels against perfbench's numpy-only reference
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from reference import dense, matmul, vec_bits  # noqa: E402

# property tests draw the same examples on every run, and a slow shared
# machine must not turn a correct example into a deadline failure
settings.register_profile("ldgmsig", derandomize=True, deadline=None)
settings.load_profile("ldgmsig")

CANON_SEED = bytes(range(32))

# w_g = 9 of n = 28 puts about 4.5 ones per row into the left block,
# enough for an invertible information set within the retry cap.
# z = 1 forces the single constraint row to all-ones, so w must be even.
DENSE_SET = ParameterSet("dense-test", n=28, k=14, p=1, w=4, w_g=9, w_c=18,
                         z=1, m_t=1, m_s=2, x=5, y=3).validate()

# two constraint rows split the weight-w syndromes into genuinely
# orthogonal and non-orthogonal classes (z = 1 sets cannot: their
# all-ones row makes every even-weight vector orthogonal)
Z2_SET = ParameterSet("z2-test", n=96, k=48, p=2, w=3, w_g=9, w_c=18,
                      z=2, m_t=1, m_s=2, x=8, y=6).validate()


def times(m, v: BitVector) -> BitVector:
    """m v^T by the reference, for a dense or QC matrix m."""
    return BitVector.from_support(m.rows, np.flatnonzero(matmul(dense(m), vec_bits(v))))


def bit_grid(bits) -> QcMatrix:
    """The 0/1 array bits as a grid of 1 x 1 blocks (p = 1)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return QcMatrix.grid(*bits.shape, 1, bits=bits[:, :, None])


class WeightFactors(WeightControl):
    """Keygen's factors of Q, with Q and Q^-1."""

    def low_rank_part(self) -> QcMatrix:
        """Materialize R = a^T b on the grid of T: a and b are constant on
        each block of p columns, so every block of R is zero or all ones."""
        p = self.sparse_map.p
        outer = matmul(dense(self.lowrank_left).T, dense(self.constraints))
        return keygen._block_constant(outer[::p, ::p], p)

    def weight_ctrl(self) -> QcMatrix:
        """Materialize Q = R + T."""
        return self.low_rank_part().add(self.sparse_map)

    @cached_property
    def weight_ctrl_inv(self) -> QcMatrix:
        return self.weight_ctrl().invert()


class ScramblerFactors(NamedTuple):
    scrambler: QcMatrix
    scrambler_inv: QcMatrix


class Factors(NamedTuple):
    generator: QcMatrix
    parity_check: QcMatrix
    wc: WeightFactors
    scr: ScramblerFactors


def key_factors(ps, seed=CANON_SEED) -> Factors:
    """Every factor keygen draws for (ps, seed), as assemble draws them,
    with Q^-1 and S^-1 from QcMatrix.invert."""
    stream = HashStream(seed)
    g, h = generate_systematic(ps, stream)
    wc, weighted = generate_weight_control(ps, stream, h)
    s, _ = generate_scrambler(ps, stream, weighted)
    return Factors(g, h, WeightFactors(**vars(wc)), ScramblerFactors(s, s.invert()))


@pytest.fixture(scope="session")
def toy():
    return get_params("toy-1")


@pytest.fixture(scope="session")
def toy_factors():
    return key_factors(get_params("toy-1"))


@pytest.fixture(scope="session")
def dense_factors():
    return key_factors(DENSE_SET)


@pytest.fixture(scope="session")
def z2_factors():
    return key_factors(Z2_SET)


@pytest.fixture(scope="session")
def toy_keys():
    return assemble(get_params("toy-1"), CANON_SEED)


# the canonical toy key has a singular H' H'^T; this seed's does not,
# which the right-inverse attack needs
GRAM_SEED = bytes([1]) * 32


@pytest.fixture(scope="session")
def toy_keys_gram():
    return assemble(get_params("toy-1"), GRAM_SEED)


@pytest.fixture(scope="session")
def dense_keys():
    return assemble(DENSE_SET, CANON_SEED)


@pytest.fixture(scope="session")
def z2_keys():
    return assemble(Z2_SET, CANON_SEED)


@pytest.fixture(scope="session")
def ldgm80():
    ps = get_params("ldgm-80")
    start = time.perf_counter()
    sk, pk = assemble(ps, CANON_SEED)
    return sk, pk, time.perf_counter() - start


def hostile_public_key() -> bytes:
    """34-byte toy-1 public key in the version-1 layout, whose dense
    matrix header claims (2^31 - 1) x (2^31 - 1) and that holds no
    payload at all; readers refuse it at the version byte."""
    name = b"toy-1"
    huge = 2 ** 31 - 1
    return (PUBLIC_MAGIC + bytes([1, len(name)]) + name
            + b"LDGM" + bytes([1]) + struct.pack("<4I", 0, huge, huge, 1))

