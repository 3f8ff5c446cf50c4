"""Shared fixtures: one toy key pair per session plus a dense-path set.

toy-1 is quasi-cyclic; its sparse rows make the dense sampler's leftmost
k x k block singular essentially always, so dense-path coverage uses a
custom set with denser generator rows instead.
"""

import struct
import time

import pytest
from hypothesis import settings

from ldgmsig.fileio import FORMAT_VERSION, MATRIX_MAGIC, PUBLIC_MAGIC
from ldgmsig.keygen import assemble
from ldgmsig.params import ParameterSet, get_params

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


@pytest.fixture(scope="session")
def toy():
    return get_params("toy-1")


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
    return assemble(DENSE_SET, CANON_SEED, qc=False)


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
    """34-byte toy-1 public key whose dense matrix header claims
    (2^31 - 1) x (2^31 - 1) and that holds no payload at all."""
    name = b"toy-1"
    huge = 2 ** 31 - 1
    return (PUBLIC_MAGIC + bytes([FORMAT_VERSION, len(name)]) + name
            + MATRIX_MAGIC + bytes([FORMAT_VERSION])
            + struct.pack("<4I", 0, huge, huge, 1))
