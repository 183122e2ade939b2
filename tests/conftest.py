import functools
import random

import numpy as np
import pytest

from schubert_gb import LinearCode, SchubertSpec, build_coset_leader_table, coset_engine
from schubert_gb.fixtures import TAGS, load_code
from schubert_gb.groebner import _certified, _check_fields
from schubert_gb.linalg import parity_check_of, rref
from schubert_gb.schubert import generator_matrix
from schubert_gb.verify import random_codes

# smallest prime above 2^32: products of two residues overflow int64
LARGE_PRIME = 4294967311

# the four reference codes, keyed by the alpha tag used in the fixture files
A_1_4 = np.array(
    [
        [1, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [0, 0, 1, 1, 1, 0, 1],
    ]
)

A_2_3 = np.array(
    [
        [1, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 0, 1],
        [0, 0, 1, 1, 0, 1, 1],
    ]
)


@pytest.fixture(scope="session")
def codes() -> dict[str, LinearCode]:
    return {tag: load_code(tag) for tag in TAGS}


@pytest.fixture(scope="session")
def bases(codes):
    return {tag: coset_engine(code) for tag, code in codes.items()}


@pytest.fixture(scope="session")
def tables(codes):
    return {tag: build_coset_leader_table(code) for tag, code in codes.items()}


@pytest.fixture(scope="session")
def small_random_codes():
    return random_codes(count=8, seed=11)


def ladder_code(n: int) -> LinearCode:
    """The [31,5,16] code G(2,6) alpha=(1,6) punctured to length n.

    The kept positions are the first n of a permutation seeded with 0,
    in ascending order, as in the benchmark's build ladder.
    """
    G = generator_matrix(SchubertSpec(l=2, m=6, q=2, alpha=(1, 6)))
    order = np.random.default_rng(0).permutation(G.shape[1])
    return LinearCode.from_generator(G[:, np.sort(order[:n])])


def hamming_code(r: int) -> LinearCode:
    """The [2^r - 1, 2^r - 1 - r] Hamming code: column c of H is c in binary."""
    H = np.array([[(c >> i) & 1 for c in range(1, 1 << r)] for i in range(r)])
    return LinearCode.from_generator(parity_check_of(H), 2)


def random_systematic_code(n: int, k: int) -> LinearCode:
    """The [n, k] code [I_k | A], with A drawn by ``np.random.default_rng(1)``."""
    A = np.random.default_rng(1).integers(0, 2, (k, n - k))
    return LinearCode.from_generator(np.hstack([np.eye(k, dtype=int), A]), 2)


@functools.cache
def unrestricted_random_codes():
    """320 seeded random binary codes with n <= 14 and 0 <= k <= min(n, 10): k
    rows [I | A] of any density, columns shuffled, some columns zeroed and
    the rows then reduced to a basis of their span.  High rate, d <= 2,
    zero columns and k = 0 are all among them."""
    rng = np.random.default_rng(25)
    codes = []
    while len(codes) < 320:
        n = int(rng.integers(1, 15))
        k = int(rng.integers(0, min(n, 10) + 1))  # 2^k codewords, each tested against all
        parity = rng.random((k, n - k)) < rng.uniform(0.05, 0.95)
        rows = np.hstack([np.eye(k, dtype=int), parity])[:, rng.permutation(n)]
        rows[:, rng.random(n) < 0.1] = 0
        R, _, k = rref(rows, 2)
        codes.append(LinearCode.from_generator(R[:k], 2))
    return tuple(codes)


@pytest.fixture(scope="session")
def ladder_rungs() -> dict[int, LinearCode]:
    """The ladder codes of length 18 and 20 (:func:`ladder_code`)."""
    return {n: ladder_code(n) for n in (18, 20)}


@pytest.fixture(scope="session")
def ladder_bases():
    """The bases of all four benchmark rungs, n = 18, 20, 22, 24."""
    return {n: coset_engine(ladder_code(n)) for n in (18, 20, 22, 24)}


@pytest.fixture(scope="session")
def wide_code() -> LinearCode:
    """A [64,57] code with distinct parity-check columns: words use bit 63."""
    cols = random.Random(7).sample([c for c in range(128) if c.bit_count() >= 2], 57)
    A = np.array([[(c >> i) & 1 for c in cols] for i in range(7)])
    return LinearCode.from_generator(np.hstack([np.eye(57, dtype=int), A.T]), 2)


def wide_lead_basis_text() -> str:
    """A pairwise-reduced 64-variable basis file whose leads have 40 variables.

    Three overlapping leads, none dividing another, with trail 1: checking it
    over the standard monomials would walk the 2^40 divisors of each lead.
    """
    lines = ["# n=64 order=degrevlex field=GF(2)"]
    lines += ["*".join(f"x{i}" for i in range(s, s + 40)) + " - 1" for s in (1, 13, 25)]
    lines += [f"x{i}^2 - 1" for i in range(1, 65)]
    return "\n".join(lines) + "\n"


def validated_masks(n, leads, trails, is_field):
    """Mask arrays and field flags through the basis checks, as parse_basis
    runs them: the field relations first, then the code binomials."""
    _check_fields(n, leads, trails, is_field)
    return _certified(n, leads[~is_field], trails[~is_field])


def element_arrays(elements):
    """uint64 leads and trails and the field flags of a list of Binomials."""
    leads = np.array([b.lead for b in elements], dtype=np.uint64)
    trails = np.array([b.trail for b in elements], dtype=np.uint64)
    return leads, trails, np.array([b.kind == "field" for b in elements], dtype=bool)


def validated(n, elements):
    """A list of Binomials through the basis checks, as mask arrays."""
    return validated_masks(n, *element_arrays(elements))
