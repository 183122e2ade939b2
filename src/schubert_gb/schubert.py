"""Schubert varieties over prime fields and their evaluation codes.

Points of the Grassmannian G(l, m) are enumerated as echelon basis matrices
in which each row is normalized on its *rightmost* nonzero entry (the pivot);
with the standard flag C_i = span{e_1..e_{a_i}} a subspace lies in the
Schubert variety of a = (a_1 < ... < a_l) exactly when its pivot tuple is
componentwise <= a, which coincides with the vanishing of every Pluecker
coordinate outside the lower Bruhat interval of a.

Points are enumerated in blocks: stacks of basis matrices whose minors are
all taken at once by the one GF(q) elimination kernel, which lives in
:mod:`schubert_gb.linalg` and also serves ``rref`` and the parity checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import _eliminate, _inverse, _residues, rank
from .validation import check_matrix, check_prime, guard_enumeration

IndexTuple = tuple[int, ...]


def index_tuples(l: int, m: int) -> tuple[IndexTuple, ...]:
    """All strictly increasing l-tuples in [1, m], in lexicographic order.

    Their count C(m, l) goes to the enumeration guard before any is built.
    """
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    guard_enumeration(math.comb(m, l), "index tuple enumeration", "index tuples")
    return tuple(itertools.combinations(range(1, m + 1), l))


def bruhat_leq(beta: IndexTuple, alpha: IndexTuple) -> bool:
    """Componentwise order: beta <= alpha iff beta_i <= alpha_i for all i."""
    if len(beta) != len(alpha):
        raise ValueError(f"tuple length mismatch: {beta} vs {alpha}")
    return all(b <= a for b, a in zip(beta, alpha))


def gaussian_binomial(m: int, l: int, q: int) -> int:
    """Number of l-dimensional subspaces of GF(q)^m (exact integer).

    Evaluates the product formula prod(q^m - q^i) / prod(q^l - q^i); Python
    integers are unbounded so no overflow is possible.
    """
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    num = den = 1
    for i in range(l):
        num *= q**m - q**i
        den *= q**l - q**i
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class SchubertSpec:
    """Defining data (l, m, q, alpha) of a Schubert code over GF(q)."""

    l: int
    m: int
    q: int
    alpha: IndexTuple

    def __post_init__(self):
        check_prime(self.q)
        if not 1 <= self.l <= self.m:
            raise ValueError(f"need 1 <= l <= m, got l={self.l}, m={self.m}")
        a = tuple(int(x) for x in self.alpha)
        object.__setattr__(self, "alpha", a)
        if len(a) != self.l:
            raise ValueError(f"alpha must have length l={self.l}, got {a}")
        if any(x < 1 or x > self.m for x in a) or any(
            a[i] >= a[i + 1] for i in range(len(a) - 1)
        ):
            raise ValueError(f"alpha must be strictly increasing in [1, {self.m}], got {a}")

    @classmethod
    def grassmann(cls, l: int, m: int, q: int) -> "SchubertSpec":
        """The alpha-maximal spec, whose variety is the whole Grassmannian."""
        return cls(l=l, m=m, q=q, alpha=tuple(range(m - l + 1, m + 1)))


@dataclass(frozen=True)
class SchubertParams:
    """Code parameters: length n, dimension k, and d = q^delta."""

    n: int
    k: int
    delta: int
    d: int


def schubert_params(spec: SchubertSpec) -> SchubertParams:
    """Exact parameters from the Schubert cell decomposition.

    n is the total cell count sum_{pivots <= alpha} q^(sum(pivot_i - i)),
    k counts the index tuples below alpha, and d = q^delta with
    delta = sum(alpha_i - i).

    No tuple is built.  With c_i = pivot_i - i the tuples below alpha are
    the sequences 0 <= c_1 <= ... <= c_l with c_i <= alpha_i - i, so both
    sums run entry by entry over the value of c_i, each from the prefix sums
    over the value of c_(i-1): O(l * m) integer operations.
    """
    q = spec.q
    cells, tuples = [1], [1]  # prefix sums over the value of the previous entry
    for i, a in enumerate(spec.alpha):
        last = len(cells) - 1  # the previous entry's largest value
        cell_sums, tuple_sums = [], []
        cell_sum = tuple_sum = 0
        power = 1
        for c in range(a - i):
            below = min(c, last)
            cell_sum += power * cells[below]
            tuple_sum += tuples[below]
            cell_sums.append(cell_sum)
            tuple_sums.append(tuple_sum)
            power *= q
        cells, tuples = cell_sums, tuple_sums
    n, k = cells[-1], tuples[-1]
    delta = sum(a - i - 1 for i, a in enumerate(spec.alpha))
    return SchubertParams(n=n, k=k, delta=delta, d=spec.q**delta)


def _admissible_pivots(spec: SchubertSpec, prefix: IndexTuple = ()) -> Iterator[IndexTuple]:
    """The index tuples <= alpha that extend ``prefix``, in lexicographic
    order and one at a time: entry i runs from one past entry i - 1 up to
    alpha_i, so none of the other C(m, l) tuples is visited."""
    if len(prefix) == spec.l:
        yield prefix
        return
    for v in range(prefix[-1] + 1 if prefix else 1, spec.alpha[len(prefix)] + 1):
        yield from _admissible_pivots(spec, prefix + (v,))


# A block of points holds at most this many minor entries (C(m, l) l x l
# minors per point; 8 MiB as int64), so the kernel's temporaries do not grow
# with the point count.  The basis stack itself (l * m per point) is smaller.
_BLOCK_ENTRIES = 1 << 20


def _block_size(l: int, m: int) -> int:
    return max(1, _BLOCK_ENTRIES // (math.comb(m, l) * l * l))


def enumerate_cell_bases(spec: SchubertSpec) -> Iterator[np.ndarray]:
    """Yield the points of the Schubert variety as (N, l, m) stacks of
    echelon basis matrices, N at most ``_block_size(l, m)``.

    Order: pivot tuples lexicographically ascending, then the free entries
    read row-major as a base-q integer, ascending (first free cell = most
    significant digit).  A block never spans two pivot cells.
    """
    guard_enumeration(schubert_params(spec).n, "point enumeration", "points")
    l, m, q = spec.l, spec.m, spec.q
    step = _block_size(l, m)
    for piv in _admissible_pivots(spec):
        free = [
            (i, c - 1) for i in range(l) for c in range(1, piv[i]) if c not in piv
        ]
        total = q ** len(free)
        for start in range(0, total, step):
            v = np.arange(start, min(start + step, total), dtype=np.int64)
            A = np.zeros((v.size, l, m), dtype=np.int64)
            A[:, range(l), [p - 1 for p in piv]] = 1
            for j, (i, c) in enumerate(free):
                A[:, i, c] = v // q ** (len(free) - 1 - j) % q
            yield A


def _plucker_rows(bases: np.ndarray, q: int) -> np.ndarray:
    """(N, C(m, l)) Pluecker coordinates of an (N, l, m) stack of residue bases.

    Minors in lexicographic tuple order, each row scaled so its first nonzero
    coordinate is 1.  Each minor is the product of its pivots in one batched
    elimination, exact for every q.
    """
    N, l, m = bases.shape
    cols = np.array(index_tuples(l, m)) - 1
    # minors[i, j, t, n] = bases[n, i, cols[t, j]]
    minors = _residues(bases, q).transpose(1, 2, 0)[:, cols.T]
    pivot_values = _eliminate(minors.reshape(l, l, -1), q)[3]
    coords = functools.reduce(lambda a, b: a * b % q, pivot_values).reshape(len(cols), N).T
    nonzero = coords != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("not a basis")
    first = coords[np.arange(N), nonzero.argmax(axis=1)]
    return coords * _inverse(first, q)[:, None] % q


def plucker(basis: np.ndarray, q: int) -> tuple[int, ...]:
    """Pluecker coordinates of the row space of an l x m basis matrix.

    All l x l minor determinants in lexicographic tuple order, scaled so the
    first nonzero coordinate is 1.  Raises when the rows are dependent.
    """
    B = check_matrix(basis, q)
    return tuple(_plucker_rows(B[None], q)[0].tolist())


def _below_alpha(spec: SchubertSpec) -> np.ndarray:
    """Boolean mask over the index tuples: True where tuple <= alpha."""
    return np.array([bruhat_leq(t, spec.alpha) for t in index_tuples(spec.l, spec.m)])


def _point_blocks(spec: SchubertSpec) -> Iterator[np.ndarray]:
    """Pluecker coordinate blocks of all points, in enumeration order.

    Every block is checked to vanish outside the lower Bruhat interval of
    alpha.
    """
    outside = ~_below_alpha(spec)
    for bases in enumerate_cell_bases(spec):
        coords = _plucker_rows(bases, spec.q)
        if coords[:, outside].any():
            raise AssertionError("construction violated variety invariants: "
                                 "nonzero coordinate outside alpha")
        yield coords


def enumerate_schubert_points(spec: SchubertSpec) -> list[tuple[int, ...]]:
    """Pluecker vectors of all points, in enumeration order, no duplicates.

    Every emitted vector vanishes outside the lower Bruhat interval of alpha;
    this is asserted for each point.
    """
    return [pt for coords in _point_blocks(spec) for pt in map(tuple, coords.tolist())]


def generator_matrix(spec: SchubertSpec) -> np.ndarray:
    """k x n generator of the Schubert code.

    Row r evaluates the r-th surviving coordinate function (tuples <= alpha in
    lexicographic order) across the points in enumeration order.  Full rank
    and the absence of zero columns are asserted.
    """
    keep = _below_alpha(spec)
    G = np.concatenate(
        [coords[:, keep].T.astype(np.int64) for coords in _point_blocks(spec)], axis=1
    )
    if not G.any(axis=0).all():
        raise AssertionError("construction violated code invariants: zero column")
    if rank(G, spec.q) != int(keep.sum()):
        raise AssertionError("construction violated code invariants: rank defect")
    return G
