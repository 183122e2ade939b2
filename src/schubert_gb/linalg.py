"""Linear algebra over prime fields and binary linear-code primitives.

Matrices are dense numpy int arrays with entries in [0, p); binary words are
int bitmasks (see :mod:`schubert_gb.words`).  Everything here is a pure
function of immutable inputs, so values can be shared freely across threads.

All GF(p) elimination of the package runs through one batched kernel,
:func:`_eliminate`, whose residues :func:`_residues` holds.

The coset-leader table of a binary code folds the columns of H into a
per-syndrome key (:func:`_column_recurrence`) whenever that key fits in 64
bits, n <= 57; longer codes read it off the layered coset walk
(:func:`_coset_walk`), which yields the leads of the coset engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .validation import ENUM_ENV_VAR, INT64_MAX, EnumerationLimitError, check_matrix
from .validation import check_word_mask, enum_limit, guard_enumeration
from .words import WORD_LIMIT, masks_of_rows, support

_CHUNK = 1 << 16
# candidate extensions per slice of the coset walk: bounds its working memory
_SLICE_WORDS = 1 << 16
# the longest code whose column-recurrence keys, below (n + 1) * 2^n, fit under 2^63
_RECURRENCE_MAX_N = 57
_ONE = np.uint64(1)


def _residues(a: np.ndarray, p: int, terms: int = 1) -> np.ndarray:
    """A copy of ``a`` as int64, or as Python ints (object dtype) when a sum
    of ``terms`` products of two residues mod p could overflow int64."""
    return a.astype(object if terms * (p - 1) ** 2 > INT64_MAX else np.int64)


def _inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p (Fermat): the inverse of each nonzero residue; 0 stays 0."""
    out, e = a, max(p - 3, 0)
    while e:
        if e & 1:
            out = out * a % p
        a, e = a * a % p, e >> 1
    return out


def _eliminate(A: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int, np.ndarray]:
    """Gauss-Jordan over GF(p), in place, on a (rows, cols, K) stack of K residue matrices.

    Returns ``(A, pivot_columns, rank, pivot_values)``.  One pivot row serves
    the stack, advancing at each column where any matrix is nonzero at or
    below it, so for K = 1 the 1-based pivot columns and the rank are the
    matrix's own.  A zero pivot is repaired by adding the first lower row
    that is nonzero in its column, which keeps the row space and the
    determinant.  Row r of ``pivot_values`` is each matrix's r-th pivot before
    scaling, 0 from the rank on: their product mod p is the determinant of a
    square matrix, left to the caller so that :func:`rref` does not pay for it.
    """
    rows, cols, K = A.shape
    lanes, pivot_values = np.arange(K), np.zeros((rows, K), dtype=A.dtype)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = A[r:, c]
        if not np.count_nonzero(col):
            continue
        if r + 1 < rows and np.count_nonzero(col[0]) < K:
            first = col.astype(bool).argmax(axis=0)  # 0 where no row needs adding
            A[r, c:] = (A[r, c:] + A[r + first, c:, lanes].T * (first > 0)) % p
        pivot_values[r] = col[0]
        # binary pivots are 1 already
        row = A[r, c:] * _inverse(col[0], p) % p if p > 2 else A[r, c:].copy()
        if np.count_nonzero(A[:, c]) > np.count_nonzero(col[0]):  # a row besides r to clear
            A[:, c:] = (A[:, c:] - A[:, c, None] * row) % p
        A[r, c:] = row
        pivots.append(c + 1)
    return A, tuple(pivots), len(pivots), pivot_values


def rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row echelon form over GF(p), exact for every prime; R is int64.

    Returns ``(R, pivot_columns, rank)`` with 1-based, strictly increasing
    pivot columns.  The row space is preserved; a zero matrix has rank 0.
    """
    M = check_matrix(matrix, p)
    R, pivots, rk, _ = _eliminate(_residues(M[:, :, None], p), p)
    return R[:, :, 0].astype(np.int64), pivots, rk


def rank(matrix: np.ndarray, p: int) -> int:
    return rref(matrix, p)[2]


def parity_check_of(generator: np.ndarray, p: int = 2) -> np.ndarray:
    """Deterministic parity-check matrix H with G @ H.T == 0 over GF(p).

    Built from the RREF of G: for each non-pivot column c the corresponding
    row of H has a 1 at c and -R[i, c] at the i-th pivot column, i.e. the
    standard [-A^T | I] dual basis with columns restored to their original
    positions.  Raises if G is not of full row rank.
    """
    R, pivots, rk = rref(generator, p)
    if rk != R.shape[0]:
        raise ValueError("generator not full rank")
    return _dual_of_rref(R, pivots, p)


def _dual_of_rref(R: np.ndarray, pivots: tuple[int, ...], p: int) -> np.ndarray:
    """:func:`parity_check_of` of a full-rank matrix R already in reduced row
    echelon form, with its 1-based pivot columns as :func:`rref` gives them."""
    k, n = R.shape
    non_pivots = [c for c in range(n) if c + 1 not in pivots]
    H = np.zeros((n - k, n), dtype=np.int64)
    H[range(n - k), non_pivots] = 1
    H[:, [c - 1 for c in pivots]] = -R[:, non_pivots].T % p
    return H


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An [n, k] linear code over GF(p), kept with its generator verbatim.

    The generator rows are stored exactly as given (reference decoding tables
    depend on the column order), together with the derived parity check.
    """

    generator: np.ndarray
    parity_check: np.ndarray
    n: int
    k: int
    p: int

    @classmethod
    def from_generator(cls, generator, p: int = 2) -> "LinearCode":
        G = check_matrix(generator, p)
        k, n = G.shape
        # the parity check can dwarf the generator (a 0 x n one has no
        # entries): refuse it only when it outgrows both G and the guard
        entries, bound = (n - k) * n, max(k * n, enum_limit())
        if entries > bound:
            raise EnumerationLimitError(
                f"enumeration bound exceeded: {entries} parity check entries > {bound}, the larger "
                f"of the generator's {k * n} entries and the guard (raise it via {ENUM_ENV_VAR})")
        H = parity_check_of(G, p)
        return cls(generator=G, parity_check=H, n=n, k=k, p=p)

    def __post_init__(self):
        G, H = (_residues(M, self.p, self.n) for M in (self.generator, self.parity_check))
        if (G @ H.T % self.p).any():
            raise ValueError("generator and parity check are not orthogonal")

    def row_masks(self) -> list[int]:
        """Generator rows as word masks (binary codes only)."""
        self._require_binary()
        return masks_of_rows(self.generator).tolist()

    def codeword_masks(self) -> np.ndarray:
        """All 2^k codewords as a uint64 mask array; index = coefficient mask."""
        self._require_binary()
        guard_enumeration(1 << self.k, "codeword enumeration", "codewords")
        cw = np.zeros(1 << self.k, dtype=np.uint64)
        for i, row in enumerate(self.row_masks()):
            cw[1 << i: 2 << i] = cw[: 1 << i] ^ np.uint64(row)
        return cw

    @cached_property
    def column_syndromes(self) -> tuple[int, ...]:
        """Per-position syndrome masks: entry c is the mask of H[:, c]."""
        self._require_binary()
        return tuple(masks_of_rows(self.parity_check.T).tolist())

    def _require_binary(self) -> None:
        if self.p != 2:
            raise ValueError("binary only")
        if self.n > WORD_LIMIT:
            raise ValueError(f"mask operations require n <= {WORD_LIMIT}")


def syndrome(word: int, code: LinearCode) -> int:
    """Syndrome w @ H.T of a binary word, as an (n-k)-bit mask.

    Zero exactly when the word is a codeword.
    """
    code._require_binary()
    s = 0
    cols = code.column_syndromes
    for i in support(check_word_mask(word, code.n)):
        s ^= cols[i - 1]
    return s


def syndromes(words: np.ndarray, code: LinearCode) -> np.ndarray:
    """:func:`syndrome` of each word of a uint64 array of in-range masks, as
    intp: the column syndromes XOR-ed in one bit position at a time."""
    code._require_binary()
    synd = np.zeros(words.size, dtype=np.intp)
    for j, col in enumerate(code.column_syndromes):
        synd[(words >> np.uint64(j)) & _ONE == 1] ^= col
    return synd


def min_distance_bruteforce(code: LinearCode) -> int:
    """Exact minimum weight over all nonzero codewords: the least nonzero
    weight of the :func:`weight_distribution`, which enumerates them all."""
    if code.k == 0:
        raise ValueError("no nonzero codewords")
    return int(np.flatnonzero(weight_distribution(code)[1:])[0]) + 1


def weight_distribution(code: LinearCode) -> np.ndarray:
    """Array A with A[w] = number of codewords of weight w; sums to p^k.

    The p^k codewords are enumerated in chunks of ``_CHUNK``.
    """
    total = code.p ** code.k
    guard_enumeration(total, "codeword enumeration", "codewords")
    powers = code.p ** np.arange(code.k, dtype=np.int64)
    dist = np.zeros(code.n + 1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        coeffs = (idx[:, None] // powers) % code.p
        weights = np.count_nonzero(coeffs @ code.generator % code.p, axis=1)
        dist += np.bincount(weights, minlength=code.n + 1)
    return dist


@dataclass(frozen=True, eq=False)
class CosetLeaderTable:
    """Coset leaders indexed by syndrome mask, length 2^(n-k).

    Each leader is the degrevlex-minimal word of its coset; because degrevlex
    is degree-compatible this refines minimum weight, and makes syndrome
    decoding coincide with Groebner canonical forms.
    """

    leaders: np.ndarray
    n: int
    k: int

    def leader(self, syndrome_mask: int) -> int:
        return int(self.leaders[syndrome_mask])


def build_coset_leader_table(code: LinearCode) -> CosetLeaderTable:
    """Degrevlex-minimal word of every coset.

    The enumeration guard bounds the number of cosets, 2^(n-k), before
    anything is allocated; then a non-binary code and n - k > 32 are
    refused, since syndromes index the table as intp.  No array spans all
    2^n words.  Codes with n <= :data:`_RECURRENCE_MAX_N`, at any rate,
    fold the n columns of H into a per-syndrome key
    (:func:`_column_recurrence`); longer ones, whose key would not fit in
    64 bits, take the table of the layered walk (:func:`_coset_walk`).
    Both give the same table; the route depends on n only.
    """
    leaders = _column_recurrence(code) if code.n <= _RECURRENCE_MAX_N else _coset_walk(code)[0]
    return CosetLeaderTable(leaders=leaders, n=code.n, k=code.k)


def _check_table(code: LinearCode) -> None:
    """The guard on the 2^(n-k) cosets, then the binary and width checks."""
    n, k = code.n, code.k
    guard_enumeration(1 << (n - k), "coset leader table", "cosets")
    code._require_binary()
    if n - k > 32:
        raise ValueError(f"coset table syndromes need n - k <= 32, got {n - k}")


def _column_recurrence(code: LinearCode) -> np.ndarray:
    """Coset-leader table by one recurrence over the columns of H.

    ``keys[s]`` is the key (wt m << n) | (~m & (2^n - 1)) of the best word
    m of syndrome s found so far, whose least value is the degrevlex-first
    word; no word yet is 2^63 | (2^n - 1), which reads back as 0 like an
    entry the walk never reaches.  Folding column j, of syndrome c_j, sets
    keys[s] = min(keys[s], keys[s ^ c_j] + 2^n - 2^j): adding x_j to a word
    without it keeps the (wt, -mask) order, so once every column has folded,
    in any order, each key is its coset's minimum.  The unit columns e_0,
    e_1, ... that ``parity_check_of`` puts at G's non-pivot columns fold
    first, as doublings of the filled prefix.  Each other column pairs s
    with s ^ c_j across c_j's top bit, on the table viewed as a (2,) *
    (n - k) cube with c_j's lower bits flipped, through one half-size
    scratch.  Keys stay below 2^63 for n <= 57, and the table is inverted
    in place into the leaders.
    """
    _check_table(code)
    n, r = code.n, code.n - code.k
    cols = code.column_syndromes
    full = (1 << n) - 1
    keys = np.empty(1 << r, dtype=np.uint64)
    keys[0] = full  # the word 0
    first = {}
    for j, c in enumerate(cols):
        first.setdefault(c, j)
    rest, b = list(range(n)), 0
    while b < r and (1 << b) in first:  # column j = e_b: keys[2^b + s] = keys[s] + delta_j
        j = first[1 << b]
        rest.remove(j)
        np.add(keys[:1 << b], np.uint64((1 << n) - (1 << j)), out=keys[1 << b:2 << b])
        b += 1
    keys[1 << b:] = np.uint64(1 << 63 | full)
    cube = keys.reshape((2,) * r)
    scratch = np.empty((2,) * (r - 1), dtype=np.uint64) if r else None
    for j in rest:
        c = cols[j]
        if not c:  # a zero column reaches nothing new
            continue
        top = c.bit_length() - 1
        at = (slice(None),) * (r - 1 - top)
        flip = tuple(slice(None, None, -1 if c >> i & 1 else 1) for i in reversed(range(top)))
        low = cube[at + (0, ...)]  # s without c's top bit, and s ^ c lined up with it
        high = cube[at + (1, ...) + flip]
        delta = np.uint64((1 << n) - (1 << j))
        # both halves read the other's old keys: the new low half waits in the scratch
        np.add(high, delta, out=scratch)
        np.minimum(scratch, low, out=scratch)
        low += delta
        np.minimum(high, low, out=high)
        low[...] = scratch
    np.invert(keys, out=keys)
    keys &= np.uint64(full)
    return keys


def _coset_walk(code: LinearCode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coset-leader table and the minimal non-standard monomials.

    The standard monomials - one per coset, its leader - are closed under
    division, so they are found one weight layer at a time (the FGLM scheme
    for codes of Borges-Quintana, Borges-Trenard and Martinez-Moro, AAECC-16,
    LNCS 3857, 2006).  A standard u of weight w is extended only by bits j
    below its lowest set bit, so each word of weight w + 1 has one parent;
    its syndrome is carried along.  An extension u | x_j is made only where
    every other divisor (u ^ bit) | x_j is standard too.  ``below[s]``
    answers that: the bits j with leader(s) | x_j standard, recorded when
    that word's layer is read back.  Among the words of equal weight in a
    coset that no lighter word reaches, the largest mask is the
    degrevlex-first, so a per-syndrome ``np.maximum.at`` into the
    still-uncovered entries gives each newly covered coset its leader, and
    the next layer is read back from the table.  The extensions that do not
    become their coset's leader are then exactly the minimal non-standard
    monomials - the leads of the reduced basis - and the trail of each is
    the leader of its syndrome.  Parents are expanded in slices of at most
    ``_SLICE_WORDS`` candidate extensions.

    The walk runs one layer past the covering radius and returns
    ``(leaders, leads, trails)``.  Besides the table and ``below`` it holds
    the current layer and one slice, plus the kept extensions of the layer.
    """
    _check_table(code)
    n, k = code.n, code.k
    cols = np.array(code.column_syndromes, dtype=np.intp)
    leaders = np.zeros(1 << (n - k), dtype=np.uint64)
    below = np.zeros_like(leaders)
    words, synd = np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.intp)
    w = 0
    leads, lead_synd = [words[:0]], [synd[:0]]
    while words.size:
        span = np.minimum(_bit_index(_lowest_bit(words)), n)  # bits below the lowest; n for 0
        if w:  # record each word as a standard child of its parent
            np.bitwise_or.at(below, synd ^ cols[span], _lowest_bit(words))
        ends = np.cumsum(span, dtype=np.intp)
        kids = []
        a = 0
        while a < words.size:
            b = int(np.searchsorted(ends, (ends[a - 1] if a else 0) + _SLICE_WORDS, "right"))
            u, s = words[a:b], synd[a:b]
            allowed = _lowest_bit(u) - _ONE
            rest = u.copy()
            for _ in range(w):  # keep the j where every other divisor (u ^ bit) | x_j is standard
                bit = _lowest_bit(rest)
                allowed &= below[s ^ cols[_bit_index(bit)]]
                rest ^= bit
            cand, cs = _children(u, s, span[a:b], allowed, cols)
            cur = leaders[cs]  # uncovered before this layer: empty, or filled by an earlier slice
            free = (np.bitwise_count(cur) == w + 1) | ((cur == 0) & (cs != 0))
            np.maximum.at(leaders, cs[free], cand[free])
            kids.append((cand, cs))
            a = b
        w += 1
        for cand, cs in kids:  # the children that lead no coset are minimal leads
            lead = leaders[cs] != cand
            leads.append(cand[lead])
            lead_synd.append(cs[lead])
        del kids  # before the read-back allocates the next layer
        synd = np.flatnonzero(np.bitwise_count(leaders) == w)
        words = leaders[synd]
    lead = np.concatenate(leads)
    return leaders, lead, leaders[np.concatenate(lead_synd)]


def _children(words, synd, span, allowed, cols) -> tuple[np.ndarray, np.ndarray]:
    """``u | x_j`` and its syndrome for each parent u and each j < span set in ``allowed``."""
    parent = np.repeat(np.arange(words.size), span)
    bit = np.arange(parent.size) - np.repeat(np.cumsum(span, dtype=np.intp) - span, span)
    keep = np.flatnonzero((allowed[parent] >> bit.astype(np.uint64)) & _ONE)
    parent, bit = parent[keep], bit[keep]
    return words[parent] | (_ONE << bit.astype(np.uint64)), synd[parent] ^ cols[bit]


def _lowest_bit(masks: np.ndarray) -> np.ndarray:
    return masks & -masks


def _bit_index(single_bits: np.ndarray) -> np.ndarray:
    return np.bitwise_count(single_bits - _ONE)


def syndrome_decode(word: int, table: CosetLeaderTable, code: LinearCode) -> int:
    """Decode to word - leader(syndrome(word)); always returns a codeword."""
    w = check_word_mask(word, code.n)
    return w ^ table.leader(syndrome(w, code))
