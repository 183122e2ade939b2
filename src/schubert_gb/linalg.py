"""Linear algebra over prime fields and binary linear-code primitives.

Matrices are dense numpy int arrays with entries in [0, p); binary words are
int bitmasks (see :mod:`schubert_gb.words`).  Everything here is a pure
function of immutable inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .validation import check_matrix, check_word_mask, guard_enumeration
from .words import WORD_LIMIT, lex_key, mask_from_bits

_CHUNK = 1 << 16


def rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row echelon form over GF(p).

    Returns ``(R, pivot_columns, rank)`` with 1-based, strictly increasing
    pivot columns.  The row space is preserved; a zero matrix has rank 0.
    """
    M = check_matrix(matrix, p).copy()
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and M[i, c]:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        pivots.append(c + 1)
        r += 1
    return M, tuple(pivots), r


def rank(matrix: np.ndarray, p: int) -> int:
    return rref(matrix, p)[2]


def parity_check_of(generator: np.ndarray, p: int = 2) -> np.ndarray:
    """Deterministic parity-check matrix H with G @ H.T == 0 over GF(p).

    Built from the RREF of G: for each non-pivot column c the corresponding
    row of H has a 1 at c and -R[i, c] at the i-th pivot column, i.e. the
    standard [-A^T | I] dual basis with columns restored to their original
    positions.  Raises if G is not of full row rank.
    """
    G = check_matrix(generator, p)
    k, n = G.shape
    R, pivots, rk = rref(G, p)
    if rk != k:
        raise ValueError("generator not full rank")
    pivot_idx = [c - 1 for c in pivots]
    non_pivots = [c for c in range(n) if c + 1 not in pivots]
    H = np.zeros((n - k, n), dtype=np.int64)
    for row, c in enumerate(non_pivots):
        H[row, c] = 1
        for i, pc in enumerate(pivot_idx):
            H[row, pc] = (-R[i, c]) % p
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
        H = parity_check_of(G, p)
        return cls(generator=G, parity_check=H, n=n, k=k, p=p)

    def __post_init__(self):
        if (self.generator @ self.parity_check.T % self.p).any():
            raise ValueError("generator and parity check are not orthogonal")

    def row_masks(self) -> list[int]:
        """Generator rows as word masks (binary codes only)."""
        self._require_binary()
        return [mask_from_bits(row) for row in self.generator]

    def codeword_masks(self) -> np.ndarray:
        """All 2^k codewords as a uint64 mask array; index = coefficient mask."""
        self._require_binary()
        guard_enumeration(1 << self.k, "codeword enumeration")
        cw = np.zeros(1 << self.k, dtype=np.uint64)
        for i, row in enumerate(self.row_masks()):
            cw[1 << i: 2 << i] = cw[: 1 << i] ^ np.uint64(row)
        return cw

    @cached_property
    def column_syndromes(self) -> tuple[int, ...]:
        """Per-position syndrome masks: entry c is the mask of H[:, c]."""
        self._require_binary()
        return tuple(mask_from_bits(self.parity_check[:, c]) for c in range(self.n))

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
    w = check_word_mask(word, code.n)
    s = 0
    cols = code.column_syndromes
    while w:
        low = w & -w
        s ^= cols[low.bit_length() - 1]
        w ^= low
    return s


def _codeword_weights(code: LinearCode, limit: int | None):
    """Yield weight arrays for all p^k codewords, in chunks."""
    total = code.p ** code.k
    guard_enumeration(total, "codeword enumeration", limit)
    powers = code.p ** np.arange(code.k, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        coeffs = (idx[:, None] // powers) % code.p
        wordsc = coeffs @ code.generator % code.p
        yield start, np.count_nonzero(wordsc, axis=1)


def min_distance_bruteforce(code: LinearCode, limit: int | None = None) -> int:
    """Exact minimum weight over all nonzero codewords, by full enumeration."""
    if code.k == 0:
        raise ValueError("no nonzero codewords")
    best = code.n + 1
    for start, wts in _codeword_weights(code, limit):
        if start == 0:
            wts = wts[1:]
        if wts.size:
            best = min(best, int(wts.min()))
    return best


def weight_distribution(code: LinearCode, limit: int | None = None) -> np.ndarray:
    """Array A with A[w] = number of codewords of weight w; sums to p^k."""
    dist = np.zeros(code.n + 1, dtype=np.int64)
    for _, wts in _codeword_weights(code, limit):
        dist += np.bincount(wts, minlength=code.n + 1)
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
    tie_break: str = field(default="degrevlex")

    def leader(self, syndrome_mask: int) -> int:
        return int(self.leaders[syndrome_mask])


def build_coset_leader_table(code: LinearCode, limit: int | None = None) -> CosetLeaderTable:
    """Scan all 2^n words and keep the degrevlex-minimal word per syndrome.

    Each word gets the integer key (weight, complemented word), which orders
    words exactly as degrevlex does; the per-syndrome minimum of that key,
    taken in one unbuffered ``np.minimum.at`` pass, is the unique degrevlex
    coset leader, so the result does not depend on scan order.  The key
    takes n bits plus the bits of the weight, and syndromes are uint32.
    """
    n, k = code.n, code.k
    guard_enumeration(1 << n, "coset leader table", limit)
    code._require_binary()
    if n + n.bit_length() > 64:
        raise ValueError(f"coset table keys need n + {n.bit_length()} <= 64 bits, got n={n}")
    if n - k > 32:
        raise ValueError(f"coset table syndromes need n - k <= 32, got {n - k}")
    synd = _syndrome_of_all_words(code)
    full = np.uint64((1 << n) - 1)
    key = np.arange(1 << n, dtype=np.uint64)
    weights = np.bitwise_count(key)
    key ^= full
    key |= np.left_shift(weights, np.uint64(n), dtype=np.uint64)
    del weights
    best = np.full(1 << (n - k), np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(best, synd, key)
    return CosetLeaderTable(leaders=(best & full) ^ full, n=n, k=k)


def _syndrome_of_all_words(code: LinearCode) -> np.ndarray:
    """Syndrome mask of every word 0..2^n-1 (dynamic programming fill)."""
    n = code.n
    synd = np.zeros(1 << n, dtype=np.uint32)
    for i, col in enumerate(code.column_syndromes):
        synd[1 << i: 2 << i] = synd[: 1 << i] ^ np.uint32(col)
    return synd


def syndrome_decode(word: int, table: CosetLeaderTable, code: LinearCode) -> int:
    """Decode to word - leader(syndrome(word)); always returns a codeword."""
    w = check_word_mask(word, code.n)
    return w ^ table.leader(syndrome(w, code))


def nn_decode(
    word: int, code: LinearCode, codeword_masks: np.ndarray | None = None
) -> tuple[int, bool]:
    """Nearest-neighbour decoding by full codeword enumeration.

    Returns ``(codeword, ambiguous)``; when several codewords are equidistant
    the lexicographically smallest one (position 1 most significant) is
    returned and ``ambiguous`` is True.
    """
    w = check_word_mask(word, code.n)
    cw = code.codeword_masks() if codeword_masks is None else codeword_masks
    dists = np.bitwise_count(cw ^ np.uint64(w))
    dmin = dists.min()
    nearest = cw[dists == dmin]
    ambiguous = nearest.size > 1
    best = min((int(c) for c in nearest), key=lambda c: lex_key(c, code.n))
    return best, ambiguous
