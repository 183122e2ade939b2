"""Reference routes: the slow, auditable counterparts of the production code.

Only :mod:`schubert_gb.verify` and the tests import this module.  It holds
the Buchberger run (:func:`buchberger`, n <= 12) from the ideal generators,
the independent route that :func:`~schubert_gb.groebner.coset_engine` is
checked against, with the Gebauer-Moeller pair criteria, the two-bit lead
codes they read and its own 2^n rewrite table, so it shares no rewrite
kernel with the production code; the exponent-tuple arithmetic, the
Buchberger criterion, which divides by the first dividing lead through a
2^n table of its own, and the element sort key that audit the mask
arithmetic of :mod:`schubert_gb.groebner`, and
the support and bit-list conversions of masks that only the tests use; the
brute-force oracles over all 2^n words or all codewords that audit the coset
walk and the rewrite kernel: the coset-leader scan, the one basis oracle
read off it (:func:`scan_basis`) and the batched :func:`coset_minimum`;
the three-decoder :func:`cross_check`; the scalar splitmix64 trial stream
and error draws that audit the simulator's uint64 array stream
(:func:`schubert_gb.decoding._draws`); and the Pluecker filter that audits
the Schubert cell enumeration.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .decoding import BSC, DECODED, DecodeOutcome, FixedWeight, gb_decode
from .groebner import (
    Binomial,
    ReducedGroebnerBasis,
    _validated_masks,
)
from .linalg import CosetLeaderTable, LinearCode, syndrome_decode, syndromes
from .schubert import SchubertSpec, _below_alpha, _plucker_rows, enumerate_cell_bases
from .validation import EnumerationLimitError, check_word_mask, guard_enumeration
from .words import degrevlex_key

Monomial = tuple[int, ...]
BinomialPair = tuple[Monomial, Monomial]


# ---------------------------------------------------------------------------
# exponent-tuple arithmetic and the Groebner test
# ---------------------------------------------------------------------------

def degrevlex_key_exponents(exps: Monomial) -> tuple:
    """Ascending sort key for general exponent vectors under degrevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def degrevlex_compare(a: Monomial, b: Monomial) -> int:
    """Total degrevlex order on exponent vectors: -1 (a<b), 0, or +1.

    Higher total degree is greater; ties go to the monomial with the smaller
    exponent at the highest-indexed variable where they differ.
    """
    if len(a) != len(b):
        raise ValueError(f"variable count mismatch: {len(a)} vs {len(b)}")
    ka, kb = degrevlex_key_exponents(a), degrevlex_key_exponents(b)
    return (ka > kb) - (ka < kb)


def exponents_from_mask(mask: int, n: int) -> Monomial:
    return tuple((mask >> i) & 1 for i in range(n))


def mask_from_support(positions: Iterable[int]) -> int:
    """Mask with the given 1-based positions set."""
    m = 0
    for i in positions:
        if i < 1:
            raise ValueError(f"positions are 1-based, got {i}")
        m |= 1 << (i - 1)
    return m


def bits_from_mask(mask: int, n: int) -> list[int]:
    """0/1 list of length n, entry i-1 = position i."""
    return [(mask >> i) & 1 for i in range(n)]


def exponent_pair(b: Binomial, n: int) -> BinomialPair:
    """A basis element as a (lead, trail) pair of exponent tuples."""
    if b.kind == "field":
        v = b.lead.bit_length()
        exps = tuple(2 if i == v - 1 else 0 for i in range(n))
        return exps, (0,) * n
    return exponents_from_mask(b.lead, n), exponents_from_mask(b.trail, n)


def element_sort_key(b: Binomial) -> tuple[int, int]:
    """Ascending degrevlex key of an element's lead, the reference for
    :func:`schubert_gb.groebner._element_order`.

    A field lead x_v^2 only ties in degree with squarefree degree-2 code
    leads; among those, reading x_v^2 as the mask 2 * 2^(v-1) keeps
    degrevlex's descending-integer order on masks.
    """
    return (2, -2 * b.lead) if b.kind == "field" else degrevlex_key(b.lead)


def as_pairs(gb: ReducedGroebnerBasis) -> list[BinomialPair]:
    """All elements as exponent-tuple pairs."""
    return [exponent_pair(b, gb.n) for b in gb.elements]


def _mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _div(a: Monomial, b: Monomial) -> Monomial | None:
    out = tuple(x - y for x, y in zip(a, b))
    return None if any(e < 0 for e in out) else out


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _orient(a: Monomial, b: Monomial) -> BinomialPair:
    return (a, b) if degrevlex_compare(a, b) > 0 else (b, a)


def spoly(f: BinomialPair, g: BinomialPair) -> BinomialPair | None:
    """S-polynomial of two binomials over GF(2), or None when it cancels.

    S(f, g) = (lcm/lead_f) f - (lcm/lead_g) g; the lcm terms match, so the
    result is again a binomial (lead first), or zero.
    """
    (lf, tf), (lg, tg) = _orient(*f), _orient(*g)
    lcm = _lcm(lf, lg)
    a = _mul(_div(lcm, lf), tf)
    b = _mul(_div(lcm, lg), tg)
    if a == b:
        return None
    return _orient(a, b)


def reduce_poly(
    terms: Iterable[Monomial], basis: Iterable[BinomialPair]
) -> tuple[Monomial, ...]:
    """Remainder of a GF(2) term set under division by binomials.

    Repeatedly rewrites the greatest divisible term t as t * trail / lead
    (equal terms cancel) until nothing is divisible; the degrevlex order is
    well-founded so this terminates.  Returns terms sorted descending.
    """
    basis = [_orient(*b) for b in basis]
    poly: set[Monomial] = set()
    for t in terms:
        poly.symmetric_difference_update({tuple(t)})
    while True:
        for t in sorted(poly, key=degrevlex_key_exponents, reverse=True):
            hit = next(
                ((lead, trail) for lead, trail in basis if _div(t, lead) is not None),
                None,
            )
            if hit is not None:
                lead, trail = hit
                poly.symmetric_difference_update({t, _mul(_div(t, lead), trail)})
                break
        else:
            return tuple(sorted(poly, key=degrevlex_key_exponents, reverse=True))


def is_groebner(elements: Iterable[Binomial], n: int | None = None) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero.

    Field-relation pairs with coprime partners are settled analytically; all
    code-code pairs (coprime or not) are reduced explicitly.  When the field
    relations do not cover every variable in play, the exponent-tuple route
    is used instead of mask arithmetic.
    """
    elems = list(elements)
    if n is None:
        n = max((x.bit_length() for b in elems for x in (b.lead, b.trail)), default=0)
    field_vars = {b.lead.bit_length() for b in elems if b.kind == "field"}
    used = 0
    for b in elems:
        if b.kind == "code":
            used |= b.lead | b.trail
    if not all(((used >> (v - 1)) & 1) == 0 or v in field_vars for v in range(1, n + 1)):
        pairs = [exponent_pair(b, n) for b in elems]
        return _is_groebner_exponents(pairs)

    codes = [(b.lead, b.trail) for b in elems if b.kind == "code"]
    rewrite = _first_divisor_table(n, codes)

    def reduces_to_zero(a: int, b: int) -> bool:
        return _remainder(a, rewrite) == _remainder(b, rewrite)

    for i, (li, ti) in enumerate(codes):
        for lj, tj in codes[:i]:
            lcm = li | lj
            if not reduces_to_zero(lcm ^ li ^ ti, lcm ^ lj ^ tj):
                return False
        rest = li
        while rest:  # pairs with x_v^2 - 1 for v in the lead
            bit = rest & -rest
            if not reduces_to_zero(li ^ bit, ti ^ bit):
                return False
            rest ^= bit
    return True


def _first_divisor_table(n: int, codes: list[tuple[int, int]]) -> np.ndarray:
    """The int64 rewrite table of :func:`_remainder` that divides by the
    first lead in list order: entry m holds lead ^ trail of the first pair
    whose lead divides m, 0 when none does.

    Division, not descent by the distinct rewrites: a list with one code
    binomial dropped still holds that binomial's rewrite in the others, so
    only the leads themselves show the gap.  Entry m starts as the index of
    the first lead equal to m, and one pass per variable carries the least
    index up to every multiple.
    """
    guard_enumeration(1 << n, "Groebner test", "monomials")
    first = np.full(1 << n, len(codes), dtype=np.int64)
    pairs = np.array(codes, dtype=np.int64).reshape(-1, 2)
    np.minimum.at(first, pairs[:, 0], np.arange(len(codes)))
    for v in range(n):
        halves = first.reshape(-1, 2, 1 << v)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return np.append(pairs[:, 0] ^ pairs[:, 1], 0)[first]


def _is_groebner_exponents(pairs: list[BinomialPair]) -> bool:
    for i, f in enumerate(pairs):
        for g in pairs[:i]:
            s = spoly(f, g)
            if s is not None and reduce_poly(s, pairs):
                return False
    return True


# ---------------------------------------------------------------------------
# the Buchberger route (mask arithmetic, eager field reduction)
# ---------------------------------------------------------------------------

def field_relation(i: int) -> Binomial:
    """The relation x_i^2 - 1 (1-based variable index)."""
    return Binomial(lead=1 << (i - 1), trail=0, kind="field")


def ideal_generators(code: LinearCode) -> tuple[Binomial, ...]:
    """Eq-style generating set: X^w - 1 per generator row, plus x_i^2 - 1."""
    gens = [Binomial(lead=r, trail=0, kind="code") for r in code.row_masks()]
    gens += [field_relation(i) for i in range(1, code.n + 1)]
    return tuple(gens)


# larger codes go to the coset engine
_BUCHBERGER_MAX_VARS = 12
# bit 2(v-1) of every 2-bit variable field of a lead code
_LOW_BITS = int("01" * _BUCHBERGER_MAX_VARS, 2)


def _lead_code(once: int, twice: int = 0) -> int:
    """The monomial with the variables of mask ``once`` at exponent 1 and
    those of ``twice`` at exponent 2, in two bits per variable: x_v is
    ``01`` and x_v^2 is ``11``, at bits 2(v-1) and 2v - 1.

    On such codes the lcm of two monomials is their OR, and one divides
    another when its bits are a subset of the other's.
    """
    return int(f"{once | twice:b}", 4) | int(f"{twice:b}", 4) << 1


def _lead_key(code: int) -> tuple[int, int]:
    """Ascending degrevlex key of a lead code (:func:`_lead_code`).

    The popcount is the total degree; the exponent vector read as base-4
    digits, highest variable most significant, breaks degree ties as
    degrevlex does.
    """
    return code.bit_count(), -((code & _LOW_BITS) + ((code >> 1) & _LOW_BITS))


def _remainder(m: int, rewrite: np.ndarray) -> int:
    """Rewrite the squarefree mask m by ``m ^= rewrite[m]`` until its entry
    is 0; see :func:`buchberger`.  Each step replaces a lead by its trail
    and cancels squares, so m falls in degrevlex and the loop ends."""
    while step := rewrite.item(m):
        m ^= step
    return m


def buchberger(generators: Iterable[Binomial]) -> ReducedGroebnerBasis:
    """Buchberger run with the Gebauer-Moeller pair update, then
    interreduction, reducing through one rewrite table of 2^n entries.

    The field relations x_v^2 - 1 are basis elements like the code
    binomials; pair arithmetic reads leads as :func:`_lead_code`, and
    S-polynomials and remainders are squarefree masks, the field relations
    applied eagerly.  Pairs are processed by ascending lcm under degrevlex
    (normal selection).  When an element h is added (Gebauer and Moeller,
    "On an installation of Buchberger's algorithm", J. Symbolic Comput. 6,
    1988; Cox, Little and O'Shea, ch. 2 section 10):

    * criteria M and F: of the new pairs (g, h), one is kept per lcm that
      no other new pair's lcm strictly divides, and none for an lcm that a
      pair with coprime leads has;
    * the product criterion: no pair with coprime leads is queued;
    * criterion B: a queued pair whose lcm the lead of h divides is
      cancelled unless h's lcm with either member equals it;
    * an element whose lead h divides is retired: it joins no new pair and
      reduces nothing more, though its queued pairs stay.  Remainders are
      taken modulo the elements not retired, the setting in which the
      criteria are proved.

    Remainders follow the int64 array ``rewrite`` (:func:`_remainder`):
    entry m holds lead ^ trail of an active code element whose lead divides
    m, or 0 when none does.  Adding an element writes its rewrite to every
    entry its lead divides, and so to every entry of the elements it
    retires, whose leads its lead divides.  The elements left are exactly
    those of minimal leads; their trails are reduced through the same table
    and the unique reduced basis of the generated ideal is returned.
    """
    gens = list(generators)
    field_vars = sorted(b.lead.bit_length() for b in gens if b.kind == "field")
    n = len(field_vars)
    used = max(
        ((b.lead | b.trail).bit_length() for b in gens if b.kind == "code"), default=0
    )
    if (
        field_vars != list(range(1, n + 1))
        or used > n
        or any(b.trail for b in gens if b.kind == "field")
    ):
        raise ValueError("generators must include the field relation of every variable")
    if n > _BUCHBERGER_MAX_VARS:
        raise EnumerationLimitError(
            f"buchberger guard: n={n} exceeds {_BUCHBERGER_MAX_VARS} variables; "
            "use the coset engine for larger codes"
        )
    code_gens = [(b.lead, b.trail) for b in gens if b.kind == "code"]
    for pair in code_gens:
        check_word_mask(pair[0], n)
        check_word_mask(pair[1], n)

    # element i: the variables of its lead at exponent 1 and at exponent 2
    # as masks, and its trail mask
    elements: list[tuple[int, int, int]] = []
    codes: list[int] = []  # the lead code of each element
    active: list[int] = []  # elements whose leads no later lead divides
    monomials = np.arange(1 << n, dtype=np.int64)
    # code elements only: the squarefree arithmetic applies the field relations
    rewrite = np.zeros(1 << n, dtype=np.int64)
    pairs: list[tuple] = []  # heap of (lcm key, seq, lcm code, i, j)
    seq = itertools.count()

    def add(once: int, twice: int, trail: int) -> None:
        """Append an element and update the pairs and the active elements."""
        h = len(elements)
        hc = _lead_code(once, twice)
        elements.append((once, twice, trail))
        codes.append(hc)
        # criterion B
        kept = [
            p for p in pairs
            if p[2] & hc != hc or p[2] == codes[p[3]] | hc or p[2] == codes[p[4]] | hc
        ]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # the product criterion and criteria M and F on the new pairs.  No
        # active lead divides another, so a pair with coprime leads shares
        # its lcm with no other new pair and its lcm divides no other: it
        # can be dropped before M and F without changing what they keep.
        partner = {}
        for g in reversed(active):  # the first partner of each lcm is kept
            if codes[g] & hc:
                partner[codes[g] | hc] = g
        minimal: list[int] = []
        for lcm in sorted(partner, key=int.bit_count):
            for m in minimal:
                if lcm & m == m:
                    break
            else:
                minimal.append(lcm)
                heapq.heappush(pairs, (_lead_key(lcm), next(seq), lcm, partner[lcm], h))
        active[:] = [g for g in active if codes[g] & hc != hc]
        active.append(h)

    def add_reduced(a: int, b: int) -> None:
        """Add the oriented remainder of a - b unless it is zero."""
        a, b = _remainder(a, rewrite), _remainder(b, rewrite)
        if a == b:
            return
        lead, trail = (a, b) if degrevlex_key(a) > degrevlex_key(b) else (b, a)
        rewrite[(monomials & lead) == lead] = lead ^ trail
        add(lead, 0, trail)

    for v in range(n):
        add(0, 1 << v, 0)
    for lead, trail in code_gens:
        add_reduced(lead, trail)

    while pairs:
        _, _, _, i, j = heapq.heappop(pairs)
        once_i, twice_i, trail_i = elements[i]
        once_j, twice_j, trail_j = elements[j]
        # the lcm's variables at exponent 1; its squares cancel to 1
        once = (once_i | once_j) & ~(twice_i | twice_j)
        add_reduced(once ^ once_i ^ trail_i, once ^ once_j ^ trail_j)

    # no lead divides its own trail, so each trail reduces to its normal form
    left = [elements[g] for g in active if not elements[g][1]]
    leads = np.array([lead for lead, _, _ in left], dtype=np.uint64)
    trails = np.array([_remainder(trail, rewrite) for _, _, trail in left], dtype=np.uint64)
    return _validated_masks(n, leads, trails)


# ---------------------------------------------------------------------------
# brute-force oracles and decoder agreement
# ---------------------------------------------------------------------------

def scan_coset_leaders(code: LinearCode) -> np.ndarray:
    """Oracle coset-leader table: scan all 2^n words, keep each syndrome's
    degrevlex minimum.

    Each word gets the key (weight, complemented word), which orders words
    as degrevlex does; the per-syndrome minimum of that key, taken in one
    unbuffered ``np.minimum.at`` pass, is the degrevlex coset leader.  It
    walks no coset and folds no column: with both routes of
    :func:`~schubert_gb.linalg.build_coset_leader_table` it shares the
    column syndromes, and with the column recurrence also this key.  The
    guard counts the 2^n words.
    """
    n, k = code.n, code.k
    guard_enumeration(1 << n, "coset leader scan", "words")
    synd = np.zeros(1 << n, dtype=np.uint32)
    for i, col in enumerate(code.column_syndromes):
        synd[1 << i: 2 << i] = synd[: 1 << i] ^ np.uint32(col)
    full = np.uint64((1 << n) - 1)
    key = np.arange(1 << n, dtype=np.uint64)
    weights = np.bitwise_count(key)
    key ^= full
    key |= np.left_shift(weights, np.uint64(n), dtype=np.uint64)
    del weights
    best = np.full(1 << (n - k), np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(best, synd, key)
    return (best & full) ^ full


def scan_basis(code: LinearCode) -> ReducedGroebnerBasis:
    """Oracle reduced basis read off :func:`scan_coset_leaders`.

    The standard monomials are the 2^(n-k) coset leaders; the code
    binomials are u - leader(coset(u)) over the minimal non-standard u,
    those whose maximal proper divisors u ^ x_j are all standard.  Two
    boolean arrays over the 2^n masks mark both sets, bit by bit through
    views, and :func:`~schubert_gb.linalg.syndromes` is run on the leads
    only, so the peak memory stays that of the scan.  The elements are put
    in order by :func:`element_sort_key`, so the oracle shares nothing with
    :func:`~schubert_gb.groebner.coset_engine` but the column syndromes and
    the basis container, which reads the field relations off the leads.
    """
    n = code.n
    leaders = scan_coset_leaders(code)
    standard = np.zeros(1 << n, dtype=bool)
    standard[leaders.astype(np.intp)] = True
    minimal = ~standard
    for j in range(n):  # u with bit j set needs u ^ x_j standard
        minimal.reshape(-1, 2, 1 << j)[:, 1] &= standard.reshape(-1, 2, 1 << j)[:, 0]
    leads = np.flatnonzero(minimal).astype(np.uint64)
    elements = map(Binomial, leads.tolist(), leaders[syndromes(leads, code)].tolist())
    return ReducedGroebnerBasis(n, tuple(sorted(elements, key=element_sort_key)))


def coset_minimum(words: np.ndarray, codeword_masks: np.ndarray) -> np.ndarray:
    """Degrevlex-minimal member of each word + C, by scanning all codewords.

    Takes a uint64 array of word masks and builds one words-by-codewords
    array: of each coset's least-weight members the largest mask is the
    degrevlex-smallest.
    """
    coset = np.asarray(words, dtype=np.uint64)[:, None] ^ codeword_masks
    wts = np.bitwise_count(coset)
    least = wts == wts.min(axis=1, keepdims=True)
    return np.where(least, coset, np.uint64(0)).max(axis=1)


def lex_key(mask: int, n: int) -> int:
    """Key for lexicographic word order with position 1 most significant."""
    out = 0
    for i in range(n):
        out = (out << 1) | ((mask >> i) & 1)
    return out


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


@dataclass(frozen=True)
class CrossCheck:
    """Agreement record between the three decoders on one received word."""

    outcome: DecodeOutcome
    syndrome_codeword: int
    nn_codeword: int
    nn_ambiguous: bool
    agree: bool


def cross_check(
    word: int,
    code: LinearCode,
    gb: ReducedGroebnerBasis,
    table: CosetLeaderTable,
    codeword_masks: np.ndarray | None = None,
) -> CrossCheck:
    """Run gb, syndrome, and nearest-neighbour decoding on the same word.

    Whenever gb decoding succeeds, all three codewords must coincide and the
    nearest-neighbour minimizer must be unique.
    """
    outcome = gb_decode(word, gb)
    sd = syndrome_decode(word, table, code)
    nn, ambiguous = nn_decode(word, code, codeword_masks)
    agree = outcome.status != DECODED or (
        outcome.codeword == sd and sd == nn and not ambiguous
    )
    return CrossCheck(outcome, sd, nn, ambiguous, agree)


# ---------------------------------------------------------------------------
# the simulator's random stream, one trial and one draw at a time
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class TrialStream:
    """splitmix64 stream derived solely from (seed, trial index), on Python ints."""

    def __init__(self, seed: int, trial: int):
        self._state = _mix64((seed & _MASK64) ^ _mix64(trial * _GAMMA & _MASK64))

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        return self.next64() % bound


def draw_error(model: FixedWeight | BSC, rng: TrialStream, n: int) -> int:
    """One trial's error mask: a partial Fisher-Yates shuffle of the positions
    for ``FixedWeight``, one threshold test per position for ``BSC``."""
    if isinstance(model, FixedWeight):
        positions = list(range(n))
        mask = 0
        for i in range(model.weight):
            j = i + rng.below(n - i)
            positions[i], positions[j] = positions[j], positions[i]
            mask |= 1 << positions[i]
        return mask
    threshold = int(model.crossover * (1 << 64))
    mask = 0
    for i in range(n):
        if rng.next64() < threshold:
            mask |= 1 << i
    return mask


# ---------------------------------------------------------------------------
# Schubert points by filtering the Grassmannian
# ---------------------------------------------------------------------------

def schubert_points_by_plucker_filter(spec: SchubertSpec) -> list[tuple[int, ...]]:
    """Independent route: filter the full Grassmannian by coordinate vanishing."""
    outside = ~_below_alpha(spec)
    full = SchubertSpec.grassmann(spec.l, spec.m, spec.q)
    return [
        pt
        for bases in enumerate_cell_bases(full)
        for coords in (_plucker_rows(bases, spec.q),)
        for pt in map(tuple, coords[~coords[:, outside].any(axis=1)].tolist())
    ]
