"""Binomial ideals of binary codes and their reduced degrevlex Groebner bases.

The ideal of an [n, k] binary code is generated by X^w - 1 for the generator
rows w together with the field relations x_i^2 - 1.  Everything in sight is a
difference of two monomials over GF(2), so polynomials never grow past two
terms and a basis element is just a (lead, trail) pair.  A basis holds its
code binomials as two uint64 mask arrays, and x_i^2 - 1 is in the basis
exactly when x_i is not a lead (:func:`_field_leads`): all n of them when
d >= 3.  A code with d <= 2 has degree-1 leads and t = 0, and needs no case
of its own.

The reduced basis comes from :func:`coset_engine`: the quotient algebra has
one standard monomial per coset of the code, namely the degrevlex-minimal
coset member, and the code binomials are u - leader(coset(u)) over the
minimal non-standard monomials u, the leads.  It has two routes to them and
takes the cheaper by two work counts; the enumeration guard counts the
2^(n-k) cosets first either way, and no array spans all 2^n words.

- Half-subsets of codewords (:func:`_half_subsets`), for low-rate codes
  such as the Schubert and Grassmann codes.  A codeword c that lowers a lead
  u in degrevlex holds it, and |u| = ceil(wt c / 2), so the leads are found
  among the half-subsets of the 2^k - 1 codewords by popcounts against the
  lighter ones, with work that does not depend on n - k.
- One layered walk over the 2^(n-k) cosets, which yields both the leaders
  and the leads (:func:`~schubert_gb.linalg._coset_walk`), for the rest.

The coset-leader table of a code with n <= 57 comes from a recurrence over
the columns of H instead, and only longer codes read it off the walk
(:func:`~schubert_gb.linalg.build_coset_leader_table`).  The engine needs
the leads, so it walks whenever half-subsets do not win.

A basis read from a file is certified by rebuilding it (:func:`_certified`):
the rewrites lead ^ trail of any basis of I(C) span C, the engine builds the
reduced basis of that code under its own coset guard, and the file must equal
it, which makes it reduced and complete.  What the engine builds itself is
only sorted and checked element by element (:func:`_validated_masks`).

Every rewrite runs through one kernel with two entry points, and monomials
are ordered by degrevlex keys computed directly on masks.  :func:`_reduce`
rewrites one mask (:func:`normal_form`, ``gb_decode``) and
:func:`_reduce_many` a uint64 array of masks (``simulate``,
``GroebnerDecoder.predict`` and the exhaustive checks of ``verify-paper``),
with the same result word by word.  Each basis builds one of two rewrite
indexes on first use, whichever costs fewer limbs per step
(:func:`_rewrite_index`).  Both hold one table per byte of the word, 256
rows each, and the kernel combines the rows that the word's bytes pick:

- A divisor index (:class:`_DivisorIndex`) divides by the first dividing
  lead in list order: a row is a bitset over the N leads, the rows are
  ANDed, and a step costs about N bits per byte.  High-rate codes, whose
  leads are about as many as their distinct rewrites, take it.
- A test set (:class:`_TestSet`) descends by R, the distinct values of
  lead ^ trail: each step applies the first r in R, ascending in
  degrevlex, with key(m ^ r) < key(m) (gradient-descent decoding;
  Ashikhmin and Barg, IEEE-IT 44, 1998; Borges-Quintana et al., "An
  algebraic view to gradient descent decoding", ITW 2010).  A row holds
  one 8-bit lane per r, and the rows are added and masked to the lanes'
  top bits.  R has at most 2^k - 1 members however many leads there are,
  31 at [31,5,16] against 199,330 leads, so low-rate codes take it.  A
  dividing lead's own rewrite lowers the word, so on a reduced basis the
  descent ends at the standard monomial too.

Both rules give the coset's standard monomial on a reduced basis; on other
lists they differ, and each index applies its own rule.  The scalar entry
point reads the table's rows as Python ints, the batch one as uint64
limbs.  Single words stay on the scalar one: a one-word batch pays some
hundred microseconds of fixed numpy calls, where ``_reduce`` takes a few.

This module holds the production routes only.  The Buchberger run that the
coset engine is checked against, with its own rewrite table, the ideal
generators it starts from, the exponent-tuple arithmetic and the Groebner
test live in :mod:`schubert_gb.reference`.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Callable, Iterable, Iterator, Literal, NamedTuple

import numpy as np

from .linalg import _ONE, _SLICE_WORDS, LinearCode, _coset_walk, _lowest_bit
from .linalg import _dual_of_rref, rref
from .validation import check_word_mask, guard_enumeration
from .words import WORD_LIMIT, degrevlex_key, monomial_to_string, rows_of_masks, support

ORDER_ID = "degrevlex"
# table limbs per block of the batch kernel: bounds its working memory
_BATCH_LIMBS = 1 << 18
_BYTE = np.uint64(255)
_BYTES = np.arange(256, dtype=np.uint64)[:, None]
_HIGH = np.uint64(0x8080808080808080)  # the top bit of each 8-bit lane
# rewrites per rref call when a parsed basis's code is rebuilt: bounds its working memory
_SLICE_ROWS = 1 << 10


# ---------------------------------------------------------------------------
# basis element and reduced-basis container
# ---------------------------------------------------------------------------

class Binomial(NamedTuple):
    """A lead-trail pair with GF(2) coefficients, so LT = LM = lead.

    Monomials are squarefree masks, except that a ``field`` element's lead
    mask names the squared variable: ``Binomial(1 << (i-1), 0, "field")`` is
    x_i^2 - 1.  A trail of 0 is the monomial 1.
    """

    lead: int
    trail: int
    kind: Literal["code", "field"] = "code"


_KINDS = ("code", "field")


class ReducedGroebnerBasis:
    """The unique reduced degrevlex Groebner basis of a binary-code ideal.

    Held as ``n`` and the read-only uint64 masks ``leads`` and ``trails``
    of its code binomials, sorted ascending by lead; their trails are
    standard monomials.  The field relations x_i^2 - 1 are implicit: one
    for each x_i that is not a lead (:func:`_field_leads`).
    ``ReducedGroebnerBasis(n, elements)`` takes Binomials ascending by lead
    and checks nothing; it keeps the code binomials and drops the field
    relations.  The Binomial tuples ``elements`` and ``code_binomials`` are
    built on first use, for audit code.  Two bases are equal when n and both
    arrays are; a basis has no hash.
    """

    __hash__ = None

    def __init__(self, n: int, elements: Iterable[Binomial]):
        codes = [b for b in elements if b.kind == "code"]
        leads = np.array([b.lead for b in codes], dtype=np.uint64)
        self._hold(n, leads, np.array([b.trail for b in codes], dtype=np.uint64))

    @classmethod
    def _of_masks(cls, n: int, leads: np.ndarray, trails: np.ndarray) -> ReducedGroebnerBasis:
        """The basis of checked, sorted uint64 code lead and trail masks."""
        gb = cls.__new__(cls)
        gb._hold(n, leads, trails)
        return gb

    def _hold(self, n: int, leads: np.ndarray, trails: np.ndarray) -> None:
        leads.flags.writeable = trails.flags.writeable = False
        self.n, self.leads, self.trails = n, leads, trails

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReducedGroebnerBasis):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.leads, other.leads)
                and np.array_equal(self.trails, other.trails))

    def _element_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leads, trails and field flags of all elements, the field relations
        merged in, ascending by lead: the order of ``elements`` and of the
        basis file."""
        fields = _field_leads(self.n, self.leads[:self.n])  # degree-1 leads come first
        leads = np.concatenate([self.leads, fields])
        trails = np.concatenate([self.trails, np.zeros(fields.size, dtype=np.uint64)])
        is_field = np.arange(leads.size) >= self.leads.size
        order = _element_order(leads, is_field)
        return leads[order], trails[order], is_field[order]

    @cached_property
    def elements(self) -> tuple[Binomial, ...]:
        return tuple(_binomials(*self._element_masks()))

    @cached_property
    def code_binomials(self) -> tuple[Binomial, ...]:
        return tuple(map(Binomial, self.leads.tolist(), self.trails.tolist()))

    @cached_property
    def _index(self) -> _RewriteIndex:
        """The rewrite index of the code binomials, built on first use."""
        return _rewrite_index(self.n, self.leads, self.trails)

    @cached_property
    def _capability(self) -> int:
        if not self.leads.size:
            raise ValueError("capability undefined: basis has no code binomials")
        return int(np.bitwise_count(self.leads).min()) - 1


def _validated_masks(n: int, leads: np.ndarray, trails: np.ndarray) -> ReducedGroebnerBasis:
    """The basis of uint64 code-binomial lead and trail masks, sorted and
    checked element by element.

    The code binomials are put in ascending order by lead
    (:func:`_element_order`), and the first of them in that order that fails
    a check is named, with its first failing check in the order range,
    orientation (the lead above the trail in degrevlex), repeated lead.
    Whether the list is the reduced basis of its code is left to
    :func:`_certified`, which every parsed file goes through;
    :func:`coset_engine` and the reference Buchberger run call this one on
    what they build.  The field relations are implicit in the basis; those
    read from a file are checked by :func:`_check_fields` first.
    """
    order = _element_order(leads, np.zeros(leads.size, dtype=bool))
    code_leads, code_trails = leads[order], trails[order]
    lw, tw = np.bitwise_count(code_leads), np.bitwise_count(code_trails)
    # degrevlex: equal degree, larger mask is smaller
    disoriented = (lw < tw) | ((lw == tw) & (code_leads >= code_trails))
    repeated = np.zeros(code_leads.size, dtype=bool)  # equal leads sort next to each other
    repeated[1:] = code_leads[1:] == code_leads[:-1]
    repeated[:-1] |= repeated[1:]
    rejected = ((code_leads | code_trails) > np.uint64((1 << n) - 1)) | disoriented | repeated
    if rejected.any():
        at = int(rejected.argmax())
        b = Binomial(int(code_leads[at]), int(code_trails[at]))
        check_word_mask(b.lead, n)
        check_word_mask(b.trail, n)
        if disoriented[at]:
            raise ValueError(f"element not oriented lead > trail: {b}")
        raise ValueError(f"lead {b.lead:#x} divides another lead: basis not reduced")
    return ReducedGroebnerBasis._of_masks(n, code_leads, code_trails)


def _certified(n: int, leads: np.ndarray, trails: np.ndarray) -> ReducedGroebnerBasis:
    """The basis of code-binomial masks read from a file, when it is the
    reduced basis of the code its rewrites span.

    After the checks of :func:`_validated_masks` the code is rebuilt from the
    list alone.  The rewrites lead ^ trail of any basis of I(C) span C, so
    the rows that ``rref`` leaves of R (:func:`_distinct_rewrites`), taken
    ``_SLICE_ROWS`` at a time, generate it; that one elimination also gives
    the parity check.  :func:`coset_engine` builds the code's reduced basis
    under its own guard on the 2^(n-k) cosets.  The list must equal that basis: the
    reduced basis is unique, so equality makes the list reduced and complete
    at once.  Otherwise the first element, in ascending lead order, that the
    list has and the code's basis lacks, or the reverse, or whose trail
    differs, is named.
    """
    gb = _validated_masks(n, leads, trails)
    rewrites = _distinct_rewrites(gb.leads, gb.trails)
    rows, pivots = np.zeros((0, n), dtype=np.int64), ()
    for a in range(0, rewrites.size, _SLICE_ROWS):
        more = rows_of_masks(rewrites[a:a + _SLICE_ROWS], n)
        rows, pivots, rank = rref(np.vstack([rows, more]), 2)
        rows = rows[:rank]
    # n <= 64 bounds the parity check, so only the coset guard can refuse the rebuild
    rebuilt = coset_engine(LinearCode(rows, _dual_of_rref(rows, pivots, 2), n, len(rows), 2))
    if rebuilt != gb:
        raise ValueError(f"{_first_difference(gb, rebuilt)}: not the reduced basis of its code")
    return gb


def _first_difference(given: ReducedGroebnerBasis, true: ReducedGroebnerBasis) -> str:
    """The first element, in ascending lead order, that ``given`` has and
    ``true`` lacks, the reverse, or that has another trail in ``true``."""
    both = min(given.leads.size, true.leads.size)
    apart = (given.leads[:both] != true.leads[:both]) | (given.trails[:both] != true.trails[:both])
    at = int(apart.argmax()) if apart.any() else both  # both lists ascend by lead
    mine, want = (_element_at(gb, at) for gb in (given, true))
    if mine and want and mine[0] == want[0]:
        return f"element {mine[1]} should be {want[1]}"
    if mine and not (want and degrevlex_key(want[0]) < degrevlex_key(mine[0])):
        return f"extra element {mine[1]}"
    return f"missing element {want[1]}"


def _element_at(gb: ReducedGroebnerBasis, at: int) -> tuple[int, str] | None:
    """The lead and the text of code binomial ``at``, or None past the last."""
    if at >= gb.leads.size:
        return None
    lead, trail = int(gb.leads[at]), int(gb.trails[at])
    return lead, f"{monomial_to_string(lead)} - {monomial_to_string(trail)}"


def _field_leads(n: int, leads: np.ndarray) -> np.ndarray:
    """Ascending lead masks x_i of the field relations x_i^2 - 1 in the
    reduced basis: those x_i that are not code leads, since a lead x_i is
    the only one that divides x_i^2.  Only degree-1 ``leads`` count, so
    they may come in any order; a basis passes its first n."""
    taken = np.bitwise_or.reduce(leads[np.bitwise_count(leads) == 1], initial=np.uint64(0))
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    return bits[(bits & taken) == 0]


def _check_fields(n: int, leads: np.ndarray, trails: np.ndarray, is_field: np.ndarray) -> None:
    """Raise unless n fits a word and the masks flagged ``is_field`` are
    exactly the field relations that the other leads leave (:func:`_field_leads`)."""
    if n > WORD_LIMIT:
        raise ValueError(f"word length {n} exceeds limit {WORD_LIMIT}")
    want = _field_leads(n, leads[~is_field])
    if not np.array_equal(np.sort(leads[is_field]), want) or trails[is_field].any():
        raise ValueError(f"basis must contain exactly the {want.size} field relations")


def _binomials(leads: np.ndarray, trails: np.ndarray, is_field: np.ndarray) -> Iterator[Binomial]:
    """The elements of uint64 mask arrays and field flags, in array order."""
    kinds = map(_KINDS.__getitem__, is_field.tolist())
    return map(Binomial, leads.tolist(), trails.tolist(), kinds)


def _element_order(leads: np.ndarray, is_field: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts elements ascending by lead, as
    :func:`schubert_gb.reference.element_sort_key` does.

    Degree first, then descending masks, a field lead x_v^2 read as the mask
    2 * 2^(v-1).  That doubled mask passes 64 bits for v = 64, so every
    mask m is compared as (m >> 1, m & 1), which for the field lead is
    (2^(v-1), 0).
    """
    degree = np.where(is_field, 2, np.bitwise_count(leads))
    high = np.where(is_field, leads, leads >> np.uint64(1))
    low = np.where(is_field, np.uint64(0), leads & np.uint64(1))
    return np.lexsort((~low, ~high, degree))


# ---------------------------------------------------------------------------
# coset-leader engine
# ---------------------------------------------------------------------------

def coset_engine(code: LinearCode, _former_limit: None = None) -> ReducedGroebnerBasis:
    """Reduced basis, from half-subsets of codewords or by the layered coset walk.

    The code binomials are X^u - X^trail(u) over the minimal non-standard
    monomials u, the leads, where trail(u) is the degrevlex-least word of
    u's coset.  The guard counts the 2^(n-k) cosets first, whichever route
    runs.  When k <= n - k and the half-subset work is below the walk's
    n * 2^(n-k), the leads are built from codewords
    (:func:`_half_subsets`); otherwise one run of
    :func:`~schubert_gb.linalg._coset_walk` yields them, layer by weight
    layer over the cosets.  Either way :func:`_validated_masks` sorts the
    result and checks it element by element.  A parsed basis file is
    certified by rebuilding it here (:func:`_certified`).
    """
    if _former_limit is not None:
        raise TypeError("coset_engine takes no limit; set SGB_MAX_N instead")
    if code.p != 2:
        raise ValueError("binary only")
    guard_enumeration(1 << (code.n - code.k), "coset leader table", "cosets")
    codewords = _half_subset_codewords(code)
    if codewords is None:
        _, leads, trails = _coset_walk(code)
    else:
        leads, trails = _half_subsets(codewords)
    return _validated_masks(code.n, leads, trails)


def _half_subset_codewords(code: LinearCode) -> np.ndarray | None:
    """The nonzero codewords, when :func:`_half_subsets` costs less than the
    walk's n * 2^(n-k); else None.  Its work charges each candidate once,
    plus one popcount test for each codeword of smaller h: the sum over h of
    count_h * C(2h - 1, h) * (earlier_h + 1), where earlier_h counts the
    codewords of smaller h.  Codes with k > n - k go to the walk without
    enumerating their codewords."""
    n, k = code.n, code.k
    if 2 * k > n:
        return None
    codewords = code.codeword_masks()[1:]
    counts = np.bincount((np.bitwise_count(codewords) + 1) >> 1).tolist()
    work = earlier = 0
    for h, count in enumerate(counts):
        if count:  # each candidate, then one test per codeword of smaller h
            work += count * comb(2 * h - 1, h) * (earlier + 1)
            earlier += count
    return codewords if work < n << (n - k) else None


def _half_subsets(codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lead and trail masks of the reduced basis, from the nonzero codewords.

    In the mask order key(m) = (wt m, -m), say a codeword c beats u when
    key(u ^ c) < key(u).  Let h_c = ceil(wt c / 2), and let c' be c with its
    top bit cleared when wt c is even, so c' has 2 h_c - 1 bits.  If c beats
    a lead u, then u lies inside c' and |u| = h_c: a bit of u outside c, an
    excess over h_c, or c's top bit at an even weight leaves a proper
    divisor of u that c still beats.  Conversely c beats every h_c-subset
    of c'.  So a candidate u, an h_c-subset of some c', is a lead exactly
    when no lighter subset of it is beaten: when popcount(u & c2') < h_c2
    for every codeword c2 with h_c2 < |u|.  The codewords that beat a lead
    are exactly those it was drawn from, its sources, so its trail is the
    degrevlex-least u ^ c over them: that of the lightest source, the
    larger mask on a tie.

    Candidates are made per h, as the codewords' bits picked by the
    h-subsets of 2h - 1 local bits, and tested in slices of about
    ``_SLICE_WORDS`` popcounts, so the work is about
    sum_c C(2 h_c - 1, h_c) * 2^k and does not depend on n - k.
    """
    codewords = codewords[np.argsort(np.bitwise_count(codewords))]
    halves, inner = _beat_test(codewords)
    starts = np.searchsorted(halves, np.arange(int(halves.max(initial=0)) + 2))
    leads, sources = [codewords[:0]], [codewords[:0]]
    for h in range(1, starts.size - 1):
        a, b = int(starts[h]), int(starts[h + 1])  # the tests are the codewords before a
        if a == b:
            continue
        local = _subsets(2 * h - 1, h)
        step = max(1, _SLICE_WORDS // max(a, 1))
        rows, cols = max(1, step // local.size), min(step, local.size)
        for r in range(a, b, rows):
            e = min(r + rows, b)
            for s in range(0, local.size, cols):
                part = local[s:s + cols]
                u = _deposit(inner[r:e], part, 2 * h - 1)
                keep = (np.bitwise_count(u[:, None] & inner[:a]) < halves[:a]).all(axis=1)
                leads.append(u[keep])
                sources.append(np.repeat(codewords[r:e], part.size)[keep])
    return _lightest_sources(np.concatenate(leads), np.concatenate(sources))


def _beat_test(codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h_c = ceil(wt c / 2) and c', c with its top bit cleared when wt c is
    even, for each codeword c: c beats u exactly when popcount(u & c') >= h_c."""
    weight = np.bitwise_count(codewords)
    return (weight + 1) >> 1, np.where(weight & 1, codewords, codewords ^ _top_bit(codewords))


def _subsets(w: int, h: int) -> np.ndarray:
    """The masks of the h-subsets of w bits, as uint64, built one bit at a time.

    ``rows[j]`` holds the j-subsets of the bits seen so far; rows that the
    bits still to come cannot lift to h are no longer extended.
    """
    rows = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * h
    for i in range(w):
        bit = np.uint64(1 << i)
        for j in range(min(i + 1, h), max(h - (w - i - 1), 1) - 1, -1):
            rows[j] = np.concatenate((rows[j], rows[j - 1] | bit))
    return rows[h]


def _deposit(masks: np.ndarray, local: np.ndarray, w: int) -> np.ndarray:
    """For each mask of w set bits and each local mask of w bits, the
    mask's bits that the local mask picks: local bit j picks its j-th lowest
    set bit.  Flat, mask-major."""
    out = np.zeros((masks.size, local.size), dtype=np.uint64)
    rest = masks.copy()
    for j in range(w):
        bit = _lowest_bit(rest)
        out |= bit[:, None] * ((local >> np.uint64(j)) & _ONE)
        rest ^= bit
    return out.ravel()


def _top_bit(masks: np.ndarray) -> np.ndarray:
    """The highest set bit of each mask, 0 for 0."""
    for shift in (1, 2, 4, 8, 16, 32):
        masks = masks | (masks >> np.uint64(shift))
    return masks ^ (masks >> _ONE)


def _lightest_sources(leads: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct lead, with its trail lead ^ c* for the lightest of its
    source codewords c*, the larger mask on a tie."""
    at = np.lexsort((~sources, np.bitwise_count(sources), leads))
    leads, sources = leads[at], sources[at]
    first = np.ones(leads.size, dtype=bool)
    first[1:] = leads[1:] != leads[:-1]
    return leads[first], leads[first] ^ sources[first]


# ---------------------------------------------------------------------------
# normal forms and capability
# ---------------------------------------------------------------------------

def normal_form(
    monomial: int,
    gb: ReducedGroebnerBasis,
    selector: Callable[[np.ndarray], int] | None = None,
) -> int:
    """Canonical form of a squarefree monomial: its coset's standard monomial.

    Rewrites m -> m XOR lead XOR trail through the basis's rewrite index,
    built once on first use (:func:`_rewrite_index`), whose byte-sliced
    table finds either the dividing leads, of which the first in ascending
    element order is taken, or the beating rewrites r = lead ^ trail, the
    first in ascending degrevlex with key(m ^ r) < key(m).  Each step stays
    in m's coset and lowers m, and either rule ends at the standard
    monomial.  The result is selection-independent; ``selector`` picks
    among the index's hits (ascending index array -> position), is called
    once per step, and exists so tests can randomize the reduction path and
    count its steps.
    """
    m = check_word_mask(monomial, gb.n)
    return _reduce(m, gb._index, selector)


def _rewrite_index(n: int, leads: np.ndarray, trails: np.ndarray) -> _RewriteIndex:
    """The rewrite index of a binomial list whose step costs fewer 64-bit
    limbs of big-integer work.

    Both indexes read one row per byte slice of the word.  Division ANDs
    bitsets over the N leads, ceil(n / 8) * ceil(N / 64) limbs; the test set
    adds rows of 8-bit lanes over the R distinct rewrites and masks the sum
    once, (ceil(n / 8) + 1) * ceil(R / 8) limbs.  R is at most 2^k - 1, so
    low-rate codes descend by the test set, while high-rate codes, whose
    rewrites are about as many as their leads, divide.  On a tie the list
    is divided: division reads each lead as given, where the descent
    relies on the list holding every lead of a reduced basis.  R is
    counted first, so the test set's degrevlex order and beat tests are
    made only when it wins.
    """
    rewrites = _distinct_rewrites(leads, trails)
    slices = -(-n // 8)
    if (slices + 1) * -(-rewrites.size // 8) < slices * -(-len(leads) // 64):
        return _TestSet(n, rewrites)
    return _DivisorIndex(n, leads, trails)


def _distinct_rewrites(leads: Iterable[int], trails: Iterable[int]) -> np.ndarray:
    """R: the distinct nonzero values of lead ^ trail, ascending as integers."""
    r = np.sort(np.asarray(leads, dtype=np.uint64) ^ np.asarray(trails, dtype=np.uint64))
    distinct = r != 0
    distinct[1:] &= r[1:] != r[:-1]
    return r[distinct]


class _RewriteIndex:
    """A rewrite rule over a binomial list, as one byte-sliced table.

    ``table`` is a ``(ceil(n / 8), 256, width)`` uint8 array, ``width`` in
    whole 64-bit limbs: row b of slice s holds ``lane`` bits per rewrite
    for a word whose byte s is b.  The kernel ANDs the rows that a word's
    bytes pick (division) or adds them and masks each 8-bit lane's top bit
    (descent, ``adds``); rewrite i applies when the bit of bit length
    ``lane * (i + 1)`` is left, and ``picks`` maps that bit length to the
    rewrite mask.  No rewrite applies to a word lighter than ``lightest``,
    which passes every word's weight when there is none.  The scalar kernel
    reads the rows as Python ints (``rows``), the batch kernel as uint64
    limbs (``limbs``).  The table and each form are built on first use; the
    index is built once from its list and never changed.
    """

    lane: int  # set by each rule, which also fills the table (``_fill``)
    adds: bool

    def __init__(self, n: int, rewrites: np.ndarray, lightest: int):
        self.n, self.rewrites, self.lightest = n, rewrites.tolist(), lightest

    @cached_property
    def table(self) -> np.ndarray:
        width = 8 * -(-self.lane * len(self.rewrites) // 64)
        table = np.zeros((-(-self.n // 8), 256, width), dtype=np.uint8)
        self._fill(table)
        return table

    @cached_property
    def limbs(self) -> np.ndarray:
        return self.table.view("<u8")

    @cached_property
    def picks(self) -> np.ndarray:
        picks = np.zeros(8 * self.table.shape[2] + 1, dtype=np.uint64)
        picks[self.lane::self.lane][:len(self.rewrites)] = self.rewrites
        return picks

    @cached_property
    def rows(self) -> tuple[list[int], list[tuple[int, list[int]]], int | None, list[int]]:
        """The scalar form: slice 0's row table, the (shift, row table) pair
        of each other slice, the mask of every 8-bit lane's top bit when the
        rows are added (None when they are ANDed), and ``picks`` as a list."""
        data, width = self.table.tobytes(), self.table.shape[2]
        ints = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
        tables = [ints[a:a + 256] for a in range(0, len(ints), 256)]
        high = int.from_bytes(b"\x80" * width, "little") if self.adds else None
        return tables[0], [(8 * s, t) for s, t in enumerate(tables) if s], high, self.picks.tolist()


class _DivisorIndex(_RewriteIndex):
    """Which leads of a binomial list divide a monomial, as bitsets.

    Bit i of row b in slice s is set when lead i's byte s, ``(lead_i >> 8 s)
    & 255``, lies inside b, so lead i divides m exactly when bit i survives
    the AND of the rows that m's bytes pick.  ``rewrites[i]`` is lead_i ^
    trail_i, the XOR that rewrites a monomial lead_i divides, with leads
    numbered in the order given.  ``lightest`` is the least lead degree: no
    lead divides a lighter monomial.
    """

    lane, adds = 1, False

    def __init__(self, n: int, leads: Iterable[int], trails: Iterable[int]):
        self.leads = np.asarray(leads, dtype=np.uint64)
        rewrites = self.leads ^ np.asarray(trails, dtype=np.uint64)
        super().__init__(n, rewrites, int(np.bitwise_count(self.leads).min(initial=WORD_LIMIT + 1)))

    def _fill(self, table: np.ndarray) -> None:
        at = np.arange(self.leads.size)
        bits = (1 << (at & 7)).astype(np.uint8)
        for s, rows in enumerate(table):  # each lead in the row of its own byte,
            byte = ((self.leads >> np.uint64(8 * s)) & _BYTE).astype(np.intp)
            np.bitwise_or.at(rows, (byte, at >> 3), bits)
        for j in range(8):  # then in every row whose byte holds it
            half = table.reshape(len(table), -1, 2, 1 << j, table.shape[2])
            half[:, :, 1] |= half[:, :, 0]


class _TestSet(_RewriteIndex):
    """The distinct rewrites of a binomial list, as a test-set index.

    It is made from R, the distinct nonzero values of lead ^ trail as
    :func:`_distinct_rewrites` gives them, and ``rewrites`` holds R
    ascending in degrevlex.  Say r beats m when key(m ^ r) < key(m) in the
    mask order key(m) = (wt m, -m); with h_r and c'_r as in
    :func:`_beat_test`, r beats m exactly when popcount(m & c'_r) >= h_r.
    Lane r of row b in slice s is popcount(b & byte s of c'_r), and slice 0
    also carries 128 - h_r.  So in the sum of the rows that m's bytes pick,
    lane r is at least 128 exactly when r beats m, and it stays below 192:
    the lanes never carry into each other.  ``lightest`` is the least h_r:
    no r beats a lighter word.  A lead L with trail T that divides m gives
    the r = L ^ T that beats m, so on a reduced basis a word no r beats is
    the standard monomial (gradient-descent decoding; Ashikhmin and Barg,
    IEEE-IT 44, 1998).
    """

    lane, adds = 8, True

    def __init__(self, n: int, rewrites: np.ndarray):
        # degrevlex: lighter, then the larger mask
        r = rewrites[np.lexsort((~rewrites, np.bitwise_count(rewrites)))]
        self.halves, self.inner = _beat_test(r)
        super().__init__(n, r, int(self.halves.min(initial=WORD_LIMIT + 1)))

    def _fill(self, table: np.ndarray) -> None:
        count = len(self.rewrites)
        for s, rows in enumerate(table):
            rows[:, :count] = np.bitwise_count(_BYTES & (self.inner >> np.uint64(8 * s)))
        table[0, :, :count] += (128 - self.halves).astype(np.uint8)


def _reduce(
    m: int,
    index: _RewriteIndex,
    selector: Callable[[np.ndarray], int] | None = None,
) -> int:
    """Rewrite m -> m XOR r while the index finds a rewrite r for m.

    The scalar entry point of the rewrite kernel: one row per byte of m,
    ANDed into the set of dividing leads or added and masked into the set
    of beating rewrites, so a few big-integer operations stand for a pass
    over every lead or rewrite.  Without a ``selector`` the lowest bit of
    that set, the first hit in index order, is used, so the result is a
    deterministic function of m for any list, Groebner basis or not;
    otherwise ``selector`` is called once per step with the ascending
    indices of all hits.
    """
    lightest = index.lightest
    if m.bit_count() < lightest:  # so is every word when the index is empty: no rows needed
        return m
    first, rest, high, picks = index.rows
    while m.bit_count() >= lightest:
        hits = first[m & 255]
        if high is None:
            for shift, table in rest:
                hits &= table[(m >> shift) & 255]
        else:
            for shift, table in rest:
                hits += table[(m >> shift) & 255]
            hits &= high
        if not hits:
            return m
        if selector is None:
            m ^= picks[(hits & -hits).bit_length()]
        else:
            found = np.array(support(hits), dtype=np.intp) // index.lane - 1
            m ^= index.rewrites[found[selector(found)]]
    return m


def _reduce_many(words: np.ndarray, index: _RewriteIndex) -> np.ndarray:
    """:func:`_reduce` of every word of a uint64 array, as a new array.

    The batch entry point of the rewrite kernel, reading the index's
    ``limbs``: each step finds the hits of every word still live, and the
    first limb with a hit and its lowest hit name the first hit in index
    order, as in the scalar kernel, so the results match it word by word
    for any list.  Words without a hit drop out, those lighter than
    ``lightest`` before any row is read.  Words go through in blocks of
    about ``_BATCH_LIMBS`` limbs, so the working memory does not grow with
    the array.
    """
    out = np.array(words, dtype=np.uint64)
    if not index.rewrites:
        return out
    step = max(1, _BATCH_LIMBS // index.limbs.shape[2])
    for a in range(0, out.size, step):
        _reduce_block(out[a:a + step], index)
    return out


def _reduce_block(m: np.ndarray, index: _RewriteIndex) -> None:
    """Reduce the uint64 words ``m`` in place; see :func:`_reduce_many`."""
    limbs, picks, lightest, adds = index.limbs, index.picks, index.lightest, index.adds
    combine = np.add if adds else np.bitwise_and
    live = np.arange(m.size)
    while live.size:
        live = live[np.bitwise_count(m[live]) >= lightest]
        w = m[live]
        hits = limbs[0][w & _BYTE]
        for s in range(1, len(limbs)):
            combine(hits, limbs[s][(w >> np.uint64(8 * s)) & _BYTE], out=hits)
        if adds:
            hits &= _HIGH
        nonzero = hits != 0
        first = nonzero.argmax(axis=1)
        found = np.flatnonzero(nonzero[np.arange(live.size), first])
        first = first[found]
        limb = hits[found, first]
        live = live[found]
        m[live] ^= picks[64 * first + np.bitwise_count(limb ^ (limb - _ONE))]


def capability(gb: ReducedGroebnerBasis) -> int:
    """Error-correcting capability: min lead degree over code binomials, - 1."""
    return gb._capability
