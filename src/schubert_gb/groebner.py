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
minimal non-standard monomials u.  One layered walk over the 2^(n-k) cosets
yields both the leaders and those u (:func:`~schubert_gb.linalg._coset_walk`),
so no array spans all 2^n words, and the enumeration guard counts cosets.

Every rewrite runs through one kernel with two entry points, and monomials
are ordered by degrevlex keys computed directly on masks.  :func:`_reduce`
rewrites one mask (:func:`normal_form`, ``gb_decode``) and
:func:`_reduce_many` a uint64 array of masks (``simulate``,
``GroebnerDecoder.predict`` and the exhaustive checks of ``verify-paper``),
with the same result word by word.  Both find the leads dividing a monomial
with one divisor index (:class:`_DivisorIndex`), built once from a lead
list and never changed: the n variables are cut into 4-bit slices, and per
slice and nibble value one bitset over the leads marks those whose bits in
that slice lie inside the nibble.  The AND of one bitset per slice is the
set of dividing leads, and its lowest bit is the first of them in array
order, the lead each rewrite uses.  The scalar entry point holds the
bitsets as Python ints, the batch one as rows of uint64 limbs.  Single
words stay on the scalar one: a one-word batch pays some hundred
microseconds of fixed numpy calls, where ``_reduce`` takes a few.

This module holds the production route only.  The Buchberger run that the
coset engine is checked against, with its own rewrite table, the ideal
generators it starts from, the exponent-tuple arithmetic and the Groebner
test live in :mod:`schubert_gb.reference`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Literal, NamedTuple

import numpy as np

from .linalg import _ONE, _SLICE_WORDS, LinearCode, _coset_walk
from .validation import EnumerationLimitError, check_word_mask, enum_limit, guard_enumeration
from .words import WORD_LIMIT, support

ORDER_ID = "degrevlex"
# dividing-lead bitset limbs per block of the batch kernel: bounds its working memory
_BATCH_LIMBS = 1 << 18
_NIBBLE = np.uint64(15)
_OUTSIDE = ~np.arange(16, dtype=np.uint8)[:, None]  # row v: the bits outside nibble v


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
    def _divisor_index(self) -> _DivisorIndex:
        """The rewrite index of the code binomials, built on first use."""
        return _DivisorIndex(self.n, self.leads, self.trails)

    @cached_property
    def _capability(self) -> int:
        if not self.leads.size:
            raise ValueError("capability undefined: basis has no code binomials")
        return int(np.bitwise_count(self.leads).min()) - 1


def _validated_masks(n: int, leads: np.ndarray, trails: np.ndarray) -> ReducedGroebnerBasis:
    """The basis of uint64 code-binomial lead and trail masks, checked.

    Besides the per-element checks - both masks in range, the lead above
    the trail in degrevlex - the code binomials must be reduced: no lead
    divides another lead or any trail.  That is checked over the standard
    monomials (those no lead divides) rather than lead against lead.  A lead
    dividing a trail lies below that trail, and a lead strictly dividing
    another lead L lies below some maximal proper divisor L ^ bit; so the
    basis is reduced exactly when its leads are distinct and the down-closure
    of all trails and all L ^ bit holds no lead (:func:`_leads_below`).  For
    a genuine basis that closure consists of standard monomials, which are
    closed under division and number one per coset, so the check visits at
    most 2^(n-k) monomials, with about n word operations each plus a sort,
    instead of O(N^2) work in the N code binomials.  The distinct monomials
    it visits count against the enumeration guard, so a genuine
    basis passes wherever its coset table does, and the words it holds stay
    within a small multiple of the guard, so a hostile basis ends in
    EnumerationLimitError, not an unbounded allocation.

    The field relations are implicit in the basis; those read from a file
    are checked by :func:`_check_fields` first.  The code binomials are put
    in ascending order by lead (:func:`_element_order`), and the first of
    them in that order that fails any check is named, with its first
    failing check in the order range, orientation, reducedness.
    """
    order = _element_order(leads, np.zeros(leads.size, dtype=bool))
    code_leads, code_trails = leads[order], trails[order]
    lw, tw = np.bitwise_count(code_leads), np.bitwise_count(code_trails)
    # degrevlex: equal degree, larger mask is smaller
    disoriented = (lw < tw) | ((lw == tw) & (code_leads >= code_trails))
    faulty = ((code_leads | code_trails) > np.uint64((1 << n) - 1)) | disoriented
    ordered = np.sort(code_leads)
    repeated = np.isin(code_leads, ordered[1:][ordered[1:] == ordered[:-1]])
    try:
        unreduced = repeated | np.isin(
            code_leads, _leads_below(ordered, code_leads, code_trails)
        )
    except EnumerationLimitError:
        if not (faulty | repeated).any():
            raise
        unreduced = repeated  # rejected either way; name what is known
    rejected = faulty | unreduced
    if rejected.any():
        at = int(rejected.argmax())
        b = Binomial(int(code_leads[at]), int(code_trails[at]))
        check_word_mask(b.lead, n)
        check_word_mask(b.trail, n)
        if disoriented[at]:
            raise ValueError(f"element not oriented lead > trail: {b}")
        L = code_leads[at]
        if np.count_nonzero((code_leads & L) == L) != 1:
            raise ValueError(f"lead {b.lead:#x} divides another lead: basis not reduced")
        raise ValueError(f"lead {b.lead:#x} divides a trail: basis not reduced")
    return ReducedGroebnerBasis._of_masks(n, code_leads, code_trails)


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


def _leads_below(ordered: np.ndarray, leads: np.ndarray, trails: np.ndarray) -> np.ndarray:
    """Leads that divide a trail or strictly divide another lead.

    ``ordered`` is ``leads`` sorted.  Walks the down-closure of the trails
    and of every lead ^ bit one weight layer at a time, heaviest first: the
    leads are looked up in each layer of distinct monomials, which is
    expanded - together with the leads of its weight - by clearing one set
    bit (:func:`_next_layer`).  The walk stops at degree 1.  The guard counts
    the distinct monomials visited.  A lead of degree d has 2^d - 2 proper
    divisors other than 1, all of which the walk visits, so a lead with more
    of them than the guard admits is refused before the walk.  A genuine
    basis never is: a lead's proper divisors are distinct standard
    monomials, fewer than its 2^(n-k) cosets.
    """
    if not leads.size:
        return leads
    lw, tw = np.bitwise_count(leads), np.bitwise_count(trails)
    d = int(lw.max())
    guard_enumeration((1 << d) - 2, "basis reducedness check", "monomials")
    top = int(max(d, tw.max()))
    layer = _next_layer((), top + 1, trails[tw == top], 0)
    found, visited = [leads[:0]], 0
    for w in range(top, 0, -1):
        if layer.size:  # look the leads up in the layer, which may be far larger
            at = np.minimum(np.searchsorted(layer, ordered), layer.size - 1)
            found.append(ordered[layer[at] == ordered])
        visited += layer.size
        guard_enumeration(visited, "basis reducedness check", "monomials")
        if w > 1:
            layer = _next_layer((layer, leads[lw == w]), w, trails[tw == w - 1], visited)
    return np.concatenate(found)


def _next_layer(
    parents: tuple[np.ndarray, ...], w: int, seeds: np.ndarray, visited: int
) -> np.ndarray:
    """The distinct words among ``seeds`` and every ``parent ^ bit``, ascending.

    Parents have weight w.  Their divisors are written slice by slice into
    one buffer, which is sorted and compacted in place whenever the next
    slice does not fit, and each compaction's distinct count goes to the
    guard on top of ``visited``.  The buffer holds what the guard has left
    plus a quarter of that and one slice, so the words held stay near the
    guard and each compaction is paid for by a quarter of it in new words.
    """
    room = enum_limit() - visited
    total = seeds.size + w * sum(p.size for p in parents)
    buf = np.empty(min(total, seeds.size + room + room // 4 + _SLICE_WORDS), dtype=np.uint64)
    buf[:seeds.size] = seeds
    used = seeds.size
    step = max(1, _SLICE_WORDS // w)
    for src in parents:
        for a in range(0, src.size, step):
            part = src[a:a + step]
            if used + w * part.size > buf.size:
                used = _compact(buf, used)
                guard_enumeration(visited + used, "basis reducedness check", "monomials")
            rest = part.copy()
            for row in buf[used:used + w * part.size].reshape(w, part.size):
                low = rest & -rest  # clear each of the w set bits in turn
                np.bitwise_xor(part, low, out=row)
                rest ^= low
            used += w * part.size
    buf.resize(_compact(buf, used), refcheck=False)
    return buf


def _compact(buf: np.ndarray, used: int) -> int:
    """Sort ``buf[:used]`` in place and move its distinct words to the front.

    Returns their count; the compaction runs in slices, so it needs no
    second buffer.
    """
    buf[:used].sort()
    count = 0
    for a in range(0, used, _SLICE_WORDS):
        chunk = buf[a:min(a + _SLICE_WORDS, used)]
        keep = np.empty(chunk.size, dtype=bool)
        keep[0] = a == 0 or chunk[0] != last
        keep[1:] = chunk[1:] != chunk[:-1]
        last = chunk[-1]
        kept = chunk[keep]
        buf[count:count + kept.size] = kept
        count += kept.size
    return count


# ---------------------------------------------------------------------------
# coset-leader engine
# ---------------------------------------------------------------------------

def coset_engine(code: LinearCode, _former_limit: None = None) -> ReducedGroebnerBasis:
    """Reduced basis via the layered coset walk.

    Standard monomials are the supports of the degrevlex coset leaders; the
    code binomials are X^u - X^leader(coset(u)) over the minimal non-standard
    monomials u.  One run of :func:`~schubert_gb.linalg._coset_walk` yields
    both, layer by weight layer over the 2^(n-k) cosets, which the guard counts.
    """
    if _former_limit is not None:
        raise TypeError("coset_engine takes no limit; set SGB_MAX_N instead")
    if code.p != 2:
        raise ValueError("binary only")
    _, leads, trails = _coset_walk(code, with_leads=True)
    return _validated_masks(code.n, leads, trails)


# ---------------------------------------------------------------------------
# normal forms and capability
# ---------------------------------------------------------------------------

def normal_form(
    monomial: int,
    gb: ReducedGroebnerBasis,
    selector: Callable[[np.ndarray], int] | None = None,
) -> int:
    """Canonical form of a squarefree monomial: its coset's standard monomial.

    Divides by basis elements until nothing applies; each rewrite replaces the
    lead part by the trail and cancels squares via the field relations, i.e.
    m -> m XOR lead XOR trail.  The dividing leads are read off the basis's
    divisor index, built once on first use, and the first of them in
    ascending element order is taken.  The result is selection-independent;
    ``selector`` picks among applicable divisors (index array -> position)
    and exists so tests can randomize the reduction path.
    """
    m = check_word_mask(monomial, gb.n)
    return _reduce(m, gb._divisor_index, selector)


class _DivisorIndex:
    """Which leads of a binomial list divide a monomial, as bitsets.

    The n variables are cut into 4-bit slices, kept as ``(shift, table)``
    pairs.  ``table[v]`` is a Python int with bit i set when lead i's bits
    in the slice, ``(lead_i >> shift) & 15``, lie inside the nibble v, so
    lead i divides m exactly when bit i survives the AND of
    ``table[(m >> shift) & 15]`` over all slices.  ``rewrites[i]`` is
    lead_i ^ trail_i, the XOR that rewrites a monomial lead_i divides.
    Leads are numbered in the order given.  The index is built once from
    its lead list and never changed.

    The batch kernel reads the same bitsets as ``limbs``, a
    ``(slices, 16, W)`` uint64 array: ``limbs[s, v]`` holds
    ``slices[s][1][v]`` in W little-endian 64-bit limbs, and the ints are
    read off its bytes.  It also reads the rewrites as the uint64 array
    ``rewrite_masks``, and ``lightest``, the least lead degree: no lead
    divides a lighter monomial.
    """

    __slots__ = ("slices", "rewrites", "limbs", "rewrite_masks", "lightest")

    def __init__(self, n: int, leads: Iterable[int], trails: Iterable[int]):
        leads = np.asarray(leads, dtype=np.uint64)
        trails = np.asarray(trails, dtype=np.uint64)
        width = 8 * -(-leads.size // 64)  # bytes per bitset, in whole limbs
        packed = np.zeros((-(-n // 4), 16, width), dtype=np.uint8)
        for s, rows in enumerate(packed):  # leads whose nibble in slice s lies inside v
            fits = (((leads >> np.uint64(4 * s)) & _NIBBLE).astype(np.uint8) & _OUTSIDE) == 0
            rows[:, :-(-leads.size // 8)] = np.packbits(fits, axis=1, bitorder="little")
        self.limbs = packed.view("<u8")
        data = packed.tobytes()
        tables = [int.from_bytes(data[i * width:(i + 1) * width], "little")
                  for i in range(16 * len(packed))]
        self.slices = [(4 * s, tables[16 * s:16 * s + 16]) for s in range(len(packed))]
        self.rewrite_masks = leads ^ trails
        self.rewrites = self.rewrite_masks.tolist()
        self.lightest = int(np.bitwise_count(leads).min(initial=WORD_LIMIT))


def _reduce(
    m: int,
    index: _DivisorIndex,
    selector: Callable[[np.ndarray], int] | None = None,
) -> int:
    """Rewrite m -> m XOR lead XOR trail while some lead divides m.

    The scalar entry point of the one rewrite kernel.  Each step ANDs one
    bitset per 4-bit slice of the divisor index to get the set of leads
    dividing m, a few big-integer operations instead of a pass over every
    lead.  Without a ``selector`` its lowest bit, the first dividing lead in
    index order, is used, so the result is a deterministic function of m
    even for a set that is not a Groebner basis; otherwise ``selector`` is
    called once per rewrite with the ascending indices of all dividing
    leads.
    """
    slices, rewrites = index.slices, index.rewrites
    while rewrites:
        hits = -1
        for shift, table in slices:
            hits &= table[(m >> shift) & 15]
        if not hits:
            return m
        if selector is None:
            m ^= rewrites[(hits & -hits).bit_length() - 1]
        else:
            found = np.array(support(hits), dtype=np.intp) - 1
            m ^= rewrites[found[selector(found)]]
    return m


def _reduce_many(words: np.ndarray, index: _DivisorIndex) -> np.ndarray:
    """:func:`_reduce` of every word of a uint64 array, as a new array.

    The batch entry point of the one rewrite kernel, reading the index's
    ``limbs``.  Each step ANDs one row per slice into a bitset of dividing
    leads for every word still live; the first nonzero limb and its lowest
    bit name the first dividing lead in index order, as in the scalar
    kernel, so the results match it word by word for any lead list.  Words
    no lead divides drop out, those lighter than the lightest lead before
    any bitset is read.  Words go through in blocks of about
    ``_BATCH_LIMBS`` bitset limbs, so the working memory does not grow with
    the array.
    """
    out = np.array(words, dtype=np.uint64)
    if not index.rewrites:
        return out
    step = max(1, _BATCH_LIMBS // index.limbs.shape[2])
    for a in range(0, out.size, step):
        _reduce_block(out[a:a + step], index.limbs, index.rewrite_masks, index.lightest)
    return out


def _reduce_block(m: np.ndarray, limbs: np.ndarray, rewrites: np.ndarray, lightest: int) -> None:
    """Reduce the uint64 words ``m`` in place; see :func:`_reduce_many`."""
    live = np.arange(m.size)
    while live.size:
        live = live[np.bitwise_count(m[live]) >= lightest]
        w = m[live]
        hits = limbs[0][w & _NIBBLE]
        for s in range(1, len(limbs)):
            hits &= limbs[s][(w >> np.uint64(4 * s)) & _NIBBLE]
        nonzero = hits != 0
        first = nonzero.argmax(axis=1)
        divided = np.flatnonzero(nonzero[np.arange(live.size), first])
        first = first[divided]
        limb = hits[divided, first]
        lead = 64 * first + np.bitwise_count(limb ^ (limb - _ONE)) - 1
        live = live[divided]
        m[live] ^= rewrites[lead]


def capability(gb: ReducedGroebnerBasis) -> int:
    """Error-correcting capability: min lead degree over code binomials, - 1."""
    return gb._capability
