"""Shared text formats: matrices, Groebner bases, and point listings.

Matrix format: a header line ``k n p`` followed by k rows of n
whitespace-separated residues in [0, p).

Basis format: a header ``# n=<n> order=degrevlex field=GF(2)`` with
n <= 64, and one element per line, ``term - term``; a term is ``1`` or
``*``-joined factors ``x<i>`` / ``x<i>^2`` with ascending indices i in
1..64.  x_i^2 - 1 is listed for each x_i that is not a lead: every x_i when
d >= 3, while a code with d <= 2 has leads such as ``x1`` in ``x1 - x3``.
A header with n > 64 and an index outside 1..64 are refused as they are
read, so every element fits a uint64 mask.  The writer emits lines sorted
ascending by lead; the parser accepts any order and extra whitespace, so
transcribed listings can be compared set-wise.

Both directions work on uint64 mask arrays, the only form parsed elements
take, in slices of at most ``_SLICE_LINES`` lines, so no array grows with
the file beyond a few bytes per line.  The writer lays each slice out as a
grid of pieces (``x<i>``, ``*x<i>``, ``^2``, `` - ``, ``1``, newline), each
packed into one uint32, and keeps the grid's nonzero bytes.  The reader
finds the ``x``, digit, ``^``, ``-`` and newline bytes of a slice, ORs each
variable's bit into its line's lead or trail, and accepts the slice only
when the writer re-emits exactly its bytes.  That byte check is the whole
grammar check: writer output passes, in any line order, and every other
slice - a comment, CRLF line ends, extra spaces, a fault - goes to the
per-factor parser, which reads any layout the format allows and names the
first fault.  Slices under ``_BULK_MIN_BYTES``, such as whole small files,
go to it directly, since the bulk reader's fixed cost would dominate them.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .groebner import (
    Binomial,
    ORDER_ID,
    ReducedGroebnerBasis,
    _binomials,
    _check_fields,
    _validated_masks,
)
from .linalg import _bit_index, _lowest_bit
from .validation import check_matrix
from .words import SIGNED_DIGIT, WORD_LIMIT, _parse_term, quoted, small_int

# \d takes any Unicode digit, so a header spelling n in other digits is
# named and refused, not read as a comment
_HEADER = re.compile(
    r"#\s*n\s*=\s*(\d+)\s+order\s*=\s*(\S+)\s+field\s*=\s*GF\(2\)\s*$"
)
# a matrix row: signed ASCII digits between ASCII blanks; check_matrix bounds them
_ROW = re.compile(rf"\s*{SIGNED_DIGIT}+(?:\s+{SIGNED_DIGIT}+)*\s*", re.ASCII)
# basis lines are written and read in slices of at most this many, which
# bounds the arrays sized by lines times n
_SLICE_LINES = 1 << 12
# a slice shorter than this is read factor by factor: about here the bulk
# reader's fixed cost of some 40 numpy calls meets the per-factor parser's
# cost per line, so small files such as the fixture listings stay cheap
_BULK_MIN_BYTES = 1 << 11
# uint64 lead and trail masks and the field flags of a run of elements
_Masks = tuple[np.ndarray, np.ndarray, np.ndarray]


def format_matrix(matrix: np.ndarray, p: int) -> str:
    M = check_matrix(matrix, p)
    k, n = M.shape
    lines = [f"{k} {n} {p}"]
    lines += [" ".join(str(int(x)) for x in row) for row in M]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[np.ndarray, int]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        k, n, p = (small_int(x) for x in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad matrix header {quoted(lines[0])}: expected 'k n p'") from exc
    if len(lines) != k + 1:
        raise ValueError(f"expected {k} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            if not _ROW.fullmatch(ln):
                raise ValueError
            row = [int(x) for x in ln.split()]
        except ValueError:
            raise ValueError(f"bad matrix row {quoted(ln)}: expected integers") from None
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    try:
        M = np.array(rows, dtype=np.int64).reshape(k, n)
    except OverflowError as exc:
        raise ValueError("matrix entries must fit in int64") from exc
    return check_matrix(M, p), p


def _packed(pieces) -> np.ndarray:
    """Each piece of at most 4 bytes as one uint32, zero-padded."""
    return np.frombuffer(b"".join(p.encode().ljust(4, b"\0") for p in pieces), dtype=np.uint32)


# no piece holds a zero byte, so the padding marks the bytes to drop
_ONE, _SQUARE, _DASH, _NEWLINE = _packed(["1", "^2", " - ", "\n"])


@functools.cache
def _pieces(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed ``x<i>`` and ``*x<i>`` of n <= 64 variables.

    Entry i - 1 of each names x_i; entry 64, which the lowest bit of a
    zero mask indexes, and those from n to 63 are empty.
    """
    names = np.zeros((2, WORD_LIMIT + 1), dtype=np.uint32)
    names[0, :n] = _packed(f"x{i}" for i in range(1, n + 1))
    names[1, :n] = _packed(f"*x{i}" for i in range(1, n + 1))
    names.flags.writeable = False  # shared by every caller
    return names[0], names[1]


def _write_lines(n: int, leads: np.ndarray, trails: np.ndarray, is_field: np.ndarray) -> bytes:
    """The element lines of uint64 lead and trail masks, in array order.

    Each slice of at most ``_SLICE_LINES`` lines becomes a grid of packed
    pieces, per line a lead and a trail block of w + 3 cells, w the most
    set bits of any mask in the slice.  A block holds ``1`` for a zero
    mask, then the variable of each set bit in ascending order, ``x<i>``
    for the first and ``*x<i>`` after it, and the lead block ends in ``^2``
    for a field relation and `` - ``, the trail block in the newline.  The
    grid's bytes, padding dropped, are the lines.
    """
    plain, starred = _pieces(n)
    out = []
    for a in range(0, leads.size, _SLICE_LINES):
        masks = np.stack([leads[a:a + _SLICE_LINES], trails[a:a + _SLICE_LINES]], axis=1)
        blocks = masks.ravel()
        width = int(np.bitwise_count(blocks).max(initial=0))
        grid = np.zeros((blocks.size, width + 3), dtype=np.uint32)
        grid[:, 0] = np.where(blocks == 0, _ONE, 0)
        rest = blocks.copy()
        for c in range(1, width + 1):
            low = _lowest_bit(rest)
            grid[:, c] = (starred if c > 1 else plain)[_bit_index(low)]
            rest ^= low
        lines = grid.reshape(masks.shape[0], 2, width + 3)
        lines[:, 0, -2] = np.where(is_field[a:a + _SLICE_LINES], _SQUARE, 0)
        lines[:, 0, -1] = _DASH
        lines[:, 1, -2] = _NEWLINE
        raw = grid.view(np.uint8).ravel()
        out.append(raw[raw != 0].tobytes())
    return b"".join(out)


def format_basis(gb: ReducedGroebnerBasis) -> str:
    body = _write_lines(gb.n, *gb._element_masks())
    return f"# n={gb.n} order={ORDER_ID} field=GF(2)\n" + body.decode("ascii")


def _parse_factorwise(text: str, n: int | None) -> tuple[int | None, _Masks]:
    """Parse lines one factor at a time into (n, masks).

    Takes any layout the format allows and raises on the first faulty line
    with a message naming the fault; a header with n > 64 is such a fault.
    Returns n from the last header line, or the ``n`` passed in when the
    text holds none, and the (leads, trails, is_field) of the elements.
    """
    rows: list[tuple[int, int, bool]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER.match(line)
            if m:
                try:
                    n = small_int(m.group(1))
                except ValueError:
                    raise ValueError(
                        f"word length {quoted(m.group(1))} is not an ASCII number up to "
                        f"{WORD_LIMIT}"
                    ) from None
                if m.group(2) != ORDER_ID:
                    raise ValueError(
                        f"unsupported order {quoted(m.group(2))}: only {ORDER_ID} is implemented"
                    )
                if n > WORD_LIMIT:
                    raise ValueError(f"word length {n} exceeds limit {WORD_LIMIT}")
            continue
        parts = line.split("-")
        if len(parts) != 2:
            raise ValueError(f"expected 'term - term', got {quoted(line)}")
        (lead, lead_sq) = _parse_term(parts[0])
        (trail, trail_sq) = _parse_term(parts[1])
        if trail_sq is not None:
            raise ValueError(f"squared trail not supported: {quoted(line)}")
        if lead_sq is not None:
            if trail != 0:
                raise ValueError(f"field relation must have trail 1: {quoted(line)}")
            rows.append((1 << (lead_sq - 1), 0, True))
        else:
            rows.append((lead, trail, False))
    table = np.array(rows, dtype=np.uint64).reshape(-1, 3)
    return n, (table[:, 0], table[:, 1], table[:, 2] == 1)


def _parse_written(raw: bytes, n: int) -> _Masks | None:
    """The masks of a slice of lines, when the writer emits exactly ``raw``.

    Reads every ``x<i>`` (at most two digits) and ORs its bit into the lead
    or trail of its line, by whether it stands before or after the line's
    one ``-``; a ``^`` makes the line a field relation.  Whatever that
    reading yields, the slice is accepted only if :func:`_write_lines`
    re-emits its bytes exactly, and only with the masks the per-factor
    parser accepts: a field relation has one lead bit and trail 1.  Such a
    slice is writer output, which the per-factor parser reads to the same
    elements, so nothing else needs checking.  Returns (leads, trails,
    is_field), or None.
    """
    a = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    dashes = np.flatnonzero(a == ord("-"))
    if not ends.size or ends[-1] != a.size - 1 or dashes.size != ends.size:
        return None
    if (dashes > ends).any() or (dashes[1:] < ends[:-1]).any():  # one dash per line
        return None
    xs = np.flatnonzero(a == ord("x"))  # never the last byte, which is a newline
    x_line = np.repeat(np.arange(ends.size), np.diff(np.searchsorted(xs, ends), prepend=0))
    in_trail = xs > dashes[x_line]
    first = a[xs + 1] - np.uint8(ord("0"))
    second = a[np.minimum(xs + 2, a.size - 1)] - np.uint8(ord("0"))
    index = np.where(second < 10, first * np.uint16(10) + second, first)
    bits = np.uint64(1) << (np.clip(index, 1, n) - 1).astype(np.uint64)
    leads = np.zeros(ends.size, dtype=np.uint64)
    trails = np.zeros(ends.size, dtype=np.uint64)
    np.bitwise_or.at(leads, x_line[~in_trail], bits[~in_trail])
    np.bitwise_or.at(trails, x_line[in_trail], bits[in_trail])
    is_field = np.zeros(ends.size, dtype=bool)
    is_field[np.searchsorted(ends, np.flatnonzero(a == ord("^")))] = True
    if (is_field & ((trails != 0) | (np.bitwise_count(leads) != 1))).any():
        return None
    if _write_lines(n, leads, trails, is_field) != raw:
        return None
    return leads, trails, is_field


def _read(text: str) -> tuple[int | None, _Masks]:
    """n from the last header line, and the masks of all elements in file order.

    The first line (the header, in a written file) and then each slice of
    at most ``_SLICE_LINES`` lines is read by :func:`_parse_written` when a
    header with n > 0 came before it and the slice holds at least
    ``_BULK_MIN_BYTES``.  Otherwise, or when that declines, the per-factor
    parser reads it and raises on the first faulty line.  Slices run in
    file order, so the first fault in the file is the one named.
    """
    if len(text) < _BULK_MIN_BYTES or not text.isascii():  # writer output is ASCII
        return _parse_factorwise(text, None)
    raw = text.encode("ascii")
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n")) + 1
    cuts = [0, *ends[:1].tolist(), *ends[_SLICE_LINES::_SLICE_LINES].tolist(), len(raw)]
    n: int | None = None
    parts: list[_Masks] = []
    for a, b in zip(cuts, cuts[1:]):
        chunk = raw[a:b]
        masks = _parse_written(chunk, n) if n and len(chunk) >= _BULK_MIN_BYTES else None
        if masks is None:
            n, masks = _parse_factorwise(chunk.decode("ascii"), n)
        parts.append(masks)
    return n, tuple(map(np.concatenate, zip(*parts)))


def parse_element_lines(text: str) -> tuple[int | None, list[Binomial]]:
    """Parse basis-format lines without reducedness validation.

    Returns (n from the header if present, elements).  Used for spot-check
    fixture files that hold only a subset of a basis.
    """
    n, masks = _read(text)
    return n, list(_binomials(*masks))


def parse_basis(text: str) -> ReducedGroebnerBasis:
    """Parse and validate a complete reduced basis file: its field relations
    first, then its code binomials."""
    n, (leads, trails, is_field) = _read(text)
    if n is None:
        raise ValueError("missing '# n=... order=... field=GF(2)' header")
    _check_fields(n, leads, trails, is_field)
    return _validated_masks(n, leads[~is_field], trails[~is_field])


def format_points(points: list[tuple[int, ...]], tuples: list[tuple[int, ...]]) -> str:
    """Point listing: a header naming the coordinate tuples, one point per line."""
    header = "# plucker coordinates, tuple order: " + " ".join(
        "(" + ",".join(str(i) for i in t) + ")" for t in tuples
    )
    lines = [header]
    lines += [",".join(str(c) for c in pt) for pt in points]
    return "\n".join(lines) + "\n"
