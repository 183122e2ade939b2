"""Shared text formats: matrices, Groebner bases, and point listings.

Matrix format: a header line ``k n p`` followed by k rows of n
whitespace-separated residues in [0, p).

Basis format: a header ``# n=<n> order=degrevlex field=GF(2)`` and one
element per line, ``term - term``; a term is ``1`` or ``*``-joined factors
``x<i>`` / ``x<i>^2`` with ascending indices.  The writer emits lines sorted
ascending by lead; the parser accepts any order and extra whitespace, so
transcribed listings can be compared set-wise.
"""

from __future__ import annotations

import re

import numpy as np

from .groebner import (
    Binomial,
    ORDER_ID,
    ReducedGroebnerBasis,
    _validated_basis,
)
from .validation import check_matrix
from .words import WORD_LIMIT, support

_HEADER = re.compile(
    r"#\s*n\s*=\s*(\d+)\s+order\s*=\s*(\S+)\s+field\s*=\s*GF\(2\)\s*$"
)
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")
# bit of each variable index as the writer spells it, for the plain-term path
_VAR_BITS = {str(i): 1 << (i - 1) for i in range(1, WORD_LIMIT + 1)}
# indices past the header's n still parse and are refused against n; only an
# index this large is refused while parsing, before its bit takes index/8 bytes
_MAX_INDEX = 1 << 16


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
        k, n, p = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}: expected 'k n p'") from exc
    if len(lines) != k + 1:
        raise ValueError(f"expected {k} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    try:
        M = np.array(rows, dtype=np.int64).reshape(k, n)
    except OverflowError as exc:
        raise ValueError("matrix entries must fit in int64") from exc
    return check_matrix(M, p), p


def _format_term(binomial: Binomial, which: str) -> str:
    if which == "lead" and binomial.kind == "field":
        return f"x{binomial.lead.bit_length()}^2"
    mask = binomial.lead if which == "lead" else binomial.trail
    if mask == 0:
        return "1"
    return "*".join(f"x{i}" for i in support(mask))


def format_basis(gb: ReducedGroebnerBasis) -> str:
    lines = [f"# n={gb.n} order={ORDER_ID} field=GF(2)"]
    lines += [
        f"{_format_term(b, 'lead')} - {_format_term(b, 'trail')}" for b in gb.elements
    ]
    return "\n".join(lines) + "\n"


def _parse_term(text: str) -> tuple[int, int | None]:
    """Parse one term to (mask, squared_var | None)."""
    text = text.strip()
    if text == "1":
        return 0, None
    if text[:1] == "x":
        # the writer's form x<i>*x<j>*...: the term is valid when every
        # index is a known variable name and no bit repeats (a repeat carries)
        names = text[1:].split("*x")
        try:
            mask = sum(map(_VAR_BITS.__getitem__, names))
        except KeyError:
            pass
        else:
            if mask.bit_count() == len(names):
                return mask, None
    # anything else is parsed factor by factor, which names the first fault
    mask = 0
    squared = None
    seen: set[int] = set()
    for factor in text.split("*"):
        m = _FACTOR.match(factor.strip())
        if not m:
            raise ValueError(f"bad term factor {factor!r}")
        idx = int(m.group(1))
        if idx > _MAX_INDEX:
            raise ValueError(f"variable index {idx} too large in {text!r}")
        exp = int(m.group(2) or 1)
        if idx in seen:
            raise ValueError(f"repeated variable x{idx} in term {text!r}")
        seen.add(idx)
        if exp == 1:
            mask |= 1 << (idx - 1)
        elif exp == 2:
            if squared is not None:
                raise ValueError(f"more than one squared variable in {text!r}")
            squared = idx
        else:
            raise ValueError(f"unsupported exponent {exp} in {text!r}")
    if squared is not None and mask:
        raise ValueError(f"mixed squared and plain factors in {text!r}")
    return mask, squared


def parse_element_lines(text: str) -> tuple[int | None, list[Binomial]]:
    """Parse basis-format lines without reducedness validation.

    Returns (n from the header if present, elements).  Used for spot-check
    fixture files that hold only a subset of a basis.
    """
    n = None
    elements = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER.match(line)
            if m:
                n = int(m.group(1))
                if m.group(2) != ORDER_ID:
                    raise ValueError(
                        f"unsupported order {m.group(2)!r}: only {ORDER_ID} is implemented"
                    )
            continue
        parts = line.split("-")
        if len(parts) != 2:
            raise ValueError(f"expected 'term - term', got {line!r}")
        (lead, lead_sq) = _parse_term(parts[0])
        (trail, trail_sq) = _parse_term(parts[1])
        if trail_sq is not None:
            raise ValueError(f"squared trail not supported: {line!r}")
        if lead_sq is not None:
            if trail != 0:
                raise ValueError(f"field relation must have trail 1: {line!r}")
            elements.append(Binomial(1 << (lead_sq - 1), 0, "field"))
        else:
            elements.append(Binomial(lead, trail, "code"))
    return n, elements


def parse_basis(text: str) -> ReducedGroebnerBasis:
    """Parse and validate a complete reduced basis file."""
    n, elements = parse_element_lines(text)
    if n is None:
        raise ValueError("missing '# n=... order=... field=GF(2)' header")
    return _validated_basis(n, elements)


def format_points(points: list[tuple[int, ...]], tuples: list[tuple[int, ...]]) -> str:
    """Point listing: a header naming the coordinate tuples, one point per line."""
    header = "# plucker coordinates, tuple order: " + " ".join(
        "(" + ",".join(str(i) for i in t) + ")" for t in tuples
    )
    lines = [header]
    lines += [",".join(str(c) for c in pt) for pt in points]
    return "\n".join(lines) + "\n"
