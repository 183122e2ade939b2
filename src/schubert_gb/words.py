"""Bit-mask words over GF(2) and squarefree monomials.

A length-n binary word is stored as a Python int: bit i-1 holds position i,
so the word string "1101000" (leftmost character = position 1) is the mask
0b0001011.  The support bijection between words and squarefree monomials is
the identity on masks: bit i-1 set means the factor x_i is present.

Words are limited to n <= 64 positions.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

WORD_LIMIT = 64

# an index or an exponent of more digits than these is no factor, so each
# number read stays small and each number a message names stays short; the
# digits are ASCII, where \d would take any Unicode digit
_FACTOR = re.compile(r"x(0{0,18}[1-9][0-9]{0,18})(?:\^([0-9]{1,19}))?$")
# bit of each variable index as the writer spells it, for the plain-term path
_VAR_BITS = {str(i): 1 << (i - 1) for i in range(1, WORD_LIMIT + 1)}
# characters of an input that an error message quotes
_QUOTED_CHARS = 40
# digits of the longest number read from a header or an argument: every int64
NUMBER_DIGITS = 19
# a sign and a digit; repeating the digit gives int()'s integers less Unicode digits and _
SIGNED_DIGIT = r"[+-]?[0-9]"
_NUMBER = re.compile(rf"\s*{SIGNED_DIGIT}{{1,{NUMBER_DIGITS}}}\s*", re.ASCII)
# an unsigned decimal of ASCII digits (0, 0.05, .5, 1.), padded as _NUMBER: a digit or a
# point and a digit first; float() would also read a sign, _, an exponent, nan, inf and \d
DECIMAL = re.compile(
    rf"\s*(?=\.?[0-9])[0-9]{{0,{NUMBER_DIGITS}}}(?:\.[0-9]{{0,{NUMBER_DIGITS}}})?\s*", re.ASCII)


def quoted(text: str) -> str:
    """The repr of an input for an error message, cut to a fixed prefix.

    A text of at most ``_QUOTED_CHARS`` characters is quoted whole; a longer
    one by its prefix of that many characters and then its length, so the
    message does not grow with the input.
    """
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def small_int(text: str) -> int:
    """``int(text)`` for a number of at most ``NUMBER_DIGITS`` ASCII digits,
    with an optional sign and surrounding ASCII blanks.

    A longer digit string, a non-ASCII digit and a ``_`` separator, all of
    which ``int`` reads, are refused first.  The ValueError names nothing;
    callers name the input through :func:`quoted`.
    """
    if not _NUMBER.fullmatch(text):
        raise ValueError("not a short ASCII number")
    return int(text)


def weight(mask: int) -> int:
    """Hamming weight of a word / total degree of a squarefree monomial."""
    return mask.bit_count()


def support(mask: int) -> tuple[int, ...]:
    """Ascending 1-based positions set in the mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_from_bits(bits: Sequence[int]) -> int:
    """Mask from a 0/1 sequence, bits[0] = position 1."""
    m = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {i} is {b}, expected 0 or 1")
        m |= int(b) << i
    return m


def word_from_string(s: str) -> tuple[int, int]:
    """Parse a binary word string (leftmost char = position 1) to (mask, n)."""
    s = s.strip()
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"not a binary word: {quoted(s)}")
    if len(s) > WORD_LIMIT:
        raise ValueError(f"word length {len(s)} exceeds limit {WORD_LIMIT}")
    return mask_from_bits([int(c) for c in s]), len(s)


def word_to_string(mask: int, n: int) -> str:
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


def _parse_term(text: str) -> tuple[int, int | None]:
    """Parse one term to (mask, squared_var | None)."""
    text = text.strip()
    if text == "1":
        return 0, None
    # the verify_paper benchmark's fixture set-up reads its terms here, and takes about
    # 25% longer without this shortcut (2.7 against 2.1 ms median on a 2-CPU VM)
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
            raise ValueError(f"bad term factor {quoted(factor)}")
        idx = int(m.group(1))
        if idx > WORD_LIMIT:
            raise ValueError(f"variable index {idx} too large in {quoted(text)}")
        exp = int(m.group(2) or 1)
        if idx in seen:
            raise ValueError(f"repeated variable x{idx} in term {quoted(text)}")
        seen.add(idx)
        if exp == 1:
            mask |= 1 << (idx - 1)
        elif exp == 2:
            if squared is not None:
                raise ValueError(f"more than one squared variable in {quoted(text)}")
            squared = idx
        else:
            raise ValueError(f"unsupported exponent {exp} in {quoted(text)}")
    if squared is not None and mask:
        raise ValueError(f"mixed squared and plain factors in {quoted(text)}")
    return mask, squared


def monomial_from_string(s: str) -> int:
    """Parse a squarefree monomial like 'x1*x2*x13' (or '1') to its mask,
    by the basis-file term grammar less squares: indices 1..64 only."""
    mask, squared = _parse_term(s)
    if squared is not None:
        raise ValueError(f"squared factor x{squared}^2 in monomial {quoted(s.strip())}")
    return mask


def monomial_to_string(mask: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"x{i}" for i in support(mask))


def degrevlex_key(mask: int) -> tuple[int, int]:
    """Sort key realizing ascending degrevlex on squarefree monomials.

    Lower total degree sorts first; among equal degrees the monomial whose
    highest-indexed differing variable is present sorts first, which on masks
    is simply descending integer order.
    """
    return (mask.bit_count(), -mask)
