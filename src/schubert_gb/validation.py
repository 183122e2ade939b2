"""Input validation helpers shared across the package and its estimators."""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from .words import WORD_LIMIT, quoted, small_int

DEFAULT_MAX_ENUM_EXPONENT = 24
ENUM_ENV_VAR = "SGB_MAX_N"
# residues whose products pass this are multiplied as Python integers
INT64_MAX = np.iinfo(np.int64).max
# Miller-Rabin bases that decide primality exactly below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class EnumerationLimitError(ValueError):
    """An exhaustive scan would exceed the configured enumeration guard."""


class NotFittedError(ValueError, AttributeError):
    """Estimator used before fit; mirrors scikit-learn's exception of the same name."""


def enum_limit() -> int:
    """The most cosets, codewords, points or monomials an exhaustive scan may
    count: 2**24, or 2**e for the exponent e that SGB_MAX_N holds as an ASCII
    integer from 0 to 64, since a word has at most 64 positions."""
    text = os.environ.get(ENUM_ENV_VAR)
    if text is None:
        return 2 ** DEFAULT_MAX_ENUM_EXPONENT
    try:
        if 0 <= (exponent := small_int(text)) <= WORD_LIMIT:
            return 2 ** exponent
    except ValueError:
        pass
    raise ValueError(f"{ENUM_ENV_VAR} must be an integer from 0 to {WORD_LIMIT}, got {quoted(text)}")


def guard_enumeration(count: int, what: str, unit: str) -> None:
    """Raise unless ``count``, in ``unit`` such as ``cosets``, is within the bound."""
    if count > enum_limit():
        raise _bound_exceeded(what, count, unit)


def _bound_exceeded(what: str, count: int | str, unit: str) -> EnumerationLimitError:
    """The guard's refusal, naming SGB_MAX_N, the setting that raises the bound."""
    bound = enum_limit()
    return EnumerationLimitError(
        f"enumeration bound exceeded: {what} needs {count} > {bound} {unit} "
        f"(set {ENUM_ENV_VAR} above {bound.bit_length() - 1}, the bound's base-2 exponent)")


def check_prime(p: int) -> int:
    """Return p when it is a prime that fits an int64 residue, else raise.

    Matrices hold residues as int64, so p > INT64_MAX is refused.  Below
    that, Miller-Rabin with the twelve prime bases 2..37 is exact (it has
    no strong pseudoprime below 3.3e24), so the test is deterministic.
    """
    p = int(p)
    if p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    if p > INT64_MAX:
        raise ValueError(f"modulus {p} exceeds the int64 residue limit {INT64_MAX}")
    for a in _MR_BASES:
        if p % a == 0:
            if p == a:
                return p
            raise ValueError(f"modulus must be prime, got {p} = {a}*{p // a}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"modulus must be prime, got composite {p}")
    return p


def check_matrix(matrix: Any, p: int) -> np.ndarray:
    """Validate a residue matrix: 2-D, entries in [0, p).  Only bool, integer
    and float arrays of int64 integers pass, checked before the cast."""
    check_prime(p)
    M = np.asarray(matrix)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    kind = M.dtype.kind  # the range test also refuses inf and nan
    if M.size and not (kind in "bi" or (kind == "u" and M.max() <= INT64_MAX) or (
            kind == "f" and np.all((M == np.floor(M)) & (M >= -2.0**63) & (M < 2.0**63)))):
        raise ValueError("matrix entries must be integers")
    M = M.astype(np.int64)
    if M.size and (M.min() < 0 or M.max() >= p):
        raise ValueError(f"matrix entries must lie in [0, {p})")
    return M


def check_word_mask(mask: int, n: int) -> int:
    """The mask as an int, when it is an int or numpy integer naming a word of
    length n <= 64; a refused mask past 64 bits is named by its bit length, so
    the message stays short.  Floats, strings and other types are refused,
    not cast."""
    if type(mask) is not int:  # bools and numpy integers are read as ints
        if not isinstance(mask, (int, np.integer)):
            raise ValueError(f"word mask must be an integer, got {type(mask).__name__}")
        mask = int(mask)
    if n > WORD_LIMIT:
        raise ValueError(f"word length {n} exceeds limit {WORD_LIMIT}")
    if not 0 <= mask < (1 << n):
        shown = f"{mask:#x}" if mask.bit_length() <= WORD_LIMIT else f"of {mask.bit_length()} bits"
        raise ValueError(f"word mask {shown} out of range for length {n}")
    return mask


def check_words_array(X: Any, n: int) -> np.ndarray:
    """Validate a batch of binary words (a 1-D sequence is one row) as int64 rows of n: only
    bool, integer and float arrays of 0s and 1s pass, checked before the cast."""
    W = np.asarray(X)
    if W.ndim == 1:
        W = W.reshape(1, -1)
    if W.ndim != 2 or W.shape[1] != n:
        raise ValueError(f"expected words of length {n}, got shape {W.shape}")
    if W.dtype.kind not in "biuf" or (W.size and not np.isin(W, (0, 1)).all()):
        raise ValueError("words must be 0/1 arrays")
    return W.astype(np.int64)


def check_is_fitted(estimator: Any, attribute: str) -> None:
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first"
        )
