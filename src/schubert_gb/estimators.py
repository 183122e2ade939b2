"""Scikit-learn style decoder estimators.

The fit step does the expensive precomputation (parity checks, coset-leader
table, reduced Groebner basis) from a generator matrix; predict then decodes
batches of received words.  The classes follow the sklearn estimator
protocol (``get_params``/``set_params``, ``fit`` returning self, learned
attributes carrying a trailing underscore) without importing sklearn, so
they compose with its model-selection utilities via duck typing.
"""

from __future__ import annotations

import inspect

import numpy as np

from .decoding import DecodeOutcome, _canonical_many, _check_mode, gb_decode
from .groebner import ReducedGroebnerBasis, capability, coset_engine
from .linalg import CosetLeaderTable, LinearCode, build_coset_leader_table, syndrome, syndromes
from .validation import check_is_fitted, check_words_array
from .words import masks_of_rows, monomial_from_string, rows_of_masks, word_from_string


class _EstimatorMixin:
    """get_params/set_params over the __init__ signature, as sklearn does,
    and ``score`` over ``predict``."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def score(self, X, y) -> float:
        """Fraction of rows of X decoded exactly to the rows of y, which must
        have as many rows as X."""
        check_is_fitted(self, "code_")
        sent = check_words_array(y, self.code_.n)
        got = self.predict(X)
        if len(got) != len(sent):
            raise ValueError(f"X has {len(got)} rows but y has {len(sent)}")
        return float((got == sent).all(axis=1).mean())


def _as_mask(word, n: int) -> int:
    """The mask of one received word: a mask int, a binary/monomial string, or
    n bits, which :func:`check_words_array` checks as exactly one row."""
    if isinstance(word, (int, np.integer)):
        return int(word)
    if isinstance(word, str):
        stripped = word.strip()
        if stripped and set(stripped) <= {"0", "1"}:
            if len(stripped) == n:
                return word_from_string(stripped)[0]
            if stripped != "1":  # "1" is the monomial 1
                raise ValueError(f"binary word of length {len(stripped)}, expected {n}")
        return monomial_from_string(stripped)
    W = check_words_array(word, n)
    if len(W) != 1:
        raise ValueError(f"expected one word of length {n}, got shape {W.shape}")
    return int(masks_of_rows(W)[0])


class GroebnerDecoder(_EstimatorMixin):
    """Bounded-distance decoder backed by a reduced Groebner basis.

    ``fit`` computes the basis with the coset engine, which counts the code's
    2^(n-k) cosets against the enumeration guard that ``SGB_MAX_N`` sets.

    Parameters
    ----------
    mode : 'bounded' | 'complete'
        'bounded' refuses words beyond the guarantee radius; 'complete'
        always decodes to the coset leader.  ``fit`` refuses any other.

    Attributes (after fit)
    ----------------------
    code_ : LinearCode            basis_ : ReducedGroebnerBasis
    t_ : capability               n_features_in_ : code length
    """

    def __init__(self, mode: str = "bounded"):
        self.mode = mode
        self.code_: LinearCode | None = None
        self.basis_: ReducedGroebnerBasis | None = None
        self.t_: int | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y=None) -> "GroebnerDecoder":
        """Build the reduced basis from a k x n binary generator matrix X."""
        _check_mode(self.mode)
        code = X if isinstance(X, LinearCode) else LinearCode.from_generator(X, p=2)
        basis = coset_engine(code)
        self.code_ = code
        self.basis_ = basis
        self.t_ = capability(basis)
        self.n_features_in_ = code.n
        return self

    def decode(self, word) -> DecodeOutcome:
        """Full decode outcome for one received word (mask, string, or n 0/1 bits)."""
        check_is_fitted(self, "basis_")
        return gb_decode(_as_mask(word, self.code_.n), self.basis_, mode=self.mode)

    def predict(self, X) -> np.ndarray:
        """Decode rows of X; uncorrectable rows pass through unchanged.

        In 'complete' mode every row is corrected to a codeword, so nothing
        passes through.
        """
        check_is_fitted(self, "basis_")
        words = masks_of_rows(check_words_array(X, self.code_.n))
        canonical, decoded = _canonical_many(words, self.basis_, self.mode)
        return rows_of_masks(np.where(decoded, words ^ canonical, words), self.code_.n)


class SyndromeTableDecoder(_EstimatorMixin):
    """Classical syndrome decoder over the degrevlex coset-leader table.

    Complete decoding: every word is corrected by its coset leader.  Within
    the guarantee radius it agrees with :class:`GroebnerDecoder`.  ``fit``
    counts the code's 2^(n-k) cosets against the guard that ``SGB_MAX_N`` sets.
    """

    def __init__(self):
        self.code_: LinearCode | None = None
        self.table_: CosetLeaderTable | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y=None) -> "SyndromeTableDecoder":
        code = X if isinstance(X, LinearCode) else LinearCode.from_generator(X, p=2)
        self.code_ = code
        self.table_ = build_coset_leader_table(code)
        self.n_features_in_ = code.n
        return self

    def decode(self, word) -> tuple[int, int]:
        """(codeword, error) for one received word (mask, string, or n 0/1 bits)."""
        check_is_fitted(self, "table_")
        w = _as_mask(word, self.code_.n)
        error = self.table_.leader(syndrome(w, self.code_))
        return w ^ error, error

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "table_")
        words = masks_of_rows(check_words_array(X, self.code_.n))
        return rows_of_masks(words ^ self.table_.leaders[syndromes(words, self.code_)], self.code_.n)
