"""Bounded-distance decoding through Groebner canonical forms.

A received word w maps to the squarefree monomial with support w; the
canonical form of that monomial under the reduced basis is the coset's
standard monomial, i.e. exactly the degrevlex coset leader.  When its weight
is at most the capability t, it is the error pattern and w decodes to
w XOR error; otherwise the word is reported as carrying more than t errors.

Single words and batches share one decode rule on two entry points of the
one rewrite kernel: :func:`gb_decode` runs the scalar ``_reduce`` and wraps
its result in a :class:`DecodeOutcome`, and :func:`_canonical_many` runs
``_reduce_many`` on a uint64 array for the batch callers (:func:`simulate`,
``GroebnerDecoder.predict``).  Single words stay on the scalar kernel, since
a one-word batch pays some hundred microseconds of fixed numpy calls where
``_reduce`` takes a few.

The seeded channel simulator draws and decodes its trials in blocks of at
most ``_BLOCK`` as uint64 arrays: trial i is a splitmix64 stream of its own,
fixed by (seed, i) alone, so a report is bit-identical per seed however the
trials are blocked.  The scalar form of that stream is kept in
:mod:`schubert_gb.reference` as the oracle the array stream is tested
against.

The check that audits this decoder against syndrome-table and
nearest-neighbour decoding, ``cross_check``, is in :mod:`schubert_gb.reference`
with the nearest-neighbour decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groebner import ReducedGroebnerBasis, _reduce, _reduce_many, capability
from .linalg import LinearCode
from .validation import check_word_mask

DECODED = "decoded"
TOO_MANY_ERRORS = "too_many_errors"


@dataclass(frozen=True, slots=True)
class DecodeOutcome:
    """Result of bounded-distance decoding.

    ``canonical`` is the standard monomial of the received word's coset; when
    ``status`` is ``decoded`` it equals the error, and codeword = word XOR
    error is a codeword.  ``nf_weight`` is always the canonical form's weight.
    """

    status: str
    canonical: int
    nf_weight: int
    error: int | None = None
    codeword: int | None = None


def _check_mode(mode: str) -> None:
    if mode not in ("bounded", "complete"):
        raise ValueError(f"unknown decode mode {mode!r}")


def _canonical_many(
    words: np.ndarray, gb: ReducedGroebnerBasis, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical forms of a uint64 array of in-range masks and a boolean
    array of :func:`gb_decode`'s verdicts: whether each word decodes."""
    _check_mode(mode)
    canonical = _reduce_many(words, gb._divisor_index)
    if mode == "complete":
        return canonical, np.ones(canonical.size, dtype=bool)
    return canonical, np.bitwise_count(canonical) <= capability(gb)


def gb_decode(
    word: int, gb: ReducedGroebnerBasis, mode: str = "bounded"
) -> DecodeOutcome:
    """Decode via the canonical form of the received word's monomial.

    ``bounded`` mirrors the guarantee radius: words whose canonical form has
    weight above t = capability(gb) are flagged, not decoded.  ``complete``
    decodes to the coset leader regardless of weight (this completion is a
    convenience, not part of the published procedure).
    """
    w = check_word_mask(word, gb.n)
    _check_mode(mode)
    canonical = _reduce(w, gb._divisor_index)
    if mode == "complete" or canonical.bit_count() <= capability(gb):
        return DecodeOutcome(DECODED, canonical, canonical.bit_count(), canonical, w ^ canonical)
    return DecodeOutcome(TOO_MANY_ERRORS, canonical, canonical.bit_count())


# ---------------------------------------------------------------------------
# seeded channel simulation
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# trials drawn and decoded per block: bounds the simulator's memory at O(_BLOCK * n)
_BLOCK = 1 << 14


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function on a uint64 array; products wrap mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _draws(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """Draws 0..count-1 of trials start..stop-1, one row per trial.

    Trial i starts from state0 = mix64(seed ^ mix64(i * gamma)), and its draw
    j is mix64(state0 + (j + 1) * gamma), all mod 2^64: a splitmix64 stream
    fixed by (seed, i) alone, so a trial draws the same in any block.
    """
    trials = np.arange(start, stop, dtype=np.uint64)
    state0 = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _mix64(trials * _GAMMA))
    return _mix64(state0[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA)


@dataclass(frozen=True)
class FixedWeight:
    """Error model: exactly ``weight`` flipped positions, uniformly placed."""

    weight: int

    def label(self) -> str:
        return f"fixed_weight({self.weight})"

    def _check(self, n: int) -> None:
        if not 0 <= self.weight <= n:
            raise ValueError(f"fixed error weight must be in [0, {n}]")

    def _errors(self, draws: np.ndarray, n: int) -> np.ndarray:
        """Error masks from (trials, n) draws: a partial Fisher-Yates shuffle
        of the positions, swapping position i with i + draw_i mod (n - i)."""
        rows = np.arange(len(draws))
        positions = np.tile(np.arange(n, dtype=np.uint64), (len(draws), 1))
        for i in range(self.weight):
            j = i + (draws[:, i] % np.uint64(n - i)).astype(np.intp)
            positions[rows, i], positions[rows, j] = positions[rows, j], positions[rows, i]
        return np.bitwise_or.reduce(np.uint64(1) << positions[:, : self.weight], axis=1)


@dataclass(frozen=True)
class BSC:
    """Binary symmetric channel with the given crossover probability."""

    crossover: float

    def label(self) -> str:
        return f"bsc({self.crossover:g})"

    def _check(self, n: int) -> None:
        if not 0.0 <= self.crossover <= 1.0:
            raise ValueError("crossover probability must be in [0, 1]")

    def _errors(self, draws: np.ndarray, n: int) -> np.ndarray:
        """Error masks from (trials, n) draws: position i flips when draw i
        is below crossover * 2^64."""
        threshold = int(self.crossover * (1 << 64))
        if threshold >> 64:  # crossover 1.0: every 64-bit draw is below 2^64
            return np.full(len(draws), (1 << n) - 1, dtype=np.uint64)
        flips = (draws < np.uint64(threshold)).astype(np.uint64)
        return np.bitwise_or.reduce(flips << np.arange(n, dtype=np.uint64), axis=1)


@dataclass(frozen=True)
class SimReport:
    """Classification counts of a simulation run; bit-reproducible per seed."""

    trials: int
    successes: int
    failures_flagged: int
    miscorrections: int
    seed: int
    model: str

    def record(self) -> str:
        return (
            f"trials={self.trials} successes={self.successes} "
            f"failures_flagged={self.failures_flagged} "
            f"miscorrections={self.miscorrections} seed={self.seed} "
            f"model={self.model}"
        )


def simulate(
    code: LinearCode,
    gb: ReducedGroebnerBasis,
    model: FixedWeight | BSC,
    trials: int,
    seed: int,
) -> SimReport:
    """Draw (codeword, error) pairs, decode, and classify each trial.

    success: the transmitted codeword is recovered; failures_flagged: the
    decoder reported too many errors; miscorrection: it decoded to a wrong
    codeword (impossible within radius t, counted to catch implementation
    bugs).  Draw 0 of a trial picks the codeword, the draws after it the error.
    """
    n = code.n
    model._check(n)
    if trials < 0:
        raise ValueError("trials must be >= 0")
    codewords = code.codeword_masks()
    successes = flagged = 0
    for start in range(0, trials, _BLOCK):
        draws = _draws(seed, start, min(start + _BLOCK, trials), n + 1)
        sent = codewords[(draws[:, 0] % np.uint64(len(codewords))).astype(np.intp)]
        errors = model._errors(draws[:, 1:], n)
        canonical, decoded = _canonical_many(sent ^ errors, gb, "bounded")
        flagged += int(np.count_nonzero(~decoded))
        # decoded to received ^ error, the codeword sent
        successes += int(np.count_nonzero(decoded & (canonical == errors)))
    return SimReport(
        trials=trials,
        successes=successes,
        failures_flagged=flagged,
        miscorrections=trials - successes - flagged,
        seed=seed,
        model=model.label(),
    )
