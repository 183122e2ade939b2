"""Bounded-distance decoding through Groebner canonical forms.

A received word w maps to the squarefree monomial with support w; the
canonical form of that monomial under the reduced basis is the coset's
standard monomial, i.e. exactly the degrevlex coset leader.  When its weight
is at most the capability t, it is the error pattern and w decodes to
w XOR error; otherwise the word is reported as carrying more than t errors.
The seeded channel simulator below classifies such decodes trial by trial.

The check that audits this decoder against syndrome-table and
nearest-neighbour decoding, ``cross_check``, is in :mod:`schubert_gb.reference`
with the nearest-neighbour decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import ReducedGroebnerBasis, capability, normal_form
from .linalg import LinearCode
from .validation import check_word_mask
from .words import weight

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


def gb_decode(
    word: int, gb: ReducedGroebnerBasis, mode: str = "bounded"
) -> DecodeOutcome:
    """Decode via the canonical form of the received word's monomial.

    ``bounded`` mirrors the guarantee radius: words whose canonical form has
    weight above t = capability(gb) are flagged, not decoded.  ``complete``
    decodes to the coset leader regardless of weight (this completion is a
    convenience, not part of the published procedure).
    """
    if mode not in ("bounded", "complete"):
        raise ValueError(f"unknown decode mode {mode!r}")
    w = check_word_mask(word, gb.n)
    canonical = normal_form(w, gb)
    nf_weight = weight(canonical)
    if mode == "bounded" and nf_weight > capability(gb):
        return DecodeOutcome(status=TOO_MANY_ERRORS, canonical=canonical, nf_weight=nf_weight)
    return DecodeOutcome(
        status=DECODED,
        canonical=canonical,
        nf_weight=nf_weight,
        error=canonical,
        codeword=w ^ canonical,
    )


# ---------------------------------------------------------------------------
# seeded channel simulation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class _TrialStream:
    """splitmix64 stream derived solely from (seed, trial index).

    Trials therefore draw identical randomness whether they run sequentially
    or are farmed out in parallel and merged.
    """

    def __init__(self, seed: int, trial: int):
        self._state = _mix64((seed & _MASK64) ^ _mix64(trial * _GAMMA & _MASK64))

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        return self.next64() % bound


@dataclass(frozen=True)
class FixedWeight:
    """Error model: exactly ``weight`` flipped positions, uniformly placed."""

    weight: int

    def label(self) -> str:
        return f"fixed_weight({self.weight})"

    def draw(self, rng: _TrialStream, n: int) -> int:
        if not 0 <= self.weight <= n:
            raise ValueError(f"fixed error weight must be in [0, {n}]")
        positions = list(range(n))
        mask = 0
        for i in range(self.weight):
            j = i + rng.below(n - i)
            positions[i], positions[j] = positions[j], positions[i]
            mask |= 1 << positions[i]
        return mask


@dataclass(frozen=True)
class BSC:
    """Binary symmetric channel with the given crossover probability."""

    crossover: float

    def label(self) -> str:
        return f"bsc({self.crossover:g})"

    def draw(self, rng: _TrialStream, n: int) -> int:
        if not 0.0 <= self.crossover <= 1.0:
            raise ValueError("crossover probability must be in [0, 1]")
        threshold = int(self.crossover * (1 << 64))
        mask = 0
        for i in range(n):
            if rng.next64() < threshold:
                mask |= 1 << i
        return mask


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
    bugs).
    """
    model.draw(_TrialStream(seed, 0), code.n)  # validate model parameters early
    codewords = code.codeword_masks()
    successes = flagged = miscorrections = 0
    for trial in range(trials):
        rng = _TrialStream(seed, trial)
        sent = int(codewords[rng.below(len(codewords))])
        received = sent ^ model.draw(rng, code.n)
        outcome = gb_decode(received, gb)
        if outcome.status == TOO_MANY_ERRORS:
            flagged += 1
        elif outcome.codeword == sent:
            successes += 1
        else:
            miscorrections += 1
    return SimReport(
        trials=trials,
        successes=successes,
        failures_flagged=flagged,
        miscorrections=miscorrections,
        seed=seed,
        model=model.label(),
    )
