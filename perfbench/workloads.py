"""The three benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: one process on one thread
issues its next call into the program only after the previous call returned.
Each workload alternates set-up (the median of all set-ups is ``setup_s``)
and whole passes over its inputs until the requested number of seconds have
passed; at least two passes always run.  A pass is a fixed list of timed
units (a decode phase, one step of one rung, one verify section), and
``pass_s`` is the sum over the units of each unit's fastest time in the run.
Expected values are computed before a pass and compared after it, never
inside it, against an oracle that shares no code with the program.

* ``decode_stream`` - seeded received words on the four fixture codes through
  ``gb_decode`` (bounded and complete), ``GroebnerDecoder.predict`` and
  ``simulate``.  The decode layers do almost all of the work.
* ``build_ladder`` - the [31,5,16] Schubert code punctured into rungs
  n = 18..24: code, coset-leader table, ``coset_engine``, basis text round
  trip and sampled decodes.  Basis construction, memory and basis I/O
  dominate.
* ``verify_paper`` - ``verify.run_checks()`` over all sections, on the
  fixtures and seeds pinned in the program.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from schubert_gb import fixtures
from schubert_gb import verify as verify_mod
from schubert_gb.decoding import BSC, DECODED, TOO_MANY_ERRORS, FixedWeight, gb_decode, simulate
from schubert_gb.estimators import GroebnerDecoder
from schubert_gb.formats import format_basis, parse_basis
from schubert_gb.groebner import ReducedGroebnerBasis, capability, coset_engine, normal_form
from schubert_gb.linalg import LinearCode, build_coset_leader_table, min_distance_bruteforce
from schubert_gb.schubert import SchubertSpec, generator_matrix
from schubert_gb.validation import ENUM_ENV_VAR, enum_limit

from tracing import Tracer

CODES = tuple(f"c_{tag}" for tag in fixtures.TAGS)
LADDER_SPEC = SchubertSpec(l=2, m=6, q=2, alpha=(1, 6))  # the [31,5,16] simplex-line code
RUNGS = (18, 20, 22, 24)  # n = 24 is the largest length the default 2^24-word guard admits
# The punctured positions are pinned: the rung cost depends strongly on which
# positions go (18.8k to 29.8k code binomials at n = 24 over six seeds), which
# would swamp the run-to-run spread.  The workload seed draws the decoded words.
PUNCTURE_SEED = 0
SECTIONS = verify_mod.SECTIONS
BSC_CROSSOVER = 0.05


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  The defaults are the benchmark; tests shrink them."""

    stream_words: int = 4000  # bounded decodes per pass, across the four codes
    sim_trials: int = 100  # per code and error model
    rungs: tuple[int, ...] = RUNGS
    ladder_decodes: int = 200  # per rung
    sections: tuple[str, ...] = SECTIONS
    # set-ups before each pass: decode_stream's builds bases (about 0.3 s),
    # the others take milliseconds
    decode_setups: int = 1
    ladder_setups: int = 60
    verify_setups: int = 200


# ---------------------------------------------------------------------------
# metric registry: BENCHMARK.json lists exactly these
# ---------------------------------------------------------------------------

# name -> (unit, bound); every workload reports each of them with tracing off
END_TO_END = {
    "setup_s": ("s", 0.25),
    "peak_rss_mib": ("MiB", 0.15),
    "pass_s": ("s", 0.25),
}


def _per_layer() -> dict[str, str]:
    """name -> unit.  A traced run reports all of them; the ones of another
    workload's layers read 0, because this workload makes no such call."""
    out: dict[str, str] = {"traced_pass_s": "s"}
    for code in CODES:
        out[f"groebner.normal_form_us.{code}"] = "us"
        out[f"groebner.nf_steps_mean.{code}"] = "steps"
        out[f"decoding.gb_decode_us.bounded.{code}"] = "us"
        out[f"decoding.gb_decode_us.complete.{code}"] = "us"
        out[f"decoding.self_us.{code}"] = "us"
        out[f"decoding.flagged_share.{code}"] = "ratio"
        out[f"decoding.simulate_us_per_trial.fixed_weight.{code}"] = "us"
        out[f"decoding.simulate_us_per_trial.bsc.{code}"] = "us"
        out[f"estimators.fit_s.{code}"] = "s"
        out[f"estimators.predict_us_per_row.{code}"] = "us"
    out["schubert.generator_matrix_ms"] = "ms"
    for n in RUNGS:
        out[f"linalg.coset_table_s.n{n}"] = "s"
        out[f"groebner.coset_engine_s.n{n}"] = "s"
        out[f"groebner.code_binomials.n{n}"] = "count"
        out[f"linalg.cosets.n{n}"] = "count"
        out[f"formats.format_basis_s.n{n}"] = "s"
        out[f"formats.parse_basis_s.n{n}"] = "s"
        out[f"formats.basis_bytes.n{n}"] = "bytes"
    for section in SECTIONS:
        out[f"verify.{section}_s"] = "s"
    out["verify.bases_s"] = "s"
    return out


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ran(self, attempted: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(reason)

    def exception(self, attempted: int, what: str, exc: Exception) -> None:
        """``attempted`` operations lost to one exception, all counted failed."""
        self.ran(attempted, attempted, f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class RunResult:
    ledger: Ledger = field(default_factory=Ledger)
    values: dict[str, float] = field(default_factory=dict)  # end-to-end and per-layer
    lines: list[str] = field(default_factory=list)  # human-readable report
    # workload-specific end-to-end figures, printed on report lines
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.extra[name] = (value, unit)


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


Units = dict[str, list[float]]  # timed unit -> its time in seconds in each pass
MIN_PASSES = 2  # every unit's fastest time is taken over at least two samples


@dataclass
class Cycles:
    """What :func:`_run_cycles` measured."""

    state: object  # the last set-up's result
    setup_times: list[float]
    units: Units
    pass_times: list[float]
    peak_rss_mib: float  # after the first pass


def _run_cycles(seconds: float, setup: Callable[[], object], setup_repeats: int,
                one_pass: Callable[[int, object, Units], None]) -> Cycles:
    """Alternate set-up and pass until ``seconds`` have passed and at least
    ``MIN_PASSES`` passes have run.

    Each cycle sets up ``setup_repeats`` times, timing each, then runs one
    pass over the last set-up's result; the pass appends the time of each of
    its units to ``units``.  The box's speed changes from second to second, so
    set-ups spread over the whole run give a steadier median than set-ups in
    one block.  Peak memory is read after the first pass: later passes do the
    same work, but heap fragmentation can raise the peak with the number of
    passes, which depends on speed.
    """
    out = Cycles(state=None, setup_times=[], units={}, pass_times=[], peak_rss_mib=0.0)
    begin = perf_counter()
    while len(out.pass_times) < MIN_PASSES or perf_counter() - begin < seconds:
        for _ in range(setup_repeats):
            start = perf_counter()
            out.state = setup()
            out.setup_times.append(perf_counter() - start)
        start = perf_counter()
        one_pass(len(out.pass_times), out.state, out.units)
        out.pass_times.append(perf_counter() - start)
        if len(out.pass_times) == 1:
            out.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _end_to_end(res: RunResult, run: Cycles, traced: bool) -> None:
    """``pass_s`` is the sum over the units of each unit's fastest time.

    Other tenants of a small shared box only add time, in bursts that can
    cover a whole pass, so the fastest time of a unit repeats from run to run
    far better than its median does, and the shorter the unit, the more
    samples a run has of it.  In a traced run the same figure is
    ``traced_pass_s``."""
    fastest = sum(min(times) for times in run.units.values())
    res.values.update(setup_s=_median(run.setup_times), pass_s=fastest, peak_rss_mib=run.peak_rss_mib)
    if traced:
        res.values["traced_pass_s"] = fastest
    res.metric("pass_median_s", _median(run.pass_times), "s")
    res.metric("passes", float(len(run.pass_times)), "count")
    res.metric("setups", float(len(run.setup_times)), "count")


def environment_lines(workload: str, seed: int, seconds: int, trace: bool) -> list[str]:
    limit = enum_limit()
    top = 1 << max(RUNGS)
    return [
        f"env workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
        f"python={sys.version.split()[0]} numpy={np.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} "
        f"{ENUM_ENV_VAR}=unset",
        # recorded as a fact, not attempted: the ceiling a later engine lifts
        f"guard limit_words={limit} n{max(RUNGS)}_words={top} at_limit={top == limit} "
        f"n{max(RUNGS) + 1}_words={2 * top} exceeds={2 * top > limit}",
    ]


# ---------------------------------------------------------------------------
# vectorised oracle shared by the decode checks
# ---------------------------------------------------------------------------

def syndromes(words: np.ndarray, code: LinearCode) -> np.ndarray:
    """Syndrome mask of every word in an int64 array."""
    s = np.zeros(words.shape, dtype=np.int64)
    for i, col in enumerate(code.column_syndromes):
        s ^= ((words >> i) & 1) * col
    return s


def weights(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words.astype(np.uint64)).astype(np.int64)


def coset_leaders(words: np.ndarray, codewords: np.ndarray, chunk: int = 1 << 14) -> np.ndarray:
    """Degrevlex-minimal member of each word's coset ``w + C``, by XOR with every codeword.

    Degrevlex puts the least weight first and, among equal weights, the
    largest mask.  This is the decode oracle; it never touches the program's
    coset-leader table.
    """
    cw = codewords.astype(np.int64)
    out = np.empty(words.shape, dtype=np.int64)
    for start in range(0, words.size, chunk):
        coset = words[start:start + chunk, None] ^ cw[None, :]
        key = (weights(coset) << 32) - coset  # masks stay below 2^32
        out[start:start + chunk] = np.take_along_axis(coset, key.argmin(axis=1)[:, None], axis=1)[:, 0]
    return out


def random_words(rng: np.random.Generator, codewords: np.ndarray, n: int, t: int,
                 size: int) -> np.ndarray:
    """Uniform codeword XOR an error of weight uniform in 0..t+2 at uniform positions."""
    sent = codewords[rng.integers(0, codewords.size, size)].astype(np.int64)
    wt = rng.integers(0, t + 3, size)
    rank = rng.random((size, n)).argsort(axis=1).argsort(axis=1)
    error = ((rank < wt[:, None]).astype(np.int64) << np.arange(n)).sum(axis=1)
    return sent ^ error


def bits(words: np.ndarray, n: int) -> np.ndarray:
    return ((words[:, None] >> np.arange(n)) & 1).astype(np.int64)


def check_decodes(outcomes, words: np.ndarray, leaders: np.ndarray, t: int | None) -> int:
    """Mismatches of ``gb_decode`` outcomes against the syndrome table.

    ``leaders`` is the oracle's coset leader of each word.  In bounded mode a
    word decodes exactly when that leader's weight is at most t; ``t=None``
    is complete mode, where every word decodes.  A missing outcome (the call
    raised) is not counted here: the ledger already has it.
    """
    decodable = weights(leaders) <= (t if t is not None else 64)
    bad = 0
    for out, w, lead, ok in zip(outcomes, words.tolist(), leaders.tolist(), decodable.tolist()):
        if out is None:
            continue
        if ok:
            good = out.status == DECODED and out.canonical == lead and out.codeword == w ^ lead
        else:
            good = out.status == TOO_MANY_ERRORS and out.canonical == lead and out.codeword is None
        bad += not good
    return bad


def check_basis(basis, leaders: np.ndarray, code: LinearCode) -> tuple[int, int]:
    """``(wrong, missing)`` code binomials of a basis, judged by a coset table
    that the oracle has confirmed entry by entry.

    The code binomials of the reduced basis are exactly ``u - leader(u)`` over
    the minimal non-standard monomials u: u is not its coset's leader, while
    every u / x_j is.  Each element is checked against that, and every one-variable
    extension of a leader that is such a u must be a lead of the basis.
    """
    n = code.n
    cols = np.array(code.column_syndromes, dtype=np.int64)
    leads = np.array([b.lead for b in basis.code_binomials], dtype=np.int64)
    trails = np.array([b.trail for b in basis.code_binomials], dtype=np.int64)
    synd = syndromes(leads, code)
    wrong = (trails != leaders[synd]) | (leaders[synd] == leads)
    for j in range(n):
        bit = np.int64(1 << j)
        wrong |= ((leads & bit) != 0) & (leaders[synd ^ cols[j]] != (leads ^ bit))
    known = np.sort(leads)
    missing: set[int] = set()
    all_synd = np.arange(leaders.size, dtype=np.int64)  # leaders[s] has syndrome s
    for i in range(n):
        bit = np.int64(1 << i)
        ext = (leaders & bit) == 0
        u, su = leaders[ext] | bit, all_synd[ext] ^ cols[i]
        keep = leaders[su] != u
        u, su = u[keep], su[keep]
        for j in range(n):
            if j != i and u.size:
                b = np.int64(1 << j)
                keep = ((u & b) == 0) | (leaders[su ^ cols[j]] == (u ^ b))
                u, su = u[keep], su[keep]
        pos = np.minimum(np.searchsorted(known, u), max(known.size - 1, 0))
        missing.update(u[known[pos] != u].tolist() if known.size else u.tolist())
    return int(wrong.sum()), len(missing)


class StepCounter:
    """``normal_form`` selector that picks the first divisor and counts rewrites."""

    def __init__(self) -> None:
        self.steps = 0

    def __call__(self, hits: np.ndarray) -> int:
        self.steps += 1
        return 0


def mean_steps(led: Ledger, what: str, words: np.ndarray, basis) -> float:
    """Mean ``normal_form`` rewrite steps per word (outside any measured region)."""
    counter = StepCounter()
    try:
        for w in words.tolist():
            normal_form(w, basis, selector=counter)
    except Exception as exc:
        led.exception(1, f"normal_form step count {what}", exc)
    return counter.steps / words.size if words.size else 0.0


def repeated_share(words: np.ndarray) -> float:
    """Share of words that already occurred earlier in the same sequence."""
    return 1.0 - np.unique(words).size / words.size if words.size else 0.0


# ---------------------------------------------------------------------------
# decode_stream
# ---------------------------------------------------------------------------

@dataclass
class _Fixture:
    name: str
    code: LinearCode
    t: int
    basis: ReducedGroebnerBasis
    decoder: GroebnerDecoder
    codewords: np.ndarray  # what the oracle scans


@dataclass
class _Stream:
    """Inputs of one pass: the first quarter of the words also runs in
    complete mode, the second quarter also goes through ``predict``."""

    which: np.ndarray  # index into the fixtures, per word
    words: np.ndarray
    leaders: np.ndarray  # oracle coset leader, per word
    sim_seed: int

    @property
    def quarter(self) -> int:
        return self.words.size // 4

    def slice(self, start: int, stop: int, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Words of fixture ``c`` in ``[start, stop)`` and their oracle leaders."""
        sel = self.which[start:stop] == c
        return self.words[start:stop][sel], self.leaders[start:stop][sel]


def _stream(seed: int, i: int, fxs: list[_Fixture], size: int) -> _Stream:
    rng = np.random.default_rng([seed, i])
    which = rng.integers(0, len(fxs), size)
    words = np.empty(size, dtype=np.int64)
    leaders = np.empty(size, dtype=np.int64)
    for c, fx in enumerate(fxs):
        sel = which == c
        words[sel] = random_words(rng, fx.codewords, fx.code.n, fx.t, int(sel.sum()))
        leaders[sel] = coset_leaders(words[sel], fx.codewords)
    return _Stream(which, words, leaders, int(rng.integers(0, 2**63)))


def _decode_setup(tr: Tracer) -> list[_Fixture]:
    expected = fixtures.expected_params()
    out = []
    for tag, name in zip(fixtures.TAGS, CODES):
        code, _ = tr.call(f"fixtures.load_code.{name}", fixtures.load_code, tag)
        basis, _ = tr.call(f"groebner.coset_engine.{name}", coset_engine, code)
        decoder, _ = tr.call(f"estimators.fit.{name}", GroebnerDecoder().fit, code.generator)
        out.append(_Fixture(name=name, code=code, t=expected[tag]["t"], basis=basis, decoder=decoder,
                            codewords=code.codeword_masks()))
    return out


def _mean_us(totals: dict[str, tuple[int, int]], name: str, per: int | None = None) -> float:
    """Mean span time in µs, per span or per ``per`` items in all of them."""
    total, count = totals.get(name, (0, 0))
    count = count if per is None else per
    return total / count / 1e3 if count else 0.0


def decode_stream(seed: int, seconds: float, tr: Tracer, sizes: Sizes = Sizes()) -> RunResult:
    res = RunResult()
    led = res.ledger

    mark = tr.mark()
    big = CODES.index("c_2_4")  # the [19,5,8] code: per-word latency percentiles
    latencies: list[int] = []
    rates: dict[str, list[float]] = {"decode": [], "predict": [], "simulate": []}
    layer: dict[str, list[float]] = {}
    flagged = {c: [0, 0] for c in CODES}

    def one_pass(i: int, fxs: list[_Fixture], units: Units) -> None:
        s = _stream(seed, i, fxs, sizes.stream_words)
        items = list(zip(s.which.tolist(), s.words.tolist()))
        bounded: list = [None] * len(items)
        complete: list = [None] * s.quarter
        predicted: dict[int, np.ndarray] = {}
        reports = []
        mark = tr.mark()
        with tr.group("decode_stream.pass"):
            with tr.group("decode_stream.bounded") as g_bounded:
                for j, (c, w) in enumerate(items):
                    fx = fxs[c]
                    try:
                        bounded[j], ns = tr.call(f"decoding.gb_decode.bounded.{fx.name}",
                                                 gb_decode, w, fx.basis, "bounded")
                    except Exception as exc:
                        led.exception(1, f"gb_decode bounded {fx.name} word {w}", exc)
                        continue
                    if c == big:
                        latencies.append(ns)
            with tr.group("decode_stream.complete") as g_complete:
                for j, (c, w) in enumerate(items[: s.quarter]):
                    fx = fxs[c]
                    try:
                        complete[j], _ = tr.call(f"decoding.gb_decode.complete.{fx.name}",
                                                 gb_decode, w, fx.basis, "complete")
                    except Exception as exc:
                        led.exception(1, f"gb_decode complete {fx.name} word {w}", exc)
            with tr.group("decode_stream.predict") as g_predict:
                for c, fx in enumerate(fxs):
                    X = bits(s.slice(s.quarter, 2 * s.quarter, c)[0], fx.code.n)
                    try:
                        predicted[c], _ = tr.call(f"estimators.predict.{fx.name}", fx.decoder.predict, X)
                    except Exception as exc:
                        led.exception(len(X), f"predict {fx.name}", exc)
            with tr.group("decode_stream.simulate") as g_simulate:
                for fx in fxs:
                    for label, model in (("fixed_weight", FixedWeight(fx.t)), ("bsc", BSC(BSC_CROSSOVER))):
                        try:
                            rep, _ = tr.call(f"decoding.simulate.{label}.{fx.name}", simulate,
                                             fx.code, fx.basis, model, sizes.sim_trials, s.sim_seed)
                        except Exception as exc:
                            led.exception(sizes.sim_trials, f"simulate {label} {fx.name}", exc)
                            continue
                        reports.append((label, fx, rep))
        spans = tr.totals(mark)

        _check_decode_pass(led, fxs, s, bounded, complete, predicted, reports, sizes.sim_trials, flagged)
        for unit, g in (("bounded", g_bounded), ("complete", g_complete), ("predict", g_predict),
                        ("simulate", g_simulate)):
            units.setdefault(unit, []).append(g.ns / 1e9)
        rates["decode"].append(len(items) / (g_bounded.ns / 1e9))
        rates["predict"].append(s.quarter / (g_predict.ns / 1e9))
        rates["simulate"].append(2 * len(fxs) * sizes.sim_trials / (g_simulate.ns / 1e9))
        if tr.enabled:
            _decode_layers(tr, fxs, s, items, spans, layer, sizes.sim_trials)

    run = _run_cycles(seconds, lambda: _decode_setup(tr), sizes.decode_setups, one_pass)
    fxs = run.state
    fit_s = {c: [ns / 1e9 for ns in tr.durations(f"estimators.fit.{c}", mark)] for c in CODES}
    res.lines += _decode_properties(led, fxs, _stream(seed, 0, fxs, sizes.stream_words), res.values)

    lat = np.array(latencies, dtype=np.float64) / 1e3
    _end_to_end(res, run, tr.enabled)
    res.metric("decode_words_per_s", _median(rates["decode"]), "1/s")
    res.metric("decode_p50_us", float(np.percentile(lat, 50)) if lat.size else 0.0, "us")
    res.metric("decode_p99_us", float(np.percentile(lat, 99)) if lat.size else 0.0, "us")
    res.metric("decode_latency_samples", float(lat.size), "count")
    res.metric("predict_rows_per_s", _median(rates["predict"]), "1/s")
    res.metric("simulate_trials_per_s", _median(rates["simulate"]), "1/s")
    if tr.enabled:
        res.values.update({name: _median(vals) for name, vals in layer.items()})
        for c in CODES:
            res.values[f"estimators.fit_s.{c}"] = _median(fit_s[c])
            hit, total = flagged[c]
            res.values[f"decoding.flagged_share.{c}"] = hit / total if total else 0.0
    return res


def _check_decode_pass(led: Ledger, fxs, s: _Stream, bounded, complete, predicted, reports,
                       trials: int, flagged: dict[str, list[int]]) -> None:
    for c, fx in enumerate(fxs):
        sel = np.flatnonzero(s.which == c)
        outs = [bounded[j] for j in sel]
        done = sum(o is not None for o in outs)
        bad = check_decodes(outs, s.words[sel], s.leaders[sel], fx.t)
        led.ran(done, bad, f"bounded {fx.name}: {bad} mismatches")
        flagged[fx.name][0] += sum(o is not None and o.status == TOO_MANY_ERRORS for o in outs)
        flagged[fx.name][1] += done

        sel = sel[sel < s.quarter]
        outs = [complete[j] for j in sel]
        bad = check_decodes(outs, s.words[sel], s.leaders[sel], None)
        led.ran(sum(o is not None for o in outs), bad, f"complete {fx.name}: {bad} mismatches")

        if c in predicted:
            words, leaders = s.slice(s.quarter, 2 * s.quarter, c)
            want = bits(np.where(weights(leaders) <= fx.t, words ^ leaders, words), fx.code.n)
            got = predicted[c]
            bad = len(words) if got.shape != want.shape else int((got != want).any(axis=1).sum())
            led.ran(len(words), bad, f"predict {fx.name}: {bad} rows differ")

    for label, fx, rep in reports:
        counts = rep.successes + rep.failures_flagged + rep.miscorrections
        if rep.trials != trials or counts != trials:
            bad = trials
        elif label == "fixed_weight":  # within radius t every trial must succeed
            bad = trials - rep.successes
        else:  # a BSC miscorrection is a channel outcome, not a failure
            bad = 0
        led.ran(trials, bad, f"simulate {label} {fx.name}: {rep.record()}")


def _decode_layers(tr: Tracer, fxs, s: _Stream, items, spans, layer, trials: int) -> None:
    """Per-layer samples of one traced pass, plus a separate normal_form pass
    over the same words (so ``self_us`` = bounded ``gb_decode`` - ``normal_form``)."""
    mark = tr.mark()
    with tr.group("decode_stream.normal_form"):
        for c, w in items:
            try:
                tr.call(f"groebner.normal_form.{fxs[c].name}", normal_form, w, fxs[c].basis)
            except Exception:  # the bounded pass already counted this word as failed
                pass
    nf = tr.totals(mark)
    for c, fx in enumerate(fxs):
        name = fx.name
        bounded = _mean_us(spans, f"decoding.gb_decode.bounded.{name}")
        nf_us = _mean_us(nf, f"groebner.normal_form.{name}")
        rows = len(s.slice(s.quarter, 2 * s.quarter, c)[0])
        sample = {
            f"groebner.normal_form_us.{name}": nf_us,
            f"decoding.gb_decode_us.bounded.{name}": bounded,
            f"decoding.gb_decode_us.complete.{name}": _mean_us(spans, f"decoding.gb_decode.complete.{name}"),
            f"decoding.self_us.{name}": bounded - nf_us,
            f"decoding.simulate_us_per_trial.fixed_weight.{name}":
                _mean_us(spans, f"decoding.simulate.fixed_weight.{name}", trials),
            f"decoding.simulate_us_per_trial.bsc.{name}": _mean_us(spans, f"decoding.simulate.bsc.{name}", trials),
            f"estimators.predict_us_per_row.{name}": _mean_us(spans, f"estimators.predict.{name}", rows),
        }
        for key, value in sample.items():
            layer.setdefault(key, []).append(value)


def _decode_properties(led: Ledger, fxs, s: _Stream, values: dict[str, float]) -> list[str]:
    """Workload properties of one pass's stream, which a seed fixes: repeated
    words, words beyond radius t, and rewrite steps per word (also recorded
    as ``groebner.nf_steps_mean``, which repeats exactly for a seed)."""
    repeats = sum(repeated_share(s.words[s.which == c]) * int((s.which == c).sum())
                  for c in range(len(fxs)))
    lines = [f"property stream words={s.words.size} repeated_share={repeats / s.words.size:.4f}"]
    for c, fx in enumerate(fxs):
        sel = s.which == c
        steps = mean_steps(led, fx.name, s.words[sel], fx.basis)
        values[f"groebner.nf_steps_mean.{fx.name}"] = steps
        lines.append(
            f"property {fx.name} n={fx.code.n} k={fx.code.k} t={fx.t} words={int(sel.sum())} "
            f"repeated_share={repeated_share(s.words[sel]):.4f} "
            f"beyond_t_share={float((weights(s.leaders[sel]) > fx.t).mean()):.4f} "
            f"nf_steps_mean={steps:.4f} cosets={1 << (fx.code.n - fx.code.k)}")
    return lines


# ---------------------------------------------------------------------------
# build_ladder
# ---------------------------------------------------------------------------

@dataclass
class _Rung:
    n: int
    generator: np.ndarray
    d: int  # by brute force over the 32 codewords, before any measured pass
    codewords: np.ndarray  # what the oracle scans
    words: np.ndarray  # received words for the sampled decodes
    leaders: np.ndarray  # oracle coset leader of each word

    @property
    def name(self) -> str:
        return f"n{self.n}"

    @property
    def t(self) -> int:
        return (self.d - 1) // 2


def _rungs(G: np.ndarray, seed: int, sizes: Sizes) -> list[_Rung]:
    order = np.random.default_rng(PUNCTURE_SEED).permutation(G.shape[1])
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes.rungs:
        Gp = G[:, np.sort(order[:n])]
        oracle = LinearCode.from_generator(Gp)
        d = min_distance_bruteforce(oracle)
        codewords = oracle.codeword_masks()
        words = random_words(rng, codewords, n, (d - 1) // 2, sizes.ladder_decodes)
        out.append(_Rung(n=n, generator=Gp, d=d, codewords=codewords, words=words,
                         leaders=coset_leaders(words, codewords)))
    return out


# the rung's calls in pipeline order; "decodes" is the sampled bounded decodes
RUNG_STEPS = ("from_generator", "coset_table", "coset_engine", "format_basis", "parse_basis")


def _build_rung(tr: Tracer, r: _Rung, units: Units) -> dict:
    """Run the rung's calls, appending each step's time to ``units``; an
    exception ends the rung."""
    out: dict = {}

    def step(unit: str, key: str, span: str, fn, *args) -> None:
        out[key], ns = tr.call(f"{span}.{r.name}", fn, *args)
        units.setdefault(f"{unit}.{r.name}", []).append(ns / 1e9)

    try:
        step("from_generator", "code", "linalg.from_generator", LinearCode.from_generator, r.generator)
        step("coset_table", "table", "linalg.build_coset_leader_table", build_coset_leader_table, out["code"])
        step("coset_engine", "basis", "groebner.coset_engine", coset_engine, out["code"])
        # the hand-off from `sgb gb -o` to `sgb decode --basis`
        step("format_basis", "text", "formats.format_basis", format_basis, out["basis"])
        step("parse_basis", "parsed", "formats.parse_basis", parse_basis, out["text"])
        with tr.group(f"build_ladder.decodes.{r.name}") as g:
            out["outcomes"] = [
                tr.call(f"decoding.gb_decode.bounded.{r.name}", gb_decode, w, out["parsed"], "bounded")[0]
                for w in r.words.tolist()
            ]
        units.setdefault(f"decodes.{r.name}", []).append(g.ns / 1e9)
    except Exception as exc:
        out["error"] = exc
    return out


def _check_rung(led: Ledger, r: _Rung, b: dict) -> None:
    if "error" in b:
        led.exception(len(RUNG_STEPS) + r.words.size, f"rung {r.name}", b["error"])
        return
    code, leaders = b["code"], b["table"].leaders.astype(np.int64)
    ok_code = code.n == r.n and code.k == r.generator.shape[0]
    led.ran(1, not ok_code, f"rung {r.name}: code is [{code.n},{code.k}]")
    # every entry must sit in the coset of its index and be that coset's oracle minimum
    ok_table = leaders.size == 1 << (r.n - code.k) and bool(
        (syndromes(leaders, code) == np.arange(leaders.size)).all()
        and (coset_leaders(leaders, r.codewords) == leaders).all())
    led.ran(1, not ok_table, f"rung {r.name}: coset-leader table differs from the oracle")
    try:
        t = capability(b["basis"])
    except ValueError as exc:
        t = f"{type(exc).__name__}: {exc}"
    unsound, missing = check_basis(b["basis"], leaders, code) if ok_table else (-1, -1)
    led.ran(1, t != r.t or unsound != 0 or missing != 0,
            f"rung {r.name}: capability {t} (want (d-1)//2 = {r.t}), "
            f"{unsound} wrong elements, {missing} missing")
    lines = b["text"].count("\n")
    led.ran(1, lines != len(b["basis"].elements) + 1, f"rung {r.name}: {lines} basis-file lines")
    led.ran(1, b["parsed"] != b["basis"], f"rung {r.name}: parsed basis differs from the built one")
    bad = check_decodes(b["outcomes"], r.words, r.leaders, r.t)
    led.ran(r.words.size, bad, f"rung {r.name}: {bad} decodes differ from the oracle")


def build_ladder(seed: int, seconds: float, tr: Tracer, sizes: Sizes = Sizes()) -> RunResult:
    res = RunResult()
    led = res.ledger
    mark = tr.mark()
    built: list[dict] = []

    def setup() -> list[_Rung]:
        return _rungs(tr.call("schubert.generator_matrix", generator_matrix, LADDER_SPEC)[0], seed, sizes)

    def one_pass(i: int, rungs: list[_Rung], units: Units) -> None:
        with tr.group("build_ladder.pass"):
            built[:] = []
            for r in rungs:
                with tr.group(f"build_ladder.{r.name}"):
                    built.append(_build_rung(tr, r, units))
        for r, b in zip(rungs, built):
            _check_rung(led, r, b)

    run = _run_cycles(seconds, setup, sizes.ladder_setups, one_pass)
    rungs, units = run.state, run.units
    for r, b in zip(rungs, built):
        res.lines.append(_rung_properties(led, r, b, res.values))

    _end_to_end(res, run, tr.enabled)
    if tr.enabled:
        gen_ms = [ns / 1e6 for ns in tr.durations("schubert.generator_matrix", mark)]
        for r in rungs:
            for metric, unit in (("linalg.coset_table_s", "coset_table"),
                                 ("groebner.coset_engine_s", "coset_engine"),
                                 ("formats.format_basis_s", "format_basis"),
                                 ("formats.parse_basis_s", "parse_basis")):
                res.values[f"{metric}.{r.name}"] = _median(units.get(f"{unit}.{r.name}", []))
        res.values["schubert.generator_matrix_ms"] = _median(gen_ms)
    return res


def _rung_properties(led: Ledger, r: _Rung, b: dict, values: dict[str, float]) -> str:
    """Workload properties of one rung, and its exact work counts."""
    k = r.generator.shape[0]
    line = (f"property {r.name} n={r.n} k={k} d={r.d} t={r.t} cosets={1 << (r.n - k)} "
            f"words={r.words.size} repeated_share={repeated_share(r.words):.4f} "
            f"beyond_t_share={float((weights(r.leaders) > r.t).mean()):.4f}")
    if "error" in b:
        return line + " failed"
    values[f"groebner.code_binomials.{r.name}"] = len(b["basis"].code_binomials)
    values[f"linalg.cosets.{r.name}"] = int(b["table"].leaders.size)
    values[f"formats.basis_bytes.{r.name}"] = len(b["text"].encode())
    return (line + f" nf_steps_mean={mean_steps(led, r.name, r.words, b['parsed']):.4f}"
            f" code_binomials={len(b['basis'].code_binomials)}")


# ---------------------------------------------------------------------------
# verify_paper
# ---------------------------------------------------------------------------

def _check_results(led: Ledger, what: str, results) -> None:
    failed = [f"{r.section}:{r.name}" for r in results if not r.passed]
    led.ran(len(results), len(failed), f"{what}: FAIL {failed}")


def verify_paper(seed: int, seconds: float, tr: Tracer, sizes: Sizes = Sizes()) -> RunResult:
    """``run_checks`` on the fixtures and seeds pinned in the program; the
    workload seed does not apply, because those inputs may not be re-seeded.

    A pass makes one ``run_checks(only=[section])`` call per section, so each
    section is its own timed unit.  Five of the sections need the four fixture
    bases, which each such call rebuilds; a traced run times that rebuild as
    ``verify.bases_s``, which reconciles the sections with one whole call.
    """
    res = RunResult()
    led = res.ledger

    def setup():  # the fixture inputs that run_checks reads
        codes = [fixtures.load_code(tag) for tag in fixtures.TAGS]
        for tag in fixtures.TAGS:
            fixtures.load_decode_table(tag)
        for tag in ("1_4", "2_3"):
            fixtures.load_basis(tag)
        for tag in ("1_5", "2_4"):
            fixtures.load_spot_elements(tag)
        fixtures.expected_params()
        fixtures.verify_checksums()
        return codes

    bases_s: list[float] = []
    checks: Counter[str] = Counter()

    def one_pass(i: int, codes: list[LinearCode], units: Units) -> None:
        with tr.group("verify_paper.pass"):
            for section in sizes.sections:
                try:
                    results, ns = tr.call(f"verify.run_checks.{section}", verify_mod.run_checks, [section])
                except Exception as exc:
                    led.exception(1, f"run_checks {section}", exc)
                    continue
                units.setdefault(section, []).append(ns / 1e9)
                _check_results(led, f"run_checks {section}", results)
                if i == 0:
                    checks.update(Counter(r.section for r in results))
        if tr.enabled:
            with tr.group("verify.bases") as bases:
                for code, name in zip(codes, CODES):
                    try:
                        tr.call(f"groebner.coset_engine.{name}", coset_engine, code)
                    except Exception as exc:
                        led.exception(1, f"coset_engine {name}", exc)
            bases_s.append(bases.ns / 1e9)

    run = _run_cycles(seconds, setup, sizes.verify_setups, one_pass)
    codes = run.state
    res.lines.append("property checks " + " ".join(f"{s}={n}" for s, n in checks.items()))
    res.lines.append("property fixtures " + " ".join(
        f"{name}=[{c.n},{c.k}] cosets={1 << (c.n - c.k)}" for name, c in zip(CODES, codes)))
    _end_to_end(res, run, tr.enabled)
    if tr.enabled:
        res.values.update({f"verify.{section}_s": _median(times) for section, times in run.units.items()})
        res.values["verify.bases_s"] = _median(bases_s)
    return res


WORKLOADS: dict[str, Callable[..., RunResult]] = {
    "decode_stream": decode_stream,
    "build_ladder": build_ladder,
    "verify_paper": verify_paper,
}
