"""Fixture verification: replays every bundled reference value end to end.

Sections (selectable via ``only``):

* integrity  - fixture files match their recorded checksums
* params     - code parameters and brute-force minimum distances
* construct  - generator construction vs the fixture matrices
* gb         - reduced bases vs listings, spots and the 2^n scan basis,
               engine equivalence
* capability - capability values from the bases
* decode     - decoding-table replay and exhaustive radius-t agreement
* nf         - canonical forms vs the coset-minimum brute-force oracle
* count      - subspace/point counting cross-checks
* simulate   - simulator determinism and soundness

Every check emits one PASS/FAIL line through ``echo``.  The independent
routes the checks compare against - the Buchberger run that the gb section
checks the coset engine with, the basis read off the 2^n coset-leader scan
that the two long bases are compared with element by element, the coset
minimum and the Pluecker-filter point enumeration - come from
:mod:`schubert_gb.reference`; this is the one module of the package that
imports it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import fixtures
from .decoding import DECODED, FixedWeight, _canonical_many, gb_decode, simulate
from .groebner import ReducedGroebnerBasis, _reduce_many, capability, coset_engine
from .linalg import (
    LinearCode,
    build_coset_leader_table,
    min_distance_bruteforce,
    rank,
    syndromes,
)
from .reference import (
    buchberger,
    coset_minimum,
    ideal_generators,
    scan_basis,
    schubert_points_by_plucker_filter,
)
from .schubert import (
    SchubertSpec,
    enumerate_schubert_points,
    gaussian_binomial,
    generator_matrix,
    index_tuples,
    schubert_params,
)

SECTIONS = (
    "integrity",
    "params",
    "construct",
    "gb",
    "capability",
    "decode",
    "nf",
    "count",
    "simulate",
)

RANDOM_CODE_SEED = 20250808
RANDOM_CODE_COUNT = 25
# entries per block of the radius-t check's word-by-codeword distance array
_NN_BLOCK = 1 << 16


@dataclass(frozen=True)
class CheckResult:
    section: str
    name: str
    passed: bool
    detail: str = ""


def random_codes(
    count: int = RANDOM_CODE_COUNT, seed: int = RANDOM_CODE_SEED
) -> list[LinearCode]:
    """Seeded random binary codes with n <= 10, k <= 5, d >= 3.

    Generators are rejection-sampled until they have distinct nonzero
    columns, full row rank, and minimum distance at least 3.  Every draw
    comes before any test, so the order of the tests (cheapest first) does
    not change which codes are kept.
    """
    rng = random.Random(seed)
    out: list[LinearCode] = []
    while len(out) < count:
        n = rng.randint(6, 10)
        k = rng.randint(2, min(5, n - 2))
        G = np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(k)])
        cols = {tuple(col) for col in G.T}
        if len(cols) != n or any(not any(col) for col in cols):
            continue
        try:
            code = LinearCode.from_generator(G, p=2)
        except ValueError:  # "generator not full rank": 0/1 entries fail no other check
            continue
        if min_distance_bruteforce(code) < 3:
            continue
        out.append(code)
    return out


@functools.cache
def _seeded_codes() -> tuple[LinearCode, ...]:
    """The default :func:`random_codes`, drawn once per process.

    The gb, capability and nf sections all check them; a tuple, so no
    caller can change what the next one sees.
    """
    return tuple(random_codes())


class _Run:
    def __init__(self, only: Iterable[str] | None, echo: Callable[[str], None] | None):
        only = set(only) if only else None
        if only is not None and not only <= set(SECTIONS):
            raise ValueError(f"unknown sections {sorted(only - set(SECTIONS))}")
        self.only = only
        self.echo = echo
        self.results: list[CheckResult] = []

    def wants(self, section: str) -> bool:
        return self.only is None or section in self.only

    def check(self, section: str, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(section, name, bool(passed), detail))
        if self.echo:
            status = "PASS" if passed else "FAIL"
            suffix = f" ({detail})" if detail else ""
            self.echo(f"{status} {section}:{name}{suffix}")


def _specs() -> dict[str, SchubertSpec]:
    return {
        tag: SchubertSpec(l=v["l"], m=v["m"], q=v["q"], alpha=tuple(v["alpha"]))
        for tag, v in fixtures.expected_params().items()
    }


def _reference_bases(codes: dict[str, LinearCode]) -> dict[str, ReducedGroebnerBasis]:
    return {tag: coset_engine(code) for tag, code in codes.items()}


def run_checks(
    only: Iterable[str] | None = None, echo: Callable[[str], None] | None = None
) -> list[CheckResult]:
    run = _Run(only, echo)
    expected = fixtures.expected_params()
    codes = {tag: fixtures.load_code(tag) for tag in fixtures.TAGS}
    needs_bases = any(map(run.wants, ("gb", "capability", "decode", "nf", "simulate")))
    bases = _reference_bases(codes) if needs_bases else {}

    @functools.cache
    def random_bases() -> list[tuple[LinearCode, ReducedGroebnerBasis]]:
        """The seeded codes and their bases, built once per call for every section."""
        return [(code, coset_engine(code)) for code in _seeded_codes()]

    if run.wants("integrity"):
        stale = fixtures.verify_checksums()
        run.check("integrity", "checksums", not stale,
                  f"stale: {stale}" if stale else f"{len(fixtures.TAGS) * 3 + 2} files")

    if run.wants("params"):
        for tag, spec in _specs().items():
            want = expected[tag]
            got = schubert_params(spec)
            run.check(
                "params", f"c_{tag}.parameters",
                (got.n, got.k, got.d) == (want["n"], want["k"], want["d"]),
                f"n={got.n} k={got.k} d={got.d}",
            )
            dist = min_distance_bruteforce(codes[tag])
            run.check(
                "params", f"c_{tag}.min_distance",
                dist == want["q"] ** want["delta"],
                f"bruteforce d={dist}, q^delta={want['q'] ** want['delta']}",
            )

    if run.wants("construct"):
        for tag, spec in _specs().items():
            built = generator_matrix(spec)
            fixture = codes[tag].generator
            same_cols = sorted(map(tuple, built.T)) == sorted(map(tuple, fixture.T))
            run.check("construct", f"c_{tag}.column_multiset", same_cols,
                      f"{built.shape[0]}x{built.shape[1]}")
            run.check(
                "construct", f"c_{tag}.rank_and_columns",
                rank(built, 2) == expected[tag]["k"]
                and rank(fixture, 2) == expected[tag]["k"]
                and all(col.any() for col in built.T),
                f"rank={expected[tag]['k']}",
            )

    if run.wants("gb"):
        for tag in ("1_4", "2_3"):
            transcribed = fixtures.load_basis(tag)
            run.check(
                "gb", f"c_{tag}.listing", bases[tag] == transcribed,
                f"{len(transcribed.elements)} elements",
            )
            engine_match = buchberger(ideal_generators(codes[tag])) == bases[tag]
            run.check("gb", f"c_{tag}.engine_equivalence", engine_match)
        for tag in ("1_5", "2_4"):
            basis = bases[tag]
            spots = fixtures.load_spot_elements(tag)
            have = set(basis.code_binomials)
            run.check(
                "gb", f"c_{tag}.spot_elements",
                all(s in have for s in spots), f"{len(spots)} spots",
            )
            nfield = sum(1 for b in basis.elements if b.kind == "field")
            run.check("gb", f"c_{tag}.field_relations", nfield == basis.n,
                      f"{nfield} of n={basis.n}")
            oracle = scan_basis(codes[tag])
            run.check(
                "gb", f"c_{tag}.element_count", basis == oracle,
                f"engine={basis.leads.size} oracle={oracle.leads.size}",
            )
        mismatches = []
        for i, (code, basis) in enumerate(random_bases()):
            if buchberger(ideal_generators(code)) != basis:
                mismatches.append(i)
        run.check(
            "gb", "random_codes.engine_equivalence", not mismatches,
            f"{RANDOM_CODE_COUNT} codes" + (f", mismatches {mismatches}" if mismatches else ""),
        )

    if run.wants("capability"):
        for tag, basis in bases.items():
            run.check(
                "capability", f"c_{tag}.t",
                capability(basis) == expected[tag]["t"],
                f"t={capability(basis)}",
            )
        bad = [
            i
            for i, (code, basis) in enumerate(random_bases())
            if capability(basis) != (min_distance_bruteforce(code) - 1) // 2
        ]
        run.check("capability", "random_codes.floor_rule", not bad,
                  f"mismatches {bad}" if bad else f"{RANDOM_CODE_COUNT} codes")

    if run.wants("decode"):
        for tag, basis in bases.items():
            rows = fixtures.load_decode_table(tag)
            ok = True
            for received, canonical, decoded in rows:
                outcome = gb_decode(received, basis)
                if (
                    outcome.status != DECODED
                    or outcome.canonical != canonical
                    or outcome.codeword != decoded
                ):
                    ok = False
            run.check("decode", f"c_{tag}.table_replay", ok, f"{len(rows)} rows")
        for tag, basis in bases.items():
            code = codes[tag]
            run.check(
                "decode", f"c_{tag}.radius_t_agreement",
                _radius_t_agreement(code, basis),
                f"t={capability(basis)} exhaustive",
            )

    if run.wants("nf"):
        targets = [(f"c_{tag}", codes[tag], bases[tag]) for tag in ("1_4", "2_3")]
        targets += [
            (f"random_{i}", code, basis)
            for i, (code, basis) in enumerate(random_bases())
        ]
        bad = []
        for name, code, basis in targets:
            words = np.arange(1 << code.n, dtype=np.uint64)
            want = coset_minimum(words, code.codeword_masks())
            if not np.array_equal(_reduce_many(words, basis._index), want):
                bad.append(name)
        run.check("nf", "canonical_vs_coset_minimum", not bad,
                  f"{len(targets)} codes, all 2^n monomials" + (f"; bad {bad}" if bad else ""))

    if run.wants("count"):
        run.check(
            "count", "gaussian_binomial_5_2_2",
            gaussian_binomial(5, 2, 2) == 155
            and len(enumerate_schubert_points(SchubertSpec.grassmann(2, 5, 2))) == 155,
            "formula == enumerated == 155",
        )
        bad = []
        for q in (2, 3):
            full = SchubertSpec.grassmann(2, 5, q)
            for alpha in index_tuples(2, 5):
                spec = SchubertSpec(l=2, m=5, q=q, alpha=alpha)
                pivot_pts = enumerate_schubert_points(spec)
                plucker_pts = schubert_points_by_plucker_filter(spec)
                if not (
                    len(pivot_pts) == schubert_params(spec).n
                    and sorted(pivot_pts) == sorted(plucker_pts)
                ):
                    bad.append((q, alpha))
        run.check("count", "pivot_vs_plucker_filter", not bad,
                  "10 alphas at q=2 and q=3" + (f"; bad {bad}" if bad else ""))

    if run.wants("simulate"):
        for tag, basis in bases.items():
            code = codes[tag]
            t = capability(basis)
            first = simulate(code, basis, FixedWeight(t), trials=1000, seed=2024)
            again = simulate(code, basis, FixedWeight(t), trials=1000, seed=2024)
            run.check(
                "simulate", f"c_{tag}.deterministic_success",
                first.record() == again.record()
                and first.successes == 1000
                and first.miscorrections == 0,
                first.record(),
            )

    return run.results


def _radius_t_agreement(code: LinearCode, basis: ReducedGroebnerBasis) -> bool:
    """Exhaustive check: every error of weight <= t on every codeword is
    corrected, and the three decoders agree without nn ambiguity.

    All (error, codeword) words form one array.  It is gb-decoded in one
    call of :func:`~schubert_gb.decoding._canonical_many`; the syndrome
    route looks the leader of each word's syndrome
    (:func:`~schubert_gb.linalg.syndromes`) up in the table, and the
    nearest-neighbour route takes the
    distance to every codeword, in blocks of ``_NN_BLOCK`` distances.  As in
    :func:`~schubert_gb.reference.cross_check`, gb decoding must succeed with
    the error pattern and the sent codeword, the syndrome codeword must equal
    it, and the nearest codeword must be unique and equal to it.
    """
    t = capability(basis)
    table = build_coset_leader_table(code)
    cw = code.codeword_masks()
    patterns = [
        sum(1 << i for i in positions)
        for wt_e in range(t + 1)
        for positions in itertools.combinations(range(code.n), wt_e)
    ]
    error = np.repeat(np.array(patterns, dtype=np.uint64), cw.size)
    sent = np.tile(cw, len(patterns))
    received = sent ^ error
    canonical, decoded = _canonical_many(received, basis, "bounded")
    if not (decoded & (canonical == error)).all():  # so received ^ canonical is the codeword sent
        return False
    if ((received ^ table.leaders[syndromes(received, code)]) != sent).any():
        return False
    step = max(1, _NN_BLOCK // cw.size)  # words per block of the distance array
    for a in range(0, received.size, step):
        dist = np.bitwise_count(received[a:a + step, None] ^ cw)
        unique = np.count_nonzero(dist == dist.min(axis=1, keepdims=True), axis=1) == 1
        if not (unique & (cw[dist.argmin(axis=1)] == sent[a:a + step])).all():
            return False
    return True
