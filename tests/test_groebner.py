import functools
import hashlib
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_gb import (
    Binomial,
    FixedWeight,
    GroebnerDecoder,
    LinearCode,
    SchubertSpec,
    build_coset_leader_table,
    capability,
    coset_engine,
    gb_decode,
    generator_matrix,
    min_distance_bruteforce,
    normal_form,
    simulate,
    syndrome,
)
from schubert_gb import groebner, linalg, reference
from schubert_gb.fixtures import load_basis, load_code
from schubert_gb.formats import format_basis, parse_basis, parse_element_lines
from schubert_gb.reference import (
    _lead_code,
    _lead_key,
    as_pairs,
    buchberger,
    coset_minimum,
    degrevlex_compare,
    degrevlex_key_exponents,
    element_sort_key,
    exponent_pair,
    exponents_from_mask,
    field_relation,
    ideal_generators,
    is_groebner,
    mask_from_support,
    reduce_poly,
    scan_basis,
    scan_coset_leaders,
    spoly,
)
from schubert_gb.validation import ENUM_ENV_VAR, EnumerationLimitError
from schubert_gb.verify import random_codes
from schubert_gb.words import degrevlex_key, monomial_from_string, weight

from conftest import hamming_code, ladder_code, validated, wide_lead_basis_text


def exps(mon: str, n: int):
    return exponents_from_mask(monomial_from_string(mon), n)


class TestDegrevlex:
    def test_reference_lead(self):
        assert degrevlex_compare(exps("x1*x2", 7), exps("x4*x7", 7)) > 0

    def test_one_is_minimum(self):
        assert degrevlex_compare(exps("1", 7), exps("x1", 7)) < 0

    def test_reflexive_equal(self):
        assert degrevlex_compare(exps("x3", 7), exps("x3", 7)) == 0

    def test_square_versus_pair(self):
        # x1^2 > x1*x2 > x2^2 under degrevlex
        x1sq = (2, 0, 0)
        x1x2 = (1, 1, 0)
        x2sq = (0, 2, 0)
        assert degrevlex_compare(x1sq, x1x2) > 0
        assert degrevlex_compare(x1x2, x2sq) > 0

    exps_st = st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5).map(tuple)

    @given(exps_st, exps_st)
    def test_total_and_antisymmetric(self, a, b):
        c = degrevlex_compare(a, b)
        assert c in (-1, 0, 1)
        assert c == -degrevlex_compare(b, a)
        assert (c == 0) == (a == b)

    @given(exps_st, exps_st, exps_st)
    @settings(max_examples=60)
    def test_multiplicative(self, a, b, c):
        shifted = tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
        assert degrevlex_compare(a, b) == degrevlex_compare(*shifted)

    @given(exps_st, exps_st, exps_st)
    @settings(max_examples=60)
    def test_transitive(self, a, b, c):
        if degrevlex_compare(a, b) <= 0 and degrevlex_compare(b, c) <= 0:
            assert degrevlex_compare(a, c) <= 0


class TestIdealGenerators:
    def test_reference_generators(self, codes):
        gens = ideal_generators(codes["1_4"])
        assert len(gens) == 3 + 7
        code_leads = {g.lead for g in gens if g.kind == "code"}
        assert code_leads == {
            mask_from_support(s) for s in [(1, 5, 6, 7), (2, 4, 5, 6), (3, 4, 5, 7)]
        }
        assert all(g.trail == 0 for g in gens)
        assert sum(1 for g in gens if g.kind == "field") == 7

    def test_zero_dimensional_code(self):
        code = LinearCode.from_generator(np.zeros((0, 4), dtype=int), 2)
        gens = ideal_generators(code)
        assert len(gens) == 4 and all(g.kind == "field" for g in gens)

    def test_count_is_k_plus_n(self, codes):
        for code in codes.values():
            assert len(ideal_generators(code)) == code.k + code.n


class TestSpoly:
    def test_equal_inputs_cancel(self):
        f = (exps("x1*x2", 7), exps("x4*x7", 7))
        assert spoly(f, f) is None

    def test_hand_expanded_pair(self):
        f = (exps("x1*x2", 7), exps("x4*x7", 7))
        g = (exps("x2*x3", 7), exps("x6*x7", 7))
        assert spoly(f, g) == (exps("x3*x4*x7", 7), exps("x1*x6*x7", 7))

    def test_field_relation_pair(self):
        f = ((2, 0, 0, 0, 0, 0, 0), exps("1", 7))  # x1^2 - 1
        g = (exps("x1*x2", 7), exps("x4*x7", 7))
        assert spoly(f, g) == (exps("x1*x4*x7", 7), exps("x2", 7))

    def test_result_is_binomial(self):
        rng = random.Random(5)
        for _ in range(50):
            f = (tuple(rng.randint(0, 2) for _ in range(5)),
                 tuple(rng.randint(0, 2) for _ in range(5)))
            g = (tuple(rng.randint(0, 2) for _ in range(5)),
                 tuple(rng.randint(0, 2) for _ in range(5)))
            if f[0] == f[1] or g[0] == g[1]:
                continue
            s = spoly(f, g)
            assert s is None or (len(s) == 2 and degrevlex_compare(*s) > 0)


class TestReducePoly:
    def test_self_reduction(self):
        f = (exps("x1*x2", 7), exps("x4*x7", 7))
        assert reduce_poly(f, [f]) == ()

    def test_square_by_field_relations(self):
        fields = [exponent_pair(field_relation(i), 7) for i in range(1, 8)]
        assert reduce_poly([(0, 0, 0, 2, 0, 0, 0), exps("1", 7)], fields) == ()

    def test_spoly_of_basis_elements_vanishes(self, bases):
        pairs = as_pairs(bases["1_4"])
        s = (exps("x3*x4*x7", 7), exps("x1*x6*x7", 7))
        assert reduce_poly(s, pairs) == ()

    def test_partial_reduction_keeps_binomial(self):
        fields = [exponent_pair(field_relation(i), 3) for i in range(1, 4)]
        out = reduce_poly([(2, 1, 0), (0, 0, 1)], fields)
        assert out == ((0, 1, 0), (0, 0, 1))


class TestEngines:
    def test_buchberger_reproduces_reference_listing(self, codes):
        assert buchberger(ideal_generators(codes["1_4"])) == load_basis("1_4")

    def test_coset_engine_reproduces_reference_listing(self, bases):
        assert bases["2_3"] == load_basis("2_3")

    def test_element_breakdown_1_4(self, bases):
        gb = bases["1_4"]
        assert len(gb.elements) == 21
        assert sum(1 for b in gb.elements if b.kind == "field") == 7
        assert all(weight(b.lead) == 2 for b in gb.code_binomials)

    def test_min_total_degree_1_5(self, bases):
        assert min(weight(b.lead) for b in bases["1_5"].code_binomials) == 4

    def test_standard_monomial_count(self, codes, bases):
        for tag, code in codes.items():
            table = build_coset_leader_table(code)
            assert len(set(int(x) for x in table.leaders)) == 1 << (code.n - code.k)

    def test_field_relations_alone(self):
        gens = [field_relation(i) for i in range(1, 5)]
        gb = buchberger(gens)
        assert gb.n == 4 and gb.code_binomials == ()

    def test_buchberger_guard(self, codes):
        with pytest.raises(EnumerationLimitError, match="coset engine"):
            buchberger(ideal_generators(codes["1_5"]))

    def test_missing_field_relations_rejected(self):
        with pytest.raises(ValueError, match="field relation"):
            buchberger([Binomial(0b11, 0, "code")])

    def test_engines_agree_on_random_codes(self, small_random_codes):
        for code in small_random_codes:
            assert buchberger(ideal_generators(code)) == coset_engine(code)

    def test_pair_criteria_prune(self, monkeypatch, codes):
        # the 27 runs of verify-paper's gb section; with the product criterion
        # alone they computed 74,251 remainders
        calls = 0
        remainder = reference._remainder

        def counting(*args):
            nonlocal calls
            calls += 1
            return remainder(*args)

        monkeypatch.setattr(reference, "_remainder", counting)
        for code in [codes["1_4"], codes["2_3"], *random_codes()]:
            buchberger(ideal_generators(code))
        assert 0 < calls < 20_000

    def test_degenerate_distance_two_builds(self):
        # two equal parity columns force a weight-2 codeword: x1 and x2 lead
        gb = three_engine_basis(LinearCode.from_generator(np.array([[1, 1, 0], [0, 1, 1]]), 2))
        assert gb.code_binomials == (Binomial(0b010, 0b100), Binomial(0b001, 0b100))
        assert capability(gb) == 0

    def test_binary_only_before_the_guard(self):
        # 2^(n-k) counts no cosets of a ternary code, so the guard is not asked
        gf3 = LinearCode.from_generator(np.ones((1, 30), dtype=int), 3)
        with pytest.raises(ValueError, match="^binary only$"):
            coset_engine(gf3)

    def test_engine_outputs_are_groebner(self, codes, bases, small_random_codes):
        assert is_groebner(bases["1_4"].elements, n=7)
        assert is_groebner(bases["2_3"].elements, n=7)
        for code in small_random_codes[:3]:
            assert is_groebner(coset_engine(code).elements, n=code.n)


class TestCosetWalkEngine:
    """coset_engine against the scan oracle and bases pinned from the former scan engine."""

    def test_equals_scan_oracle(self, codes, small_random_codes):
        for code in list(codes.values()) + small_random_codes + random_codes():
            assert coset_engine(code) == scan_basis(code)

    def test_former_limit_slot_takes_only_none(self, codes, monkeypatch):
        # callers written against coset_engine(code, limit) may pass None; a bound is refused
        code = codes["2_4"]
        assert coset_engine(code, None) == coset_engine(code)
        monkeypatch.setenv(ENUM_ENV_VAR, "0")
        with pytest.raises(TypeError, match="takes no limit; set SGB_MAX_N"):
            coset_engine(code, 1 << 24)

    def test_scan_basis_peak_is_the_scans(self, codes):
        # the basis is read off two boolean arrays made after the scan's own are freed
        peaks = []
        for oracle in (scan_coset_leaders, scan_basis):
            tracemalloc.start()
            try:
                oracle(codes["2_4"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (64 << 10)

    def test_ladder_rungs(self, ladder_rungs):
        pinned = {  # sha256 of the basis file text, recorded with the former scan engine
            18: ("2ef8e5a648e6a98c7844400c8f00f811eff89df716e402023a1f8c76c122ccdb", 2277),
            20: ("7df7a87156e5bcd8ce252679912528f260aa2f05a575c8af388510e9289dbce5", 5351),
        }
        for n, code in ladder_rungs.items():
            gb = coset_engine(code)
            scan = scan_basis(code)
            assert gb == scan
            fields = tuple(field_relation(i) for i in range(1, n + 1))
            assert gb.elements == scan.elements == tuple(
                sorted(scan.code_binomials + fields, key=element_sort_key))
            assert hashlib.sha256(format_basis(gb).encode()).hexdigest() == pinned[n][0]
            assert len(gb.code_binomials) == pinned[n][1]

    def test_fixture_basis_files(self, bases):
        pinned = {  # sha256 of the basis file text, recorded with the per-term f-string writer
            "1_4": "2b83fbeb8f558c1d7f84db7525912cfb9cc2bf702afc65b66182881810cd5d43",
            "1_5": "9d211e926df0b6dde6df14a23f4f8ee048cb048353fdeccddaa3abfe21163af2",
            "2_3": "47b8e15e929e00f009a23d0a83efbbba0ca6095bf9e81ae806f9ac3054c6e3ab",
            "2_4": "eb86ae0f7ddeb197ad85a42bc38ede00c628eb690e5c0b61635c22f6864220e7",
        }
        for tag, digest in pinned.items():
            assert hashlib.sha256(format_basis(bases[tag]).encode()).hexdigest() == digest

    def test_small_slices_change_nothing(self, monkeypatch, codes, ladder_rungs):
        monkeypatch.setattr(linalg, "_SLICE_WORDS", 64)  # many slices per layer
        for code in list(codes.values()) + random_codes()[:5] + [ladder_rungs[18]]:
            assert coset_engine(code) == scan_basis(code)

    @pytest.mark.parametrize("rows", [
        [[1, 1, 0, 1, 0], [0, 1, 0, 1, 1]],  # zero column: x1 + x5 is a codeword
        [[1, 1, 0], [0, 1, 1]],  # repeated parity-check column
        [[1, 0, 0, 0], [0, 1, 1, 1]],  # zero parity-check column
        np.eye(4, dtype=int).tolist(),  # k = n
    ])
    def test_degenerate_codes_name_x1(self, rows):
        # x1 is a lead, so x1^2 - 1 leaves the basis
        gb = three_engine_basis(LinearCode.from_generator(np.array(rows), 2))
        assert 1 in gb.leads.tolist() and capability(gb) == 0
        assert field_relation(1) not in gb.elements

    def test_repeated_generator_column(self):
        code = LinearCode.from_generator(np.array([[1, 1, 1, 0, 0], [0, 1, 1, 1, 1]]), 2)
        gb = coset_engine(code)
        assert len(gb.elements) == 13 and gb == buchberger(ideal_generators(code))


def walk_pairs(code):
    """The coset walk's (lead, trail) masks, ascending by lead."""
    _, leads, trails = linalg._coset_walk(code, with_leads=True)
    at = np.argsort(leads)
    return leads[at], trails[at]


def half_subset_pairs(code):
    """The half-subset construction's (lead, trail) masks, ascending by lead."""
    leads, trails = groebner._half_subsets(code.codeword_masks()[1:])
    at = np.argsort(leads)
    return leads[at], trails[at]


@functools.cache
def unrestricted_random_codes():
    """320 seeded random binary codes with n <= 14 and 0 <= k <= min(n, 10): k
    rows [I | A] of any density, columns shuffled, some columns zeroed and
    the rows then reduced to a basis of their span.  High rate, d <= 2,
    zero columns and k = 0 are all among them."""
    rng = np.random.default_rng(25)
    codes = []
    while len(codes) < 320:
        n = int(rng.integers(1, 15))
        k = int(rng.integers(0, min(n, 10) + 1))  # 2^k codewords, each tested against all
        parity = rng.random((k, n - k)) < rng.uniform(0.05, 0.95)
        rows = np.hstack([np.eye(k, dtype=int), parity])[:, rng.permutation(n)]
        rows[:, rng.random(n) < 0.1] = 0
        R, _, k = linalg.rref(rows, 2)
        codes.append(LinearCode.from_generator(R[:k], 2))
    return tuple(codes)


# the full sha256 of format_basis for [31,5,16], recorded with the coset walk
PINNED_31_5_16 = "2101a1a51c728dd7898671d26e455e70638c8eb5aadb3a0d24f096082ae38766"


class TestHalfSubsets:
    """The half-subset construction against the coset walk, and the route choice."""

    def test_equals_the_walk(self, codes, small_random_codes):
        named = list(codes.values()) + [ladder_code(n) for n in (18, 20, 22, 24)]
        for code in named + small_random_codes + random_codes():
            assert all(map(np.array_equal, half_subset_pairs(code), walk_pairs(code)))

    def test_equals_the_walk_on_unrestricted_random_codes(self):
        codes = unrestricted_random_codes()
        high_rate = [c for c in codes if 2 * c.k > c.n]
        assert min(c.k for c in codes) == 0 and len(high_rate) > 100
        assert any(code.k == code.n - 1 >= 9 for code in high_rate)
        assert sum(min_distance_bruteforce(c) <= 2 for c in codes if c.k) > 100
        for code in codes:
            assert all(map(np.array_equal, half_subset_pairs(code), walk_pairs(code))), (
                code.generator.tolist())

    def test_small_slices_change_nothing(self, codes, monkeypatch):
        want = [half_subset_pairs(code) for code in (codes["2_4"], ladder_code(20))]
        monkeypatch.setattr(groebner, "_SLICE_WORDS", 64)  # several slices per codeword
        got = [half_subset_pairs(code) for code in (codes["2_4"], ladder_code(20))]
        for a, b in zip(got, want):
            assert all(map(np.array_equal, a, b))

    @pytest.mark.parametrize("name, route", [
        ("hamming_15_11", "walk"), ("code_14_13", "walk"), ("ladder_24", "half"),
        ("code_31_5_16", "half"), ("ladder_18", "half"), ("c_1_4", "half"),
    ])
    def test_route_choice(self, monkeypatch, name, route):
        hamming = np.array([[(c >> i) & 1 for c in range(1, 16)] for i in range(4)])
        code = {
            "hamming_15_11": lambda: LinearCode.from_generator(linalg.parity_check_of(hamming), 2),
            "code_14_13": lambda: LinearCode.from_generator(
                np.hstack([np.eye(13, dtype=int), np.ones((13, 1), dtype=int)]), 2),
            "ladder_24": lambda: ladder_code(24),
            "ladder_18": lambda: ladder_code(18),
            "c_1_4": lambda: load_code("1_4"),
            "code_31_5_16": lambda: LinearCode.from_generator(
                generator_matrix(SchubertSpec(2, 6, 2, (1, 6))), 2),
        }[name]()
        assert (groebner._half_subset_codewords(code) is None) == (route == "walk")
        if code.n - code.k <= 24:  # within the default guard, coset_engine takes that route only
            monkeypatch.setattr(groebner, "_half_subsets" if route == "walk" else "_coset_walk",
                                pytest.fail)
            assert coset_engine(code) == groebner._validated_masks(code.n, *walk_pairs(code))

    @pytest.mark.parametrize("n, digest, size", [
        (26, "07c4820d6a22f799a7d4de1b5a5b382fc1d94b4e3a44d9fed3f82ec81ab8a8e0", 61_165),
        (28, "a0dfaa34c072592247ce7fedd9bc8c7631d407f06f522b1f06c3f2a5fa0d0774", 120_451),
    ])
    def test_long_ladder_rungs_are_pinned(self, n, digest, size):
        # sha256 of the basis file text, recorded with the coset walk (2.3 s at n = 28)
        gb = coset_engine(ladder_code(n))
        assert gb.leads.size == size
        assert hashlib.sha256(format_basis(gb).encode()).hexdigest() == digest

    def test_31_5_16_basis_file_is_pinned(self, monkeypatch):
        code = LinearCode.from_generator(generator_matrix(SchubertSpec(2, 6, 2, (1, 6))), 2)
        monkeypatch.setenv(ENUM_ENV_VAR, "26")  # the guard counts its 2^26 cosets
        monkeypatch.setattr(groebner, "_coset_walk", pytest.fail)  # the walk takes 27 s, 2.5 GiB
        gb = coset_engine(code)
        assert (gb.leads.size, capability(gb)) == (199_330, 7)
        assert hashlib.sha256(format_basis(gb).encode()).hexdigest() == PINNED_31_5_16


# reduced degrevlex bases from sympy 1.14, groebner(..., order="grevlex",
# modulus=2) on the rows' X^w - 1 and every x_i^2 - 1, listed as the writer
# lists them; each code has distance 1 or 2, so t = 0
SYMPY_BASES = {
    "[3,2,2]": ([[1, 1, 0], [0, 1, 1]], ["x2 - x3", "x1 - x3", "x3^2 - 1"]),
    "[1,1,1]": ([[1]], ["x1 - 1"]),
    "[4,4,1]": (np.eye(4, dtype=int).tolist(), ["x4 - 1", "x3 - 1", "x2 - 1", "x1 - 1"]),
}


@functools.cache
def small_random_codes_up_to_ten():
    """200 seeded random binary codes with 1 <= k <= n <= 10, full-rank rows only."""
    rng = np.random.default_rng(17)
    codes = []
    while len(codes) < 200:
        n = int(rng.integers(1, 11))
        rows = rng.integers(0, 2, (int(rng.integers(1, n + 1)), n))
        if linalg.rank(rows, 2) == rows.shape[0]:
            codes.append(LinearCode.from_generator(rows, 2))
    return tuple(codes)


def three_engine_basis(code):
    """The coset engine's basis, after checking it against Buchberger, the
    2^n scan and the basis file round trip."""
    gb = coset_engine(code)
    assert gb == buchberger(ideal_generators(code)) == scan_basis(code)
    assert parse_basis(format_basis(gb)) == gb
    return gb


class TestDegenerateCodes:
    """Codes of distance 1 or 2 have degree-1 leads and keep only the field
    relations of the other variables; every route agrees on them."""

    @pytest.mark.parametrize("l, m, alpha, literal", [
        (2, 5, (1, 2), "[1,1,1]"),
        (2, 5, (1, 3), "[3,2,2]"),
        (3, 6, (1, 2, 3), "[1,1,1]"),
        (3, 6, (1, 2, 4), "[3,2,2]"),
    ])
    def test_schubert_codes(self, l, m, alpha, literal):
        code = LinearCode.from_generator(generator_matrix(SchubertSpec(l, m, 2, alpha)), 2)
        gb = three_engine_basis(code)
        assert format_basis(gb).splitlines()[1:] == SYMPY_BASES[literal][1]
        assert capability(gb) == 0

    @pytest.mark.parametrize("rows", [
        [[1, 1, 1, 0, 0], [0, 1, 1, 1, 1]],  # repeated column
        np.zeros((0, 5), dtype=int),  # k = 0
    ])
    def test_degenerate_rows(self, rows):
        # the other rows of the coset walk's degenerate cases are in
        # TestCosetWalkEngine.test_degenerate_codes_name_x1
        three_engine_basis(LinearCode.from_generator(np.array(rows), 2))

    def test_random_codes_up_to_ten(self):
        distances = []
        zero_columns = 0
        for code in small_random_codes_up_to_ten():
            gb = three_engine_basis(code)
            singles = gb.leads[np.bitwise_count(gb.leads) == 1]
            fields = [b.lead for b in gb.elements if b.kind == "field"]
            assert sorted(fields + singles.tolist()) == [1 << i for i in range(code.n)]
            distances.append(min(int(np.bitwise_count(code.codeword_masks()[1:]).min()), 3))
            zero_columns += not code.generator.any(axis=0).all()
        # the draw reaches distance 1, 2 and at least 3, and codes with a zero column
        assert min(map(distances.count, (1, 2, 3))) > 10 and zero_columns > 10

    def test_random_codes_at_eleven_and_twelve(self):
        # five seeded codes each at n = 11 and 12, the largest rewrite tables
        # Buchberger builds, full-rank rows only
        rng = np.random.default_rng(12)
        codes = []
        for n in (11, 12):
            while sum(code.n == n for code in codes) < 5:
                rows = rng.integers(0, 2, (int(rng.integers(1, n + 1)), n))
                if linalg.rank(rows, 2) == rows.shape[0]:
                    codes.append(LinearCode.from_generator(rows, 2))
        distances, zero_columns = [], 0
        for code in codes:
            three_engine_basis(code)
            distances.append(int(np.bitwise_count(code.codeword_masks()[1:]).min()))
            zero_columns += not code.generator.any(axis=0).all()
        # the draw holds a zero column, distance <= 2 and distance >= 3
        assert zero_columns and min(distances) <= 2 < max(distances)

    @pytest.mark.parametrize("name", list(SYMPY_BASES))
    def test_sympy_bases(self, name):
        rows, lines = SYMPY_BASES[name]
        gb = coset_engine(LinearCode.from_generator(np.array(rows), 2))
        text = f"# n={len(rows[0])} order=degrevlex field=GF(2)\n" + "".join(f"{ln}\n" for ln in lines)
        assert format_basis(gb) == text and parse_basis(text) == gb
        assert capability(gb) == 0

    @pytest.mark.parametrize("body, message", [
        ("x2 - x3\nx1 - x3\nx3^2 - 1\nx1^2 - 1\n",
         "basis must contain exactly the 1 field relations"),
        ("x1 - x3\nx1*x2 - x3\nx2^2 - 1\nx3^2 - 1\n",
         "lead 0x1 divides another lead: basis not reduced"),
    ], ids=["field_relation_beside_its_lead", "lead_x1_divides_x1x2"])
    def test_listings_refused(self, body, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_basis("# n=3 order=degrevlex field=GF(2)\n" + body)


class TestNormalForm:
    def test_reference_rewrites(self, bases):
        gb = bases["1_4"]
        assert normal_form(mask_from_support([1, 2]), gb) == mask_from_support([4, 7])
        assert normal_form(0, gb) == 0
        assert normal_form(mask_from_support([1, 5, 6, 7]), gb) == 0

    def test_exhaustive_oracle_1_4(self, codes, bases):
        want = coset_minimum(np.arange(1 << 7, dtype=np.uint64), codes["1_4"].codeword_masks())
        assert [normal_form(m, bases["1_4"]) for m in range(1 << 7)] == want.tolist()

    def test_sampled_oracle_2_4(self, codes, bases):
        rng = random.Random(99)
        words = [rng.randrange(1 << 19) for _ in range(500)]
        want = coset_minimum(np.array(words, dtype=np.uint64), codes["2_4"].codeword_masks())
        assert [normal_form(m, bases["2_4"]) for m in words] == want.tolist()

    def test_confluence_under_random_selection(self, bases):
        gb = bases["1_4"]
        for seed in range(10):
            rng = random.Random(seed)
            selector = lambda hits: rng.randrange(len(hits))
            for m in range(1 << 7):
                assert normal_form(m, gb, selector=selector) == normal_form(m, gb)

    def test_idempotent(self, bases):
        gb = bases["2_3"]
        for m in range(1 << 7):
            nf = normal_form(m, gb)
            assert normal_form(nf, gb) == nf


def scan_reduce(m, leads, trails, selector=None):
    """Division by the first dividing lead, or the one ``selector`` picks
    from the indices of all of them, scanning every lead (``leads & ~m``):
    on a reduced basis it ends where the descent does."""
    while leads.size:
        outside = leads & ~np.uint64(m)  # zero exactly where the lead divides m
        if selector is None:
            pick = int(outside.argmin())
            if outside[pick]:
                return m
        else:
            hits = np.flatnonzero(outside == 0)
            if not hits.size:
                return m
            pick = hits[selector(hits)]
        m ^= leads.item(pick) ^ trails.item(pick)
    return m


def scan_rewrites(leads, trails):
    """R: the distinct nonzero lead ^ trail, ascending in degrevlex."""
    return sorted({a ^ b for a, b in zip(leads, trails)} - {0}, key=degrevlex_key)


def descent_scan(m, rewrites, selector=None):
    """The descent rule read directly off the order: each step applies the
    first r of ``rewrites`` with key(m ^ r) < key(m), or the one
    ``selector`` picks from the ascending indices of all of them."""
    while True:
        hits = [i for i, r in enumerate(rewrites) if degrevlex_key(m ^ r) < degrevlex_key(m)]
        if not hits:
            return m
        m ^= rewrites[hits[0] if selector is None else hits[selector(np.array(hits))]]


def indexes(gb):
    """Both rewrite indexes of a basis, whichever its own route is."""
    return [kind(gb.n, gb.leads, gb.trails) for kind in (groebner._DivisorIndex, groebner._TestSet)]


class TestDivisorIndex:
    """The two rewrite indexes, division by the leads and descent by the
    test set, against the scans and the oracles."""

    def test_equals_scan_and_coset_minimum(self, codes, small_random_codes):
        targets = [codes["1_4"], codes["2_3"]] + small_random_codes + random_codes()
        for code in targets:
            gb = coset_engine(code)
            leads, trails = gb.leads, gb.trails
            want = coset_minimum(np.arange(1 << code.n, dtype=np.uint64), code.codeword_masks())
            for m, least in enumerate(want.tolist()):
                assert normal_form(m, gb) == scan_reduce(m, leads, trails) == least

    @pytest.mark.parametrize("first_hit", [True, False])
    def test_selector_sees_the_scan_hits(self, bases, small_random_codes, first_hit):
        # a first-hit selector also counts the steps the benchmark reports;
        # normal_form hands it to the basis's own index
        gbs = [bases["1_4"], bases["2_4"]] + [coset_engine(c) for c in small_random_codes[:3]]
        for gb in gbs:
            rewrites = scan_rewrites(gb.leads.tolist(), gb.trails.tolist())
            scans = {
                groebner._DivisorIndex: functools.partial(scan_reduce, leads=gb.leads, trails=gb.trails),
                groebner._TestSet: functools.partial(descent_scan, rewrites=rewrites),
            }
            rng = random.Random(gb.n)
            for m in rng.sample(range(1 << gb.n), min(200, 1 << gb.n)):
                for index in indexes(gb) + [None]:
                    seen = {"index": [], "scan": []}

                    def pick(route, seed=m):
                        choice = random.Random(seed)

                        def selector(hits):
                            seen[route].append(hits.tolist())
                            return 0 if first_hit else choice.randrange(len(hits))
                        return selector
                    if index is None:
                        got = normal_form(m, gb, selector=pick("index"))
                        scan = scans[type(gb._index)]
                    else:
                        got = groebner._reduce(m, index, selector=pick("index"))
                        scan = scans[type(index)]
                    assert got == scan(m, selector=pick("scan")) == normal_form(m, gb)
                    assert seen["index"] == seen["scan"]

    def test_first_divisor_in_list_order_on_raw_generators(self, codes):
        # X^w - 1 per generator row is no Groebner basis: the result depends
        # on which dividing lead each step takes
        for code in codes.values():
            rows = code.row_masks() + [r ^ s for r, s in itertools.combinations(code.row_masks(), 2)]
            index = groebner._DivisorIndex(code.n, rows, [0] * len(rows))
            leads = np.array(rows, dtype=np.uint64)
            rng = random.Random(code.n)
            for m in rng.sample(range(1 << code.n), min(500, 1 << code.n)):
                assert groebner._reduce(m, index) == scan_reduce(m, leads, np.zeros_like(leads))

    def test_first_beating_rewrite_on_raw_generators(self, codes):
        # the same lists: the result depends on which beating rewrite each
        # step takes
        for code in codes.values():
            rows = code.row_masks() + [r ^ s for r, s in itertools.combinations(code.row_masks(), 2)]
            index = groebner._TestSet(code.n, rows, [0] * len(rows))
            rewrites = scan_rewrites(rows, [0] * len(rows))
            assert index.rewrites == rewrites
            rng = random.Random(code.n)
            for m in rng.sample(range(1 << code.n), min(500, 1 << code.n)):
                assert groebner._reduce(m, index) == descent_scan(m, rewrites)

    def test_no_code_binomials(self):
        gb = buchberger([field_relation(i) for i in range(1, 6)])  # the k = 0 code
        assert type(gb._index) is groebner._DivisorIndex  # no limbs either way: a tie
        assert all(normal_form(m, gb) == m for m in range(1 << 5))
        words = np.arange(1 << 5, dtype=np.uint64)
        for index in indexes(gb):
            assert index.rewrites == []
            assert np.array_equal(groebner._reduce_many(words, index), words)

    def test_slices_cover_n_not_a_multiple_of_four(self, bases, small_random_codes):
        # the divisor index is byte-sliced too: n = 7 and 19 leave a short
        # last slice
        for gb in [bases["1_4"], bases["2_4"]] + [coset_engine(c) for c in small_random_codes]:
            index = groebner._DivisorIndex(gb.n, gb.leads, gb.trails)
            slices, bits = -(-gb.n // 8), 64 * -(-len(gb.leads) // 64)
            assert index.rewrites == (gb.leads ^ gb.trails).tolist()
            assert index.table.shape == (slices, 256, bits // 8)
            first, rest, _, _ = index.rows
            assert [shift for shift, _ in rest] == list(range(8, gb.n, 8))
            assert all(len(table) == 256 for table in [first] + [t for _, t in rest])
            for s in range(slices):
                # bit i of row b is set exactly when lead i's byte s lies inside b
                row_bits = np.unpackbits(index.table[s], axis=1, bitorder="little")
                lead_bytes = [(lead >> 8 * s) & 255 for lead in gb.leads.tolist()]
                want = [[lb & ~b == 0 for lb in lead_bytes] for b in range(256)]
                assert row_bits[:, :len(lead_bytes)].tolist() == want
                assert not row_bits[:, len(lead_bytes):].any()

    def test_byte_slices_cover_n_not_a_multiple_of_eight(self, bases, small_random_codes):
        for gb in [bases["1_4"], bases["2_4"]] + [coset_engine(c) for c in small_random_codes]:
            index = groebner._TestSet(gb.n, gb.leads, gb.trails)
            rewrites = scan_rewrites(gb.leads.tolist(), gb.trails.tolist())
            slices, lanes = -(-gb.n // 8), 8 * -(-len(rewrites) // 8)
            assert index.rewrites == rewrites
            assert index.table.shape == (slices, 256, lanes)
            first, rest, _, _ = index.rows
            assert [shift for shift, _ in rest] == list(range(8, gb.n, 8))
            assert all(len(table) == 256 for table in [first] + [t for _, t in rest])
            rng = random.Random(gb.n)
            for m in rng.sample(range(1 << gb.n), min(200, 1 << gb.n)):
                # the lanes of m's rows reach 128 exactly at the rewrites that beat m
                total = sum(index.table[s, (m >> 8 * s) & 255].astype(int) for s in range(slices))
                beats = [degrevlex_key(m ^ r) < degrevlex_key(m) for r in rewrites]
                assert (total >= 128).tolist() == beats + [False] * (lanes - len(rewrites))

    @pytest.mark.parametrize("name, route", [
        ("1_4", "divide"), ("2_3", "divide"), ("1_5", "descend"), ("2_4", "descend"),
        ("hamming_15_11", "divide"), ("ladder_24", "descend"), ("wide", "divide"),
        ("hamming_31_26", "divide"), ("hamming_63_57", "divide"),
    ])
    def test_route_follows_the_step_cost(self, codes, wide_code, name, route):
        # per step, division costs ceil(n/8) * ceil(N/64) limbs and the test
        # set (ceil(n/8) + 1) * ceil(R/8): 1 against 2 at c_1_4, 16 against
        # 6 at c_1_5, 99 against 16 at c_2_4, 248 against 738 at [63,57]
        code = codes.get(name) or {
            "hamming_15_11": lambda: hamming_code(4),
            "hamming_31_26": lambda: hamming_code(5),
            "hamming_63_57": lambda: hamming_code(6),
            "ladder_24": lambda: ladder_code(24),
            "wide": lambda: wide_code,
        }[name]()
        gb = coset_engine(code)
        kind = groebner._DivisorIndex if route == "divide" else groebner._TestSet
        assert type(gb._index) is kind
        n, rewrites = gb.n, len(scan_rewrites(gb.leads.tolist(), gb.trails.tolist()))
        descend = (-(-n // 8) + 1) * -(-rewrites // 8) < -(-n // 8) * -(-len(gb.leads) // 64)
        assert descend == (route == "descend")

    def test_division_builds_no_test_set(self, monkeypatch, codes):
        # R is counted before the test set is built, so a code that divides never builds one
        def refuse(*args):
            raise AssertionError("test set built where division wins")

        monkeypatch.setattr(groebner, "_TestSet", refuse)
        for code in (codes["1_4"], hamming_code(4)):
            gb = coset_engine(code)
            index = groebner._rewrite_index(gb.n, gb.leads, gb.trails)
            assert type(index) is groebner._DivisorIndex
            assert normal_form(int(gb.leads[0]), gb) == int(gb.trails[0])

    def test_hamming_63_57_with_a_seven_bit_last_slice(self):
        # n = 63: the last byte slice holds bits 56 to 62 only
        code = hamming_code(6)
        gb = coset_engine(code)
        leaders = build_coset_leader_table(code).leaders
        words = np.random.default_rng(63).integers(0, 1 << 63, 2000, dtype=np.uint64)
        want = [int(leaders[syndrome(m, code)]) for m in words.tolist()]
        assert groebner._reduce_many(words, gb._index).tolist() == want
        assert scalar_reduce(words, gb._index).tolist() == want

    def test_bit_63_of_a_64_bit_word(self, wide_code):
        gb = coset_engine(wide_code)
        leads, trails = gb.leads, gb.trails
        assert gb.n == 64 and int((leads | trails).max()) >> 63 == 1
        leaders = build_coset_leader_table(wide_code).leaders
        rng = random.Random(64)
        for _ in range(300):
            m = rng.getrandbits(64) | 1 << 63
            nf = normal_form(m, gb)
            assert nf == scan_reduce(m, leads, trails) == int(leaders[syndrome(m, wide_code)])

    def test_buchberger_equals_coset_engine_on_random_codes(self):
        for code in random_codes():
            assert buchberger(ideal_generators(code)) == coset_engine(code)

    def test_ladder_rung_18_equals_the_scan(self, ladder_rungs):
        code = ladder_rungs[18]
        gb = coset_engine(code)
        leads, trails = gb.leads, gb.trails
        leaders = build_coset_leader_table(code).leaders
        words = np.random.default_rng(18).integers(0, 1 << 18, 2000).tolist()
        for m in words:
            nf = normal_form(m, gb)
            assert nf == scan_reduce(m, leads, trails) == int(leaders[syndrome(m, code)])

    def test_31_5_16_equals_the_brute_force_minimum(self, monkeypatch):
        # 199,330 leads, 31 distinct rewrites: half the words uniform, half a
        # codeword with up to 9 flips, so some lie beyond t = 7
        code = LinearCode.from_generator(generator_matrix(SchubertSpec(2, 6, 2, (1, 6))), 2)
        monkeypatch.setenv(ENUM_ENV_VAR, "26")
        gb = coset_engine(code)
        codewords = code.codeword_masks()
        rng = np.random.default_rng(31)
        flips = np.zeros(10_000, dtype=np.uint64)
        for _ in range(9):
            flips ^= np.uint64(1) << rng.integers(0, 31, flips.size, dtype=np.uint64)
        words = np.concatenate([rng.integers(0, 1 << 31, 10_000, dtype=np.uint64),
                                rng.choice(codewords, flips.size) ^ flips])
        want = coset_minimum(words, codewords)
        assert type(gb._index) is groebner._TestSet
        assert np.array_equal(groebner._reduce_many(words, gb._index), want)
        assert [normal_form(m, gb) for m in words.tolist()] == want.tolist()


def scalar_reduce(words, index):
    return np.array([groebner._reduce(m, index) for m in words.tolist()], dtype=np.uint64)


def sample_words(n, count=2000, seed=0):
    """All 2^n words for short codes, else ``count`` seeded random ones."""
    if n <= 12:
        return np.arange(1 << n, dtype=np.uint64)
    return np.random.default_rng(seed).integers(0, 1 << n, count, dtype=np.uint64)


class TestBatchKernel:
    """``_reduce_many`` gives what ``_reduce`` gives, word by word."""

    def test_fixture_and_random_code_bases(self, bases, small_random_codes):
        gbs = list(bases.values()) + [coset_engine(c) for c in random_codes() + small_random_codes]
        for gb in gbs:
            words = sample_words(gb.n, seed=gb.n)
            for index in indexes(gb):
                assert np.array_equal(groebner._reduce_many(words, index), scalar_reduce(words, index))

    def test_ladder_rungs(self, ladder_bases):
        for n, gb in ladder_bases.items():
            words = sample_words(n, seed=n)
            for index in indexes(gb):
                assert np.array_equal(groebner._reduce_many(words, index), scalar_reduce(words, index))

    @pytest.mark.parametrize("alpha", [(1, 2), (1, 3)])  # the [1,1,1] and [3,2,2] codes
    def test_degenerate_schubert_codes(self, alpha):
        gb = coset_engine(LinearCode.from_generator(generator_matrix(SchubertSpec(2, 5, 2, alpha)), 2))
        words = np.arange(1 << gb.n, dtype=np.uint64)
        for index in indexes(gb):
            assert np.array_equal(groebner._reduce_many(words, index), scalar_reduce(words, index))

    def test_empty_and_single_word(self, bases):
        for index in indexes(bases["2_4"]):
            empty = groebner._reduce_many(np.zeros(0, dtype=np.uint64), index)
            assert empty.dtype == np.uint64 and empty.shape == (0,)
            word = (1 << 19) - 1
            one = groebner._reduce_many(np.array([word], dtype=np.uint64), index)
            assert one.tolist() == [groebner._reduce(word, index)]

    def test_input_is_not_written(self, bases):
        words = np.arange(1 << 7, dtype=np.uint64)
        for index in indexes(bases["1_4"]):
            groebner._reduce_many(words, index)
            assert np.array_equal(words, np.arange(1 << 7, dtype=np.uint64))

    @staticmethod
    def non_groebner_lists(codes, rng):
        # oriented pairs in random order, leads dividing leads included
        lists = []
        for code in codes.values():
            rows = code.row_masks() + [r ^ s for r, s in itertools.combinations(code.row_masks(), 2)]
            lists.append((code.n, rows, [0] * len(rows)))
        for n in (7, 13, 19, 40, 64):
            leads, trails = [], []
            while len(leads) < 150:
                a, b = rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)
                if degrevlex_key(a) > degrevlex_key(b):
                    leads.append(a)
                    trails.append(b)
            lists.append((n, leads, trails))
        return lists

    def test_first_divisor_in_list_order_on_non_groebner_lists(self, codes):
        # the result depends on which dividing lead each step takes
        rng = random.Random(5)
        for n, leads, trails in self.non_groebner_lists(codes, rng):
            index = groebner._DivisorIndex(n, leads, trails)
            words = np.array([rng.getrandbits(n) for _ in range(400)], dtype=np.uint64)
            got = groebner._reduce_many(words, index)
            assert np.array_equal(got, scalar_reduce(words, index))
            lead_arr, trail_arr = np.array(leads, dtype=np.uint64), np.array(trails, dtype=np.uint64)
            assert got.tolist() == [scan_reduce(m, lead_arr, trail_arr) for m in words.tolist()]

    def test_first_beating_rewrite_on_non_groebner_lists(self, codes):
        # the same lists: the result depends on which beating rewrite each
        # step takes
        rng = random.Random(5)
        for n, leads, trails in self.non_groebner_lists(codes, rng):
            index = groebner._TestSet(n, leads, trails)
            words = np.array([rng.getrandbits(n) for _ in range(400)], dtype=np.uint64)
            got = groebner._reduce_many(words, index)
            assert np.array_equal(got, scalar_reduce(words, index))
            rewrites = scan_rewrites(leads, trails)
            assert got.tolist() == [descent_scan(m, rewrites) for m in words.tolist()]

    @pytest.mark.parametrize("limbs", [1, 2, 7, 65])
    def test_tiny_blocks(self, monkeypatch, bases, limbs):
        monkeypatch.setattr(groebner, "_BATCH_LIMBS", limbs)  # 1 to 65 words per block
        for gb in (bases["1_4"], bases["1_5"]):
            words = sample_words(gb.n, count=300, seed=limbs)[:300]
            for index in indexes(gb):
                assert np.array_equal(groebner._reduce_many(words, index), scalar_reduce(words, index))

    def test_memory_does_not_grow_with_the_array(self, ladder_bases):
        # 2^20 words at n = 24, where one bitset is 454 limbs and R has 31
        # rewrites in 4 lane limbs.  The first 2^14 are random and the rest
        # 0, which no lead divides and no rewrite beats: in one block the
        # random words alone would take some 60 MB per bitset array, and
        # the live-word index alone 8 MB
        words = np.zeros(1 << 20, dtype=np.uint64)
        words[:1 << 14] = np.random.default_rng(24).integers(0, 1 << 24, 1 << 14, dtype=np.uint64)
        for index in indexes(ladder_bases[24]):
            tracemalloc.start()
            try:
                out = groebner._reduce_many(words, index)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes + (8 << 20)
            sample = slice(0, 1 << 20, 997)
            assert np.array_equal(out[sample], scalar_reduce(words[sample], index))


class TestCapability:
    def test_reference_capabilities(self, bases):
        assert capability(bases["1_4"]) == 1
        assert capability(bases["1_5"]) == 3
        assert capability(bases["2_4"]) == 3

    def test_undefined_without_code_binomials(self):
        gb = buchberger([field_relation(i) for i in range(1, 4)])
        with pytest.raises(ValueError, match="capability undefined"):
            capability(gb)

    def test_floor_rule_on_random_codes(self, small_random_codes):
        from schubert_gb import min_distance_bruteforce

        for code in small_random_codes:
            gb = coset_engine(code)
            assert capability(gb) == (min_distance_bruteforce(code) - 1) // 2


class TestArrayBasis:
    """The basis holds uint64 lead and trail arrays; Binomials are built on request."""

    def test_arrays_are_read_only(self, bases):
        gb = bases["2_4"]
        for masks in (gb.leads, gb.trails):
            assert masks.dtype == np.uint64
            with pytest.raises(ValueError, match="read-only"):
                masks[0] = 1

    def test_pipeline_builds_no_binomials(self, codes):
        code = codes["2_4"]
        est = GroebnerDecoder().fit(code)
        built = est.basis_
        parsed = parse_basis(format_basis(built))
        gb_decode(0b111, parsed)
        simulate(code, parsed, FixedWeight(2), trials=50, seed=1)
        est.predict(np.eye(3, code.n, dtype=np.int64))
        assert capability(parsed) == capability(built) == 3
        for gb in (built, parsed):
            assert "elements" not in vars(gb) and "code_binomials" not in vars(gb)

    def test_element_constructor_round_trip(self, bases):
        for gb in bases.values():
            again = groebner.ReducedGroebnerBasis(gb.n, gb.elements)
            assert again == gb and again.elements == gb.elements
            assert groebner.ReducedGroebnerBasis(gb.n, gb.code_binomials) == gb

    def test_equality_is_by_n_and_arrays(self, bases):
        gb = bases["1_4"]
        assert gb != groebner.ReducedGroebnerBasis(gb.n + 1, gb.elements)
        assert gb != groebner.ReducedGroebnerBasis(gb.n, gb.code_binomials[1:])
        assert gb != bases["2_3"] and gb != gb.elements
        with pytest.raises(TypeError):
            hash(gb)


class TestIsGroebner:
    def test_reference_listing_is_groebner(self):
        assert is_groebner(load_basis("1_4").elements, n=7)

    def test_raw_generators_are_not(self, codes):
        assert not is_groebner(ideal_generators(codes["1_4"]), n=7)

    def test_field_relations_alone(self):
        assert is_groebner([field_relation(i) for i in range(1, 6)], n=5)

    def test_exponent_route_without_field_relations(self):
        # no field relations at all: the exponent-tuple fallback must run
        # and deliver definite verdicts
        single = [Binomial(0b011, 0, "code")]  # one element is always a basis
        assert is_groebner(single, n=3)
        pair = [Binomial(0b011, 0, "code"), Binomial(0b110, 0, "code")]
        # S(x1x2-1, x2x3-1) leaves x1 - x3, reducible by neither lead
        assert not is_groebner(pair, n=3)

    def test_broken_basis_detected(self, bases):
        elements = [
            b for b in bases["1_4"].elements if b.kind == "field"
        ] + list(bases["1_4"].code_binomials[:5])
        assert not is_groebner(elements, n=7)

    @pytest.mark.parametrize("tag", ["1_4", "2_3", "1_5"])
    def test_any_one_code_binomial_dropped_is_not_groebner(self, bases, tag):
        # the dropped lead's rewrite is still held by the leads it shares it
        # with, so only division by the leads themselves sees the gap
        gb = bases[tag]
        elements = gb.elements
        for dropped in gb.code_binomials:
            assert not is_groebner([b for b in elements if b != dropped], n=gb.n)


class TestValidation:
    def test_rejects_missing_field_relation(self):
        with pytest.raises(ValueError, match="field relations"):
            validated(3, [field_relation(1), field_relation(2)])

    def test_rejects_dividing_leads(self):
        elements = [field_relation(i) for i in range(1, 5)]
        elements += [
            Binomial(mask_from_support([1, 2]), 0, "code"),
            Binomial(mask_from_support([1, 2, 3]), mask_from_support([4]), "code"),
        ]
        with pytest.raises(ValueError, match="not reduced"):
            validated(4, elements)

    def test_rejects_misoriented_element(self):
        elements = [field_relation(i) for i in range(1, 5)]
        elements += [Binomial(mask_from_support([3, 4]), mask_from_support([1, 2]), "code")]
        with pytest.raises(ValueError, match="oriented"):
            validated(4, elements)

    def test_rejects_lead_dividing_trail(self):
        elements = [field_relation(i) for i in range(1, 6)]
        elements += [
            Binomial(mask_from_support([1, 2]), 0, "code"),
            Binomial(mask_from_support([3, 4, 5]), mask_from_support([1, 2]), "code"),
        ]
        with pytest.raises(ValueError, match="lead 0x3 divides a trail: basis not reduced"):
            validated(5, elements)

    def test_rejects_duplicate_lead(self):
        elements = [field_relation(i) for i in range(1, 4)]
        elements += [
            Binomial(mask_from_support([1, 2]), 0, "code"),
            Binomial(mask_from_support([1, 2]), mask_from_support([3]), "code"),
        ]
        with pytest.raises(ValueError, match="lead 0x3 divides another lead: basis not reduced"):
            validated(3, elements)

    def test_per_element_checks_name_first_offender(self):
        elements = [field_relation(i) for i in range(1, 5)]
        elements += [
            Binomial(mask_from_support([1, 2, 3]), mask_from_support([4]), "code"),
            Binomial(mask_from_support([3, 4]), mask_from_support([1, 2]), "code"),
            Binomial(mask_from_support([4]), 0, "code"),
        ]
        # ascending order puts x4 first, then x3*x4, then x1*x2*x3; the lead
        # x4 takes x4^2 - 1 out and passes the per-element checks, but
        # divides the lead x3*x4
        with pytest.raises(ValueError, match="^basis must contain exactly the 3 field relations$"):
            validated(4, elements)
        with pytest.raises(ValueError, match="^lead 0x8 divides another lead: basis not reduced$"):
            validated(4, elements[:3] + elements[4:])
        with pytest.raises(ValueError, match="oriented.*lead=12, trail=3"):
            validated(4, elements[:-1])
        valid = elements[:5]  # the field relations and x1*x2*x3 - x4
        with pytest.raises(ValueError, match="out of range for length 4"):
            validated(4, valid + [Binomial(1 << 10 | 1, 0, "code")])

    def test_wide_leads_hit_the_guard(self, monkeypatch):
        n, elements = parse_element_lines(wide_lead_basis_text())
        monkeypatch.setenv(ENUM_ENV_VAR, "20")
        with pytest.raises(EnumerationLimitError, match="basis reducedness check"):
            validated(n, elements)

    def test_wide_leads_refused_before_the_walk(self, monkeypatch):
        n, elements = parse_element_lines(wide_lead_basis_text())
        walked = []
        monkeypatch.setattr(groebner, "_next_layer", lambda *args: walked.append(args))
        # a degree-40 lead has 2^40 - 2 proper divisors other than 1
        monkeypatch.setenv(ENUM_ENV_VAR, "24")
        with pytest.raises(EnumerationLimitError,
                           match=f"basis reducedness check needs {2**40 - 2} > {2**24} "):
            validated(n, elements)
        assert not walked

    def test_guard_yields_to_a_known_fault(self, monkeypatch):
        n, elements = parse_element_lines(wide_lead_basis_text())
        misoriented = Binomial(mask_from_support([3, 4]), mask_from_support([1, 2]), "code")
        monkeypatch.setenv(ENUM_ENV_VAR, "20")
        with pytest.raises(ValueError, match="not oriented"):
            validated(n, elements + [misoriented])

    def test_genuine_bases_pass_at_the_coset_table_limit(
        self, monkeypatch, codes, small_random_codes
    ):
        for code in list(codes.values()) + small_random_codes + random_codes():
            gb = coset_engine(code)
            # the coset table's own guard count, 2^(n-k)
            monkeypatch.setenv(ENUM_ENV_VAR, str(code.n - code.k))
            assert coset_engine(code) == gb
            assert validated(gb.n, gb.elements) == gb
            monkeypatch.delenv(ENUM_ENV_VAR)

    def test_ladder_bases_pass_at_the_coset_table_limit(self, monkeypatch, ladder_rungs):
        for code in ladder_rungs.values():
            monkeypatch.setenv(ENUM_ENV_VAR, str(code.n - code.k))
            gb = coset_engine(code)
            assert validated(gb.n, gb.elements) == gb

    @pytest.mark.parametrize("exponent", [None, 9])
    def test_layer_expansion_in_small_slices(self, monkeypatch, exponent):
        # 8-word slices and, under a guard of 2^9, a buffer that fills and is
        # compacted several times: the layer is still every distinct divisor
        monkeypatch.setattr(groebner, "_SLICE_WORDS", 8)
        if exponent is not None:
            monkeypatch.setenv(ENUM_ENV_VAR, str(exponent))
        fives = [sum(1 << i for i in c) for c in itertools.combinations(range(12), 5)]
        parents = np.array(fives[::2], dtype=np.uint64)
        seeds = np.array([0b1111, 0b1111, 0b11110000], dtype=np.uint64)
        layer = groebner._next_layer((parents, parents[:7]), 5, seeds, 0)
        want = sorted({int(p) ^ (1 << i) for p in parents for i in range(12) if int(p) >> i & 1}
                      | {0b1111, 0b11110000})
        assert layer.tolist() == want and len(want) <= 2**9
        # under 2^8, about half the 495 divisors, the buffer fills and the
        # guard refuses the count of a compaction
        compactions = []
        compact = groebner._compact
        monkeypatch.setattr(groebner, "_compact", lambda *a: compactions.append(1) or compact(*a))
        monkeypatch.setenv(ENUM_ENV_VAR, "8")
        with pytest.raises(EnumerationLimitError, match="basis reducedness check needs 276 > 256 "):
            groebner._next_layer((parents,), 5, seeds, 0)
        assert compactions

    def test_wide_leads_stay_within_memory(self, monkeypatch):
        # the check holds the distinct monomials the guard admits, a quarter
        # more of buffer and one slice: about 10 bytes per guarded word
        n, elements = parse_element_lines(wide_lead_basis_text())
        monkeypatch.setenv(ENUM_ENV_VAR, "21")
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="basis reducedness check"):
                validated(n, elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**21 + (8 << 20)

    def test_check_counts_against_limit(self, monkeypatch, codes):
        gb = coset_engine(codes["2_4"])
        monkeypatch.setenv(ENUM_ENV_VAR, "10")  # 2^10 of the check's 5,950 monomials
        with pytest.raises(EnumerationLimitError, match="basis reducedness check"):
            validated(gb.n, gb.elements)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_closure_agrees_with_pairwise_rule(self, data):
        gb = data.draw(st.sampled_from(_mutation_bases()))
        n, codes = gb.n, list(gb.code_binomials)
        mask = st.integers(0, (1 << n) - 1)
        small = st.one_of(st.just(0), mask)
        for _ in range(data.draw(st.integers(1, 2))):
            i = data.draw(st.integers(0, len(codes) - 1))
            j = data.draw(st.integers(0, len(codes) - 1))
            lead, kind = codes[i].lead, data.draw(st.sampled_from(MUTATIONS))
            if kind == "multiple":
                codes.append(Binomial(lead | data.draw(mask), data.draw(small), "code"))
            elif kind == "duplicate":
                codes.append(Binomial(lead, codes[j].trail, "code"))
            elif kind == "divisible_trail":
                codes[j] = Binomial(codes[j].lead, lead | data.draw(small), "code")
            elif kind == "single":
                codes.append(Binomial(1 << data.draw(st.integers(0, n - 1)), data.draw(small)))
            else:
                codes.append(Binomial(data.draw(mask), data.draw(mask), "code"))
        # every field relation, or those the rule keeps beside degree-1 leads
        keep_all, leads = data.draw(st.booleans()), {b.lead for b in codes}
        fields = [field_relation(v) for v in range(1, n + 1)
                  if keep_all or 1 << (v - 1) not in leads]
        expected = pairwise_verdict(n, codes, fields)
        try:
            validated(n, codes + fields)
        except ValueError as exc:
            assert expected is not None and expected in str(exc)
        else:
            assert expected is None

    def test_elements_sorted_ascending(self, bases):
        for gb in bases.values():
            keys = [degrevlex_key_exponents(exponent_pair(b, gb.n)[0]) for b in gb.elements]
            assert keys == sorted(keys)


MUTATIONS = ("multiple", "duplicate", "divisible_trail", "single", "random_pair")


@functools.cache
def _mutation_bases():
    """Real bases to mutate: the two 7-bit fixtures and the 25 random codes."""
    codes = [load_code("1_4"), load_code("2_3")] + random_codes()
    return tuple(coset_engine(code) for code in codes)


def pairwise_verdict(n, codes, fields):
    """Reference for the checks of a parsed basis: lead against lead.

    The field relations come first: x_v^2 - 1 belongs exactly when no code
    lead is x_v.  Then it walks the code binomials in ascending order and
    returns the message fragment of the first failing check (range,
    orientation, reducedness), or None.
    """
    singles = {b.lead for b in codes if weight(b.lead) == 1}
    if sorted(b.lead for b in fields) != [1 << v for v in range(n) if 1 << v not in singles]:
        return "field relations"
    codes = sorted(codes, key=element_sort_key)
    for b in codes:
        if not (0 <= b.lead < 1 << n and 0 <= b.trail < 1 << n):
            return "out of range"
        if degrevlex_key(b.lead) <= degrevlex_key(b.trail):
            return f"not oriented lead > trail: {b}"
        if sum(other.lead & b.lead == b.lead for other in codes) != 1:
            return f"lead {b.lead:#x} divides another lead"
        if any(other.trail & b.lead == b.lead for other in codes):
            return f"lead {b.lead:#x} divides a trail"
    return None


class TestMaskOrderKeys:
    """The mask keys order monomials exactly as the exponent-tuple key does."""

    N = 8

    @staticmethod
    def _assert_same_order(items, key, reference):
        by_key = sorted(items, key=key)
        assert by_key == sorted(items, key=reference)
        keys = [key(x) for x in by_key]
        assert len(set(keys)) == len(keys)

    @staticmethod
    def _lead_code(exps):
        """The two-bit lead code of an exponent vector with entries 0, 1, 2."""
        return _lead_code(sum(1 << v for v, e in enumerate(exps) if e == 1),
                          sum(1 << v for v, e in enumerate(exps) if e == 2))

    def test_lead_key_exhaustive(self):
        # every exponent vector in {0,1,2}^n; Buchberger's leads and lcms are among them
        for n in range(1, 6):
            items = list(itertools.product((0, 1, 2), repeat=n))
            key = lambda exps: _lead_key(self._lead_code(exps))
            self._assert_same_order(items, key, degrevlex_key_exponents)

    def test_lead_code_lcm_and_divisibility(self):
        exps = list(itertools.product((0, 1, 2), repeat=3))
        for a in exps:
            for b in exps:
                code_a, code_b = self._lead_code(a), self._lead_code(b)
                assert code_a | code_b == self._lead_code(tuple(map(max, a, b)))
                assert (code_a & ~code_b == 0) == all(x <= y for x, y in zip(a, b))

    def test_element_order_is_the_sort_key_order(self):
        n = self.N
        items = [Binomial(m, 0, "code") for m in range(1 << n)]
        items += [field_relation(i) for i in range(1, n + 1)]
        rng = random.Random(5)
        wide = [rng.getrandbits(64) for _ in range(300)] + [1 << 63, (1 << 63) | 1, 3 << 62]
        items += [Binomial(m, 0, "code") for m in wide] + [field_relation(i) for i in (63, 64)]
        items += items[::7]  # repeated elements keep their input order, as sorted() does
        rng.shuffle(items)
        leads = np.array([b.lead for b in items], dtype=np.uint64)
        is_field = np.array([b.kind == "field" for b in items])
        order = groebner._element_order(leads, is_field).tolist()
        assert order == sorted(range(len(items)), key=lambda i: element_sort_key(items[i]))

    def test_element_sort_key_exhaustive(self):
        n = self.N
        items = [Binomial(m, 0, "code") for m in range(1 << n) if weight(m) >= 2]
        items += [field_relation(i) for i in range(1, n + 1)]
        self._assert_same_order(
            items,
            element_sort_key,
            lambda b: degrevlex_key_exponents(exponent_pair(b, n)[0]),
        )


class TestThirdEngineCrossCheck:
    """Compare against an unrelated computer-algebra system when available."""

    @staticmethod
    def _sympy_basis_elements(code):
        sp = pytest.importorskip("sympy")
        xs = sp.symbols(f"x1:{code.n + 1}")
        gens = [
            sp.Poly(sp.prod(x for x, b in zip(xs, row) if b) - 1, *xs, domain=sp.GF(2))
            for row in code.generator
        ]
        gens += [sp.Poly(x**2 - 1, *xs, domain=sp.GF(2)) for x in xs]
        gb = sp.groebner(gens, *xs, order="grevlex", domain=sp.GF(2))
        elements = set()
        for poly in gb.polys:
            monoms = poly.monoms()
            assert len(monoms) <= 2  # binomial ideal stays binomial

            def to_part(exp):
                if any(e == 2 for e in exp):
                    (i,) = [i for i, e in enumerate(exp) if e]
                    return ("sq", i + 1)
                return ("m", sum(1 << i for i, e in enumerate(exp) if e))

            parts = [to_part(m) for m in monoms]
            if len(parts) == 1:
                parts.append(("m", 0))
            elements.add(frozenset(parts))
        return elements

    @staticmethod
    def _as_parts(gb):
        out = set()
        for b in gb.elements:
            if b.kind == "field":
                out.add(frozenset([("sq", b.lead.bit_length()), ("m", 0)]))
            else:
                out.add(frozenset([("m", b.lead), ("m", b.trail)]))
        return out

    def test_reference_codes(self, codes, bases):
        for tag in ("1_4", "2_3"):
            assert self._sympy_basis_elements(codes[tag]) == self._as_parts(bases[tag])

    def test_random_codes(self, small_random_codes):
        for code in small_random_codes[:3]:
            assert self._sympy_basis_elements(code) == self._as_parts(coset_engine(code))


class TestMaskExponentConsistency:
    def test_spoly_mask_shortcut_matches_reference(self, bases):
        """The engines' eagerly field-reduced S-polynomial equals the
        exponent-tuple S-polynomial followed by field-relation reduction."""
        gb = bases["2_3"]
        n = gb.n
        fields = [exponent_pair(field_relation(i), n) for i in range(1, n + 1)]
        codes_ = list(gb.code_binomials)
        rng = random.Random(3)
        for _ in range(60):
            f, g = rng.sample(codes_, 2)
            lcm = f.lead | g.lead
            mask_terms = {lcm ^ f.lead ^ f.trail, lcm ^ g.lead ^ g.trail}
            if len(mask_terms) == 1:
                mask_terms = set()
            s = spoly(exponent_pair(f, n), exponent_pair(g, n))
            ref_terms = set(reduce_poly(s, fields)) if s else set()
            got = {exponents_from_mask(m, n) for m in mask_terms}
            assert got == ref_terms
