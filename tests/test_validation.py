import functools
import time

import numpy as np
import pytest

from schubert_gb import (
    GroebnerDecoder,
    LinearCode,
    SchubertSpec,
    SyndromeTableDecoder,
    build_coset_leader_table,
    coset_engine,
    enumerate_schubert_points,
    gb_decode,
    min_distance_bruteforce,
    normal_form,
    syndrome,
    syndrome_decode,
)
from schubert_gb.linalg import rref
from schubert_gb.reference import scan_coset_leaders
from schubert_gb.validation import (
    ENUM_ENV_VAR,
    EnumerationLimitError,
    check_matrix,
    check_prime,
    check_word_mask,
    check_words_array,
    enum_limit,
    guard_enumeration,
)

from conftest import A_1_4, validated


class TestPrime:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_accepts_primes(self, p):
        assert check_prime(p) == p

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
    def test_rejects_composites(self, p):
        with pytest.raises(ValueError):
            check_prime(p)

    def test_agrees_with_trial_division_below_20000(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

        def accepted(p):
            try:
                return check_prime(p) == p
            except ValueError:
                return False

        assert [p for p in range(20000) if accepted(p)] == [p for p in range(20000) if trial(p)]

    def test_mersenne_61_is_fast(self):
        start = time.perf_counter()
        assert check_prime(2**61 - 1) == 2**61 - 1
        assert time.perf_counter() - start < 0.5

    def test_rejects_semiprime_of_31_bit_primes(self):
        a, b = 2**31 - 1, 2**31 - 19
        assert check_prime(a) == a and check_prime(b) == b
        with pytest.raises(ValueError, match="composite"):
            check_prime(a * b)

    def test_rejects_strong_pseudoprime(self):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5 and 7
        with pytest.raises(ValueError, match="composite"):
            check_prime(3215031751)

    @pytest.mark.parametrize("p", [2**63, 2**63 + 29, 2**89 - 1])
    def test_rejects_moduli_beyond_int64(self, p):
        with pytest.raises(ValueError, match="int64"):
            check_prime(p)


class TestMatrix:
    def test_normalizes_dtype(self):
        M = check_matrix([[1.0, 0.0], [0.0, 1.0]], 2)
        assert M.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="integers"):
            check_matrix([[0.5, 0.0]], 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            check_matrix([[0, 3]], 3)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            check_matrix([1, 0, 1], 2)

    @pytest.mark.parametrize("M", [
        [["1", "0"]], [[1 + 1j, 0]], [[1 + 0j, 0]], [[None, 1]], [[2**70, 1]],
        np.array([[2**63, 1]], dtype=np.uint64), [[np.inf, 0]], [[1e30, 0]],
    ], ids=["str", "complex", "complex-real", "none", "2**70", "uint64-2**63", "inf", "1e30"])
    @pytest.mark.parametrize("entry", [lambda M: check_matrix(M, 2), lambda M: rref(M, 2),
                                       lambda M: GroebnerDecoder().fit(M)],
                             ids=["check_matrix", "rref", "fit"])
    def test_refuses_hostile_entries(self, M, entry):
        with pytest.raises(ValueError, match=r"^matrix entries must be integers$"):
            entry(M)


class TestWordsArray:
    """The one check for words given as bits: entries are tested before any cast."""

    @pytest.mark.parametrize("X", [
        [0, 2, 1], [1, 1, -1], [0.5, 1, 0], [np.nan, 1, 0], [1 + 0j, 1, 0], ["1", "0", "1"],
        [None, 1, 0], [2**70, 1, 0],
    ], ids=["two", "minus-one", "half", "nan", "complex", "digit-strings", "none", "2**70"])
    def test_refuses_non_bits(self, X):
        with pytest.raises(ValueError, match=r"^words must be 0/1 arrays$"):
            check_words_array(X, 3)


class TestWordMask:
    """A word given as a mask must be an integer: nothing else is cast."""

    ENTRY_POINTS = {
        "check": lambda code, gb, table, w: check_word_mask(w, code.n),
        "gb-decode": lambda code, gb, table, w: gb_decode(w, gb),
        "normal-form": lambda code, gb, table, w: normal_form(w, gb),
        "syndrome": lambda code, gb, table, w: syndrome(w, code),
        "syndrome-decode": lambda code, gb, table, w: syndrome_decode(w, table, code),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("mask, kind", [
        (3.7, "float"), (3.0, "float"), (np.float64(5.0), "float64"), ("5", "str"),
        (None, "NoneType"), (np.array(3), "ndarray"),
    ], ids=["3.7", "3.0", "float64", "digit-string", "none", "0-d-array"])
    def test_refuses_non_integers(self, codes, bases, tables, entry, mask, kind):
        call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=rf"^word mask must be an integer, got {kind}$"):
            call(codes["1_4"], bases["1_4"], tables["1_4"], mask)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_integers_read_as_ints(self, codes, bases, tables, entry):
        call = functools.partial(self.ENTRY_POINTS[entry], codes["1_4"], bases["1_4"], tables["1_4"])
        for dtype in (np.uint8, np.int64, np.uint64):
            assert [call(dtype(w)) for w in range(1 << 7)] == [call(w) for w in range(1 << 7)]


class TestEnumerationGuard:
    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv("SGB_MAX_N", raising=False)
        assert enum_limit() == 2**24

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SGB_MAX_N", "10")
        assert enum_limit() == 1024
        with pytest.raises(EnumerationLimitError):
            guard_enumeration(2048, "test scan", "words")

    @pytest.mark.parametrize("text, exponent", [
        (" +7 ", 7), ("0", 0), ("64", 64), ("0064", 64),
    ])
    def test_env_exponents_read(self, monkeypatch, text, exponent):
        monkeypatch.setenv(ENUM_ENV_VAR, text)
        assert enum_limit() == 2**exponent

    @pytest.mark.parametrize("text", [
        "\u0661\u0662", "65", "-1", "abc", "", "1_2", "1.0", "9" * 5000,
    ], ids=["arabic_indic", "65", "negative", "letters", "empty", "underscore", "float", "5000_digits"])
    def test_env_refused_naming_the_variable(self, monkeypatch, text):
        # every exponent from 0 to 64 is read: a word has at most 64 positions
        monkeypatch.setenv(ENUM_ENV_VAR, text)
        with pytest.raises(ValueError, match=f"^{ENUM_ENV_VAR} must be an integer from 0 to 64, got "):
            LinearCode.from_generator(A_1_4, 2)
        with pytest.raises(ValueError) as exc:
            enum_limit()
        assert repr(text[:40]) in str(exc.value) and len(str(exc.value)) < 200
        assert not isinstance(exc.value, EnumerationLimitError)

    # each exhaustive scan, its exponent and its refusal one below, on
    # [19,5,8] (2^14 cosets, 2^5 codewords, 19 points) or [7,3,4] (2^7 words)
    SCANS = {
        "coset_table": (14, "coset leader table needs 16384 > 8192 cosets"),
        "coset_engine": (14, "coset leader table needs 16384 > 8192 cosets"),
        "groebner_decoder_fit": (14, "coset leader table needs 16384 > 8192 cosets"),
        "syndrome_decoder_fit": (14, "coset leader table needs 16384 > 8192 cosets"),
        "reducedness_check": (13, "basis reducedness check needs 5950 > 4096 monomials"),
        "codeword_enumeration": (5, "codeword enumeration needs 32 > 16 codewords"),
        "point_enumeration": (5, "point enumeration needs 19 > 16 points"),
        "coset_leader_scan": (7, "coset leader scan needs 128 > 64 words"),
    }

    @pytest.mark.parametrize("case", SCANS)
    def test_scan_passes_at_its_exponent_and_refuses_below(self, monkeypatch, codes, bases, case):
        code, basis = codes["2_4"], bases["2_4"]
        scan = {
            "coset_table": lambda: build_coset_leader_table(code).leaders,
            "coset_engine": lambda: coset_engine(code),
            "groebner_decoder_fit": lambda: GroebnerDecoder().fit(code).basis_,
            "syndrome_decoder_fit": lambda: SyndromeTableDecoder().fit(code).table_.leaders,
            "reducedness_check": lambda: validated(basis.n, basis.elements),
            "codeword_enumeration": lambda: min_distance_bruteforce(code),
            "point_enumeration": lambda: enumerate_schubert_points(SchubertSpec(2, 5, 2, (2, 4))),
            "coset_leader_scan": lambda: scan_coset_leaders(codes["1_4"]),
        }[case]
        exponent, message = self.SCANS[case]
        monkeypatch.delenv(ENUM_ENV_VAR, raising=False)
        want = scan()
        monkeypatch.setenv(ENUM_ENV_VAR, str(exponent))
        got = scan()
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        monkeypatch.setenv(ENUM_ENV_VAR, str(exponent - 1))
        with pytest.raises(EnumerationLimitError) as exc:
            scan()
        assert str(exc.value) == (f"enumeration bound exceeded: {message} (set {ENUM_ENV_VAR} "
                                  f"above {exponent - 1}, the bound's base-2 exponent)")

    def test_env_gates_table_construction(self, monkeypatch):
        code = LinearCode.from_generator(A_1_4, 2)
        monkeypatch.setenv(ENUM_ENV_VAR, "3")  # [7,3,4] has 2^4 cosets and 2^3 codewords
        with pytest.raises(EnumerationLimitError):
            build_coset_leader_table(code)
        monkeypatch.setenv(ENUM_ENV_VAR, "2")
        with pytest.raises(EnumerationLimitError):
            min_distance_bruteforce(code)
        monkeypatch.delenv(ENUM_ENV_VAR)
        assert min_distance_bruteforce(code) == 4