import time

import numpy as np
import pytest

from schubert_gb import LinearCode, build_coset_leader_table, min_distance_bruteforce
from schubert_gb.validation import (
    EnumerationLimitError,
    check_matrix,
    check_prime,
    enum_limit,
    guard_enumeration,
)

from conftest import A_1_4


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


class TestEnumerationGuard:
    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv("SGB_MAX_N", raising=False)
        assert enum_limit() == 2**24

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SGB_MAX_N", "10")
        assert enum_limit() == 1024
        with pytest.raises(EnumerationLimitError):
            guard_enumeration(2048, "test scan", "words")

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("SGB_MAX_N", "4")
        guard_enumeration(1000, "test scan", "words", limit=4096)

    def test_env_gates_table_construction(self, monkeypatch):
        code = LinearCode.from_generator(A_1_4, 2)
        monkeypatch.setenv("SGB_MAX_N", "3")  # [7,3,4] has 2^4 cosets
        with pytest.raises(EnumerationLimitError):
            build_coset_leader_table(code)
        with pytest.raises(EnumerationLimitError):
            min_distance_bruteforce(code, limit=4)
        monkeypatch.delenv("SGB_MAX_N")
        assert min_distance_bruteforce(code) == 4
