import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_gb import (
    LinearCode,
    build_coset_leader_table,
    min_distance_bruteforce,
    parity_check_of,
    rref,
    syndrome,
    syndrome_decode,
    weight_distribution,
)
from schubert_gb import linalg
from schubert_gb.linalg import rank
from schubert_gb.validation import ENUM_ENV_VAR, EnumerationLimitError
from schubert_gb.reference import nn_decode, scan_coset_leaders
from schubert_gb.verify import random_codes
from schubert_gb.words import degrevlex_key, masks_of_rows, weight, word_from_string

from conftest import (
    A_1_4,
    LARGE_PRIME,
    hamming_code,
    ladder_code,
    random_systematic_code,
    unrestricted_random_codes,
)


def enumerate_codeword_masks(G):
    """Independent oracle: iterate row combinations directly."""
    rows = masks_of_rows(np.asarray(G)).tolist()
    out = []
    for take in itertools.product([0, 1], repeat=len(rows)):
        m = 0
        for t, r in zip(take, rows):
            if t:
                m ^= r
        out.append(m)
    return out


def rref_reference(rows, p):
    """Row-swapping Gauss-Jordan on Python integers, one row operation at a time."""
    A = [[int(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(A[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c + 1)
    return A, tuple(pivots), len(pivots)


@st.composite
def residue_matrices(draw):
    """(rows, p): a product of rows x inner and inner x cols residue factors,
    so the rank is at most inner; inner = 0 gives the zero matrix."""
    p = draw(st.sampled_from([2, 3, 5, 7, LARGE_PRIME]))
    rows, cols, inner = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(0, 5))

    def factor(r, c):
        return draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                             min_size=r, max_size=r))

    B, C = factor(rows, inner), factor(inner, cols)
    return [[sum(B[i][t] * C[t][j] for t in range(inner)) % p for j in range(cols)]
            for i in range(rows)], p


class TestRref:
    @given(residue_matrices())
    @settings(max_examples=300)
    def test_matches_row_swapping_reference(self, case):
        rows, p = case
        R, pivots, rk = rref(np.array(rows, dtype=np.int64), p)
        assert R.dtype == np.int64
        assert (R.tolist(), pivots, rk) == rref_reference(rows, p)

    def test_identity_already_reduced(self):
        I = np.eye(3, dtype=int)
        R, pivots, rk = rref(I, 2)
        assert (R == I).all() and pivots == (1, 2, 3) and rk == 3

    def test_dependent_rows(self):
        M = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert rref(M, 2)[2] == 2

    def test_reference_generator(self):
        R, pivots, rk = rref(A_1_4, 2)
        assert rk == 3 and pivots == (1, 2, 3)

    def test_zero_matrix(self):
        R, pivots, rk = rref(np.zeros((2, 4), dtype=int), 2)
        assert rk == 0 and pivots == ()

    def test_gf3_scaling(self):
        R, pivots, rk = rref(np.array([[2, 1], [0, 2]]), 3)
        assert (R == np.eye(2, dtype=int)).all() and rk == 2

    def test_row_space_preserved(self):
        M = np.array([[1, 1, 0, 1], [0, 1, 1, 1]])
        R, _, rk = rref(M, 2)
        orig = {m for m in enumerate_codeword_masks(M)}
        new = {m for m in enumerate_codeword_masks(R[:rk])}
        assert orig == new

    def test_large_prime_products_do_not_overflow(self):
        # (q-1)^2 overflows int64: the singular [[q-1, q-2], [1, 2]] (det = q) has rank 1
        q = 4294967311
        M = np.array([[q - 1, q - 2], [1, 2]])
        assert rank(M, q) == 1
        R, pivots, rk = rref(M, q)
        assert R.dtype == np.int64 and pivots == (1,) and rk == 1
        assert R.tolist() == [[1, (q - 2) * pow(q - 1, -1, q) % q], [0, 0]]
        assert rank(np.array([[q - 1, q - 2], [1, 1]]), q) == 2
        # a product of 4x2 and 2x5 factors with entries near q has rank 2
        rng = np.random.default_rng(5)
        B = [[int(x) for x in row] for row in rng.integers(q - 1000, q, size=(4, 2))]
        C = [[int(x) for x in row] for row in rng.integers(q - 1000, q, size=(2, 5))]
        P = np.array([[sum(b * c for b, c in zip(row, col)) % q for col in zip(*C)] for row in B])
        assert rank(P, q) == 2

    matrices = st.integers(min_value=2, max_value=3).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=5, max_size=5),
            min_size=rows, max_size=rows,
        )
    )

    @given(matrices)
    @settings(max_examples=40)
    def test_properties_on_random_binary_matrices(self, rows):
        M = np.array(rows)
        R, pivots, rk = rref(M, 2)
        assert list(pivots) == sorted(set(pivots))
        assert rk == len(pivots) <= min(M.shape)
        # idempotent, and the row space is unchanged
        R2, pivots2, rk2 = rref(R, 2)
        assert (R2 == R).all() and pivots2 == pivots and rk2 == rk
        assert set(enumerate_codeword_masks(M)) == set(
            enumerate_codeword_masks(R[:rk]) if rk else [0]
        )

    @given(matrices)
    @settings(max_examples=40)
    def test_dual_is_orthogonal_complement(self, rows):
        M = np.array(rows)
        R, _, rk = rref(M, 2)
        G = R[:rk]
        if rk == 0:
            return
        H = parity_check_of(G, 2)
        assert not (G @ H.T % 2).any()
        assert rref(H, 2)[2] == G.shape[1] - rk


class TestParityCheck:
    def test_guard_admits_a_parity_check_no_larger_than_the_generator(self, monkeypatch):
        # [40,32] under a guard of 2^8: H has 320 entries, G holds 1,280
        monkeypatch.setenv(ENUM_ENV_VAR, "8")
        G = np.hstack([np.eye(32, dtype=int), np.ones((32, 8), dtype=int)])
        code = LinearCode.from_generator(G)
        assert code.parity_check.shape == (8, 40)
        with pytest.raises(EnumerationLimitError, match="1440 parity check entries > 256"):
            LinearCode.from_generator(G[:4])  # [40,4]: 1,440 entries against 160 and 256

    def test_constructor_refuses_a_non_orthogonal_parity_check(self):
        code = LinearCode.from_generator(A_1_4, 2)
        H = code.parity_check.copy()
        H[0, 0] ^= 1  # column 0 of G is e_1, so row 0 of G @ H.T changes
        with pytest.raises(ValueError, match="^generator and parity check are not orthogonal$"):
            LinearCode(code.generator, H, code.n, code.k, code.p)

    def test_full_space_has_empty_dual(self):
        H = parity_check_of(np.eye(2, dtype=int), 2)
        assert H.shape == (0, 2)

    def test_single_parity_row(self):
        H = parity_check_of(np.array([[1, 1]]), 2)
        assert H.tolist() == [[1, 1]]

    def test_reference_dual(self):
        H = parity_check_of(A_1_4, 2)
        assert H.shape == (4, 7)
        assert not (A_1_4 @ H.T % 2).any()
        assert rref(H, 2)[2] == 4

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="not full rank"):
            parity_check_of(np.array([[1, 1, 0], [1, 1, 0]]), 2)

    def test_gf3_orthogonality(self):
        G = np.array([[1, 0, 2, 1], [0, 1, 1, 2]])
        H = parity_check_of(G, 3)
        assert not (G @ H.T % 3).any()
        assert rref(H, 3)[2] == 2

    def test_large_prime_codes_are_orthogonal(self):
        # G @ H.T sums n products of residues, which passes int64 where one product does not
        def orthogonal(code):
            G, H = code.generator.tolist(), code.parity_check.tolist()
            return all(sum(g * h for g, h in zip(a, b)) % code.p == 0 for a in G for b in H)

        assert orthogonal(LinearCode.from_generator([[LARGE_PRIME - 1, LARGE_PRIME - 2, 5]],
                                                    LARGE_PRIME))
        p = 3037000493  # (p - 1)^2 fits int64, a sum of two such products does not
        rng = np.random.default_rng(11)
        built = [LinearCode.from_generator(G, p)
                 for G in rng.integers(0, p, size=(200, 2, 6)) if rank(G, p) == 2]
        assert len(built) == 200 and all(map(orthogonal, built))


class TestSyndrome:
    def test_generator_rows_have_zero_syndrome(self, codes):
        for code in codes.values():
            for row in masks_of_rows(code.generator).tolist():
                assert syndrome(row, code) == 0

    def test_zero_word(self, codes):
        assert syndrome(0, codes["1_4"]) == 0

    def test_weight_one_is_not_a_codeword(self, codes):
        w = word_from_string("1000000")[0]
        assert syndrome(w, codes["1_4"]) != 0

    def test_linearity(self, codes):
        code = codes["2_3"]
        for u, v in [(0b1011, 0b11001), (0b1, 0b1000000)]:
            assert syndrome(u ^ v, code) == syndrome(u, code) ^ syndrome(v, code)

    def test_array_form_equals_per_word(self, codes, wide_code):
        for code in list(codes.values()) + [wide_code]:
            words = np.random.default_rng(code.n).integers(0, 1 << code.n, 500, dtype=np.uint64)
            synd = linalg.syndromes(words, code)
            assert synd.dtype == np.intp
            assert synd.tolist() == [syndrome(w, code) for w in words.tolist()]


class TestDistanceAndWeights:
    def test_reference_distances(self, codes):
        assert min_distance_bruteforce(codes["1_4"]) == 4
        assert min_distance_bruteforce(codes["2_4"]) == 8

    def test_repetition_code(self):
        code = LinearCode.from_generator(np.array([[1, 1, 1]]), 2)
        assert min_distance_bruteforce(code) == 3

    def test_weight_distribution_simplex(self, codes):
        # oracle: direct enumeration of all codewords
        dist = weight_distribution(codes["1_4"])
        oracle = np.zeros(8, dtype=int)
        for m in enumerate_codeword_masks(codes["1_4"].generator):
            oracle[weight(m)] += 1
        assert dist.tolist() == oracle.tolist()
        assert dist[0] == 1 and dist[4] == 7 and dist.sum() == 8
        assert ([w for w in range(1, 8) if dist[w]] or [None])[0] == 4

    def test_weight_distribution_1_5(self, codes):
        dist = weight_distribution(codes["1_5"])
        assert dist[0] == 1 and dist[8] == 15 and dist.sum() == 16

    def test_zero_dimensional_code(self):
        code = LinearCode.from_generator(np.zeros((0, 5), dtype=int), 2)
        assert weight_distribution(code).tolist() == [1, 0, 0, 0, 0, 0]
        with pytest.raises(ValueError, match="no nonzero codewords"):
            min_distance_bruteforce(code)

    def test_enumeration_guard(self, monkeypatch, codes):
        monkeypatch.setenv(ENUM_ENV_VAR, "2")  # [19,5,8] has 2^5 codewords
        with pytest.raises(EnumerationLimitError, match="enumeration bound exceeded"):
            min_distance_bruteforce(codes["2_4"])

    def test_singleton_bound(self, codes):
        for code in codes.values():
            assert code.k + min_distance_bruteforce(code) <= code.n + 1

    def test_enumeration_crosses_chunk_boundary(self):
        # k = 17 gives 131072 codewords, spanning several scan chunks
        rng = np.random.default_rng(3)
        while True:
            G = rng.integers(0, 2, size=(17, 20))
            code = LinearCode.from_generator(G, 2) if rref(G, 2)[2] == 17 else None
            if code:
                break
        masks = code.codeword_masks()
        wts = np.bitwise_count(masks)
        assert min_distance_bruteforce(code) == int(wts[1:].min())
        dist = weight_distribution(code)
        assert dist.tolist() == np.bincount(wts, minlength=21).tolist()
        assert dist.sum() == 1 << 17


def long_code_with_few_cosets() -> LinearCode:
    """A [60,48] code: 4,096 cosets, distinct parity-check columns of weight >= 2 beside I."""
    vals = [v for v in range(1, 1 << 12) if bin(v).count("1") >= 2][:48]
    A = np.array([[(v >> j) & 1 for j in range(12)] for v in vals])
    return LinearCode.from_generator(np.hstack([np.eye(48, dtype=int), A]), 2)


class TestCosetLeaders:
    def test_zero_syndrome_leader_is_zero(self, tables):
        assert tables["1_4"].leader(0) == 0

    def test_reference_leader(self, codes, tables):
        # the coset of 1111100 is led by 0001000
        w = word_from_string("1111100")[0]
        s = syndrome(w, codes["1_4"])
        assert tables["1_4"].leader(s) == word_from_string("0001000")[0]

    def test_leader_weight_profile(self, codes, tables, small_random_codes):
        # oracle: group all 2^n words by syndrome in plain python
        def oracle_leaders(code):
            groups: dict[int, list[int]] = {}
            for w in range(1 << code.n):
                groups.setdefault(syndrome(w, code), []).append(w)
            assert len(groups) == 1 << (code.n - code.k)
            return {s: min(members, key=degrevlex_key) for s, members in groups.items()}

        for code, table in [(codes["1_4"], tables["1_4"]), (codes["1_5"], tables["1_5"])] + [
            (code, build_coset_leader_table(code)) for code in small_random_codes
        ]:
            for s, best in oracle_leaders(code).items():
                assert table.leader(s) == best
        hist: dict[int, int] = {}
        for best in oracle_leaders(codes["1_4"]).values():
            hist[weight(best)] = hist.get(weight(best), 0) + 1
        assert hist == {0: 1, 1: 7, 2: 7, 3: 1}

    def test_leader_syndromes_match_index(self, codes, tables):
        code, table = codes["2_3"], tables["2_3"]
        for s in range(1 << (code.n - code.k)):
            assert syndrome(table.leader(s), code) == s

    def test_mask_operations_need_a_word(self):
        A = np.random.default_rng(70).integers(0, 2, (60, 10))
        code = LinearCode.from_generator(np.hstack([np.eye(60, dtype=int), A]), 2)
        assert (code.n, code.k) == (70, 60)
        for masks in (code.row_masks, code.codeword_masks, lambda: code.column_syndromes):
            with pytest.raises(ValueError, match="^mask operations require n <= 64$"):
                masks()

    def test_binary_only_and_guard(self, monkeypatch):
        gf3 = LinearCode.from_generator(np.array([[1, 2, 0]]), 3)
        with pytest.raises(ValueError, match="binary only"):
            build_coset_leader_table(gf3)
        code = LinearCode.from_generator(A_1_4, 2)
        monkeypatch.setenv(ENUM_ENV_VAR, "3")  # [7,3,4] has 2^4 cosets
        with pytest.raises(EnumerationLimitError):
            build_coset_leader_table(code)

    def test_width_limits_refused_before_scan(self, monkeypatch):
        # n - k = 33 overflows the uint32 syndromes; the raised guard admits 2^34 cosets
        monkeypatch.setenv(ENUM_ENV_VAR, "34")
        code = LinearCode.from_generator(np.ones((1, 34), dtype=int), 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"syndromes need n - k <= 32, got 33"):
                build_coset_leader_table(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused right after the guard: no 2^33-entry table

    def test_long_code_with_few_cosets_builds(self):
        # n = 60, n - k = 12: 4,096 cosets under the default 2^24 guard, where a
        # scan over words would need 2^60; the walk holds the table and one slice
        code = long_code_with_few_cosets()
        tracemalloc.start()
        try:
            table = build_coset_leader_table(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert table.leaders.size == 1 << 12 and len(set(table.leaders.tolist())) == 1 << 12
        for s in range(1 << 12):
            assert syndrome(table.leader(s), code) == s
        # leader weights are the syndrome-space distances, by breadth-first search
        cols = [syndrome(1 << i, code) for i in range(60)]
        dist, frontier = {0: 0}, [0]
        while frontier:
            reached = []
            for s in frontier:
                for c in cols:
                    if s ^ c not in dist:
                        dist[s ^ c] = dist[s] + 1
                        reached.append(s ^ c)
            frontier = reached
        assert all(weight(table.leader(s)) == dist[s] for s in range(1 << 12))
        # every weight-1 word leads its own coset: the leader set is closed under division
        assert {1 << i for i in range(60)} <= set(table.leaders.tolist())

    def test_rebuild_is_identical(self, codes):
        a = build_coset_leader_table(codes["2_3"])
        b = build_coset_leader_table(codes["2_3"])
        assert (a.leaders == b.leaders).all()


class TestCosetWalk:
    """The layered walk against the 2^n scan oracle and tables pinned from the former scan."""

    def test_equals_scan_oracle(self, codes, small_random_codes):
        for code in list(codes.values()) + small_random_codes + random_codes():
            assert (build_coset_leader_table(code).leaders == scan_coset_leaders(code)).all()

    def test_ladder_rungs(self, ladder_rungs):
        pinned = {  # sha256 of the leader bytes, recorded with the former 2^n scan
            18: "ef521085c093b941fe295cdae46463b632174cf048390f65ffa433fe54518904",
            20: "dff1f64660243b11084a63fd4d81594532edbd58d65ea418aeaf4ec4a1d3428e",
        }
        for n, code in ladder_rungs.items():
            leaders = build_coset_leader_table(code).leaders
            assert (leaders == scan_coset_leaders(code)).all()
            assert hashlib.sha256(leaders.tobytes()).hexdigest() == pinned[n]

    def test_small_slices_change_nothing(self, monkeypatch, codes, ladder_rungs):
        # 64 candidate extensions per slice: most layers span many slices, so a
        # coset first reached in one slice may get a larger leader in a later one
        monkeypatch.setattr(linalg, "_SLICE_WORDS", 64)
        for code in list(codes.values()) + random_codes()[:5] + [ladder_rungs[18]]:
            assert (linalg._coset_walk(code)[0] == scan_coset_leaders(code)).all()

    @pytest.mark.parametrize("rows, leaders", [
        ([[1, 1, 0, 1, 0], [0, 1, 0, 1, 1]], [0, 4, 8, 12, 16, 20, 2, 6]),  # zero column
        ([[1, 1, 1, 0, 0], [0, 1, 1, 1, 1]], [0, 4, 8, 18, 16, 20, 1, 2]),  # repeated column
        ([[1, 1, 0], [0, 1, 1]], [0, 4]),  # repeated parity-check column
        ([[1, 0, 0, 0], [0, 1, 1, 1]], [0, 4, 8, 2]),  # zero parity-check column
        (np.eye(4, dtype=int).tolist(), [0]),  # k = n
        (np.zeros((0, 5), dtype=int), list(range(32))),  # k = 0
    ])
    def test_degenerate_codes(self, rows, leaders):
        code = LinearCode.from_generator(np.array(rows), 2)
        table = build_coset_leader_table(code)
        assert table.leaders.tolist() == leaders  # recorded with the former 2^n scan
        assert (table.leaders == scan_coset_leaders(code)).all()

    @pytest.mark.parametrize("slice_words", [linalg._SLICE_WORDS, 64])
    def test_walk_table_equals_scan_oracle(
        self, monkeypatch, codes, ladder_rungs, small_random_codes, slice_words
    ):
        # every code up to n = 57 builds its table by the column recurrence, so
        # the walk's table is checked here directly, on the high-rate codes
        # whose leads it still builds in coset_engine too
        monkeypatch.setattr(linalg, "_SLICE_WORDS", slice_words)
        high_rate = [c for c in small_random_codes + random_codes() if 2 * c.k > c.n]
        assert high_rate
        named = list(codes.values()) + list(ladder_rungs.values()) + [hamming_code(4)]
        for code in named + high_rate:
            assert (linalg._coset_walk(code)[0] == scan_coset_leaders(code)).all()

    def test_long_code_tables_are_pinned(self, wide_code):
        # n > 57 is the walk's alone; sha256 of the leader bytes, recorded
        # before the column recurrence took every shorter code
        pinned = {
            "[60,48]": (long_code_with_few_cosets(),
                        "f524f96f89a94bf5052b8c4cce92d5cf2eb7ade3315e8a8036c29e9be43a8be0"),
            "[64,57]": (wide_code,
                        "fbdda7fe64bf8d22d9f003dd6b7394e0e867127e646a43701046bc19e2f68775"),
            "[63,57]": (hamming_code(6),
                        "93bb71c58a01040a994b206951542b3ca48a7a5315c3a1b2579194379e95aa28"),
        }
        for name, (code, digest) in pinned.items():
            leaders = build_coset_leader_table(code).leaders
            assert hashlib.sha256(leaders.tobytes()).hexdigest() == digest, name

    def test_guard_counts_cosets_before_binary_check(self):
        # [155,10] is too long for masks, but the guard on its 2^145 cosets speaks first
        I = np.eye(10, dtype=int)
        code = LinearCode.from_generator(np.hstack([I] * 15 + [I[:, :5]]), 2)
        assert (code.n, code.k) == (155, 10)
        with pytest.raises(EnumerationLimitError, match=f"table needs {2**145} > 16777216"):
            build_coset_leader_table(code)


class TestColumnRecurrence:
    """The column recurrence against the scan oracle and the layered walk."""

    def test_equals_scan_oracle(self, codes, small_random_codes):
        for code in list(codes.values()) + small_random_codes + random_codes():
            assert (linalg._column_recurrence(code) == scan_coset_leaders(code)).all()

    def test_equals_scan_oracle_on_unrestricted_random_codes(self):
        # high rate, k = 0, k = n, d <= 2 and zero columns are all among them
        for code in unrestricted_random_codes():
            assert (linalg._column_recurrence(code) == scan_coset_leaders(code)).all(), (
                code.generator.tolist())

    def test_high_rate_codes_equal_the_walk(self):
        high_rate = [hamming_code(r) for r in (3, 4, 5)] + [random_systematic_code(36, 20)]
        for code in high_rate:
            assert np.array_equal(linalg._column_recurrence(code), linalg._coset_walk(code)[0])

    def test_rungs_22_and_24_equal_the_walk(self):
        for n in (22, 24):
            code = ladder_code(n)
            assert np.array_equal(build_coset_leader_table(code).leaders, linalg._coset_walk(code)[0])

    def test_parity_check_without_unit_columns(self):
        # rows of H mixed by an invertible M: no column is a unit vector, so
        # every column folds by the flip and none by doubling
        base = ladder_code(18)
        rng = np.random.default_rng(18)
        r = base.n - base.k
        while True:
            M = rng.integers(0, 2, (r, r))
            H = M @ base.parity_check % 2
            if rank(M, 2) == r and all(bin(c).count("1") >= 2 for c in masks_of_rows(H.T).tolist()):
                break
        code = LinearCode(generator=base.generator, parity_check=H, n=base.n, k=base.k, p=2)
        walk = linalg._coset_walk(code)[0]
        assert np.array_equal(build_coset_leader_table(code).leaders, walk)
        assert (walk == scan_coset_leaders(code)).all()

    def test_unreached_cosets_read_zero_on_both_routes(self):
        # a parity check of rank 2 in 3 rows reaches 4 of its 8 syndromes
        H = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]])
        code = LinearCode(generator=np.array([[1, 1, 0, 0]]), parity_check=H, n=4, k=1, p=2)
        leaders = [0, 2, 0, 0, 0, 0, 4, 6]
        assert linalg._column_recurrence(code).tolist() == leaders
        assert linalg._coset_walk(code)[0].tolist() == leaders

    def test_route_depends_on_the_code(self, monkeypatch, codes, ladder_rungs, wide_code):
        def refuse(code):
            raise AssertionError(f"[{code.n},{code.k}] took the wrong route")

        # the recurrence up to n = 57 at any rate; the walk only past it
        short = list(codes.values()) + list(ladder_rungs.values())
        short += [hamming_code(4), random_systematic_code(30, 18)]
        long = [long_code_with_few_cosets(), wide_code]
        want = {id(code): linalg._coset_walk(code)[0] for code in short + long}
        with monkeypatch.context() as m:
            m.setattr(linalg, "_coset_walk", refuse)
            for code in short:
                assert np.array_equal(build_coset_leader_table(code).leaders, want[id(code)])
        monkeypatch.setattr(linalg, "_column_recurrence", refuse)
        for code in long:
            assert np.array_equal(build_coset_leader_table(code).leaders, want[id(code)])

    def test_rung_24_holds_two_tables(self):
        # the table and a half-size scratch; at most two 2^(n-k) uint64 arrays plus 1 MiB
        code = ladder_code(24)
        tracemalloc.start()
        try:
            table = build_coset_leader_table(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.leaders.nbytes == 8 << 19
        assert peak <= 2 * table.leaders.nbytes + (1 << 20)


class TestReferenceDecoders:
    def test_codeword_decodes_to_itself(self, codes, tables):
        code = codes["1_4"]
        for m in enumerate_codeword_masks(code.generator):
            assert syndrome_decode(m, tables["1_4"], code) == m
            cw, ambiguous = nn_decode(m, code)
            assert cw == m and not ambiguous

    def test_reference_row(self, codes, tables):
        w = word_from_string("1111100")[0]
        want = word_from_string("1110100")[0]
        assert syndrome_decode(w, tables["1_4"], codes["1_4"]) == want
        cw, ambiguous = nn_decode(w, codes["1_4"])
        assert cw == want and not ambiguous

    def test_reference_row_2_3(self, codes, tables):
        w = word_from_string("1110000")[0]  # x1*x2*x3
        want = w ^ (1 << 6)  # x1*x2*x3*x7
        assert syndrome_decode(w, tables["2_3"], codes["2_3"]) == want

    def test_decode_result_is_codeword(self, codes, tables):
        code, table = codes["1_5"], tables["1_5"]
        rng = np.random.default_rng(7)
        for w in rng.integers(0, 1 << code.n, size=50):
            assert syndrome(syndrome_decode(int(w), table, code), code) == 0

    def test_ambiguous_tie_is_flagged(self, codes, tables):
        # a weight-2 coset leader sits at distance 2 from several codewords
        code, table = codes["1_4"], tables["1_4"]
        leader = next(
            table.leader(s)
            for s in range(1 << 4)
            if weight(table.leader(s)) == 2
        )
        cw, ambiguous = nn_decode(leader, code)
        assert ambiguous

    def test_syndrome_agrees_with_nn_within_radius(self, codes, tables):
        code, table = codes["2_3"], tables["2_3"]
        masks = np.array(enumerate_codeword_masks(code.generator), dtype=np.uint64)
        for w in range(1 << code.n):
            if weight(table.leader(syndrome(w, code))) <= 1:  # t = 1
                cw, ambiguous = nn_decode(w, code, masks)
                assert not ambiguous
                assert cw == syndrome_decode(w, table, code)
