import functools
import hashlib
import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

from schubert_gb import (
    LinearCode,
    SchubertSpec,
    bruhat_leq,
    enumerate_schubert_points,
    gaussian_binomial,
    generator_matrix,
    index_tuples,
    min_distance_bruteforce,
    plucker,
    schubert,
    schubert_params,
)
from schubert_gb.fixtures import TAGS, expected_params, load_generator
from schubert_gb.linalg import _eliminate, _residues, rank
from schubert_gb.reference import schubert_points_by_plucker_filter
from schubert_gb.schubert import _plucker_rows, enumerate_cell_bases
from schubert_gb.validation import ENUM_ENV_VAR, EnumerationLimitError

from conftest import LARGE_PRIME


def det_mod_reference(M, q):
    """Reference determinant mod q: cofactors up to 4x4, row elimination above.

    The per-matrix route the batched kernel replaced; exact for any q, since
    both routes compute in Python integers.
    """
    size = M.shape[0]
    if size == 1:
        return int(M[0, 0]) % q
    if size <= 4:
        det = 0
        sign = 1
        rest = np.arange(1, size)
        for j in range(size):
            cols = [c for c in range(size) if c != j]
            det += sign * int(M[0, j]) * det_mod_reference(M[np.ix_(rest, cols)], q)
            sign = -sign
        return det % q
    A = M.astype(object) % q
    det = 1
    for c in range(size):
        nz = np.nonzero(A[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = c + nz[0]
        if pr != c:
            A[[c, pr]] = A[[pr, c]]
            det = -det
        det = det * int(A[c, c]) % q
        inv = pow(int(A[c, c]), -1, q)
        for i in range(c + 1, size):
            if A[i, c]:
                A[i] = (A[i] - A[i, c] * inv % q * A[c]) % q
    return det % q


def plucker_reference(B, q):
    """Reference Pluecker vector: one reference determinant per index tuple."""
    l, m = B.shape
    coords = [det_mod_reference(B[:, [c - 1 for c in cols]], q) for cols in index_tuples(l, m)]
    first = next((c for c in coords if c), None)
    if first is None:
        raise ValueError("not a basis")
    inv = pow(first, -1, q)
    return tuple(c * inv % q for c in coords)


def random_stack(rng, count, rows, cols, q):
    """Random residue matrices, a third of them made rank-deficient by
    overwriting the last row with a combination of the others."""
    S = rng.integers(0, q, size=(count, rows, cols))
    if rows > 1:
        dep = rng.random(count) < 1 / 3
        coef = rng.integers(0, q, size=(int(dep.sum()), rows - 1))
        combo = np.einsum("ki,kij->kj", coef.astype(object), S[dep, :-1].astype(object))
        S[dep, -1] = combo % q
    return S


def cell_bases_reference(spec):
    """One basis per point, in the documented order: pivot tuples ascending,
    then the free entries (row-major) counting up as a base-q integer."""
    l, m, q = spec.l, spec.m, spec.q
    for piv in index_tuples(l, m):
        if not bruhat_leq(piv, spec.alpha):
            continue
        free = [(i, c - 1) for i in range(l) for c in range(1, piv[i]) if c not in piv]
        for values in itertools.product(range(q), repeat=len(free)):
            A = np.zeros((l, m), dtype=np.int64)
            A[range(l), [p - 1 for p in piv]] = 1
            for (i, c), v in zip(free, values):
                A[i, c] = v
            yield A


def traced_peak(fn):
    """(result, current bytes, peak bytes) of one call under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


def spec_for(tag):
    v = expected_params()[tag]
    return SchubertSpec(l=v["l"], m=v["m"], q=v["q"], alpha=tuple(v["alpha"]))


class TestIndexTuples:
    def test_lex_order_2_5(self):
        assert index_tuples(2, 5) == (
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
            (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
        )

    def test_singletons(self):
        assert index_tuples(1, 3) == ((1,), (2,), (3,))

    def test_count_is_binomial(self):
        assert len(index_tuples(2, 5)) == 10

    def test_rejects_l_above_m(self):
        with pytest.raises(ValueError):
            index_tuples(3, 2)


class TestBruhat:
    def test_componentwise(self):
        assert bruhat_leq((1, 2), (1, 4))
        assert not bruhat_leq((2, 3), (1, 4))

    def test_interval_size_matches_dimension(self):
        below = [t for t in index_tuples(2, 5) if bruhat_leq(t, (1, 4))]
        assert len(below) == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq((1,), (1, 2))


class TestGaussianBinomial:
    def test_against_cell_enumeration(self):
        count = sum(len(block) for block in enumerate_cell_bases(SchubertSpec.grassmann(2, 5, 2)))
        assert gaussian_binomial(5, 2, 2) == count == 155

    @pytest.mark.parametrize("m,q", [(3, 2), (4, 2), (4, 3), (5, 3)])
    def test_projective_space(self, m, q):
        assert gaussian_binomial(m, 1, q) == (q**m - 1) // (q - 1)

    @pytest.mark.parametrize("m,q", [(3, 2), (5, 3)])
    def test_full_dimension(self, m, q):
        assert gaussian_binomial(m, m, q) == 1

    def test_symmetry(self):
        assert gaussian_binomial(5, 2, 3) == gaussian_binomial(5, 3, 3)

    @pytest.mark.parametrize("m,l,q,message", [
        (3, 0, 2, "need 1 <= l <= m, got l=0, m=3"),
        (3, 4, 2, "need 1 <= l <= m, got l=4, m=3"),
        (3, 1, 1, "need q >= 2, got 1"),
    ])
    def test_argument_errors(self, m, l, q, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gaussian_binomial(m, l, q)


class TestSpec:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SchubertSpec(l=2, m=5, q=2, alpha=(5, 5))
        with pytest.raises(ValueError):
            SchubertSpec(l=2, m=5, q=2, alpha=(0, 3))
        with pytest.raises(ValueError):
            SchubertSpec(l=2, m=5, q=4, alpha=(1, 2))  # q must be prime

    @pytest.mark.parametrize("l,m,alpha,message", [
        (0, 5, (), "need 1 <= l <= m, got l=0, m=5"),
        (3, 2, (1, 2, 3), "need 1 <= l <= m, got l=3, m=2"),
        (2, 5, (1, 2, 3), "alpha must have length l=2, got (1, 2, 3)"),
    ])
    def test_argument_errors(self, l, m, alpha, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SchubertSpec(l=l, m=m, q=2, alpha=alpha)

    def test_grassmann_alpha_is_maximal(self):
        assert SchubertSpec.grassmann(2, 5, 2).alpha == (4, 5)


class TestParams:
    @pytest.mark.parametrize("tag", TAGS)
    def test_reference_parameters(self, tag):
        v = expected_params()[tag]
        p = schubert_params(spec_for(tag))
        assert (p.n, p.k, p.delta, p.d) == (v["n"], v["k"], v["delta"], v["d"])

    def test_full_grassmannian(self):
        p = schubert_params(SchubertSpec.grassmann(2, 5, 2))
        assert p.n == 155 and p.k == 10

    def test_pivots_are_the_tuples_below_alpha(self):
        for l, m in [(1, 4), (2, 5), (3, 6), (4, 7)]:
            for alpha in index_tuples(l, m):
                want = [t for t in index_tuples(l, m) if bruhat_leq(t, alpha)]
                assert list(schubert._admissible_pivots(SchubertSpec(l, m, 2, alpha))) == want

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("l,m", [(2, 5), (2, 6), (2, 7), (3, 6)])
    def test_equal_the_sum_over_the_tuples(self, l, m, q):
        for alpha in index_tuples(l, m):
            spec = SchubertSpec(l, m, q, alpha)
            pivots = list(schubert._admissible_pivots(spec))
            n = sum(q ** sum(p - i - 1 for i, p in enumerate(piv)) for piv in pivots)
            got = schubert_params(spec)
            assert (got.n, got.k) == (n, len(pivots)), alpha

    def test_large_grassmannian_without_its_tuples(self):
        # G(2, 2000) has 1,999,000 index tuples; the sums run over 2 * 2000 values
        start = time.perf_counter()
        p = schubert_params(SchubertSpec.grassmann(2, 2000, 2))
        assert time.perf_counter() - start < 1
        assert p.n == gaussian_binomial(2000, 2, 2) and p.k == 1_999_000

    def test_one_point_variety_in_a_huge_ambient_space(self):
        # C(10^5, 2) is about 5 * 10^9 index tuples; only the one below alpha is built
        def run():
            return schubert_params(SchubertSpec(2, 10**5, 2, (1, 2)))

        p, _, peak = traced_peak(run)
        assert (p.n, p.k) == (1, 1) and peak < 1 << 20

    def test_generator_refused_before_its_index_tuples(self):
        def run():
            with pytest.raises(EnumerationLimitError, match="index tuple enumeration"):
                generator_matrix(SchubertSpec(2, 10**5, 2, (1, 2)))

        _, _, peak = traced_peak(run)
        assert peak < 1 << 20


class TestPlucker:
    def test_identity_minor(self):
        basis = np.zeros((2, 5), dtype=int)
        basis[0, 0] = basis[1, 1] = 1
        vec = plucker(basis, 2)
        assert vec[0] == 1 and not any(vec[1:])

    def test_hand_expanded_minors(self):
        # rows e1 and e2+e5: nonzero minors exactly at (1,2) and (1,5)
        basis = np.zeros((2, 5), dtype=int)
        basis[0, 0] = 1
        basis[1, 1] = basis[1, 4] = 1
        vec = plucker(basis, 2)
        nonzero = {t for t, c in zip(index_tuples(2, 5), vec) if c}
        assert nonzero == {(1, 2), (1, 5)}

    @pytest.mark.parametrize("q", [2, 3])
    def test_row_operation_invariance(self, q):
        rng = np.random.default_rng(41)
        basis = np.array([[1, 0, 2 % q, 1, 0], [0, 1, 1, 0, 1]]) % q
        for _ in range(10):
            U = rng.integers(0, q, size=(2, 2))
            if (U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]) % q == 0:
                continue
            assert plucker(U @ basis % q, q) == plucker(basis, q)

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="not a basis"):
            plucker(np.array([[1, 1, 0], [1, 1, 0]]), 2)

    def test_normalization_over_gf3(self):
        basis = np.array([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0]])
        vec = plucker(basis, 3)
        assert vec[0] == 1  # 4 = 1 mod 3, scaled to leading 1

    def test_entries_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            plucker(np.array([[1, 3, 0], [0, 1, 1]]), 3)
        with pytest.raises(ValueError, match="prime"):
            plucker(np.array([[1, 0, 0], [0, 1, 1]]), 4)


class TestBatchedKernel:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, LARGE_PRIME])
    @pytest.mark.parametrize("size", range(1, 7))
    def test_determinants_match_reference(self, size, q):
        rng = np.random.default_rng(1000 * size + q)
        S = random_stack(rng, 300, size, size, q)
        pivot_values = _eliminate(_residues(S.transpose(1, 2, 0), q), q)[3]
        got = functools.reduce(lambda a, b: a * b % q, pivot_values)
        want = [det_mod_reference(M, q) for M in S]
        assert got.tolist() == want
        if size > 1:
            assert 0 in want  # singular matrices were exercised

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("l", range(1, 7))
    def test_plucker_rows_match_reference(self, l, q):
        rng = np.random.default_rng(100 * l + q)
        m = l + 2
        S = rng.integers(0, q, size=(60, l, m))
        full = [B for B in S if rank(B, q) == l]
        got = _plucker_rows(np.array(full), q)
        assert [tuple(row) for row in got.tolist()] == [plucker_reference(B, q) for B in full]
        assert all(plucker(B, q) == plucker_reference(B, q) for B in full[:5])

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_dependent_rows_in_a_stack_raise(self, q):
        good = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
        bad = good.copy()
        bad[2] = (good[0] + (q - 1) * good[1]) % q
        with pytest.raises(ValueError, match="not a basis"):
            _plucker_rows(np.stack([good, good, bad, good]), q)
        with pytest.raises(ValueError, match="not a basis"):
            plucker(bad, q)
        with pytest.raises(ValueError, match="not a basis"):
            plucker(np.zeros((2, 4), dtype=int), q)

    @pytest.mark.parametrize("l,m", [(1, 3), (2, 4), (3, 5), (4, 5)])
    def test_large_prime_is_exact(self, l, m):
        q = LARGE_PRIME
        assert (q - 1) ** 2 > np.iinfo(np.int64).max
        rng = np.random.default_rng(l * m)
        for _ in range(5):
            B = rng.integers(q - 1000, q, size=(l, m), dtype=np.int64)
            assert plucker(B, q) == plucker_reference(B, q)
        # a dependent basis still raises at this q
        B = np.array([[q - 1] * m] * l) if l > 1 else np.zeros((1, m), dtype=np.int64)
        with pytest.raises(ValueError, match="not a basis"):
            plucker(B, q)

    def test_huge_field_allocates_nothing_of_size_q(self):
        spec = SchubertSpec(l=2, m=2, q=1000000007, alpha=(1, 2))

        def run():
            return (
                enumerate_schubert_points(spec),
                schubert_points_by_plucker_filter(spec),
                generator_matrix(spec),
            )

        (pts, filtered, G), _, peak = traced_peak(run)
        assert pts == filtered == [(1,)]
        assert G.tolist() == [[1]]
        assert peak < 1 << 20


class TestPointEnumeration:
    def test_truncated_coordinates_cover_nonzero_vectors(self):
        spec = spec_for("1_4")
        points = enumerate_schubert_points(spec)
        assert len(points) == 7
        keep = [i for i, t in enumerate(index_tuples(2, 5)) if bruhat_leq(t, (1, 4))]
        truncated = {tuple(pt[i] for i in keep) for pt in points}
        assert truncated == {v for v in itertools.product((0, 1), repeat=3) if any(v)}

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("l,m", [(1, 4), (2, 4), (2, 5)])
    def test_maximal_alpha_count(self, l, m, q):
        spec = SchubertSpec.grassmann(l, m, q)
        assert len(enumerate_schubert_points(spec)) == gaussian_binomial(m, l, q)

    def test_no_duplicates(self):
        points = enumerate_schubert_points(spec_for("2_4"))
        assert len(points) == len(set(points))

    def test_monotonicity(self):
        # every point of a smaller variety lies in the bigger one
        big = set(enumerate_schubert_points(spec_for("2_4")))
        for beta in index_tuples(2, 5):
            if bruhat_leq(beta, (2, 4)):
                sub = SchubertSpec(l=2, m=5, q=2, alpha=beta)
                assert set(enumerate_schubert_points(sub)) <= big

    def test_pivot_and_plucker_filters_agree(self):
        for alpha in index_tuples(2, 5):
            spec = SchubertSpec(l=2, m=5, q=2, alpha=alpha)
            assert sorted(enumerate_schubert_points(spec)) == sorted(
                schubert_points_by_plucker_filter(spec)
            )

    def test_guard(self, monkeypatch):
        monkeypatch.setenv(ENUM_ENV_VAR, "7")  # G(2,5) over GF(2) has 155 points
        with pytest.raises(EnumerationLimitError):
            enumerate_schubert_points(SchubertSpec.grassmann(2, 5, 2))

    def test_point_outside_alpha_is_caught(self, monkeypatch):
        # feed the pivot route one basis whose pivots (4, 5) exceed alpha
        stray = np.zeros((1, 2, 5), dtype=np.int64)
        stray[0, 0, 3] = stray[0, 1, 4] = 1
        monkeypatch.setattr(schubert, "enumerate_cell_bases", lambda spec: iter([stray]))
        with pytest.raises(AssertionError, match="outside alpha"):
            enumerate_schubert_points(spec_for("1_4"))
        with pytest.raises(AssertionError, match="outside alpha"):
            generator_matrix(spec_for("1_4"))

    def test_guard_runs_before_any_stack(self, monkeypatch):
        monkeypatch.setenv(ENUM_ENV_VAR, "7")

        def run():
            with pytest.raises(EnumerationLimitError):
                enumerate_schubert_points(SchubertSpec.grassmann(2, 5, 2))

        _, _, peak = traced_peak(run)
        assert peak < 1 << 20

    def test_blocks_bound_temporary_memory(self):
        # G(3,8,2): 97,155 points with 56 minors of size 3x3 each.  Gathered
        # at once the minors alone would take 97,155 * 56 * 9 * 8 B ~ 390 MB.
        # A block holds at most 2^20 minor entries (8 MiB as int64), and the
        # elimination keeps a copy and a few update temporaries of that size,
        # so memory beyond the returned list stays under 6 * 8 MiB.
        spec = SchubertSpec.grassmann(3, 8, 2)
        points, retained, peak = traced_peak(lambda: enumerate_schubert_points(spec))
        assert len(points) == gaussian_binomial(8, 3, 2) == 97155
        assert peak - retained < 48 << 20

    def test_blocks_split_large_cells_in_order(self, monkeypatch):
        # G(2,5,3) at 2 * 2 * C(5,2) = 40 minor entries per point: a 400-entry
        # budget makes 10-point blocks, so its 3^6-point cell spans many
        spec = SchubertSpec.grassmann(2, 5, 3)
        whole = enumerate_schubert_points(spec)
        monkeypatch.setattr(schubert, "_BLOCK_ENTRIES", 400)
        blocks = list(enumerate_cell_bases(spec))
        assert max(map(len, blocks)) == 10 and len(blocks) > 3**6 // 10
        assert np.array_equal(np.concatenate(blocks), np.array(list(cell_bases_reference(spec))))
        assert enumerate_schubert_points(spec) == whole


class TestGeneratorMatrix:
    @pytest.mark.parametrize("tag", TAGS)
    def test_column_multiset_matches_fixture(self, tag):
        built = generator_matrix(spec_for(tag))
        fixture = load_generator(tag)
        assert built.shape == fixture.shape
        assert sorted(map(tuple, built.T)) == sorted(map(tuple, fixture.T))

    @pytest.mark.parametrize("tag", TAGS)
    def test_bruteforce_distance_is_q_to_delta(self, tag):
        v = expected_params()[tag]
        code = LinearCode.from_generator(generator_matrix(spec_for(tag)), 2)
        assert min_distance_bruteforce(code) == v["q"] ** v["delta"]

    @pytest.mark.parametrize("tag,want", [
        ("1_4", "93bed04d6a60a8d41e182da97cad4e3b830f126675903b03fb171ded88246a30"),
        ("1_5", "fa027b1236cc15c9fc9f770f550db885e12a8b7b6ef816f3a4a9fd127f8ee361"),
        ("2_3", "6f36b5c23ab943529a7f3180bdbeb822ad6034cf8bd20a0407a0dc5febced415"),
        ("2_4", "853efb936afe304e16df2543f5554b43bf7bfe73896164769ca57cdb0625b736"),
        ("2_6_2_1_6", "e723727d6b948cdac94bde872239da10e5ba3dc83fcfa1d83dffc5ce1deefb10"),
    ])
    def test_column_order_pinned(self, tag, want):
        # columns follow the point enumeration order; punctured codes built
        # by position (the [31,5,16] ladder) depend on it, not just the multiset
        spec = SchubertSpec(2, 6, 2, (1, 6)) if tag == "2_6_2_1_6" else spec_for(tag)
        G = generator_matrix(spec)
        assert G.dtype == np.int64
        assert hashlib.sha256(G.tobytes()).hexdigest() == want

    def test_shape_matches_params(self):
        spec = SchubertSpec(l=2, m=4, q=3, alpha=(2, 4))
        p = schubert_params(spec)
        G = generator_matrix(spec)
        assert G.shape == (p.k, p.n)
        assert all(col.any() for col in G.T)
