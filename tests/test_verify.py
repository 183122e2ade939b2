import functools
import hashlib
import itertools

import numpy as np
import pytest

from schubert_gb import build_coset_leader_table, capability, fixtures, groebner, verify
from schubert_gb.decoding import DECODED
from schubert_gb.fixtures import load_spot_elements
from schubert_gb.groebner import Binomial, ReducedGroebnerBasis
from schubert_gb.reference import cross_check
from schubert_gb.words import degrevlex_key, weight


def test_random_codes_built_once_per_run(monkeypatch, small_random_codes):
    calls, built = [], []
    engine = verify.coset_engine

    def counted():
        calls.append(1)
        return small_random_codes[:2]

    def counted_engine(code):
        built.append(code)
        return engine(code)

    monkeypatch.setattr(verify, "random_codes", counted)
    monkeypatch.setattr(verify, "coset_engine", counted_engine)
    # a fresh cache, so codes drawn earlier in the process do not count
    monkeypatch.setattr(verify, "_seeded_codes", functools.cache(verify._seeded_codes.__wrapped__))
    assert verify.run_checks(only=["integrity"]) and calls == [] and built == []  # lazy
    results = verify.run_checks(only=["gb", "capability", "nf"])
    assert calls == [1]  # shared by all three sections
    assert len(built) == len(fixtures.TAGS) + 2  # the fixture bases, then each random basis once
    assert all(c.passed for c in results)
    built.clear()
    assert all(c.passed for c in verify.run_checks(only=["gb"]))
    assert calls == [1]  # the codes are shared by later calls in the same process
    assert len(built) == len(fixtures.TAGS) + 2  # the bases are built again, once
    assert isinstance(verify._seeded_codes(), tuple)


def test_unknown_sections_refused():
    with pytest.raises(ValueError, match=r"^unknown sections \['nope'\]$"):
        verify.run_checks(only=["gb", "nope"])


def test_random_codes_are_pinned():
    # shapes and int64 bytes of the 25 generators, hashed before the cheap
    # column test was moved ahead of the rank test
    h = hashlib.sha256()
    for code in verify.random_codes():
        h.update(np.asarray(code.generator.shape, dtype=np.int64).tobytes())
        h.update(code.generator.astype(np.int64).tobytes())
    assert h.hexdigest() == "b6bb7761e7326dc63ac9cfba88d8cbe6fe3dd7b2f6cb6192b7d631d6c4523d7a"


def test_long_basis_checked_element_by_element(monkeypatch, bases):
    """One non-spot trail of c_2_4 swapped for another of the same weight
    keeps the spots, the field relations and the element count, and still
    fails the comparison with the scan basis."""
    gb = bases["2_4"]
    spots = set(load_spot_elements("2_4"))
    b, other = next(
        (b, c.trail) for b in gb.code_binomials if b not in spots
        for c in gb.code_binomials if c.trail != b.trail and weight(c.trail) == weight(b.trail)
    )
    elements = tuple(Binomial(b.lead, other, "code") if e == b else e for e in gb.elements)
    tampered = ReducedGroebnerBasis(gb.n, elements)
    monkeypatch.setattr(verify, "_reference_bases", lambda codes: {**bases, "2_4": tampered})
    results = {c.name: c for c in verify.run_checks(only=["gb"])}
    count = results.pop("c_2_4.element_count")
    assert not count.passed
    assert count.detail == f"engine={len(gb.code_binomials)} oracle={len(gb.code_binomials)}"
    assert all(c.passed for c in results.values())


def test_field_relations_follow_the_leads(monkeypatch, bases):
    """A c_1_5 basis that gains the degree-1 binomial x1 - 1 loses x1^2 - 1,
    and the field_relations check fails."""
    gb = bases["1_5"]
    tampered = ReducedGroebnerBasis(gb.n, (Binomial(1, 0),) + gb.code_binomials)
    assert Binomial(1, 0, "field") in gb.elements and Binomial(1, 0, "field") not in tampered.elements
    monkeypatch.setattr(verify, "_reference_bases", lambda codes: {**bases, "1_5": tampered})
    results = {c.name: c for c in verify.run_checks(only=["gb"])}
    check = results.pop("c_1_5.field_relations")
    assert not check.passed and check.detail == f"{gb.n - 1} of n={gb.n}"
    assert results["c_2_4.field_relations"].passed


def test_scan_oracle_independent_of_basis_validation(monkeypatch):
    """A fault in the engine's validation path, here the last element moved
    to the front, reaches the engine bases but not the scan oracle."""
    ordered = groebner._element_order

    def misordered(leads, is_field):
        order = ordered(leads, is_field)
        return np.concatenate([order[-1:], order[:-1]])

    monkeypatch.setattr(groebner, "_element_order", misordered)
    results = {c.name: c for c in verify.run_checks(only=["gb"])}
    assert not results["c_1_5.element_count"].passed
    assert not results["c_2_4.element_count"].passed


def cross_check_agreement(code, basis) -> bool:
    """The radius-t check word by word through ``cross_check``."""
    t = capability(basis)
    table = build_coset_leader_table(code)
    cw = code.codeword_masks()
    for wt_e in range(t + 1):
        for positions in itertools.combinations(range(code.n), wt_e):
            error = sum(1 << i for i in positions)
            for sent in cw.tolist():
                record = cross_check(sent ^ error, code, basis, table, cw)
                if (record.outcome.status != DECODED or record.outcome.error != error
                        or record.outcome.codeword != sent or not record.agree):
                    return False
    return True


@pytest.mark.parametrize("block", [verify._NN_BLOCK, 16])
def test_radius_t_routes_equal_cross_check(monkeypatch, codes, bases, block):
    """Array routes give cross_check's verdict on real and on broken bases,
    also with two words per block of the distance array."""
    monkeypatch.setattr(verify, "_NN_BLOCK", block)
    verdicts = []
    for tag in ("1_4", "2_3"):
        code, gb = codes[tag], bases[tag]
        variants = [gb]
        binomials = gb.code_binomials
        for b in binomials:  # a wrong trail below the lead keeps the rewriting finite
            other = next((c.trail for c in binomials
                          if c.trail != b.trail and degrevlex_key(c.trail) < degrevlex_key(b.lead)),
                         None)
            if other is None:
                continue
            elements = tuple(Binomial(b.lead, other, "code") if e == b else e for e in gb.elements)
            variants.append(ReducedGroebnerBasis(gb.n, elements))
        for basis in variants:
            verdict = verify._radius_t_agreement(code, basis)
            assert verdict == cross_check_agreement(code, basis)
            verdicts.append(verdict)
    assert verdicts[0] and not all(verdicts)
