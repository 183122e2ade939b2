import itertools

import pytest

from schubert_gb import (
    BSC,
    FixedWeight,
    gb_decode,
    simulate,
    syndrome,
    syndrome_decode,
)
from schubert_gb.decoding import DECODED, TOO_MANY_ERRORS
from schubert_gb.reference import cross_check
from schubert_gb.words import (
    monomial_from_string,
    monomial_to_string,
    weight,
    word_from_string,
    word_to_string,
)


def mon(s):
    return monomial_from_string(s)


class TestSupportBijection:
    """A word and the squarefree monomial on its support share one mask."""

    def test_zero_word_is_one(self):
        assert word_from_string("0000000")[0] == mon("1")
        assert monomial_to_string(0) == "1"

    def test_reference_word(self):
        w = word_from_string("1111100")[0]
        assert w == mon("x1*x2*x3*x4*x5")
        assert word_to_string(mon("x1*x2*x3*x4*x5"), 7) == "1111100"

    def test_roundtrip_all_words(self):
        for w in range(1 << 7):
            assert word_from_string(word_to_string(w, 7))[0] == w
            assert mon(monomial_to_string(w)) == w


class TestGbDecode:
    def test_reference_row_1_4(self, bases):
        out = gb_decode(mon("x1*x2*x3*x4*x5"), bases["1_4"])
        assert out.status == DECODED
        assert out.error == mon("x4")
        assert out.codeword == mon("x1*x2*x3*x5")

    def test_reference_row_1_5(self, bases):
        received = mon("x7*x8*x9*x10*x11*x12*x13*x14*x15")
        out = gb_decode(received, bases["1_5"])
        assert out.status == DECODED
        assert out.error == mon("x1*x7*x8")
        assert out.codeword == mon("x1*x9*x10*x11*x12*x13*x14*x15")

    def test_reference_row_2_4(self, bases):
        received = mon("x1*x6*x7*x9*x11*x13*x14*x18*x19")
        out = gb_decode(received, bases["2_4"])
        assert out.status == DECODED
        assert out.error == mon("x5*x9*x10")
        assert out.codeword == mon("x1*x5*x6*x7*x10*x11*x13*x14*x18*x19")

    def test_codeword_passes_through(self, codes, bases):
        for row in codes["2_3"].row_masks():
            out = gb_decode(row, bases["2_3"])
            assert out.status == DECODED and out.error == 0 and out.codeword == row

    def test_beyond_radius_is_flagged_not_wrong(self, codes, bases, tables):
        code, gb, table = codes["1_4"], bases["1_4"], tables["1_4"]
        flagged = 0
        for error_positions in itertools.combinations(range(7), 2):
            received = sum(1 << i for i in error_positions)
            out = gb_decode(received, gb)
            if out.status == TOO_MANY_ERRORS:
                flagged += 1
                # no false rejection: the coset leader really is heavier than t
                leader = table.leader(syndrome(received, code))
                assert weight(leader) > 1
                assert out.nf_weight == weight(leader)
        assert flagged > 0

    def test_complete_mode_matches_syndrome_decoding(self, codes, bases, tables):
        code, gb, table = codes["1_4"], bases["1_4"], tables["1_4"]
        for w in range(1 << 7):
            out = gb_decode(w, gb, mode="complete")
            assert out.status == DECODED
            assert out.codeword == syndrome_decode(w, table, code)

    def test_unknown_mode(self, bases):
        with pytest.raises(ValueError, match="mode"):
            gb_decode(0, bases["1_4"], mode="maybe")

    def test_length_mismatch(self, bases):
        with pytest.raises(ValueError, match="out of range"):
            gb_decode(1 << 7, bases["1_4"])


class TestCrossCheck:
    def test_codeword_full_agreement(self, codes, bases, tables):
        for row in codes["1_4"].row_masks():
            record = cross_check(row, codes["1_4"], bases["1_4"], tables["1_4"])
            assert record.agree and record.outcome.error == 0

    def test_weight_one_corruptions_agree(self, codes, bases, tables):
        code = codes["1_4"]
        cw = code.codeword_masks()
        for sent in (int(c) for c in cw):
            for i in range(code.n):
                record = cross_check(sent ^ (1 << i), code, bases["1_4"], tables["1_4"], cw)
                assert record.agree and not record.nn_ambiguous
                assert record.outcome.codeword == sent


class TestSimulate:
    def test_within_radius_always_succeeds(self, codes, bases):
        report = simulate(codes["1_4"], bases["1_4"], FixedWeight(1), trials=300, seed=1)
        assert report.successes == 300 and report.miscorrections == 0

    def test_zero_weight_and_quiet_channel(self, codes, bases):
        for model in (FixedWeight(0), BSC(0.0)):
            report = simulate(codes["2_3"], bases["2_3"], model, trials=100, seed=9)
            assert report.successes == 100

    def test_fixed_seed_reproduces_record(self, codes, bases):
        a = simulate(codes["1_5"], bases["1_5"], BSC(0.1), trials=200, seed=77)
        b = simulate(codes["1_5"], bases["1_5"], BSC(0.1), trials=200, seed=77)
        assert a.record() == b.record()

    def test_different_seed_differs(self, codes, bases):
        a = simulate(codes["1_5"], bases["1_5"], BSC(0.2), trials=200, seed=1)
        b = simulate(codes["1_5"], bases["1_5"], BSC(0.2), trials=200, seed=2)
        assert a.record() != b.record()

    def test_beyond_radius_never_silently_succeeds(self, codes, bases):
        report = simulate(codes["1_4"], bases["1_4"], FixedWeight(2), trials=200, seed=5)
        assert report.successes == 0
        assert report.failures_flagged + report.miscorrections == 200

    def test_counts_sum_to_trials(self, codes, bases):
        report = simulate(codes["2_3"], bases["2_3"], BSC(0.4), trials=250, seed=3)
        assert (
            report.successes + report.failures_flagged + report.miscorrections
            == report.trials
            == 250
        )

    def test_invalid_probability(self, codes, bases):
        with pytest.raises(ValueError, match="probability"):
            simulate(codes["2_3"], bases["2_3"], BSC(1.5), trials=10, seed=0)

    def test_invalid_weight(self, codes, bases):
        with pytest.raises(ValueError, match="weight"):
            simulate(codes["2_3"], bases["2_3"], FixedWeight(8), trials=10, seed=0)

    def test_record_field_order(self, codes, bases):
        report = simulate(codes["2_3"], bases["2_3"], FixedWeight(1), trials=10, seed=4)
        assert report.record() == (
            "trials=10 successes=10 failures_flagged=0 miscorrections=0 "
            "seed=4 model=fixed_weight(1)"
        )
