import hashlib
import itertools

import numpy as np
import pytest

from schubert_gb import (
    BSC,
    FixedWeight,
    LinearCode,
    coset_engine,
    gb_decode,
    simulate,
    syndrome,
    syndrome_decode,
)
from schubert_gb import decoding
from schubert_gb.decoding import DECODED, TOO_MANY_ERRORS
from schubert_gb.fixtures import expected_params
from schubert_gb.reference import TrialStream, cross_check, draw_error
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


class TestCanonicalMany:
    """The batch decode path gives what the scalar one gives, word by word."""

    @pytest.mark.parametrize("mode", ["bounded", "complete"])
    def test_equals_canonical_word_by_word(self, bases, mode):
        for gb in bases.values():
            words = np.arange(min(1 << gb.n, 1 << 15), dtype=np.uint64) * np.uint64(13) % np.uint64(1 << gb.n)
            canonical, decoded = decoding._canonical_many(words, gb, mode)
            want = [decoding._canonical(w, gb, mode) for w in words.tolist()]
            assert canonical.tolist() == [c for c, _ in want]
            assert decoded.dtype == bool and decoded.tolist() == [d for _, d in want]

    def test_unknown_mode(self, bases):
        with pytest.raises(ValueError, match="unknown decode mode 'maybe'"):
            decoding._canonical_many(np.zeros(0, dtype=np.uint64), bases["1_4"], "maybe")

    def test_no_code_binomials(self):
        gb = coset_engine(LinearCode.from_generator(np.zeros((0, 5), dtype=int), 2))  # k = 0
        words = np.arange(1 << 5, dtype=np.uint64)
        with pytest.raises(ValueError) as scalar:
            decoding._canonical(3, gb, "bounded")
        with pytest.raises(ValueError) as batch:
            decoding._canonical_many(words, gb, "bounded")
        assert str(batch.value) == str(scalar.value) == "capability undefined: basis has no code binomials"
        canonical, decoded = decoding._canonical_many(words, gb, "complete")
        assert np.array_equal(canonical, words) and decoded.all()


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

    def test_negative_trials_refused(self, codes, bases):
        with pytest.raises(ValueError, match=r"trials must be >= 0"):
            simulate(codes["2_3"], bases["2_3"], FixedWeight(1), trials=-5, seed=0)

    def test_model_checked_before_trials(self, codes, bases):
        with pytest.raises(ValueError, match="probability"):
            simulate(codes["2_3"], bases["2_3"], BSC(-0.1), trials=-5, seed=0)
        with pytest.raises(ValueError, match=r"fixed error weight must be in \[0, 7\]"):
            simulate(codes["2_3"], bases["2_3"], FixedWeight(-1), trials=10**18, seed=0)

    def test_record_field_order(self, codes, bases):
        report = simulate(codes["2_3"], bases["2_3"], FixedWeight(1), trials=10, seed=4)
        assert report.record() == (
            "trials=10 successes=10 failures_flagged=0 miscorrections=0 "
            "seed=4 model=fixed_weight(1)"
        )


class TestTrialStream:
    """The simulator's uint64 array stream against the scalar reference stream."""

    SEEDS = (0, 1, 2024, 2**63 + 5, 2**64 - 1, -1, 2**70 + 3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_match_scalar_stream(self, seed):
        start, stop, count = 5, 45, 12
        draws = decoding._draws(seed, start, stop, count)
        assert draws.dtype == np.uint64 and draws.shape == (stop - start, count)
        for row, trial in zip(draws.tolist(), range(start, stop)):
            rng = TrialStream(seed, trial)
            assert row == [rng.next64() for _ in range(count)]

    @pytest.mark.parametrize(
        "model",
        [FixedWeight(0), FixedWeight(1), FixedWeight(3), FixedWeight(19),
         BSC(0.0), BSC(0.05), BSC(0.5), BSC(1.0)],
        ids=lambda m: m.label(),
    )
    def test_errors_match_scalar_draws(self, model):
        n, trials = 19, 64
        for seed in self.SEEDS:
            draws = decoding._draws(seed, 0, trials, n + 1)
            got = model._errors(draws[:, 1:], n).tolist()
            want = []
            for trial in range(trials):
                rng = TrialStream(seed, trial)
                rng.next64()  # draw 0 picks the codeword
                want.append(draw_error(model, rng, n))
            assert got == want, seed
            if isinstance(model, FixedWeight):
                assert all(e.bit_count() == model.weight for e in got)

    def test_full_crossover_flips_every_position_of_a_64_bit_word(self):
        draws = decoding._draws(3, 0, 4, 65)
        assert BSC(1.0)._errors(draws[:, 1:], 64).tolist() == [(1 << 64) - 1] * 4


# sha256 of the record() lines below, generated by the simulator's scalar
# per-trial stream before trials were drawn in blocks
RECORDS_SHA256 = "71959343d67b52784d2e11b95658409073d1e7b0620c4ead23254eaefae3d3bf"


def test_records_pinned_across_blocks(codes, bases, monkeypatch):
    """Trial counts 0, 1, block - 1, block, block + 1 and several blocks, with
    the block shrunk to 16, at seeds at and beyond the 64-bit edges."""
    block = 16
    monkeypatch.setattr(decoding, "_BLOCK", block)
    lines = []
    for tag, code in codes.items():
        t = expected_params()[tag]["t"]
        models = (FixedWeight(0), FixedWeight(t), FixedWeight(t + 2), FixedWeight(code.n),
                  BSC(0.0), BSC(0.05), BSC(0.3), BSC(1.0))
        for model in models:
            for trials in (0, 1, block - 1, block, block + 1, 100):
                for seed in (0, 7, 2**63 + 5, 2**64 - 1, -1):
                    report = simulate(code, bases[tag], model, trials, seed)
                    lines.append(f"c_{tag} {report.record()}")
    assert len(lines) == 960
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RECORDS_SHA256
