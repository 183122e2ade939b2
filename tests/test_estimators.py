import functools
import re
import tracemalloc

import numpy as np
import pytest

from schubert_gb import (
    EnumerationLimitError,
    GroebnerDecoder,
    NotFittedError,
    SyndromeTableDecoder,
    capability,
    coset_engine,
    estimators,
    gb_decode,
    syndrome_decode,
)
from schubert_gb.decoding import DECODED
from schubert_gb.reference import bits_from_mask
from schubert_gb.words import masks_of_rows

from conftest import A_1_4


def corrupted_batch(code, flips_per_row=1):
    cw = code.codeword_masks()
    rng = np.random.default_rng(12)
    sent, received = [], []
    for _ in range(20):
        c = int(cw[rng.integers(len(cw))])
        e = 0
        while e.bit_count() < flips_per_row:
            e |= 1 << int(rng.integers(code.n))
        sent.append(bits_from_mask(c, code.n))
        received.append(bits_from_mask(c ^ e, code.n))
    return np.array(received), np.array(sent)


class TestEstimatorProtocol:
    def test_get_set_params_roundtrip(self):
        est = GroebnerDecoder(mode="complete")
        assert est.get_params() == {"mode": "complete"}
        est.set_params(mode="bounded")
        assert est.mode == "bounded"
        assert GroebnerDecoder().get_params() == {"mode": "bounded"}
        assert SyndromeTableDecoder().get_params() == {}

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            GroebnerDecoder().set_params(gamma=1)

    def test_repr_shows_params(self):
        assert repr(GroebnerDecoder()) == "GroebnerDecoder(mode='bounded')"
        assert repr(SyndromeTableDecoder()) == "SyndromeTableDecoder()"

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            GroebnerDecoder().predict(np.zeros((1, 7), dtype=int))
        with pytest.raises(NotFittedError):
            SyndromeTableDecoder().decode("0000000")
        X = np.zeros((1, 7), dtype=int)
        with pytest.raises(NotFittedError):
            GroebnerDecoder().score(X, X)
        with pytest.raises(NotFittedError):
            SyndromeTableDecoder().score(X, X)

    def test_fit_returns_self(self):
        est = GroebnerDecoder()
        assert est.fit(A_1_4) is est

    def test_fit_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown decode mode 'maybe'"):
            GroebnerDecoder(mode="maybe").fit(A_1_4)

    def test_set_params_unknown_mode_rejected_at_fit(self):
        est = GroebnerDecoder().fit(A_1_4).set_params(mode="maybe")
        with pytest.raises(ValueError, match="unknown decode mode 'maybe'"):
            est.fit(A_1_4)


class TestGroebnerDecoder:
    def test_fit_learns_capability(self):
        est = GroebnerDecoder().fit(A_1_4)
        assert est.t_ == 1 and est.n_features_in_ == 7
        assert len(est.basis_.elements) == 21

    def test_fit_runs_the_coset_engine(self, monkeypatch, codes):
        calls = []

        def spy(code):
            calls.append(code)
            return coset_engine(code)

        monkeypatch.setattr(estimators, "coset_engine", spy)
        for code in codes.values():
            est = GroebnerDecoder().fit(code.generator)
            assert est.basis_ == coset_engine(code)
            assert est.t_ == capability(est.basis_)
        assert len(calls) == len(codes)

    def test_fit_refuses_a_long_code_before_its_parity_check(self):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="parity check entries"):
                GroebnerDecoder().fit(np.zeros((0, 10**6), dtype=int))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before the 10^6 x 10^6 parity check is sized

    def test_decode_accepts_every_word_form(self, bases):
        est = GroebnerDecoder().fit(A_1_4)
        forms = [
            "1111100",
            "x1*x2*x3*x4*x5",
            0b0011111,
            [1, 1, 1, 1, 1, 0, 0],
        ]
        outcomes = [est.decode(w) for w in forms]
        assert all(o == outcomes[0] for o in outcomes)
        assert outcomes[0].status == DECODED and outcomes[0].error == 0b0001000

    def test_predict_and_score_recover_single_errors(self, codes):
        est = GroebnerDecoder().fit(codes["1_4"])
        received, sent = corrupted_batch(codes["1_4"], flips_per_row=1)
        assert (est.predict(received) == sent).all()
        assert est.score(received, sent) == 1.0

    def test_bounded_mode_passes_heavy_rows_through(self, codes):
        est = GroebnerDecoder().fit(codes["1_4"])
        received, sent = corrupted_batch(codes["1_4"], flips_per_row=2)
        out = est.predict(received)
        assert (out == received).all()  # nothing within radius, all passed through
        assert est.score(received, sent) == 0.0

    def test_complete_mode_always_returns_codewords(self, codes):
        est = GroebnerDecoder(mode="complete").fit(codes["1_4"])
        received, _ = corrupted_batch(codes["1_4"], flips_per_row=3)
        cw = {int(c) for c in codes["1_4"].codeword_masks()}
        for row in est.predict(received):
            mask = sum(int(b) << i for i, b in enumerate(row))
            assert mask in cw



class TestScore:
    @pytest.mark.parametrize("sent_rows", [1, 2, 6])
    def test_row_counts_must_match(self, codes, sent_rows):
        for est in (GroebnerDecoder(), SyndromeTableDecoder()):
            est.fit(codes["1_4"])
            with pytest.raises(ValueError, match=rf"^X has 5 rows but y has {sent_rows}$"):
                est.score(np.zeros((5, 7), dtype=int), np.zeros((sent_rows, 7), dtype=int))
            assert est.score(np.zeros(7, dtype=int), np.zeros((1, 7), dtype=int)) == 1.0


class TestSyndromeTableDecoder:
    def test_agrees_with_groebner_within_radius(self, codes):
        gd = GroebnerDecoder().fit(codes["2_3"])
        sd = SyndromeTableDecoder().fit(codes["2_3"])
        received, sent = corrupted_batch(codes["2_3"], flips_per_row=1)
        assert (gd.predict(received) == sd.predict(received)).all()
        assert sd.score(received, sent) == 1.0

    def test_decode_returns_codeword_and_error(self, codes):
        sd = SyndromeTableDecoder().fit(codes["1_4"])
        codeword, error = sd.decode("1111100")
        assert codeword == 0b0010111 and error == 0b0001000


class TestBatchConversion:
    """predict converts rows to masks and back in one array step each."""

    def test_predict_equals_per_row_decode_on_64_bit_words(self, wide_code):
        X = np.random.default_rng(64).integers(0, 2, (40, 64))
        X[:, 63] = 1
        for mode in ("bounded", "complete"):
            est = GroebnerDecoder(mode=mode).fit(wide_code)
            want = []
            for row, received in zip(X, masks_of_rows(X).tolist()):
                outcome = est.decode(row)
                mask = outcome.codeword if outcome.status == DECODED else received
                want.append(bits_from_mask(mask, 64))
            got = est.predict(X)
            assert got.dtype == np.int64 and (got == np.array(want)).all()
        sd = SyndromeTableDecoder().fit(wide_code)
        want = [bits_from_mask(sd.decode(row)[0], 64) for row in X]
        assert (sd.predict(X) == np.array(want)).all()

    def test_predict_equals_gb_decode_on_every_word(self, codes):
        for tag in ("1_4", "2_3"):
            X = np.array([bits_from_mask(w, 7) for w in range(1 << 7)])
            for mode in ("bounded", "complete"):
                est = GroebnerDecoder(mode=mode).fit(codes[tag])
                want = []
                for w in range(1 << 7):
                    outcome = gb_decode(w, est.basis_, mode)
                    want.append(bits_from_mask(outcome.codeword if outcome.status == DECODED else w, 7))
                assert (est.predict(X) == np.array(want)).all(), (tag, mode)
            sd = SyndromeTableDecoder().fit(codes[tag])
            want = [bits_from_mask(syndrome_decode(w, sd.table_, sd.code_), 7) for w in range(1 << 7)]
            assert (sd.predict(X) == np.array(want)).all(), tag

    def test_empty_batch(self, codes):
        for est in (GroebnerDecoder().fit(codes["1_4"]), SyndromeTableDecoder().fit(codes["1_4"])):
            assert est.predict(np.zeros((0, 7), dtype=int)).shape == (0, 7)

    @pytest.mark.parametrize("decoder", [GroebnerDecoder, SyndromeTableDecoder])
    def test_predict_takes_a_1d_row_as_one_row(self, codes, decoder):
        est = decoder().fit(codes["1_4"])
        row = np.array(bits_from_mask(0b1000011, 7))
        assert (est.predict(row) == est.predict(row[None])).all()
        assert est.predict(row).shape == (1, 7)

    @pytest.mark.parametrize("decoder", [GroebnerDecoder, SyndromeTableDecoder])
    @pytest.mark.parametrize("X,message", [
        (np.zeros((2, 6), dtype=int), "expected words of length 7, got shape (2, 6)"),
        (np.zeros(8, dtype=int), "expected words of length 7, got shape (1, 8)"),
        (np.zeros((1, 2, 7), dtype=int), "expected words of length 7, got shape (1, 2, 7)"),
        (np.full((3, 7), 2), "words must be 0/1 arrays"),
        (-np.ones((1, 7), dtype=int), "words must be 0/1 arrays"),
    ], ids=["width", "1d-width", "3d", "two", "minus-one"])
    def test_predict_refuses_malformed_batches(self, codes, decoder, X, message):
        est = decoder().fit(codes["1_4"])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            est.predict(X)


# words given as bits that every entry point refuses, with the message it names
MALFORMED_WORDS = {
    "short": ([1, 0, 1], "expected words of length 7, got shape (1, 3)"),
    "long": ([1, 0, 1, 1, 0, 0, 0, 0, 0], "expected words of length 7, got shape (1, 9)"),
    "half": ([0.5, 1, 1, 1, 1, 0, 0], "words must be 0/1 arrays"),
    "nine-tenths": ([0.9, 1, 1, 1, 1, 0, 0], "words must be 0/1 arrays"),
    "digit-strings": (list("1011000"), "words must be 0/1 arrays"),
    "complex": (np.array([1, 0, 1, 1, 0, 0, 0], dtype=complex), "words must be 0/1 arrays"),
    "scalar-float": (3.7, "expected words of length 7, got shape ()"),
}


class TestWordsGivenAsBits:
    """Every word given as bits passes the one row check, whichever entry point takes it."""

    ENTRY_POINTS = {
        "gb-decode": lambda gd, sd, w: gd.decode(w),
        "table-decode": lambda gd, sd, w: sd.decode(w),
        "predict": lambda gd, sd, w: gd.predict(w),
        "score": lambda gd, sd, w: sd.score(w, w),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_malformed_words_refused_and_other_dtypes_read_as_ints(self, codes, entry):
        gd, sd = GroebnerDecoder().fit(codes["1_4"]), SyndromeTableDecoder().fit(codes["1_4"])
        call = functools.partial(self.ENTRY_POINTS[entry], gd, sd)
        refused = dict(MALFORMED_WORDS)
        if entry.endswith("decode"):  # a batch of two rows is one word too many
            refused["two-rows"] = (np.zeros((2, 7), dtype=int),
                                   "expected one word of length 7, got shape (2, 7)")

        def outcome(word):
            try:
                call(word)
            except ValueError as exc:
                return str(exc)
            return "accepted"

        assert {name: outcome(w) for name, (w, _) in refused.items()} == {
            name: message for name, (_, message) in refused.items()}
        X = np.array([bits_from_mask(w, 7) for w in range(1 << 7)])
        for dtype in (bool, np.uint8, float):
            if entry.endswith("decode"):
                assert [call(row.astype(dtype)) for row in X] == [call(row) for row in X], dtype
            else:
                assert np.array_equal(call(X.astype(dtype)), call(X)), dtype
