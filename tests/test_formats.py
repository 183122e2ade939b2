import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_gb import LinearCode, SchubertSpec, enumerate_schubert_points, index_tuples
from schubert_gb import formats
from schubert_gb.formats import (
    format_basis,
    format_matrix,
    format_points,
    parse_basis,
    parse_element_lines,
    parse_matrix,
)
from schubert_gb.fixtures import FixtureMissingError, load_basis, load_spot_elements
from schubert_gb.groebner import (
    Binomial,
    ReducedGroebnerBasis,
    _binomials,
    coset_engine,
)
from schubert_gb.reference import element_sort_key
from schubert_gb.schubert import generator_matrix
from schubert_gb.words import monomial_from_string, word_from_string

from conftest import A_1_4, validated_masks


def same_outcome(text):
    """parse_basis and parse_element_lines agree with the per-factor parser
    over the whole text, the reference reader, and with the basis checks
    over its masks: the same result, or a ValueError with the same message."""
    try:
        n, masks = formats._parse_factorwise(text, None)
    except ValueError as exc:
        for read in (parse_element_lines, parse_basis):
            with pytest.raises(ValueError) as err:
                read(text)
            assert str(err.value) == str(exc)
        return
    assert parse_element_lines(text) == (n, list(_binomials(*masks)))
    try:
        basis = validated_masks(n, *masks) if n is not None else None
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_basis(text)
        assert str(err.value) == str(exc)
        return
    if basis is None:
        with pytest.raises(ValueError, match="missing"):
            parse_basis(text)
    else:
        assert parse_basis(text) == basis


# one edit of a written file over the characters its grammar is made of
EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(min_value=0),
    st.sampled_from(list("x0123456789*^- \n#\r")),
)
FIXTURE_TEXT = format_basis(load_basis("1_4"))


# arbitrary text, and text over the characters both grammars are made of
FUZZ_TEXT = st.one_of(st.text(max_size=80), st.text(" \t\n-+#*^x0123456789n=.e_", max_size=80))


class TestFuzz:
    @given(st.sampled_from(["", "1 3 2\n", "2 2 5\n", "0 4 3\n"]), FUZZ_TEXT)
    @settings(max_examples=300)
    def test_parse_matrix_raises_only_value_error(self, header, body):
        try:
            parse_matrix(header + body)
        except ValueError:
            pass

    @given(st.sampled_from(["", "# n=3 order=degrevlex field=GF(2)\n"]), FUZZ_TEXT)
    @settings(max_examples=300)
    def test_parse_basis_raises_only_value_error(self, header, body):
        try:
            parse_basis(header + body)
        except ValueError:
            pass


    @given(st.sampled_from(["", "# n=3 order=degrevlex field=GF(2)\n"]), FUZZ_TEXT)
    @settings(max_examples=300)
    def test_any_text_reads_as_the_per_factor_parser(self, header, body):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_BULK_MIN_BYTES", 0)  # the bulk reader takes every slice it can
            same_outcome(header + body)

    @given(st.lists(EDITS, min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_edited_writer_output_reads_as_the_per_factor_parser(self, edits):
        text = FIXTURE_TEXT
        for kind, at, char in edits:
            at %= len(text)
            if kind == "replace":
                text = text[:at] + char + text[at + 1:]
            elif kind == "insert":
                text = text[:at] + char + text[at:]
            else:
                text = text[:at] + text[at + 1:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_BULK_MIN_BYTES", 0)  # the bulk reader takes every slice it can
            same_outcome(text)



class TestMatrixFormat:
    def test_roundtrip_bytes(self):
        text = format_matrix(A_1_4, 2)
        assert text.splitlines()[0] == "3 7 2"
        M, p = parse_matrix(text)
        assert p == 2 and (M == A_1_4).all()
        assert format_matrix(M, p) == text

    def test_gf3_roundtrip(self):
        M0 = np.array([[0, 1, 2], [2, 2, 0]])
        M, p = parse_matrix(format_matrix(M0, 3))
        assert p == 3 and (M == M0).all()

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_matrix("3 x 2\n1 0 1\n")

    def test_wrong_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            parse_matrix("2 3 2\n1 0 1\n")

    def test_entry_beyond_int64_refused(self):
        with pytest.raises(ValueError, match="fit in int64"):
            parse_matrix("1 2 2\n99999999999999999999 0\n")

    @pytest.mark.parametrize("row", ["1_0 1", "1 +-0", "1 1.0"])
    def test_row_of_other_than_ascii_integers_refused(self, row):
        with pytest.raises(ValueError, match=f"^bad matrix row {re.escape(repr(row))}: expected integers$"):
            parse_matrix(f"1 2 11\n{row}\n")

    def test_row_signs_and_blanks_read(self):
        assert parse_matrix("1 3 11\n +1\t-0  10 \r\n")[0].tolist() == [[1, 0, 10]]

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            parse_matrix("1 3 2\n1 0 2\n")

    def test_comments_and_blank_lines_ignored(self):
        M, p = parse_matrix("# a note\n\n1 2 2\n\n1 0\n")
        assert M.tolist() == [[1, 0]]


class TestBasisFormat:
    def test_roundtrip_equality(self, bases):
        for tag in ("1_4", "2_3", "1_5"):
            gb = bases[tag]
            assert parse_basis(format_basis(gb)) == gb

    def test_fixture_listing_parses_to_engine_output(self, bases):
        assert load_basis("1_4") == bases["1_4"]

    def test_writer_sorts_ascending(self, bases):
        lines = format_basis(bases["1_4"]).splitlines()
        assert lines[0] == "# n=7 order=degrevlex field=GF(2)"
        assert lines[1].startswith("x7^2")  # degrevlex-least degree-2 lead

    def test_whitespace_tolerant(self):
        text = (
            "# n=3  order=degrevlex   field=GF(2)\n"
            " x1^2 - 1\n"
            "x2^2-1\n"
            "  x3^2 - 1 \n"
            "x1*x2 -  x3\n"
        )
        gb = parse_basis(text)
        assert len(gb.elements) == 4 and gb.code_binomials[0].lead == 0b11

    def test_parse_accepts_any_element_order(self, bases):
        gb = bases["2_3"]
        lines = format_basis(gb).splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        assert parse_basis("\n".join(shuffled)) == gb

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_basis("x1^2 - 1\n")

    def test_header_n_above_word_limit_rejected(self):
        fields = "".join(f"x{i}^2 - 1\n" for i in range(1, 66))
        with pytest.raises(ValueError, match="word length 65 exceeds limit 64"):
            parse_basis("# n=65 order=degrevlex field=GF(2)\n" + fields)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds limit 64"):
                parse_basis("# n=100000 order=degrevlex field=GF(2)\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before anything sized by n is built
        with pytest.raises(ValueError, match="^word length 65 exceeds limit 64$"):
            parse_basis("# n=65 order=degrevlex field=GF(2)\n# n=2 order=degrevlex field=GF(2)\n"
                        "x1^2 - 1\nx2^2 - 1\n")  # refused where it is read

    def test_other_orders_rejected(self):
        with pytest.raises(ValueError, match="degrevlex"):
            parse_basis("# n=2 order=lex field=GF(2)\nx1^2 - 1\nx2^2 - 1\n")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: parse_basis checks that a basis "
                       "is reduced, not that it is complete")
    def test_incomplete_basis_rejected(self, bases):
        # without its sixth code binomial the c_2_4 basis is still reduced, but normal_form
        # then misses the coset leader of 32 in 20,000 words drawn by default_rng(0)
        header, *lines = format_basis(bases["2_4"]).splitlines(keepends=True)
        del lines[[i for i, line in enumerate(lines) if "^2" not in line][5]]
        with pytest.raises(ValueError):
            parse_basis(header + "".join(lines))

    def test_bad_term_grammar(self):
        with pytest.raises(ValueError, match="factor"):
            parse_element_lines("x1*y2 - 1\n")
        with pytest.raises(ValueError, match="term - term"):
            parse_element_lines("x1*x2\n")
        with pytest.raises(ValueError, match="exponent"):
            parse_element_lines("x1^3 - 1\n")

    # each malformed term and its exact message; the first faulty factor from
    # the left decides, and within one factor: bad factor, repeated
    # variable, then exponent; mixing squared and plain is checked last
    @pytest.mark.parametrize("term,message", [
        ("x1*y2", "bad term factor 'y2'"),
        ("x1**x2", "bad term factor ''"),
        ("x", "bad term factor 'x'"),
        ("x1 * x2^", "bad term factor ' x2^'"),
        ("x1*x3*x1", "repeated variable x1 in term 'x1*x3*x1'"),
        ("x2^2*x2", "repeated variable x2 in term 'x2^2*x2'"),
        ("x1*x01", "repeated variable x1 in term 'x1*x01'"),
        ("x1^2*x2^2", "more than one squared variable in 'x1^2*x2^2'"),
        ("x1^2*x2", "mixed squared and plain factors in 'x1^2*x2'"),
        ("x3*x1^2", "mixed squared and plain factors in 'x3*x1^2'"),
        ("x1^3", "unsupported exponent 3 in 'x1^3'"),
        ("x1^0", "unsupported exponent 0 in 'x1^0'"),
        # precedence: the leftmost fault wins over later ones of any kind
        ("x1^3*y2", "unsupported exponent 3 in 'x1^3*y2'"),
        ("y2*x1^3", "bad term factor 'y2'"),
        ("x1*x1^3", "repeated variable x1 in term 'x1*x1^3'"),
        ("x1^2*x2^2*x3", "more than one squared variable in 'x1^2*x2^2*x3'"),
        ("x1^2*x2*x2", "repeated variable x2 in term 'x1^2*x2*x2'"),
        ("x1^2*x2*x4^5", "unsupported exponent 5 in 'x1^2*x2*x4^5'"),
        # x1..x64 only: x0 is no variable name, while x01 reads as x1
        ("x0", "bad term factor 'x0'"),
        ("x00*x1", "bad term factor 'x00'"),
        ("x0^2", "bad term factor 'x0^2'"),
    ])
    def test_malformed_term_messages(self, term, message):
        with pytest.raises(ValueError) as err:
            parse_element_lines(f"{term} - 1\n")
        assert str(err.value) == message

    # each message that quotes input, on an input of about 10^5 characters;
    # blanks around a factor are dropped, so a term can be long without repeats
    PAD = " " * 10**5

    QUOTING = [
        (monomial_from_string, "x2*" * 33_333 + "x2", "repeated variable x2 in term 'x2*x2*"),
        (monomial_from_string, f"x65*{PAD}x2", "variable index 65 too large in 'x65*  "),
        (monomial_from_string, f"x1^2*{PAD}x2^2", "more than one squared variable in 'x1^2*  "),
        (monomial_from_string, f"x1^3*{PAD}x2", "unsupported exponent 3 in 'x1^3*  "),
        (monomial_from_string, f"x1^2*{PAD}x2", "mixed squared and plain factors in 'x1^2*  "),
        (monomial_from_string, f"x2^2{PAD}", "squared factor x2^2 in monomial 'x2^2'"),
        (monomial_from_string, "y" * 10**5, "bad term factor 'yyy"),
        (monomial_from_string, "x" + "1" * 10**5, "bad term factor 'x111"),
        (monomial_from_string, "x1^" + "2" * 10**5, "bad term factor 'x1^222"),
        (monomial_from_string, "x" + "0" * 10**5 + "1", "bad term factor 'x000"),
        (word_from_string, "2" * 10**5, "not a binary word: '222"),
        (parse_element_lines, f"x1*{PAD}x2\n", "expected 'term - term', got 'x1*  "),
        (parse_element_lines, f"x1*x2 -{PAD}x3^2\n", "squared trail not supported: 'x1*x2 -  "),
        (parse_element_lines, f"x1^2 -{PAD}x2\n", "field relation must have trail 1: 'x1^2 -  "),
        (parse_element_lines, f"# n=3 order={'a' * 10**5} field=GF(2)\n", "unsupported order 'aaa"),
        (parse_matrix, f"3 7 {PAD}x\n", "bad matrix header '3 7  "),
        (parse_matrix, "1 2 2\n" + "y" * 10**5 + " 0\n", "bad matrix row 'yyy"),
        (parse_matrix, "1 2 2\n" + "9" * 5000 + " 0\n", "bad matrix row '999"),
    ]

    @pytest.mark.parametrize("parse,text,head", QUOTING,
                             ids=[head.partition(" '")[0] for _, _, head in QUOTING])
    def test_messages_quote_a_bounded_prefix(self, parse, text, head):
        with pytest.raises(ValueError) as err:
            parse(text)
        message = str(err.value)
        assert message.startswith(head) and len(message) < 200

    @pytest.mark.parametrize("term,mask", [
        ("x1*x2*x5", 0b10011),
        (" x1 * x3 ", 0b101),
        ("x01*x2", 0b11),
        ("x2^1", 0b10),
        ("x64*x1", (1 << 63) | 1),
    ])
    def test_plain_term_masks(self, term, mask):
        assert parse_element_lines(f"{term} - 1\n")[1] == [Binomial(mask, 0, "code")]

    def test_huge_variable_index_refused_before_its_bit_is_built(self):
        with pytest.raises(ValueError, match="variable index 99999999999 too large"):
            parse_element_lines("x1*x99999999999 - 1\n")
        # past x64 no mask fits a uint64 word, whatever the header's n
        with pytest.raises(ValueError, match="^variable index 65 too large in 'x65'$"):
            parse_element_lines("x65 - 1\n")

    @pytest.mark.parametrize("line,message", [
        ("x1*x2 - x3^2", "squared trail not supported: 'x1*x2 - x3^2'"),
        ("x1^2 - x2", "field relation must have trail 1: 'x1^2 - x2'"),
        ("x1*x2 - x3 - 1", "expected 'term - term', got 'x1*x2 - x3 - 1'"),
    ])
    def test_malformed_line_messages(self, line, message):
        with pytest.raises(ValueError) as err:
            parse_basis(f"# n=3 order=degrevlex field=GF(2)\n{line}\n")
        assert str(err.value) == message

    @pytest.mark.parametrize("digits", [20, 4000, 5000])
    @pytest.mark.parametrize("parse,header,head", [
        (parse_basis, "# n={} order=degrevlex field=GF(2)\n", "word length '111"),
        (parse_matrix, "{} 7 2\n1 0 0 0 1 1 1\n", "bad matrix header '111"),
    ], ids=["basis", "matrix"])
    def test_overlong_header_number_refused(self, parse, header, head, digits):
        # 4,000 digits lie below int()'s 4,300-digit conversion limit, 5,000 past it
        with pytest.raises(ValueError) as err:
            parse(header.format("1" * digits))
        message = str(err.value)
        assert message.startswith(head) and len(message.encode()) < 300

    def test_absent_fixture_is_named(self):
        # only c_1_4 and c_2_3 have complete listings
        with pytest.raises(FixtureMissingError, match="^fixture 'c_1_5.gb.txt' is missing$"):
            load_basis("1_5")

    def test_spot_fixture_files_parse(self):
        for tag in ("1_5", "2_4"):
            spots = load_spot_elements(tag)
            assert len(spots) == 12
            assert all(b.kind == "code" for b in spots)


class TestBulkReader:
    """The sliced array reader against the per-factor parser it falls back to.

    Slices of every size are offered to the bulk reader here, small ones too.
    """

    @pytest.fixture(autouse=True)
    def bulk_for_every_slice(self, monkeypatch):
        monkeypatch.setattr(formats, "_BULK_MIN_BYTES", 0)

    def test_shuffled_writer_lines(self, bases):
        rng = random.Random(3)
        for tag in ("1_4", "1_5", "2_3", "2_4"):
            header, *lines = format_basis(bases[tag]).splitlines(keepends=True)
            rng.shuffle(lines)
            text = header + "".join(lines)
            same_outcome(text)
            assert parse_basis(text) == bases[tag]

    def test_writer_lines_take_the_bulk_path(self, monkeypatch, bases):
        monkeypatch.undo()  # the default slice size threshold
        fallback = []

        def spy(text, n):
            fallback.append(text)
            return factorwise_into(text, n)

        factorwise_into = formats._parse_factorwise
        monkeypatch.setattr(formats, "_parse_factorwise", spy)
        header, *lines = format_basis(bases["2_4"]).splitlines(keepends=True)
        assert parse_basis(header + "".join(lines[::-1])) == bases["2_4"]
        assert fallback == [header]  # 78 kB of writer lines, not in writer order, in bulk
        for tag in ("1_4", "2_3"):  # the small transcribed listings go factor by factor
            fallback.clear()
            assert load_basis(tag) == parse_basis(format_basis(bases[tag])) == bases[tag]
            assert [t.count("\n") for t in fallback] == [22, 22]  # each file whole
        monkeypatch.setattr(formats, "_BULK_MIN_BYTES", 0)
        for tag in ("1_4", "2_3"):  # which the bulk reader takes when offered
            fallback.clear()
            assert load_basis(tag) == bases[tag]
            assert fallback == ["# n=7 order=degrevlex field=GF(2)\n"]

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace(" - ", "  -  "),
        lambda t: t.replace("*", " * ", 3),
        lambda t: "# a comment\n" + t.replace("x2^2 - 1\n", "x2^2 - 1\n# another\n\n"),
        lambda t: t.rstrip("\n"),
        lambda t: t + "x1*x2*x3*x4*x5*x6*x7 - 1",
        lambda t: t.replace("x1*x2 ", "x2*x1 ", 1),
        lambda t: t.replace("x7", "x07", 1),
        lambda t: t.replace("x3^2 - 1", "x3^2 - x1", 1),
        lambda t: t.replace("x3^2 - 1", "x1*x3^2 - 1", 1),
        lambda t: t.replace("x3^2 - 1", "x3^3 - 1", 1),
        lambda t: t.replace("x4", "x8", 1),
        lambda t: t.replace("x4", "x44", 1),
        lambda t: t.replace("n=7", "n=8", 1),
        lambda t: t.replace("n=7", "n=0", 1),
        lambda t: t + "# n=7 order=lex field=GF(2)\n",
        lambda t: t.replace("n=7 order=degrevlex", "n=99999 order=degrevlex", 1),
    ])
    def test_edited_files_read_as_the_per_factor_parser(self, bases, edit):
        text = edit(format_basis(bases["1_4"]))
        same_outcome(text)

    def test_two_digit_indices_and_x64(self, wide_code):
        gb = coset_engine(wide_code)
        text = format_basis(gb)
        assert "x64" in text and "x10" in text
        same_outcome(text)
        assert parse_basis(text) == gb
        assert format_basis(parse_basis(text)) == text

    def test_n64_round_trip(self):
        leads = [(1 << 63) | (1 << 62), (1 << 63) | 1, 0b11 << 31]
        elements = [Binomial(lead, 0, "code") for lead in leads]
        elements += [Binomial(1 << i, 0, "field") for i in range(64)]
        # the order of the field relation x64^2 - 1 among degree-2 leads
        # passes 64 bits; the reference sort key has no such limit
        gb = ReducedGroebnerBasis(64, tuple(sorted(elements, key=element_sort_key)))
        text = format_basis(gb)
        assert text.splitlines()[1] == "x64^2 - 1"
        same_outcome(text)
        assert parse_basis(text) == gb

    @pytest.mark.parametrize("size", [1, 5, 2126])  # 2126: a last slice of one line
    def test_lines_split_across_slices(self, monkeypatch, bases, size):
        monkeypatch.setattr(formats, "_SLICE_LINES", size)
        text = format_basis(bases["2_4"])
        assert parse_basis(text) == bases["2_4"]
        assert format_basis(bases["2_4"]) == text  # the writer slices too
        lines = text.splitlines(keepends=True)
        # a faulty line in the third slice, and one fallback slice among bulk ones
        for at, bad in ((12, "x1*y2 - 1\n"), (12, "x2*x1 - x3\n"), (1, "# note\n")):
            same_outcome("".join(lines[:at] + [bad] + lines[at:]))

    def test_format_and_parse_stay_sliced(self):
        G = generator_matrix(SchubertSpec(l=2, m=6, q=2, alpha=(1, 6)))
        order = np.random.default_rng(0).permutation(G.shape[1])
        gb = coset_engine(LinearCode.from_generator(G[:, np.sort(order[:24])]))
        tracemalloc.start()
        try:
            text = format_basis(gb)
            parsed = parse_basis(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == gb
        assert peak < len(text) + (8 << 20)


class TestPointsFormat:
    def test_header_names_tuple_order(self):
        spec = SchubertSpec(l=2, m=4, q=2, alpha=(1, 3))
        pts = enumerate_schubert_points(spec)
        text = format_points(pts, list(index_tuples(2, 4)))
        lines = text.splitlines()
        assert lines[0].startswith("# plucker coordinates, tuple order: (1,2)")
        assert len(lines) == len(pts) + 1
        assert lines[1].count(",") == len(index_tuples(2, 4)) - 1
