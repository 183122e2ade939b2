import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schubert_gb.reference import bits_from_mask, lex_key, mask_from_support
from schubert_gb.validation import check_word_mask
from schubert_gb.words import (
    WORD_LIMIT,
    degrevlex_key,
    masks_of_rows,
    monomial_from_string,
    monomial_to_string,
    rows_of_masks,
    small_int,
    support,
    weight,
    word_from_string,
    word_to_string,
)


def test_mask_support_roundtrip():
    assert mask_from_support([1, 2, 5]) == 0b10011
    assert support(0b10011) == (1, 2, 5)
    assert mask_from_support([]) == 0
    assert support(0) == ()


def test_word_string_convention():
    # leftmost character is position 1
    mask, n = word_from_string("1101000")
    assert n == 7
    assert support(mask) == (1, 2, 4)
    assert word_to_string(mask, 7) == "1101000"


def test_word_string_rejects_junk():
    with pytest.raises(ValueError):
        word_from_string("10a1")
    with pytest.raises(ValueError):
        word_from_string("1" * 65)


@pytest.mark.parametrize("text, value", [
    ("7", 7), (" +7 ", 7), ("-3", -3), ("\t12\n", 12), ("007", 7), ("9" * 19, 10**19 - 1),
])
def test_small_int_reads_signed_ascii_numbers(text, value):
    assert small_int(text) == value


@pytest.mark.parametrize("text", [
    "1_0", "\u0661", "1\u00a0", "", " ", "+", "++1", "1 2", "0x10", "1.0", "9" * 20, "9" * 5000,
])
def test_small_int_refuses_what_int_reads_beyond_ascii_digits(text):
    with pytest.raises(ValueError, match="^not a short ASCII number$"):
        small_int(text)


def test_monomial_strings():
    assert monomial_from_string("x1*x2*x13") == mask_from_support([1, 2, 13])
    assert monomial_from_string("1") == 0
    assert monomial_to_string(0) == "1"
    assert monomial_to_string(mask_from_support([2, 7])) == "x2*x7"
    with pytest.raises(ValueError):
        monomial_from_string("x1*x1")
    with pytest.raises(ValueError):
        monomial_from_string("y3")


@pytest.mark.parametrize("text,message", [
    ("x0", "bad term factor 'x0'"),
    ("x65", "variable index 65 too large in 'x65'"),
    ("x1*x100000000", "variable index 100000000 too large in 'x1*x100000000'"),
    ("x1^2", "squared factor x1^2 in monomial 'x1^2'"),
    ("x1*x1", "repeated variable x1 in term 'x1*x1'"),
])
def test_monomial_strings_refused_before_any_shift(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            monomial_from_string(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1 << 16  # no mask of 10^8 bits was built


def test_word_mask_message_is_bounded():
    with pytest.raises(ValueError, match=r"^word mask 0x80 out of range for length 7$"):
        check_word_mask(1 << 7, 7)
    with pytest.raises(ValueError, match=r"^word mask of 100000000 bits out of range for length 7$"):
        check_word_mask(1 << 99999999, 7)
    with pytest.raises(ValueError, match=r"^word length 65 exceeds limit 64$"):
        check_word_mask(1, 65)


def test_degrevlex_key_on_masks():
    x1x2 = mask_from_support([1, 2])
    x4x7 = mask_from_support([4, 7])
    # x1*x2 is the greater monomial, so its ascending key is larger
    assert degrevlex_key(x1x2) > degrevlex_key(x4x7)
    assert degrevlex_key(0) < degrevlex_key(1)  # 1 < x1
    # degree dominates
    assert degrevlex_key(mask_from_support([7])) < degrevlex_key(x1x2)


def test_lex_key_orders_position_one_first():
    n = 4
    # 1000 < 0100 < 0010 bitstring-wise is reversed: position 1 most significant
    a = word_from_string("1000")[0]
    b = word_from_string("0100")[0]
    assert lex_key(a, n) > lex_key(b, n)


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_bits_roundtrip(mask):
    assert masks_of_rows(np.array([bits_from_mask(mask, 20)])).tolist() == [mask]
    assert weight(mask) == sum(bits_from_mask(mask, 20))


@pytest.mark.parametrize("n", range(WORD_LIMIT + 1))
def test_rows_and_masks_round_trip(n):
    full = (1 << n) - 1
    masks = [0, full] + [m & full for m in (1 << 63, (1 << 63) | 0b101, 0x9E3779B97F4A7C15)]
    rows = rows_of_masks(np.array(masks, dtype=np.uint64), n)
    assert rows.dtype == np.int64 and rows.tolist() == [bits_from_mask(m, n) for m in masks]
    assert masks_of_rows(rows).dtype == np.uint64 and masks_of_rows(rows).tolist() == masks


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_word_string_roundtrip(mask):
    assert word_from_string(word_to_string(mask, 16))[0] == mask


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_monomial_string_roundtrip(mask):
    assert monomial_from_string(monomial_to_string(mask)) == mask
