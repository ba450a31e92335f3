"""Bracket-notation parsing, error offsets, and the format round trip."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import random_seifert

from seifert_torsion import ParseError, SeifertData, format_seifert, parse_seifert


class TestGrammar:
    def test_full_form(self):
        d = parse_seifert("[0,-1;(2,1),(3,1),(5,1)]")
        assert d == SeifertData(0, -1, ((2, 1), (3, 1), (5, 1)))

    def test_no_pairs(self):
        assert parse_seifert("[1,1]") == SeifertData(1, 1, ())

    def test_empty_pair_list_after_semicolon(self):
        assert parse_seifert("[1,1;]") == SeifertData(1, 1, ())

    def test_whitespace_insensitive(self):
        text = " [ 0 , -1 ;\t( 2 , 1 ) , ( 3 , 1 ) , ( 5 , 1 ) ] "
        assert parse_seifert(text) == SeifertData(0, -1, ((2, 1), (3, 1), (5, 1)))

    def test_negative_entries(self):
        d = parse_seifert("[2,-3;(4,-1)]")
        assert d == SeifertData(2, -3, ((4, -1),))

    def test_single_pair(self):
        assert parse_seifert("[0,0;(7,3)]") == SeifertData(0, 0, ((7, 3),))

    def test_parse_does_not_validate(self):
        # grammar and invariant checks are separate stages
        assert parse_seifert("[-1,0;(4,2)]") == SeifertData(-1, 0, ((4, 2),))


class TestErrors:
    def test_missing_comma_offset(self):
        with pytest.raises(ParseError) as info:
            parse_seifert("[0;1]")
        assert info.value.offset == 2
        assert "','" in str(info.value)

    def test_missing_open_bracket(self):
        with pytest.raises(ParseError) as info:
            parse_seifert("0,1]")
        assert info.value.offset == 0

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse_seifert("[0,1;(2,1]")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse_seifert("[0,1] extra")
        assert "end of input" in info.value.expected

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_seifert("")

    def test_missing_integer(self):
        with pytest.raises(ParseError) as info:
            parse_seifert("[a,1]")
        assert "integer" in info.value.expected

    def test_bare_minus(self):
        with pytest.raises(ParseError):
            parse_seifert("[0,-]")

    def test_pair_needs_parenthesis(self):
        # after ';' the only continuations are '(' or ']'
        with pytest.raises(ParseError) as info:
            parse_seifert("[0,1;2,1]")
        assert info.value.offset == 5


class TestRoundTrip:
    def test_canonical_form(self):
        d = SeifertData(0, -1, ((2, 1), (3, 1), (5, 1)))
        assert format_seifert(d) == "[0,-1;(2,1),(3,1),(5,1)]"

    def test_no_pairs_form(self):
        assert format_seifert(SeifertData(1, 1, ())) == "[1,1]"

    def test_parse_inverts_format(self):
        rng = random.Random(56)
        for _ in range(100):
            d = random_seifert(rng)
            assert parse_seifert(format_seifert(d)) == d


_INT = st.integers(-(10**9), 10**9)
_DATA = st.builds(SeifertData, _INT, _INT, st.lists(st.tuples(_INT, _INT), max_size=4))
# Unicode digits outside 0-9 for which str.isdigit() holds: '٣', '²', ...
_NON_ASCII_DIGIT = st.characters(categories=("Nd", "No")).filter(
    lambda c: c.isdigit() and not c.isascii()
)


class TestProperties:
    @settings(max_examples=200)
    @given(_DATA, _NON_ASCII_DIGIT, st.integers(0, 9), st.integers(0, 11), st.booleans())
    def test_round_trip_and_ascii_only_digits(self, d, digit, slot, at, replace):
        text = format_seifert(d)
        assert parse_seifert(text) == d
        runs = list(re.finditer("[0-9]+", text))  # one per integer slot
        run = runs[slot % len(runs)]
        if replace:
            text = text[: run.start()] + digit + text[run.end() :]
        else:
            pos = run.start() + at % (len(run.group()) + 1)
            text = text[:pos] + digit + text[pos:]
        with pytest.raises(ParseError):
            parse_seifert(text)
