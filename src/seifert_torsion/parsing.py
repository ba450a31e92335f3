"""Text grammar for Seifert data.

    datum  := '[' int ',' int pairs? ']'
    pairs  := ';' ( pair (',' pair)* )?
    pair   := '(' int ',' int ')'
    int    := '-'? digit+
    digit  := '0' | '1' | ... | '9'      (ASCII only)

Whitespace is allowed between tokens.  '[g,n]' and '[g,n;]' both denote an
empty pair list.  An integer with more digits than int() converts from text
(sys.get_int_max_str_digits(), 4300 by default) is a ParseError.
parse_seifert checks the grammar only; run the result through
validate_seifert before computing with it.
"""

from __future__ import annotations

import sys

from .errors import ParseError
from .seifert import SeifertData


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, char: str):
        if self.peek() != char:
            raise ParseError(self.pos, f"'{char}'", self.peek())
        self.pos += 1

    def integer(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            found = self.text[start] if start < len(self.text) else None
            raise ParseError(start, f"integer ({what})", found)
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            limit = f"integer ({what}) of at most {sys.get_int_max_str_digits()} digits"
            raise ParseError(start, limit, f"{self.pos - digits} digits") from None


def parse_seifert(text: str) -> SeifertData:
    """Parse '[g,n;(a1,b1),...,(aM,bM)]' into a SeifertData."""
    sc = _Scanner(text)
    sc.expect("[")
    genus = sc.integer("genus")
    sc.expect(",")
    euler = sc.integer("euler term")
    pairs = []
    if sc.peek() == ";":
        sc.pos += 1
        if sc.peek() == "(":
            pairs.append(_pair(sc))
            while sc.peek() == ",":
                sc.pos += 1
                pairs.append(_pair(sc))
    sc.expect("]")
    if sc.peek() is not None:
        raise ParseError(sc.pos, "end of input", sc.peek())
    return SeifertData(genus, euler, tuple(pairs))


def _pair(sc: _Scanner) -> tuple[int, int]:
    sc.expect("(")
    alpha = sc.integer("fiber order")
    sc.expect(",")
    beta = sc.integer("fiber twist")
    sc.expect(")")
    return alpha, beta


def format_seifert(data: SeifertData) -> str:
    """Canonical text form, inverse to parse_seifert on canonical input."""
    if not data.pairs:
        return f"[{data.genus},{data.euler}]"
    body = ",".join(f"({a},{b})" for a, b in data.pairs)
    return f"[{data.genus},{data.euler};{body}]"
