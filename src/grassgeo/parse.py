"""Recursive-descent parser from polynomial text straight into a `Poly`.

Grammar (whitespace-insensitive, standard precedence Pow > Neg > Mul >
Add/Sub, left-associative):

    expr  := term  (('+'|'-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | power
    power := atom ('^' NAT)?
    atom  := CONST | VAR | '(' expr ')'

CONST is a nonnegative integer or a rational literal NAT/NAT ('/' is
not an operator).  VAR matches x<digits> or p<digits>(_<digits>)* and
must be a variable of the ring.  Each operator, variable and constant
is one ring operation, applied in the order of the text.  Constants
go through `fields.scalar_from_string` and exponents through
`fields.int_from_string`, so a denominator that is zero in the field,
or a literal longer than Python converts to an int, is an error, like
a syntax error.  Errors are ParseErrors that carry the offending
position.
"""

from __future__ import annotations

import re

from .errors import InvalidInput, ParseError
from .fields import int_from_string, scalar_from_string

VAR_RE = re.compile(r"(x[0-9]+|p[0-9]+(_[0-9]+)*)\Z")
_TOKEN_RE = re.compile(r"\s*(?:(\d+\s*/\s*\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError("unexpected character %r" % text[at], text, at)
        if m.group(1):
            tokens.append(("const", m.group(1).replace(" ", ""), m.start(1)))
        elif m.group(2):
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, self.text, pos)
        return self.take()

    def parse(self):
        f = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input %r" % val, self.text, pos)
        return f

    def expr(self):
        f = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                f = f + rhs if val == "+" else f - rhs
            else:
                return f

    def term(self):
        f = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                f = f * self.unary()
            else:
                return f

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "-":
                raise ParseError("negative exponent", self.text, pos2)
            if kind2 != "const" or "/" in val2:
                raise ParseError("exponent must be a nonnegative integer", self.text, pos2)
            self.take()
            try:
                e = int_from_string(val2)
            except InvalidInput as exc:
                raise ParseError(str(exc), self.text, pos2) from exc
            return base**e
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "const":
            try:
                c = scalar_from_string(self.ring.field, val)
            except InvalidInput as exc:
                raise ParseError(str(exc), self.text, pos) from exc
            return self.ring.const(c)
        if kind == "ident":
            if not VAR_RE.match(val):
                raise ParseError("unknown identifier %r" % val, self.text, pos)
            if val not in self.ring._var_index:
                raise ParseError("variable %r not in ring %r" % (val, self.ring.vars), self.text, pos)
            return self.ring.var(val)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ParseError("expected a value", self.text, pos)


def poly_from_string(text: str, ring):
    """The polynomial of `ring` that `text` spells."""
    return _Parser(text, ring).parse()
