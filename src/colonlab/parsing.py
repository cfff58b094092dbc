"""Recursive-descent parser for the ASCII polynomial grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := primary ('*'? primary)*
    primary:= uint ('/' uint)? | ident ('^' uint)? | '(' expr ')'

Whitespace is insignificant. Integer literals reduce into the coefficient
field (so "1/2" over F_5 means 1 * inv(2) = 3). Parentheses nest at most
MAX_NESTING deep, so deep input is a ParseError rather than a RecursionError.
An integer literal has at most MAX_LITERAL_DIGITS digits, the default limit of
CPython's int() on decimal strings, so a longer one is a ParseError too. That
bound is the parser's own policy: a literal is converted 600 digits at a time
(as poly prints one), so a lower interpreter limit refuses nothing below it.
"""

from __future__ import annotations

from .errors import ParseError
from .poly import _DECIMAL_CHUNK, Polynomial, Ring

_SYMBOLS = "+-*/^()"
MAX_NESTING = 100
MAX_LITERAL_DIGITS = 4300


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _int(digits: str) -> int:
    """The value of a run of decimal digits, converted 600 digits at a time.

    int() refuses more digits than sys.get_int_max_str_digits(), which can be
    lowered to 640; no chunk here comes near that.
    """
    head = len(digits) % 600 or 600
    value = int(digits[:head])
    for start in range(head, len(digits), 600):
        value = value * _DECIMAL_CHUNK + int(digits[start : start + 600])
    return value


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", line, col
                )
            tokens.append(_Token("INT", _int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", None, line, col))
    return tokens


def _found(tok: _Token) -> str:
    return "end of input" if tok.kind == "END" else repr(tok.value)


class _Parser:
    def __init__(self, tokens, ring: Ring):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = "an integer" if kind == "INT" else repr(kind)
            raise ParseError(f"expected {wanted}, found {_found(tok)}", tok.line, tok.col)
        return self.advance()

    def parse(self) -> Polynomial:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return poly

    def expr(self) -> Polynomial:
        """A sum of signed terms, built once after its last term is read."""
        negate = self.peek().kind in ("+", "-") and self.advance().kind == "-"
        terms = [(negate, self.term())]
        while self.peek().kind in ("+", "-"):
            terms.append((self.advance().kind == "-", self.term()))
        if len(terms) == 1:
            return -terms[0][1] if negate else terms[0][1]
        return _signed_sum(self.ring, terms)

    def term(self) -> Polynomial:
        poly = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                poly = poly * self.primary()
            elif tok.kind in ("INT", "IDENT", "("):
                poly = poly * self.primary()
            else:
                return poly

    def primary(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            num = tok.value
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("INT")
                den = den_tok.value
            return self._coefficient(num, den, tok)
        if tok.kind == "IDENT":
            self.advance()
            index = self.ring._var_index.get(tok.value)
            if index is None:
                raise ParseError(f"unknown variable {tok.value!r}", tok.line, tok.col)
            exponent = 1
            if self.peek().kind == "^":
                self.advance()
                exp_tok = self.peek()
                if exp_tok.kind == "-":
                    raise ParseError("negative exponent", exp_tok.line, exp_tok.col)
                exponent = self.expect("INT").value
            exps = tuple(exponent if j == index else 0 for j in range(self.ring.nvars))
            return self.ring.monomial(exps)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested more than {MAX_NESTING} deep", tok.line, tok.col
                )
            self.advance()
            self.depth += 1
            poly = self.expr()
            self.depth -= 1
            self.expect(")")
            return poly
        raise ParseError(f"expected a term, found {_found(tok)}", tok.line, tok.col)

    def _coefficient(self, num: int, den: int, tok: _Token) -> Polynomial:
        field = self.ring.field
        if den == 0:
            raise ParseError("zero denominator in coefficient", tok.line, tok.col)
        try:
            value = field.div(field.element(num), field.element(den))
        except ZeroDivisionError:
            raise ParseError(
                f"denominator {den} is zero in {field.name}", tok.line, tok.col
            ) from None
        exps = (0,) * self.ring.nvars
        return self.ring.monomial(exps, value)


def _signed_sum(ring: Ring, terms) -> Polynomial:
    """The sum of (negate, polynomial) pairs, each term added into one dict."""
    p = ring.field.p
    acc = {}
    for negate, poly in terms:
        for k, c in poly.terms:
            acc[k] = acc.get(k, 0) + (-c if negate else c)
    items = sorted(((k, c % p if p else c) for k, c in acc.items()), reverse=True)
    return Polynomial(ring, tuple((k, c) for k, c in items if c))


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    return _Parser(_tokenize(text), ring).parse()
