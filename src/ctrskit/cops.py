"""Parser and printer for the parenthesized conditional-system format.

A source file is a sequence of blocks:

    (CONDITIONTYPE ORIENTED)
    (VAR x y z)
    (RULES
      fib(0) -> pair(0, s(0))
      fib(s(x)) -> pair(z, add(y, z)) | fib(x) == pair(y, z)
    )
    (COMMENT free text, ignored)

Identifiers are runs of ``[A-Za-z0-9_'+*-]`` that an arrow ends, so
``x->y`` is three tokens; whitespace is insignificant.  Errors give
``line:column``, and only ``\n`` breaks a line.  Symbol arities are inferred
from first use and enforced afterwards.  Only oriented condition semantics
is supported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .ctrs import Condition, Ctrs, Rule, rule_variables
from .terms import Fun, Symbol, Term, Var, render_term

# optional whitespace (\s is str.isspace), then a punctuation token (group
# 1), an identifier (2), a character no token starts with (3) or the end
_TOKEN = re.compile(r"\s*(?:(->|==|[(),|])|((?:[A-Za-z0-9_'+*]|-(?!>))+)|(.)|\Z)")
_PAREN = re.compile(r"[()]")
_KEYWORDS = frozenset({"CONDITIONTYPE", "VAR", "RULES", "COMMENT"})
_MAX_TERM_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ArityConflictError(ParseError):
    pass


class UnknownConditionTypeError(ParseError):
    pass


class VariableAsLhsError(ParseError):
    pass


@dataclass(frozen=True)
class SourceSpec:
    ctrs: Ctrs
    var_names: tuple[str, ...]


class _Token(NamedTuple):
    kind: str  # "(", ")", "->", "==", ",", "|", "ident", "eof"
    value: str
    start: int  # offset into the text


class _Parser:
    def __init__(self, text: str, symbols: dict[str, Symbol] | None = None,
                 var_names: tuple[str, ...] = ()):
        self.text = text
        self.pos = 0
        self.tok = self._scan()
        self.symbols: dict[str, Symbol] = dict(symbols or {})
        self.var_names: dict[str, None] = dict.fromkeys(var_names)
        # a given signature is closed: terms may not extend it
        self.closed = symbols is not None
        self.rules: list[Rule] = []

    def _at(self, offset: int) -> tuple[int, int]:
        """Line and column of a text offset, counted only when an error needs them."""
        return (self.text.count("\n", 0, offset) + 1,
                offset - self.text.rfind("\n", 0, offset))

    def _scan(self) -> _Token:
        m = _TOKEN.match(self.text, self.pos)
        self.pos = m.end()
        group = m.lastindex
        if group is None:
            return _Token("eof", "", self.pos)
        value = m[group]
        if group == 1:
            return _Token(value, value, m.start(1))
        if group == 2:
            return _Token("ident", value, m.start(2))
        message = "expected '=='" if value == "=" else f"unexpected character {value!r}"
        raise ParseError(message, *self._at(m.start(3)))

    def _skip_comment(self, open_paren: _Token) -> None:
        """Skip free text up to the ')' matching an already-open '('."""
        depth = 1
        for m in _PAREN.finditer(self.text, self.pos):
            depth += 1 if m[0] == "(" else -1
            if depth == 0:
                self.pos = m.end()
                return
        raise ParseError("unterminated comment block", *self._at(open_paren.start))

    def _advance(self) -> _Token:
        tok = self.tok
        self.tok = self._scan()
        return tok

    def _expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            got = self.tok.value or self.tok.kind
            raise ParseError(f"expected {kind!r}, got {got!r}", *self._at(self.tok.start))
        return self._advance()

    def _intern(self, name: str, arity: int, tok: _Token) -> Symbol:
        known = self.symbols.get(name)
        if known is None:
            if self.closed:
                raise ParseError(f"unknown symbol {name!r}", *self._at(tok.start))
            sym = Symbol(name, arity)
            self.symbols[name] = sym
            return sym
        if known.arity != arity:
            raise ArityConflictError(
                f"symbol {name!r} used with arity {arity}, previously {known.arity}",
                *self._at(tok.start),
            )
        return known

    def parse_term(self, depth: int = 0) -> Term:
        if depth > _MAX_TERM_DEPTH:
            raise ParseError("term nesting too deep", *self._at(self.tok.start))
        tok = self._expect("ident")
        name = tok.value
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is reserved", *self._at(tok.start))
        if name in self.var_names:
            if self.tok.kind == "(":
                raise ParseError(
                    f"variable {name!r} cannot take arguments", *self._at(tok.start)
                )
            return Var(name)
        if self.tok.kind != "(":
            return Fun(self._intern(name, 0, tok))
        self._advance()
        args = [self.parse_term(depth + 1)]
        while self.tok.kind == ",":
            self._advance()
            args.append(self.parse_term(depth + 1))
        self._expect(")")
        return Fun(self._intern(name, len(args), tok), tuple(args))

    def _parse_rule(self) -> Rule:
        start = self.tok
        lhs = self.parse_term()
        if isinstance(lhs, Var):
            raise VariableAsLhsError(
                f"rule left-hand side is the variable {lhs}", *self._at(start.start)
            )
        self._expect("->")
        rhs = self.parse_term()
        conds: list[Condition] = []
        if self.tok.kind == "|":
            self._advance()
            conds.append(self._parse_cond())
            while self.tok.kind == ",":
                self._advance()
                conds.append(self._parse_cond())
        return Rule(lhs, rhs, tuple(conds))

    def _parse_cond(self) -> Condition:
        lhs = self.parse_term()
        self._expect("==")
        rhs = self.parse_term()
        return Condition(lhs, rhs)

    def parse_file(self) -> SourceSpec:
        if self.tok.kind == "eof":
            raise ParseError("empty input, expected '('", *self._at(self.tok.start))
        while self.tok.kind != "eof":
            open_paren = self._expect("(")
            # comments hold free text the scanner must not touch, so peek at
            # the keyword before scanning any token from the body
            if self.tok.kind == "ident" and self.tok.value == "COMMENT":
                self._skip_comment(open_paren)
                self.tok = self._scan()
                continue
            key = self._expect("ident")
            if key.value == "CONDITIONTYPE":
                val = self._expect("ident")
                if val.value != "ORIENTED":
                    raise UnknownConditionTypeError(
                        f"condition type {val.value!r}: only ORIENTED supported",
                        *self._at(val.start),
                    )
                self._expect(")")
                continue
            if key.value == "VAR":
                while self.tok.kind == "ident":
                    name = self._advance().value
                    if name in _KEYWORDS:
                        raise ParseError(f"{name!r} is reserved", *self._at(key.start))
                    self.var_names[name] = None
                self._expect(")")
                continue
            if key.value == "RULES":
                while self.tok.kind != ")":
                    if self.tok.kind == "eof":
                        raise ParseError("unterminated RULES block", *self._at(self.tok.start))
                    self.rules.append(self._parse_rule())
                self._expect(")")
                continue
            raise ParseError(f"unknown block keyword {key.value!r}", *self._at(key.start))
        return SourceSpec(Ctrs.from_rules(self.rules), tuple(self.var_names))


def parse(text: str) -> SourceSpec:
    """Parse a full system description; raises ParseError subclasses only."""
    return _Parser(text).parse_file()


def parse_term(text: str, spec: SourceSpec) -> Term:
    """Parse one term against an already-parsed system's signature.

    Unknown symbols are rejected, so command-line terms cannot silently
    extend the signature.
    """
    table = {s.name: s for s in spec.ctrs.symbols}
    p = _Parser(text, symbols=table, var_names=spec.var_names)
    t = p.parse_term()
    if p.tok.kind != "eof":
        raise ParseError(
            f"trailing input after term: {p.tok.value or p.tok.kind!r}",
            *p._at(p.tok.start),
        )
    return t


render = render_term


def render_rule(rule: Rule) -> str:
    return str(rule)


def render_system(system: Ctrs) -> str:
    """Source text for a system; re-parses to an equal Ctrs.

    Only index-free variables (as produced by the parser) render to legal
    identifiers, so renamed-apart rules are for display, not round-trips.
    """
    labels = dict.fromkeys(str(v) for rule in system.rules for v in rule_variables(rule))
    lines = ["(CONDITIONTYPE ORIENTED)"]
    if labels:
        lines.append(f"(VAR {' '.join(labels)})")
    lines.append("(RULES")
    for rule in system.rules:
        lines.append(f"  {render_rule(rule)}")
    lines.append(")")
    return "\n".join(lines) + "\n"
