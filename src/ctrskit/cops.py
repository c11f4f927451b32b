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

The text is scanned once, and a COMMENT block's free text never becomes
tokens.  Terms are built on a stack, so no parse recurses.  Nesting stays
capped at 200: overlap enumeration keeps a position per lhs node, as long as
its depth, so an n-deep left-hand side would cost O(n^2) memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


def _tokens(text: str, blocks: bool) -> list[tuple[str, str, int]]:
    """Scan text once into (kind, value, start offset) tokens.

    A kind is "(", ")", "->", "==", ",", "|" or "ident", with the token's
    text for its value; the list ends in an "eof" token, whose value is "eof"
    too, or in an "error" one, whose value is the message it raises.
    With `blocks`, a COMMENT block outside all others is dropped, up to its ")".
    """
    tokens: list[tuple[str, str, int]] = []
    pos = depth = 0
    while True:
        m = _TOKEN.match(text, pos)
        pos, group = m.end(), m.lastindex
        if group is None:
            return tokens + [("eof", "eof", pos)]
        value, start = m[group], m.start(group)
        if group == 3:
            message = "expected '=='" if value == "=" else f"unexpected character {value!r}"
            return tokens + [("error", message, start)]
        if group == 1:
            depth += (value == "(") - (value == ")")
            tokens.append((value, value, start))
        elif not (blocks and value == "COMMENT" and depth == 1 and tokens[-1][0] == "("):
            tokens.append(("ident", value, start))
        else:  # a comment block: drop its "(" and skip to the ")" closing it
            nesting = 1
            for paren in _PAREN.finditer(text, pos):
                nesting += 1 if paren[0] == "(" else -1
                if nesting == 0:
                    break
            else:
                return tokens[:-1] + [("error", "unterminated comment block", tokens[-1][2])]
            tokens.pop()
            pos, depth = paren.end(), 0


class _Parser:
    def __init__(self, text: str, symbols: dict[str, Symbol] | None = None,
                 var_names: tuple[str, ...] = ()):
        self.text = text
        self.symbols: dict[str, Symbol] = dict(symbols or {})
        self.var_names: dict[str, None] = dict.fromkeys(var_names)
        # a given signature is closed: terms may not extend it, and the text
        # is one term, so it has no blocks
        self.closed = symbols is not None
        self.rules: list[Rule] = []
        self._rest = iter(_tokens(text, blocks=not self.closed))
        self._advance()

    def _error(self, message: str, offset: int, cls: type[ParseError] = ParseError) -> ParseError:
        """The error at a text offset, whose line and column are counted only here."""
        line = self.text.count("\n", 0, offset) + 1
        return cls(message, line, offset - self.text.rfind("\n", 0, offset))

    def _advance(self) -> None:
        """Step onto the next token, raising the error it may stand for."""
        self.tok = kind, value, start = next(self._rest)
        if kind == "error":
            raise self._error(value, start)

    def _expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] != kind:
            raise self._error(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        self._advance()
        return tok

    def _intern(self, name: str, arity: int, start: int) -> Symbol:
        known = self.symbols.get(name)
        if known is None:
            if self.closed:
                raise self._error(f"unknown symbol {name!r}", start)
            known = self.symbols[name] = Symbol(name, arity)
        elif known.arity != arity:
            raise self._error(f"symbol {name!r} used with arity {arity}, previously {known.arity}",
                              start, ArityConflictError)
        return known

    def parse_term(self) -> Term:
        # each open application holds its symbol's name, its offset and the
        # arguments read so far; the stack height is the nesting depth
        stack: list[tuple[str, int, list[Term]]] = []
        while True:
            if len(stack) > _MAX_TERM_DEPTH:
                raise self._error("term nesting too deep", self.tok[2])
            _, name, start = self._expect("ident")
            if name in _KEYWORDS:
                raise self._error(f"{name!r} is reserved", start)
            if name in self.var_names:
                if self.tok[0] == "(":
                    raise self._error(f"variable {name!r} cannot take arguments", start)
                term: Term = Var(name)
            elif self.tok[0] != "(":
                term = Fun(self._intern(name, 0, start))
            else:
                self._advance()
                stack.append((name, start, []))
                continue
            # the term is an argument of the innermost open application, if
            # any; after the last one, that application closes in turn
            while stack:
                stack[-1][2].append(term)
                if self.tok[0] == ",":
                    self._advance()
                    break
                self._expect(")")
                name, start, args = stack.pop()
                term = Fun(self._intern(name, len(args), start), tuple(args))
            else:
                return term

    def _parse_rule(self) -> Rule:
        start = self.tok[2]
        lhs = self.parse_term()
        if isinstance(lhs, Var):
            raise self._error(f"rule left-hand side is the variable {lhs}", start,
                              VariableAsLhsError)
        self._expect("->")
        rhs = self.parse_term()
        conds: list[Condition] = []
        # "|" opens the conditions and "," separates them
        while self.tok[0] == ("," if conds else "|"):
            self._advance()
            cond_lhs = self.parse_term()
            self._expect("==")
            conds.append(Condition(cond_lhs, self.parse_term()))
        return Rule(lhs, rhs, tuple(conds))

    def parse_file(self) -> SourceSpec:
        # the text, not the first token, decides: a file of comments only
        # holds the empty system
        if not self.text.strip():
            raise self._error("empty input, expected '('", len(self.text))
        while self.tok[0] != "eof":
            self._expect("(")
            _, key, start = self._expect("ident")
            if key == "CONDITIONTYPE":
                _, value, at = self._expect("ident")
                if value != "ORIENTED":
                    raise self._error(f"condition type {value!r}: only ORIENTED supported",
                                      at, UnknownConditionTypeError)
            elif key == "VAR":
                while self.tok[0] == "ident":
                    name = self._expect("ident")[1]
                    if name in _KEYWORDS:
                        raise self._error(f"{name!r} is reserved", start)
                    self.var_names[name] = None
            elif key == "RULES":
                while self.tok[0] != ")":
                    if self.tok[0] == "eof":
                        raise self._error("unterminated RULES block", self.tok[2])
                    self.rules.append(self._parse_rule())
            else:
                raise self._error(f"unknown block keyword {key!r}", start)
            self._expect(")")
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
    if p.tok[0] != "eof":
        raise p._error(f"trailing input after term: {p.tok[1]!r}", p.tok[2])
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
