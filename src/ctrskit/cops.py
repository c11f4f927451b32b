"""Parser and printer for the parenthesized conditional-system format.

A source file is a sequence of blocks:

    (CONDITIONTYPE ORIENTED)
    (VAR x y z)
    (RULES
      fib(0) -> pair(0, s(0))
      fib(s(x)) -> pair(z, add(y, z)) | fib(x) == pair(y, z)
    )
    (COMMENT free text, ignored)

Identifiers are runs of ``[A-Za-z0-9_'+*-]``; whitespace is insignificant.
Symbol arities are inferred from first use and enforced afterwards.  Only
oriented condition semantics is supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ctrs import Condition, Ctrs, Rule, rule_vars
from .terms import Fun, Symbol, Term, Var, render_term

_IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_'+*-"
)
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
    raw: str
    ctrs: Ctrs
    var_names: tuple[str, ...]
    condition_type: str = "ORIENTED"


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "->", "==", ",", "|", "ident", "eof"
    value: str
    line: int
    col: int


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self._advance()

    def next_token(self) -> _Token:
        self._skip_ws()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return _Token("eof", "", line, col)
        c = self.text[self.pos]
        if c in "(),|":
            self._advance()
            return _Token(c, c, line, col)
        if c == "=":
            self._advance()
            if self.pos < len(self.text) and self.text[self.pos] == "=":
                self._advance()
                return _Token("==", "==", line, col)
            raise ParseError("expected '=='", line, col)
        if c == "-" and self.text[self.pos : self.pos + 2] == "->":
            self._advance()
            self._advance()
            return _Token("->", "->", line, col)
        if c in _IDENT_CHARS:
            chars = []
            while self.pos < len(self.text):
                c = self.text[self.pos]
                if c not in _IDENT_CHARS:
                    break
                # an arrow ends the identifier: "x->y" is three tokens
                if c == "-" and self.text[self.pos : self.pos + 2] == "->":
                    break
                chars.append(self._advance())
            return _Token("ident", "".join(chars), line, col)
        raise ParseError(f"unexpected character {c!r}", line, col)

    def consume_balanced_raw(self, line: int, col: int) -> None:
        """Skip free text up to the ')' matching an already-open '('."""
        depth = 1
        while self.pos < len(self.text):
            c = self._advance()
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return
        raise ParseError("unterminated comment block", line, col)


class _Parser:
    def __init__(self, text: str, symbols: dict[str, Symbol] | None = None,
                 var_names: set[str] | None = None, strict_symbols: bool = False):
        self.lexer = _Lexer(text)
        self.tok = self.lexer.next_token()
        self.symbols: dict[str, Symbol] = dict(symbols or {})
        self.var_names: set[str] = set(var_names or ())
        self.var_order: list[str] = sorted(self.var_names)
        self.strict_symbols = strict_symbols
        self.rules: list[Rule] = []
        self.condition_type: str | None = None

    def _advance(self) -> _Token:
        tok = self.tok
        self.tok = self.lexer.next_token()
        return tok

    def _expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            got = self.tok.value or self.tok.kind
            raise ParseError(
                f"expected {kind!r}, got {got!r}", self.tok.line, self.tok.col
            )
        return self._advance()

    def _intern(self, name: str, arity: int, line: int, col: int) -> Symbol:
        known = self.symbols.get(name)
        if known is None:
            if self.strict_symbols:
                raise ParseError(f"unknown symbol {name!r}", line, col)
            sym = Symbol(name, arity)
            self.symbols[name] = sym
            return sym
        if known.arity != arity:
            raise ArityConflictError(
                f"symbol {name!r} used with arity {arity}, previously {known.arity}",
                line,
                col,
            )
        return known

    def parse_term(self, depth: int = 0) -> Term:
        if depth > _MAX_TERM_DEPTH:
            raise ParseError("term nesting too deep", self.tok.line, self.tok.col)
        tok = self._expect("ident")
        name = tok.value
        if name in _KEYWORDS:
            raise ParseError(f"{name!r} is reserved", tok.line, tok.col)
        if name in self.var_names:
            if self.tok.kind == "(":
                raise ParseError(
                    f"variable {name!r} cannot take arguments", tok.line, tok.col
                )
            return Var(name)
        if self.tok.kind != "(":
            sym = self._intern(name, 0, tok.line, tok.col)
            return Fun(sym)
        self._advance()
        args = [self.parse_term(depth + 1)]
        while self.tok.kind == ",":
            self._advance()
            args.append(self.parse_term(depth + 1))
        self._expect(")")
        sym = self._intern(name, len(args), tok.line, tok.col)
        return Fun(sym, tuple(args))

    def _parse_rule(self) -> Rule:
        start = self.tok
        lhs = self.parse_term()
        if isinstance(lhs, Var):
            raise VariableAsLhsError(
                f"rule left-hand side is the variable {lhs}", start.line, start.col
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

    def parse_file(self, raw: str) -> SourceSpec:
        if self.tok.kind == "eof":
            raise ParseError("empty input, expected '('", self.tok.line, self.tok.col)
        while self.tok.kind != "eof":
            open_tok = self._expect("(")
            # comments hold free text the lexer must not touch, so peek at
            # the keyword before fetching any token from the body
            if self.tok.kind == "ident" and self.tok.value == "COMMENT":
                self.lexer.consume_balanced_raw(open_tok.line, open_tok.col)
                self.tok = self.lexer.next_token()
                continue
            key = self._expect("ident")
            if key.value == "CONDITIONTYPE":
                val = self._expect("ident")
                if val.value != "ORIENTED":
                    raise UnknownConditionTypeError(
                        f"condition type {val.value!r}: only ORIENTED supported",
                        val.line,
                        val.col,
                    )
                self.condition_type = val.value
                self._expect(")")
                continue
            if key.value == "VAR":
                while self.tok.kind == "ident":
                    name = self._advance().value
                    if name in _KEYWORDS:
                        raise ParseError(f"{name!r} is reserved", key.line, key.col)
                    if name not in self.var_names:
                        self.var_names.add(name)
                        self.var_order.append(name)
                self._expect(")")
                continue
            if key.value == "RULES":
                while self.tok.kind != ")":
                    if self.tok.kind == "eof":
                        raise ParseError(
                            "unterminated RULES block", self.tok.line, self.tok.col
                        )
                    self.rules.append(self._parse_rule())
                self._expect(")")
                continue
            raise ParseError(
                f"unknown block keyword {key.value!r}", key.line, key.col
            )
        system = Ctrs.from_rules(tuple(self.rules))
        return SourceSpec(
            raw=raw,
            ctrs=system,
            var_names=tuple(self.var_order),
            condition_type=self.condition_type or "ORIENTED",
        )


def parse(text: str) -> SourceSpec:
    """Parse a full system description; raises ParseError subclasses only."""
    return _Parser(text).parse_file(text)


def parse_term(text: str, spec: SourceSpec) -> Term:
    """Parse one term against an already-parsed system's signature.

    Unknown symbols are rejected, so command-line terms cannot silently
    extend the signature.
    """
    table = {s.name: s for s in spec.ctrs.symbols}
    p = _Parser(text, symbols=table, var_names=set(spec.var_names),
                strict_symbols=True)
    t = p.parse_term()
    if p.tok.kind != "eof":
        raise ParseError(
            f"trailing input after term: {p.tok.value or p.tok.kind!r}",
            p.tok.line,
            p.tok.col,
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
    seen: list[str] = []
    for rule in system.rules:
        for v in rule_vars(rule):
            label = str(v)
            if label not in seen:
                seen.append(label)
    lines = ["(CONDITIONTYPE ORIENTED)"]
    if seen:
        lines.append(f"(VAR {' '.join(seen)})")
    lines.append("(RULES")
    for rule in system.rules:
        lines.append(f"  {render_rule(rule)}")
    lines.append(")")
    return "\n".join(lines) + "\n"
