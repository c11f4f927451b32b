import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrskit.cops import (
    ArityConflictError,
    ParseError,
    UnknownConditionTypeError,
    VariableAsLhsError,
    parse,
    parse_term,
    render,
    render_rule,
    render_system,
)
from ctrskit.ctrs import Condition, Ctrs, Rule
from ctrskit.terms import Fun, Symbol, Var

from conftest import CORPUS, load_corpus, random_term

ALL_CORPUS = sorted(p.name for p in CORPUS.glob("*.ctrs"))

# one input per ParseError raise site, with the exact message, line and
# column; only "\n" breaks a line, so "\r", U+2028 and U+001C take a column
PARSE_ERRORS = [
    ("", ParseError, "1:1: empty input, expected '('"),
    ("  \n\t ", ParseError, "2:3: empty input, expected '('"),
    ("fib", ParseError, "1:1: expected '(', got 'fib'"),
    ("(COMMENT line one\n(nested\n) two\n)\r\n (WHAT x)",
     ParseError, "5:3: unknown block keyword 'WHAT'"),
    ("(RULES)\n(COMMENT a\n(b)\nc", ParseError, "2:1: unterminated comment block"),
    ("(CONDITIONTYPE\tJOIN)",
     UnknownConditionTypeError, "1:16: condition type 'JOIN': only ORIENTED supported"),
    ("(VAR x RULES)", ParseError, "1:2: 'RULES' is reserved"),
    ("(RULES f(VAR) -> a)", ParseError, "1:10: 'VAR' is reserved"),
    ("(VAR x)\r\n(RULES\r\n\tf(x) = x)", ParseError, "3:7: expected '=='"),
    ("(RULES\tf(a)\t=> b)", ParseError, "1:13: expected '=='"),
    ("(RULES f(a) -> b | a =", ParseError, "1:22: expected '=='"),
    ("(VAR\xa0x)\xa0(RULES\xa0x -> a)",
     VariableAsLhsError, "1:16: rule left-hand side is the variable x"),
    ("(VAR x y)(RULES x->y)", VariableAsLhsError, "1:17: rule left-hand side is the variable x"),
    ("(VAR\x1cx)\x1c(RULES\x1cf(x(a)) -> a)",
     ParseError, "1:18: variable 'x' cannot take arguments"),
    ("(RULES f(a)\u2028-> b\u2028\ufffd)", ParseError, "1:18: unexpected character '\ufffd'"),
    ("(RULES\r\n  f(a) -> b #)", ParseError, "2:13: unexpected character '#'"),
    ("(RULES a- -> a-(b))",
     ArityConflictError, "1:14: symbol 'a-' used with arity 1, previously 0"),
    ("(RULES a-->b c)", ParseError, "1:15: expected '->', got ')'"),
    ("(RULES f(a) -> b | g(a))", ParseError, "1:24: expected '==', got ')'"),
    ("(RULES " + "f(" * 202 + "a" + ")" * 202 + " -> a)",
     ParseError, "1:410: term nesting too deep"),
    ("(VAR x\n", ParseError, "2:1: expected ')', got 'eof'"),
    ("(RULES\n  f(a) -> b\n", ParseError, "3:1: unterminated RULES block"),
    ("(RULES\n  f(a) -> \n", ParseError, "3:1: expected 'ident', got 'eof'"),
    ("(RULES a-", ParseError, "1:10: expected '->', got 'eof'"),
]

TERM_ERRORS = [
    ("nope(0)", ParseError, "1:1: unknown symbol 'nope'"),
    ("fib(0, 0)", ArityConflictError, "1:1: symbol 'fib' used with arity 2, previously 1"),
    ("fib(0)\r\n  extra", ParseError, "2:3: trailing input after term: 'extra'"),
    ("fib(0) =", ParseError, "1:8: expected '=='"),
    ("x(0)", ParseError, "1:1: variable 'x' cannot take arguments"),
]


def test_parse_fib(fib_spec):
    system = fib_spec.ctrs
    assert fib_spec.var_names == ("x", "y", "z")
    assert len(system.rules) == 4
    assert len(system.rules[1].conds) == 1
    assert {s.name: s.arity for s in system.symbols} == {
        "fib": 1, "pair": 2, "add": 2, "s": 1, "0": 0,
    }


def test_parse_rejects_unknown_condition_type():
    with pytest.raises(UnknownConditionTypeError, match="only ORIENTED supported"):
        parse("(CONDITIONTYPE JOIN) (VAR x) (RULES f(x) -> x)")


def test_parse_rejects_variable_lhs():
    with pytest.raises(VariableAsLhsError):
        parse("(VAR x) (RULES x -> a)")


def test_parse_rejects_arity_conflicts():
    with pytest.raises(ArityConflictError):
        parse("(VAR x) (RULES f(x) -> a  f(x, x) -> a)")
    with pytest.raises(ArityConflictError):
        parse("(VAR x) (RULES f(x) -> f)")


def test_parse_rejects_variable_with_arguments():
    with pytest.raises(ParseError):
        parse("(VAR x) (RULES f(x(a)) -> a)")


def test_parse_error_carries_position():
    try:
        parse("(RULES\n  f(a) -> )\n)")
    except ParseError as e:
        assert e.line == 2
        assert e.col > 0
    else:
        pytest.fail("expected a parse error")


def _error_of(call) -> tuple:
    with pytest.raises(ParseError) as info:
        call()
    e = info.value
    return type(e), str(e), e.line, e.col


@pytest.mark.parametrize("text, cls, message", PARSE_ERRORS, ids=[m for *_, m in PARSE_ERRORS])
def test_parse_error_table(text, cls, message):
    line, col = map(int, message.split(":")[:2])
    assert _error_of(lambda: parse(text)) == (cls, message, line, col)


@pytest.mark.parametrize("text, cls, message", TERM_ERRORS, ids=[m for *_, m in TERM_ERRORS])
def test_parse_term_error_table(text, cls, message, fib_spec):
    line, col = map(int, message.split(":")[:2])
    assert _error_of(lambda: parse_term(text, fib_spec)) == (cls, message, line, col)


def test_parse_errors_on_junk():
    for bad in ("", "fib", "(RULES f(a) -> a", "(WHAT x)", "(VAR x) (RULES a == b)",
                "(RULES f(a) => b)", "(RULES f(a) -> b | a = b)"):
        with pytest.raises(ParseError):
            parse(bad)


def test_comments_are_ignored():
    spec = parse(
        "(COMMENT free text. with, (nested parens) and $trange bytes!)\n"
        "(VAR x)\n(RULES f(x) -> x)\n"
        "(COMMENT trailing)"
    )
    assert len(spec.ctrs.rules) == 1


def test_unterminated_comment_is_an_error():
    with pytest.raises(ParseError, match="unterminated"):
        parse("(COMMENT never closed")


def test_arrow_requires_no_whitespace():
    spec = parse("(VAR x)(RULES f(x)->g(x)|x==a)")
    rule = spec.ctrs.rules[0]
    assert render_rule(rule) == "f(x) -> g(x) | x == a"


def test_hyphen_stays_inside_identifiers():
    spec = parse("(RULES my-fun(a-b) -> a-b)")
    assert {s.name for s in spec.ctrs.symbols} == {"my-fun", "a-b"}


def test_render_examples():
    f = Symbol("f", 2)
    a = Symbol("a", 0)
    assert render(Fun(f, (Var("x"), Fun(a)))) == "f(x, a)"
    assert render(Fun(a)) == "a"


def test_render_parse_roundtrip_random_terms(fib_spec):
    rng = random.Random(41)
    symbols = tuple(fib_spec.ctrs.symbols)
    variables = tuple(Var(n) for n in fib_spec.var_names)
    for _ in range(300):
        t = random_term(rng, 4, symbols=symbols, variables=variables)
        assert parse_term(render(t), fib_spec) == t


def test_corpus_roundtrip():
    assert ALL_CORPUS  # the corpus ships with the repo
    for name in ALL_CORPUS:
        spec = load_corpus(name)
        again = parse(render_system(spec.ctrs))
        assert again.ctrs == spec.ctrs


# names over the whole identifier alphabet; "-" is safe, since rendering
# never puts ">" right after a name
NAMES = st.text(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_'+*-",
    min_size=1, max_size=4,
).filter(lambda name: name not in {"CONDITIONTYPE", "VAR", "RULES", "COMMENT"})


@st.composite
def systems(draw) -> Ctrs:
    names = draw(st.lists(NAMES, min_size=2, max_size=8, unique=True))
    split = draw(st.integers(1, len(names) - 1))
    variables = [Var(name) for name in names[:split]]
    symbols = [Symbol(name, draw(st.integers(0, 2))) for name in names[split:]]

    def applications(sym, args):
        return st.tuples(*[args] * sym.arity).map(lambda a: Fun(sym, a))

    terms = st.recursive(
        st.sampled_from(variables + [Fun(s) for s in symbols if s.arity == 0]),
        lambda kids: st.one_of([applications(s, kids) for s in symbols]),
        max_leaves=6,
    )
    lhss = st.sampled_from(symbols).flatmap(lambda s: applications(s, terms))
    conds = st.lists(st.builds(Condition, terms, terms), max_size=2)
    rules = st.lists(st.builds(Rule, lhss, terms, conds), max_size=4)
    return Ctrs.from_rules(draw(rules))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(systems())
def test_render_parse_roundtrip_random_systems(system):
    assert parse(render_system(system)).ctrs == system


def test_parse_term_strictness(fib_spec):
    by_name = {s.name: s for s in fib_spec.ctrs.symbols}
    expected = Fun(by_name["fib"], (Fun(by_name["s"], (Fun(by_name["0"]),)),))
    assert parse_term("fib(s(0))", fib_spec) == expected
    assert parse_term("fib ( s(0) )", fib_spec) == expected
    assert parse_term("x", fib_spec) == Var("x")
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_term("nope(0)", fib_spec)
    with pytest.raises(ArityConflictError):
        parse_term("fib(0, 0)", fib_spec)
    with pytest.raises(ParseError):
        parse_term("fib(0) extra", fib_spec)


def test_deep_nesting_is_rejected_not_crashing():
    text = "(RULES " + "f(" * 5000 + "a" + ")" * 5000 + " -> a)"
    with pytest.raises(ParseError, match="nesting"):
        parse(text)


def test_multiple_blocks_accumulate():
    spec = parse(
        "(VAR x)\n(RULES f(x) -> x)\n(VAR y)\n(RULES g(x, y) -> f(x))\n"
        "(CONDITIONTYPE ORIENTED)"
    )
    assert len(spec.ctrs.rules) == 2
    assert spec.var_names == ("x", "y")


def test_missing_conditiontype_defaults_to_oriented():
    spec = parse("(VAR x)(RULES f(x) -> x)")
    assert spec == parse("(CONDITIONTYPE ORIENTED)(VAR x)(RULES f(x) -> x)")


def test_render_empty_system_roundtrips():
    spec = parse("(RULES)")
    assert spec.ctrs.rules == ()
    assert parse(render_system(spec.ctrs)).ctrs == spec.ctrs


def test_fuzz_smoke():
    rng = random.Random(42)
    alphabet = "()|,=->abfxyz_'+* \n\t\x00\xff"
    for _ in range(5000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        try:
            parse(s)
        except ParseError:
            pass
