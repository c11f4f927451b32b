import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ctrskit import cli
from ctrskit.cli import main
from ctrskit.cops import parse, render_system
from ctrskit.ctrs import Condition, Ctrs, Rule
from ctrskit.engine import Bounds
from ctrskit.terms import Fun, Symbol, Var, ground_terms, render_term

from conftest import CORPUS, corpus_path, run_fresh

FIB = str(corpus_path("fib.ctrs"))
OVERLAP = str(corpus_path("overlap.ctrs"))
IF2 = str(corpus_path("if2.ctrs"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", FIB)
    assert code == 0
    assert out.splitlines()[0] == "YES (level-confluent)"


def test_check_json_schema(capsys):
    code, payload, _ = run_json(capsys, "check", FIB)
    assert code == 0
    assert set(payload) == {"verdict", "properties", "overlaps", "bounds", "truncated"}
    assert payload["verdict"] == "LEVEL_CONFLUENT"
    assert set(payload["properties"]) == {
        "type-3", "left-linear", "properly-oriented", "right-stable",
        "almost-orthogonal",
    }
    assert payload["bounds"] == {"max_level": 8, "max_depth": 8, "max_terms": 4096}
    assert payload["truncated"] is False


def test_every_subcommand_defaults_to_the_default_bounds():
    # the shared flags read their defaults off Bounds, so none can drift
    required = {
        "check": [],
        "props": [],
        "overlaps": [],
        "rewrite": ["--term", "0", "--level", "1", "--steps", "1"],
        "epar": ["--term", "0", "--level", "1"],
        "diamond": ["--m", "1", "--n", "1", "--seed-size", "1"],
    }
    assert set(required) == set(cli._COMMANDS)
    for command, extra in required.items():
        args = cli.build_parser().parse_args([command, FIB, *extra])
        assert cli._bounds(args) == Bounds(), command


def test_check_not_applicable_text(capsys):
    code, out, _ = run(capsys, "check", OVERLAP)
    assert code == 0
    assert out.startswith("MAYBE (criterion not applicable:")


def test_check_strict_exit_code(capsys):
    code, _, _ = run(capsys, "check", OVERLAP, "--strict")
    assert code == 1
    code, _, _ = run(capsys, "check", FIB, "--strict")
    assert code == 0


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.ctrs")
    assert code == 2
    assert "error:" in err


def test_check_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.ctrs"
    bad.write_text("(RULES x -> ", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


def test_check_binary_file_exit(tmp_path, capsys):
    bad = tmp_path / "binary.ctrs"
    bad.write_bytes(b"(RULES \xff\xfe -> a)")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


def test_props(capsys):
    code, payload, _ = run_json(capsys, "props", FIB)
    assert code == 0
    assert payload["type"] == 3
    assert payload["properties"]["properly-oriented"]["holds"] is True


def test_overlaps(capsys):
    code, payload, _ = run_json(capsys, "overlaps", IF2)
    assert code == 0
    assert [o["disposition"] for o in payload["overlaps"]] == [
        "root-variant", "infeasible-IF2", "infeasible-IF2", "root-variant",
    ]
    assert [o["rules"] for o in payload["overlaps"]] == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_rewrite(capsys):
    code, payload, _ = run_json(
        capsys, "rewrite", FIB, "--term", "fib(s(0))", "--level", "2", "--steps", "4"
    )
    assert code == 0
    assert "pair(s(0), add(0, s(0)))" in payload["reachable"]
    assert payload["truncated"] is False


def test_rewrite_depth_zero_flags_the_step_it_hides(capsys):
    # --steps also bounds the nested condition search: at 0 the condition of
    # fib(s(0))'s rule finds no step, and that cut shows, since --steps 1
    # reaches pair(s(0), add(0, s(0)))
    argv = ("rewrite", FIB, "--term", "fib(s(0))", "--level", "2", "--steps", "0")
    assert run(capsys, *argv) == (0, "fib(s(0))\ntruncated: true\n", "")
    code, payload, err = run_json(capsys, *argv)
    assert (code, payload["reachable"], payload["truncated"], err) == (
        0, ["fib(s(0))"], True, ""
    )
    code, payload, _ = run_json(capsys, *argv[:-1], "1")
    assert "pair(s(0), add(0, s(0)))" in payload["reachable"]


def test_rewrite_level_cap(capsys):
    code, _, err = run(
        capsys, "rewrite", FIB, "--term", "fib(0)", "--level", "99", "--steps", "2"
    )
    assert code == 2
    assert "max-level" in err


def test_rewrite_bad_term(capsys):
    code, _, err = run(
        capsys, "rewrite", FIB, "--term", "quux(0)", "--level", "1", "--steps", "2"
    )
    assert code == 2
    assert "unknown symbol" in err


def test_epar(capsys):
    code, payload, _ = run_json(
        capsys, "epar", FIB, "--term", "pair(fib(0), fib(0))", "--level", "1"
    )
    assert code == 0
    terms = {s["term"] for s in payload["successors"]}
    assert "pair(pair(0, s(0)), pair(0, s(0)))" in terms
    both = next(
        s for s in payload["successors"]
        if s["term"] == "pair(pair(0, s(0)), pair(0, s(0)))"
    )
    assert both["holes"] == 2
    assert both["kinds"] == ["root", "root"]


def test_diamond_clean(capsys):
    code, payload, _ = run_json(
        capsys, "diamond", FIB, "--m", "1", "--n", "1", "--seed-size", "3"
    )
    assert code == 0
    assert payload["counterexample"] is None
    assert payload["seeds"] == 9


def test_diamond_counterexample(capsys):
    code, payload, _ = run_json(
        capsys, "diamond", OVERLAP, "--m", "1", "--n", "1", "--seed-size", "2"
    )
    assert code == 0
    assert payload["counterexample"] == {"seed": "f(b)", "left": "a", "right": "b"}


def test_diamond_text(capsys):
    code, out, _ = run(
        capsys, "diamond", OVERLAP, "--m", "1", "--n", "1", "--seed-size", "2"
    )
    assert code == 0
    assert "counterexample peak: a <- f(b) -> b" in out


def test_diamond_level_cap(capsys):
    code, _, err = run(
        capsys, "diamond", FIB, "--m", "9", "--n", "1", "--seed-size", "2"
    )
    assert code == 2
    assert "max-level" in err


# argv -> (exit code, the one stderr line); the props and rewrite rows were
# accepted with exit 0 before every subcommand built its bounds
BAD_ARGS = [
    (["rewrite", FIB, "--term", "fib(0)", "--level", "1", "--steps", "-1"],
     "error: --steps must be non-negative"),
    (["diamond", FIB, "--m", "1", "--n", "1", "--seed-size", "0"],
     "error: --seed-size must be at least 1"),
    (["epar", FIB, "--term", "fib(0)", "--level", "-1"],
     "error: levels must be non-negative"),
    (["diamond", FIB, "--m", "-1", "--n", "1", "--seed-size", "2"],
     "error: levels must be non-negative"),
    (["check", FIB, "--max-depth", "-1"], "error: bounds must be non-negative"),
    (["props", FIB, "--max-terms", "-1"], "error: bounds must be non-negative"),
    (["rewrite", FIB, "--term", "fib(0)", "--level", "1", "--steps", "2",
      "--max-depth", "-5"], "error: bounds must be non-negative"),
]


def test_bad_arguments_exit_2_with_one_error_line(capsys):
    for argv, line in BAD_ARGS:
        code, out, err = run(capsys, *argv)
        assert (code, out, err.splitlines()) == (2, "", [line]), argv


def test_a_condition_goal_that_holds_a_variable_is_a_cut(tmp_path, capsys):
    # check says YES, and the searches that back the verdict run: the goal x
    # holds a variable, which the engine leaves unsolved, so they say truncated
    path = tmp_path / "loose.ctrs"
    path.write_text("(VAR x y)\n(RULES\n  a -> a | x == y\n)\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out.splitlines()[0], err) == (0, "YES (level-confluent)", "")
    # the fib rule's goal fib(x) holds the subject's x in the same way
    runs = [
        (["rewrite", str(path), "--term", "a", "--level", "1", "--steps", "2"],
         "a\ntruncated: true\n"),
        (["diamond", str(path), "--m", "1", "--n", "1", "--seed-size", "2"],
         "no counterexample (1 peaks over 1 seeds, truncated: true)\n"),
        (["rewrite", FIB, "--term", "fib(s(s(x)))", "--level", "2", "--steps", "2"],
         "fib(s(s(x)))\ntruncated: true\n"),
    ]
    for argv, text in runs:
        assert run(capsys, *argv) == (0, text, ""), argv
        code, payload, err = run_json(capsys, *argv)
        assert (code, payload["truncated"], err) == (0, True, ""), argv


def test_rule_free_system_has_no_overlaps(tmp_path, capsys):
    path = tmp_path / "empty.ctrs"
    path.write_text("(VAR x)\n(RULES\n)\n", encoding="utf-8")
    assert run(capsys, "overlaps", str(path)) == (0, "no overlaps\n", "")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "overlaps: none"


def test_props_type4(capsys):
    code, payload, _ = run_json(capsys, "props", str(corpus_path("type4.ctrs")))
    assert code == 0
    assert payload["type"] == 4


def test_render_report_views(capsys):
    from ctrskit.analysis import check_level_confluence
    from ctrskit.cops import parse
    from ctrskit.ctrs import check_left_linear
    from ctrskit.reports import render_report

    spec = parse(corpus_path("fib.ctrs").read_text(encoding="utf-8"))
    verdict = check_level_confluence(spec.ctrs)
    assert render_report(verdict).startswith("YES (level-confluent)")
    assert render_report(check_left_linear(spec.ctrs)).startswith(
        "property left-linear: holds"
    )
    bad = parse(corpus_path("non_left_linear.ctrs").read_text(encoding="utf-8"))
    report = render_report(check_left_linear(bad.ctrs))
    assert "FAILS" in report and "rule 1" in report


def test_too_deep_term_exits_2_without_a_traceback():
    # epar_successors still recurses over arguments, two frames a level,
    # where the parser takes none: under a lowered limit the parser reads
    # s^100(0), and the engine's recursion on it overflows
    script = (
        "import sys\nfrom ctrskit.cli import main\n"
        "sys.setrecursionlimit(150)\nsys.exit(main(sys.argv[1:]))\n"
    )
    term = "s(" * 100 + "0" + ")" * 100
    proc = run_fresh(script, "epar", FIB, "--term", term, "--level", "1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: term nesting exceeds Python's recursion limit"]
    assert "Traceback" not in proc.stderr


def test_deep_rewrite_back_to_visited_terms(tmp_path):
    # each step nests the term one level deeper, past the recursion limit,
    # and s(z) -> z reaches terms equal to visited ones, which `new -= visited`
    # compares: term equality must not recurse
    path = tmp_path / "deep.ctrs"
    path.write_text("(VAR x)\n(RULES\n  f(x) -> f(s(x))\n  s(z) -> z\n)\n", encoding="utf-8")
    proc = run_fresh(
        "import sys\nfrom ctrskit.cli import main\nsys.exit(main(sys.argv[1:]))\n",
        "rewrite", str(path), "--term", "f(z)", "--level", "1",
        "--steps", "1200", "--max-depth", "1200",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1202 and lines[-1] == "truncated: true"


def test_deep_rewrite_renders_every_term(tmp_path):
    # the same f-chain, but no reduct equals a visited term: rendering the
    # 1201 terms, up to f(s^1200(z)), is what must not recurse
    path = tmp_path / "deep.ctrs"
    path.write_text("(VAR x)\n(RULES\n  f(x) -> f(s(x))\n  g(z) -> z\n)\n", encoding="utf-8")
    argv = ["rewrite", str(path), "--term", "f(z)", "--level", "1",
            "--steps", "1200", "--max-depth", "1200"]
    script = "import sys\nfrom ctrskit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    deepest = "f(" + "s(" * 1200 + "z" + ")" * 1201
    text = run_fresh(script, *argv)
    assert (text.returncode, text.stderr) == (0, "")
    lines = text.stdout.splitlines()
    assert len(lines) == 1202 and lines[-1] == "truncated: true"
    assert "f(z)" in lines and deepest in lines
    js = run_fresh(script, *argv, "--json")
    assert (js.returncode, js.stderr) == (0, "")
    payload = json.loads(js.stdout)
    assert len(payload["reachable"]) == 1201 and payload["truncated"] is True
    assert payload["reachable"] == lines[:-1]


def test_deep_rewrite_through_condition_solving(tmp_path):
    # each step solves a == y, and the solution is composed with the match
    # x -> s^k(z); a substitution that copied s^k(z) left two distinct equal
    # deep terms, and == between them recursed past the limit
    path = tmp_path / "deep.ctrs"
    path.write_text(
        "(VAR x y)\n(RULES\n  f(x) -> f(s(x)) | a == y\n  a -> b\n  g(z) -> z\n)\n",
        encoding="utf-8",
    )
    proc = run_fresh(
        "import sys\nfrom ctrskit.cli import main\nsys.exit(main(sys.argv[1:]))\n",
        "rewrite", str(path), "--term", "f(z)", "--level", "2",
        "--steps", "1200", "--max-depth", "1200",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1202 and lines[-1] == "truncated: true"


# every command the CLI offers, on every corpus file or on fib.ctrs
IDENTITY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from ctrskit.cli import main
corpus = Path(sys.argv[1])
fib = str(corpus / "fib.ctrs")
runs = [[cmd, str(path), "--json"]
        for path in sorted(corpus.glob("*.ctrs")) for cmd in ("check", "props", "overlaps")]
term = "pair(fib(s(s(0))), add(s(0), fib(s(0))))"
for level in ("0", "1", "2"):
    runs.append(["rewrite", fib, "--term", term, "--level", level, "--steps", "3"])
    runs.append(["epar", fib, "--term", term, "--level", level])
runs.append(["diamond", fib, "--m", "1", "--n", "2", "--seed-size", "4"])
out = []
for argv in runs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([argv[0], Path(argv[1]).name, code, buf.getvalue()])
print(json.dumps(out))
"""


def test_cli_output_does_not_depend_on_the_hash_seed():
    # set and dict orders follow string hashes, and the addresses that
    # symbols and variables hash by; no output may show them, so two
    # processes under one seed must agree as well as two seeds
    results = []
    for seed in ("0", "0", "1"):
        proc = run_fresh(IDENTITY_SCRIPT, str(CORPUS), hash_seed=seed)
        assert proc.returncode == 0, proc.stderr[-2000:]
        results.append(json.loads(proc.stdout))
    assert len(results[0]) == 3 * len(list(CORPUS.glob("*.ctrs"))) + 7
    assert results[0] == results[1] == results[2]


def test_closed_stdout_keeps_the_exit_code():
    # the reader is gone before the first write: unhandled, buffered stdout
    # fails at the interpreter's last flush (exit 120), unbuffered in `print`
    runs = [
        (["check", FIB], 0),
        (["check", OVERLAP, "--strict"], 1),
        (["rewrite", FIB, "--term", "fib(s(0))", "--level", "2", "--steps", "3"], 0),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv, code in runs:
            r, w = os.pipe()
            os.close(r)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "ctrskit.cli", *argv],
                    stdout=w, stderr=subprocess.PIPE, text=True,
                    env=dict(env, **extra), timeout=300,
                )
            finally:
                os.close(w)
            assert (proc.returncode, proc.stderr) == (code, ""), (argv, extra)


def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path, capsys):
    # random systems written out as source files: every subcommand ends with
    # a documented exit code, and nothing escapes as an exception
    f, g, a, b = Symbol("f", 2), Symbol("g", 1), Symbol("a", 0), Symbol("b", 0)
    terms = st.recursive(
        st.sampled_from((Var("x"), Var("y"), Var("z"), Fun(a), Fun(b))),
        lambda kids: st.one_of(
            st.builds(lambda t: Fun(g, (t,)), kids),
            st.builds(lambda s, t: Fun(f, (s, t)), kids, kids),
        ),
        max_leaves=4,
    )
    rules = st.builds(
        lambda lhs, rhs, conds: Rule(lhs, rhs, tuple(conds)),
        terms.filter(lambda t: isinstance(t, Fun)),
        terms,
        st.lists(st.builds(Condition, terms, terms), max_size=2),
    )
    path = tmp_path / "random.ctrs"
    codes = {0: 0, 1: 0, 2: 0}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(rules, min_size=1, max_size=4), st.booleans())
    def check(rule_list, strict):
        path.write_text(render_system(Ctrs.from_rules(rule_list)), encoding="utf-8")
        file = str(path)
        runs = [
            ["check", file] + ["--strict"] * strict,
            ["check", file, "--json"],
            ["props", file],
            ["overlaps", file, "--json"],
        ]
        # the searches start at the largest ground term of at most 3 nodes,
        # if the signature has a constant
        ground = ground_terms(parse(path.read_text()).ctrs.symbols, 3)
        if ground:
            term = render_term(ground[-1])
            runs += [
                ["rewrite", file, "--term", term, "--level", "2", "--steps", "3",
                 "--max-terms", "50"],
                ["epar", file, "--term", term, "--level", "2", "--max-depth", "3",
                 "--max-terms", "50"],
            ]
        for argv in runs:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
            codes[code] += 1

    check()
    # strict checks of systems outside the criterion exit 1; no input is bad
    assert codes[1] >= 5 and codes[2] == 0, codes
