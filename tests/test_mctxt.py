import itertools
import random

import pytest

from ctrskit.mctxt import (
    HOLE,
    HoleCountError,
    MFun,
    MVar,
    NotAPrefixError,
    decompose,
    fill,
    fill_ctx,
    hole_count,
    leq,
    meet,
    of_term,
    partition_by,
)
from ctrskit.terms import Fun, Symbol

from conftest import A, B, F, G, X, random_context, random_ground_term, random_prefix, random_term

a = Fun(A)
b = Fun(B)
ca = MFun(A)
cb = MFun(B)


def cf(l, r):
    return MFun(F, (l, r))


def cg(t):
    return MFun(G, (t,))


def test_mfun_arity_check_is_funs():
    with pytest.raises(ValueError) as fun_err:
        Fun(G, (a, b))
    with pytest.raises(ValueError) as mfun_err:
        MFun(G, (ca, cb))
    assert str(mfun_err.value) == str(fun_err.value) == "symbol 'g' has arity 1, got 2 argument(s)"
    # the arguments are still made a tuple first
    assert MFun(F, [ca, HOLE]).args == (ca, HOLE)


def test_hole_count():
    assert hole_count(HOLE) == 1
    assert hole_count(cf(HOLE, ca)) == 1
    assert hole_count(cf(HOLE, HOLE)) == 2
    assert hole_count(MVar(X)) == 0


def test_fill():
    assert fill(HOLE, [a]) == a
    assert fill(cf(HOLE, cb), [a]) == Fun(F, (a, b))
    with pytest.raises(HoleCountError):
        fill(cg(HOLE), [a, b])
    assert fill(MVar(X), []) == X


def test_of_term():
    assert of_term(a) == ca
    assert of_term(Fun(G, (X,))) == cg(MVar(X))
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng, 4)
        c = of_term(t)
        assert hole_count(c) == 0
        assert fill(c, []) == t


def test_leq():
    for d in (HOLE, ca, cf(HOLE, cg(ca))):
        assert leq(HOLE, d)
    assert leq(cf(HOLE, ca), cf(cg(HOLE), ca))
    assert not leq(cf(ca, HOLE), cg(HOLE))
    assert not leq(ca, cb)
    assert leq(MVar(X), MVar(X))


def test_meet_examples():
    assert meet(HOLE, cf(ca, HOLE)) == HOLE
    assert meet(cf(HOLE, ca), cf(cg(HOLE), ca)) == cf(HOLE, ca)
    c = cf(cg(HOLE), MVar(X))
    assert meet(c, c) == c


def test_meet_of_contexts_deeper_than_the_recursion_limit():
    # s^3000(0) as a context chain, and the same chain over a hole; the
    # results are read through walks that do not recurse, never through ==
    s, zero = Symbol("s", 1), Symbol("0", 0)
    c, h = MFun(zero), HOLE
    for _ in range(3000):
        c, h = MFun(s, (c,)), MFun(s, (h,))
    same = meet(c, c)
    assert hole_count(same) == 0 and str(same) == str(c)
    assert fill(same, []) is fill(c, [])
    for m in (meet(c, h), meet(h, c)):
        assert hole_count(m) == 1 and str(m) == str(h)
        assert leq(m, c) and leq(m, h) and decompose(c, m) == [MFun(zero)]


def enumerate_contexts(depth):
    """All contexts over {f/2, g/1, a/0} up to the given nesting depth."""
    level = [HOLE, ca]
    yield from level
    for _ in range(depth - 1):
        nxt = list(level)
        for t in level:
            nxt.append(cg(t))
        for l, r in itertools.product(level, repeat=2):
            nxt.append(cf(l, r))
        for c in nxt:
            if c not in level:
                yield c
        level = nxt


def test_meet_against_bruteforce_maximum():
    # oracle: enumerate all common lower bounds at small depth and take the
    # unique leq-maximum
    c = cf(HOLE, ca)
    d = cf(cg(HOLE), ca)
    lower = [e for e in enumerate_contexts(3) if leq(e, c) and leq(e, d)]
    best = [e for e in lower if all(leq(other, e) for other in lower)]
    assert best == [cf(HOLE, ca)]
    assert meet(c, d) == best[0]


def test_decompose():
    c = cf(cg(HOLE), ca)
    assert decompose(c, HOLE) == [c]
    assert decompose(c, cf(HOLE, ca)) == [cg(HOLE)]
    with pytest.raises(NotAPrefixError):
        decompose(cg(ca), cf(HOLE, HOLE))
    with pytest.raises(NotAPrefixError):
        decompose(MVar(X), ca)


def test_partition_by():
    assert partition_by([a, b, a], [HOLE, cf(HOLE, HOLE)]) == [[a], [b, a]]
    assert partition_by([], [of_term(a)]) == [[]]
    with pytest.raises(HoleCountError):
        partition_by([a], [HOLE, HOLE])


def test_semilattice_laws():
    rng = random.Random(11)
    for _ in range(400):
        c = random_context(rng, 4)
        d = random_context(rng, 4)
        e = random_context(rng, 4)
        assert meet(c, c) == c
        assert meet(c, d) == meet(d, c)
        assert meet(c, meet(d, e)) == meet(meet(c, d), e)


def test_meet_is_greatest_lower_bound():
    rng = random.Random(12)
    for _ in range(400):
        c = random_context(rng, 4)
        d = random_context(rng, 4)
        m = meet(c, d)
        assert leq(m, c) and leq(m, d)
        # refine m randomly into something below both; it must stay below m.
        # meet(c, e) is a convenient lower bound of both c and e <= c, d
        e = meet(c, random_context(rng, 4))
        if leq(e, d):
            assert leq(e, m)


def test_decompose_refill_roundtrip():
    rng = random.Random(13)
    for _ in range(400):
        c = random_context(rng, 4)
        d = random_context(rng, 4)
        e = meet(c, d)
        cs = decompose(c, e)
        ds = decompose(d, e)
        assert fill_ctx(e, cs) == c
        assert fill_ctx(e, ds) == d
        assert len(cs) == len(ds) == hole_count(e)


def test_per_hole_disjointness_for_prefixes_of_a_common_context():
    # the residues of two decompositions of the same thing never both refine
    # the same hole of the meet; for unrelated contexts this can fail
    rng = random.Random(15)
    for _ in range(400):
        shared = random_context(rng, 4)
        c = random_prefix(rng, shared)
        d = random_prefix(rng, shared)
        e = meet(c, d)
        for ci, di in zip(decompose(c, e), decompose(d, e)):
            assert ci == HOLE or di == HOLE


def test_fill_decompose_coherence():
    rng = random.Random(14)
    for _ in range(200):
        c = random_context(rng, 4)
        e = meet(c, random_context(rng, 4))
        cs = decompose(c, e)
        ts = [random_ground_term(rng, 3) for _ in range(hole_count(c))]
        blocks = partition_by(ts, cs)
        refilled = fill(e, [fill(ci, blk) for ci, blk in zip(cs, blocks)])
        assert refilled == fill(c, ts)
