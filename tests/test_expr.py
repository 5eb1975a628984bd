import random
import re
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import pytest

from flatconn import fce, flatrep, sdym
from flatconn.expr import (
    Expr, const, fc, jet, param, render, v, x, y, ZERO, ONE,
)
from flatconn.kdv import build_kdv
from flatconn.problems import parse_problem
from helpers import (
    fc_pool, leibniz_reference, naive_derive, naive_product, naive_sum,
    partial_reference, rand_expr,
)


def test_difference_of_squares():
    x1, v1 = x(1), v(1)
    assert (x1 + v1) * (x1 - v1) == x1 ** 2 - v1 ** 2


def test_cancellation_gives_empty_map():
    e = x(1) + x(1) - 2 * x(1)
    assert e.is_zero()
    assert e.terms == {}


def test_binomial_expansion():
    u0, u1 = jet(1, ()), jet(1, (1,))
    assert (u0 + u1) ** 2 == u0 ** 2 + 2 * u0 * u1 + u1 ** 2


def test_normalization_idempotent_and_equal_inputs_identical():
    a = (x(1) + v(1)) * (x(1) + v(1))
    b = x(1) ** 2 + 2 * x(1) * v(1) + v(1) ** 2
    assert a.terms == b.terms
    assert hash(a) == hash(b)


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        (x(1) + ONE) ** -1
    with pytest.raises(TypeError):
        (x(1) + ONE) ** Fraction(1, 2)


def test_division_by_constants_only():
    assert (2 * x(1)) / 2 == x(1) + ZERO
    assert x(1) / Fraction(1, 3) == 3 * x(1)
    with pytest.raises(ValueError):
        x(1) / (x(1) + ONE)
    with pytest.raises(ZeroDivisionError):
        x(1) / 0
    # exact: an int divisor gives a Fraction, never a float
    half = x(1) / 2
    assert half.terms == {((x(1), 1),): Fraction(1, 2)}
    assert type(half.terms[((x(1), 1),)]) is Fraction
    three = x(1) / Fraction(1, 3)
    assert type(three.terms[((x(1), 1),)]) is int
    assert type(const(Fraction(4, 2)).constant_value()) is int
    # an integral Fraction left by a product is the same value as the int
    back = half * 2
    assert back == x(1) + ZERO and hash(back) == hash(x(1) + ZERO)
    assert render(back) == "x1"
    pf = parse_problem("[chart]\nn = 2\nm = 1\nkind = connection\n"
                       "[connection]\nv1 = x2/2\nv2 = 6*x1/3\n")
    assert pf.connection == {(1, 1): x(2) / 2, (2, 1): 2 * x(1)}
    assert render(pf.connection[(1, 1)]) == "1/2*x2"


def test_partial_examples():
    u0, u1 = jet(1, ()), jet(1, (1,))
    assert (u0 ** 2 * u1).partial(u0) == 2 * u0 * u1
    assert Expr.wrap(x(1)).partial(v(1)).is_zero()
    s = fc(1, (2,), ())
    assert (s ** 3).partial(s) == 3 * s ** 2


def test_substitute_examples():
    lam = param("lam")
    assert (lam * jet(1, ())).subs({lam: ZERO}).is_zero()
    assert (fc(1, (1,), ()) + x(2)).subs({fc(1, (1,), ()): Expr.wrap(x(2))}) == 2 * x(2)
    eps = param("eps")
    assert (eps ** 2).subs({eps: Expr.wrap(eps)}) == eps ** 2


def test_collect_param():
    lam, u0, u1 = param("lam"), jet(1, ()), jet(1, (1,))
    got = (lam ** 2 * u0 + lam * u1 + 1).collect(lam)
    assert got == [(0, ONE), (1, Expr.wrap(u1)), (2, Expr.wrap(u0))]
    assert Expr.wrap(u0).collect(lam) == [(0, Expr.wrap(u0))]
    assert (lam * (u0 + lam) - lam * u0).collect(lam) == [(2, ONE)]


def test_collect_round_trip():
    rng = random.Random(5)
    lam = param("lam")
    pool = [x(1), v(1), lam]
    for _ in range(25):
        f = rand_expr(rng, pool, degree=3, terms=4)
        back = ZERO
        for d, c in f.collect(lam):
            back = back + lam ** d * c
        assert back == f


def test_ring_axioms_random():
    rng = random.Random(17)
    pool = [x(1), x(2), v(1), jet(1, (1,)), param("lam")]
    for _ in range(30):
        a = rand_expr(rng, pool)
        b = rand_expr(rng, pool)
        c = rand_expr(rng, pool)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_leibniz_and_commuting_partials():
    rng = random.Random(23)
    pool = [x(1), v(1), v(2), jet(1, (1,))]
    for _ in range(30):
        f = rand_expr(rng, pool)
        g = rand_expr(rng, pool)
        s = rng.choice(pool)
        t = rng.choice(pool)
        assert (f * g).partial(s) == f.partial(s) * g + f * g.partial(s)
        assert f.partial(s).partial(t) == f.partial(t).partial(s)
        assert f.partial(s) == partial_reference(f, s)
        # derive against the definition: f^2 g has powers >= 2, and the images
        # range from ZERO (terms=0) to several terms
        values = {p: rand_expr(rng, pool, terms=rng.randint(0, 3)) for p in pool}
        calls = []

        def image(p):
            calls.append(p)
            return values[p]

        h = f ** 2 * g
        assert h.derive(image) == leibniz_reference(h, values.__getitem__)
        assert len(calls) == len(set(calls)) and set(calls) == set(h.symbols())
    # a rotation kills x1^2 + v1^2: every term cancels
    rotation = {x(1): Expr.wrap(v(1)), v(1): -Expr.wrap(x(1))}
    assert (x(1) ** 2 + v(1) ** 2).derive(rotation.__getitem__).terms == {}
    assert (x(1) ** 3 * v(1)).derive(rotation.__getitem__) == \
        3 * x(1) ** 2 * v(1) ** 2 - x(1) ** 4

    def refuse(p):
        raise ValueError("no image for %s" % render(p))

    with pytest.raises(ValueError, match="no image for x1"):
        Expr.wrap(x(1)).derive(refuse)
    assert ZERO.derive(refuse).is_zero()


def test_is_zero_agrees_with_evaluation():
    rng = random.Random(29)
    pool = [x(1), x(2), v(1)]
    for _ in range(10):
        f = rand_expr(rng, pool, degree=3, terms=4)
        g = rand_expr(rng, pool, degree=3, terms=4)
        h = f * g - g * f  # identically zero, built the long way
        assert h.is_zero()
        probe = f - f + h
        for _ in range(20):
            point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in pool}
            assert probe.evaluate(point) == 0
        if not f.is_zero():
            hits = sum(
                f.evaluate({s: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in pool}) != 0
                for _ in range(20)
            )
            assert hits > 0  # a nonzero polynomial is nonzero somewhere


def test_symbol_order_deterministic():
    syms = [param("lam"), x(1), v(1), jet(1, (1,)), fc(1, (1,), ()), y(1)]
    keys = [s.key for s in syms]
    assert keys == sorted(keys)  # param < indep < basefiber < jet < fc < fiber


def test_order_key_bytes_sort_as_symbol_keys():
    # Monomial products compare the bytes Symbol._ord in place of the key
    # tuples, so the two orders must agree on every pair: names that extend
    # one another (and one outside ASCII), integers either side of a byte
    # boundary, multi-indices that extend one another, on every kind.
    rng = random.Random(41)
    ints = (1, 2, 254, 255, 256, 70000)
    multi = [(), (1,), (1, 1), (1, 1, 1), (1, 2), (1, 255), (1, 256), (2,),
             (254,), (255,), (255, 255), (256,), (256, 256), (70000,), (1, 70000)]
    syms = [param(n) for n in ("a", "a_", "b_", "la", "lam", "lam2", "lamb", "\u03bb")]
    syms += [make(i) for make in (x, v, y) for i in ints]
    syms += [jet(a, sigma) for a in ints for sigma in multi]
    syms += [fc(a, ii, aa) for a in (1, 255, 256) for ii in multi[1:] for aa in multi]
    rng.shuffle(syms)
    assert len(set(syms)) == len(syms) > 700
    assert sorted(syms, key=lambda s: s._ord) == sorted(syms, key=lambda s: s.key)
    for s in syms:
        assert type(s._ord) is bytes
        for t in syms:
            assert (s._ord < t._ord) == (s.key < t.key)


def test_ring_and_leibniz_kernel_match_the_naive_reference():
    # Exact terms dicts, so the factor order inside each monomial is checked
    # too; powers up to 3, shared factors, constant terms, Fraction
    # coefficients, and images that are 0, a constant, one symbol, a product
    # or a sum.
    rng = random.Random(43)
    pool = [param("lam"), x(1), x(2), v(1), jet(1, ()), jet(1, (1, 2)),
            fc(1, (1,), (2,)), fc(2, (1, 1), ()), y(1)]

    def draw(terms):
        e = ZERO
        for _ in range(terms):
            t = const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])))
            for s in rng.sample(pool, rng.randint(0, 4)):
                t = t * s ** rng.randint(1, 3)
            e = e + t
        return e

    def unshared(result, *operands):
        for op in operands:
            assert result is op or result.terms is not op.terms

    cases = 0
    for _ in range(60):
        a, b = draw(rng.randint(0, 4)), draw(rng.randint(0, 4))
        if rng.random() < 0.3:
            b = b + a * draw(1)  # factors shared by both operands
        before = (dict(a.terms), dict(b.terms))
        for got, want in ((a * b, naive_product(a, b)), (a + b, naive_sum(a, b)),
                          (a - b, naive_sum(a, b, -1)), (-a, naive_sum(ZERO, a, -1))):
            assert got.terms == want
            unshared(got, a, b)
        images = {s: rng.choice([ZERO, const(rng.randint(-2, 2)), Expr.wrap(rng.choice(pool)),
                                 rng.choice(pool) * rng.choice(pool) ** 2, draw(2)])
                  for s in pool}
        got = a.derive(images.__getitem__)
        assert got.terms == naive_derive(a, images.__getitem__)
        unshared(got, a, *images.values())
        assert (dict(a.terms), dict(b.terms)) == before
        cases += bool(got.terms)
    assert cases > 20
    # cancellations: to zero in a sum and a derivation, and of the cross
    # terms inside a product
    a = draw(3) + x(1)
    assert (a - a).terms == {} == naive_sum(a, a, -1)
    p, q = x(1) + v(1), x(1) - v(1)
    assert (p * q).terms == naive_product(p, q) == {((x(1), 2),): 1, ((v(1), 2),): -1}
    rotation = {x(1): Expr.wrap(v(1)), v(1): -Expr.wrap(x(1))}
    f = (x(1) ** 2 + v(1) ** 2) ** 2
    assert f.derive(rotation.__getitem__).terms == {} == naive_derive(f, rotation.__getitem__)
    # the public constructor copies its mapping; operations return a or b
    # themselves only where the other is 0 or 1
    terms = {((x(1), 1),): 2}
    assert Expr(terms).terms is not terms
    assert a + ZERO is a and a * ONE is a and ONE * a is a


def test_derive_calls_each_image_once_and_reads_it_in_place():
    # The kernel's contract: image is called once per distinct symbol of f,
    # and each image's terms are only read.  Read-only terms give the same
    # result as plain ones and come out unchanged, so the kernel may read a
    # memoized image in place.
    rng = random.Random(71)
    pool = [x(1), v(1), v(2), jet(1, (1,)), fc(1, (1,), (2,))]
    for _ in range(40):
        f = rand_expr(rng, pool, degree=3, terms=rng.randint(1, 4)) ** rng.randint(1, 2)
        values = {s: rand_expr(rng, pool, terms=rng.randint(0, 3)) for s in pool}
        frozen = {}
        for s, e in values.items():
            frozen[s] = Expr(e.terms)
            frozen[s].terms = MappingProxyType(dict(e.terms))
        before = {s: dict(e.terms) for s, e in values.items()}
        calls = Counter()

        def image(s):
            calls[s] += 1
            return frozen[s]

        got = f.derive(image)
        assert got == f.derive(values.__getitem__)
        assert got.terms == naive_derive(f, values.__getitem__)
        assert set(calls) == set(f.symbols()) and set(calls.values()) <= {1}
        assert {s: dict(e.terms) for s, e in frozen.items()} == before
        assert {s: e.terms for s, e in values.items()} == before


def test_bool_is_not_an_index():
    # True == 1 and hashes alike, so an interned True spelling would win
    # every later lookup of the same symbol and change its rendering.
    for build in (lambda: x(True), lambda: jet(1, (True,)), lambda: jet(1, (True, 2)),
                  lambda: fc(1, (2,), (True,)), lambda: fc(True, (2,), (1,))):
        with pytest.raises(ValueError, match="indices must be positive integers, got True"):
            build()
    assert render(fc(1, (2,), (1,))) == "v[1;2;1]"
    assert render(jet(1, (1, 2))) == "u[1;2]"


def test_index_of_another_type_is_named_before_sorting():
    # The indices used to be sorted before they were checked, so a string
    # among ints raised the TypeError of the comparison instead.
    for build, bad in ((lambda: jet(1, (1, 'a')), "'a'"), (lambda: x('1'), "'1'"),
                       (lambda: fc(1, (2, None), ()), "None"), (lambda: jet(1, (1.0, 2)), "1.0")):
        with pytest.raises(ValueError, match="indices must be positive integers, got %s$"
                           % re.escape(bad)):
            build()
    assert jet(1, (2, 1)) is jet(1, (1, 2))


def test_rendering_bit_exact():
    lam = param("lam")
    assert render(lam + jet(1, ()) + y(1) ** 2) == "lam + u[0] + y1^2"
    assert render(ZERO) == "0"
    assert render(jet(1, (1,)) ** 2 + 6 * jet(1, ()) * jet(1, (1,))) == \
        "6*u[0]*u[1] + u[1]^2"
    assert render(fc(1, (2, 2), (1,))) == "v[1;2,2;1]"
    assert render(fc(2, (1,), ())) == "v[2;1;]"
    assert render(-Expr.wrap(v(1))) == "-v1"
    assert render(Fraction(3, 4) * x(1) - v(1)) == "3/4*x1 - v1"


def test_jet_rendering_unambiguous():
    # order form vs direction-list form never collide
    assert render(jet(1, (1, 1, 1))) == "u[3]"
    assert render(jet(1, (3,))) == "u[3;]"
    assert render(jet(1, (1, 3))) == "u[1;3]"
    assert render(jet(2, ())) == "u2[0]"


def test_fc_symbol_invariant():
    with pytest.raises(ValueError):
        fc(1, (), (1,))
    assert fc(1, (), ()) is v(1)  # the bare coordinate is the fiber symbol


def coefficients(obj):
    """Every coefficient of every Expr inside ``obj``: an Expr, a cochain, a
    flat representation, or a mapping or sequence of those."""
    if isinstance(obj, Expr):
        return list(obj.terms.values())
    if isinstance(obj, fce.Cochain):
        return coefficients(obj.data)
    if isinstance(obj, flatrep.FlatRepSpec):
        return coefficients([obj.coeffs, obj.twist, obj.flatness_residuals])
    if isinstance(obj, Mapping):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [q for item in obj for q in coefficients(item)]
    return []


def test_integer_data_keeps_int_coefficients():
    kdv = build_kdv()
    miura = kdv.miura
    lift = flatrep.du_vertical(miura, {3: y(1) ** 2 * jet(1, (1,))})
    got = coefficients([miura, kdv.symmetries, kdv.scheme.rhs, lift])
    got += coefficients([sdym.build_flatrep(1), list(sdym.lambda_expand(2))])
    ch = fce.FcChart(2, 2)
    rng = random.Random(31)
    pool = fc_pool(2, 2)
    for _ in range(4):
        f = fce.cochain0(ch, [rand_expr(rng, pool), rand_expr(rng, pool)])
        g = fce.cochain0(ch, [rand_expr(rng, pool), rand_expr(rng, pool)])
        got += coefficients([fce.bracket0(ch, f, g), fce.dfc(f), fce.dfc(fce.dfc(g))])
    assert len(got) > 500
    assert {type(q) for q in got} == {int}


def test_no_coefficient_is_a_float():
    rng = random.Random(37)
    pool = [x(1), v(1), jet(1, (1,)), param("lam")]
    for _ in range(20):
        f = rand_expr(rng, pool) / rng.choice([1, 2, 3, Fraction(2, 3)])
        g = rand_expr(rng, pool) * Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        h = (f * g + f.partial(v(1)) - g.subs({x(1): f})) / rng.randint(1, 5)
        for e in (f, g, h, h ** 2, h.derive(lambda s: g)):
            assert all(type(q) in (int, Fraction) for q in e.terms.values())
