import random
from fractions import Fraction

import pytest

from flatconn import linsolve
from flatconn.expr import Expr, param, render, v, x, ZERO, ONE
from flatconn.linsolve import AnsatzSpec, _eliminate, solve_by_superposition, solve_linear


def comps(*es):
    """Components in the solver's one type: sparse maps {monomial: coefficient}."""
    return [Expr.wrap(e).terms for e in es]


def test_monomials_deterministic_and_bounded():
    ans = AnsatzSpec(symbols=(x(1), v(1)), degree=2)
    monos = [render(m) for m in ans.monomials()]
    assert monos == ["1", "x1", "v1", "x1^2", "x1*v1", "v1^2"]
    assert monos == [render(m) for m in AnsatzSpec(symbols=(v(1), x(1)), degree=2).monomials()]


def test_solve_simple_system():
    # a * (x1 + v1) + b * v1 == 2 * x1 identically
    images = [comps(x(1) + v(1)), comps(v(1))]
    assert solve_by_superposition(images, comps(2 * x(1))) == [Fraction(2), Fraction(-2)]
    # Keys are opaque: the same system on integer keys, x1 -> 1 and v1 -> 2.
    assert solve_by_superposition([[{1: 1, 2: 1}], [{2: 1}]], [{1: 2}]) == [2, -2]


def test_solve_reports_inconsistency():
    # a * x1 == x1 + 1 needs the impossible constant row 0 = 1
    assert solve_by_superposition([comps(x(1))], comps(x(1) + ONE)) is None
    assert solve_linear([({}, Fraction(1))]) is None


def test_unconstrained_unknowns_default_to_zero():
    # the second basis element has the zero image, so nothing constrains it
    assert solve_by_superposition([comps(x(1)), comps(ZERO)], comps(x(1))) == \
        [Fraction(1), Fraction(0)]
    assert solve_linear([({0: Fraction(1), 1: Fraction(1)}, Fraction(-1))]) == \
        {0: Fraction(1)}


def random_consistent_systems(seed, scalar):
    """Seeded consistent sparse systems with entries of type ``scalar``."""
    rng = random.Random(seed)
    for _ in range(25):
        ncols = rng.randint(1, 6)
        target = {j: scalar(rng.randint(-4, 4)) for j in range(ncols)}
        rows = []
        for _ in range(rng.randint(1, 8)):
            coeffs = {
                j: scalar(rng.randint(-3, 3))
                for j in range(ncols) if rng.random() < 0.7
            }
            coeffs = {j: q for j, q in coeffs.items() if q}
            rhs = sum((q * target[j] for j, q in coeffs.items()), scalar(0))
            rows.append((coeffs, -rhs))  # sum coeffs*x + const = 0
        yield rows


def test_solve_linear_random_consistent_systems():
    shuffle = random.Random(74).shuffle
    for rows in random_consistent_systems(73, Fraction):
        sol = solve_linear(rows)
        assert sol is not None
        for coeffs, const_ in rows:
            assert sum((q * sol.get(j, Fraction(0)) for j, q in coeffs.items()),
                       Fraction(0)) + const_ == 0
        # The pivot columns are the leading columns of the row space, so the
        # solution with free columns at zero does not depend on row order.
        shuffled = list(rows)
        shuffle(shuffled)
        assert solve_linear(rows[::-1]) == sol
        assert solve_linear(shuffled) == sol


def pin_chain_systems(seed):
    """Seeded consistent systems with a planted chain of pins: a one-column
    row pins the chain's first column at 0, and each two-column row on the
    chain becomes a pin once its predecessor is dropped."""
    rng = random.Random(seed)
    nonzero = (-3, -2, -1, 1, 2, 3)
    for _ in range(25):
        ncols = rng.randint(3, 8)
        chain = rng.sample(range(ncols), rng.randint(2, ncols))
        rows = [({chain[0]: rng.choice(nonzero)}, 0)]
        rows += [({a: rng.choice(nonzero), b: rng.choice(nonzero)}, 0)
                 for a, b in zip(chain, chain[1:])]
        target = {j: 0 if j in chain else rng.randint(-4, 4) for j in range(ncols)}
        for _ in range(rng.randint(1, 6)):
            coeffs = {j: rng.choice(nonzero) for j in range(ncols) if rng.random() < 0.5}
            rows.append((coeffs, -sum(q * target[j] for j, q in coeffs.items())))
        rng.shuffle(rows)
        yield rows


def test_pin_propagation_matches_plain_elimination():
    # _eliminate, which propagates nothing, is the reference.
    def check(rows):
        got, want = solve_linear(rows), _eliminate(rows)
        if want is None:
            assert got is None, rows
            return want
        assert got is not None, rows
        cols = {j for coeffs, _ in rows for j in coeffs}
        assert all(got.get(j, 0) == want.get(j, 0) for j in cols), rows
        return got

    for scalar in (int, Fraction):
        for rows in random_consistent_systems(73, scalar):
            check(rows)
    for rows in pin_chain_systems(75):
        assert check(rows) is not None
    # Pins 0, which turns the second row into a pin of 1 and leaves the third
    # reading 0 = -4.
    assert check([({0: 1}, 0), ({0: 3, 1: -1}, 0), ({1: 2, 0: 5}, -4),
                  ({2: 1, 3: 1}, 1)]) is None
    assert check([({}, 0), ({0: 1, 1: 2}, -3), ({}, 0), ({1: 1}, 0)]) == {0: 3}
    assert check([({}, 0), ({}, 0)]) == {}
    assert check([({}, 0), ({0: 1}, 0), ({}, 2)]) is None


def test_solutions_are_exact_rationals():
    # int rows must not divide into floats: the answer is an identity over Q
    sol = solve_linear([({0: 3}, -1)])
    assert sol == {0: Fraction(1, 3)} and type(sol[0]) is Fraction
    assert solve_by_superposition([comps(3 * x(1)), comps(v(1))], comps(x(1) - v(1))) == \
        [Fraction(1, 3), -1]
    for scalar in (int, Fraction):
        for rows in random_consistent_systems(73, scalar):
            sol = solve_linear(rows)
            assert all(type(q) in (int, Fraction) for q in sol.values())
            for coeffs, const_ in rows:
                assert sum(q * sol.get(j, 0) for j, q in coeffs.items()) + const_ == 0
    images = [comps(3 * x(1) + v(1), 2 * v(1)), comps(x(1) / 2, v(1)), comps(ONE, ZERO)]
    got = solve_by_superposition(images, comps(2 * x(1) + 1, 4 * v(1)))
    assert got == [0, 4, 1] and all(type(q) in (int, Fraction) for q in got)


def test_rows_split_params_from_carriers():
    # lam is part of the carrier monomial lam*x1, not an unknown: a * x1 == lam * x1
    # has no rational solution, while a * x1 == x1 has one
    lam = param("lam")
    assert solve_by_superposition([comps(x(1))], comps(lam * x(1))) is None
    assert solve_by_superposition([comps(x(1)), comps(lam * x(1))], comps(lam * x(1))) == \
        [Fraction(0), Fraction(1)]


def test_ansatz_cap_is_arithmetic(monkeypatch):
    # The unknowns are C(len(symbols) + degree, degree) monomials times the
    # fibers: 74 symbols at degree 2 over four fibers (the SDYM exactness
    # test) give 2,850 * 4 = 11,400, far under the cap.
    ans = AnsatzSpec(tuple(x(i) for i in range(1, 75)), 2)
    assert ans.unknowns(1) == 2850 and ans.unknowns(4) == 11400
    assert linsolve.MAX_UNKNOWNS >= 10 * 11400
    monkeypatch.setattr(linsolve, "MAX_UNKNOWNS", 11400)
    assert ans.unknowns(4) == 11400
    with pytest.raises(ValueError, match=r"14250 unknowns \(74 symbols, degree 2, 5 fibers\)"):
        ans.unknowns(5)
    monkeypatch.undo()
    huge = AnsatzSpec(tuple(x(i) for i in range(1, 101)), 4)
    with pytest.raises(ValueError, match="4598126 unknowns .*, over the cap of 200000"):
        huge.unknowns(1)


def test_ansatz_is_a_frozen_value():
    # The sorted pool fixes the column order, so no assignment may skip the
    # constructor's sort and checks: a degree of -1 would fail inside
    # math.comb, a doubled pool would count 17 unknowns instead of 9.
    pool = tuple(x(i) for i in range(1, 9))
    ans = AnsatzSpec(pool, 1)
    with pytest.raises(AttributeError, match="immutable"):
        ans.degree = -1
    with pytest.raises(AttributeError, match="immutable"):
        ans.symbols = pool + tuple(v(a) for a in range(1, 9))
    assert ans.unknowns(1) == 9 and ans.symbols == pool
    assert ans == AnsatzSpec(pool[::-1], 1) and ans != AnsatzSpec(pool, 2)
    for degree in (1.5, True, Fraction(1), "1", -1):
        with pytest.raises(ValueError, match="degree bound"):
            AnsatzSpec((x(1),), degree)
