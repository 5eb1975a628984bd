"""Seeded random generators shared by the property tests."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from flatconn.expr import ZERO, Expr, const, fc, jet, v, x


def rand_expr(rng: random.Random, symbols, degree=2, terms=3, span=3) -> Expr:
    """Random polynomial: ``terms`` monomials of total degree <= ``degree``."""
    out = const(0)
    for _ in range(terms):
        mono = const(rng.randint(-span, span))
        for _ in range(rng.randint(0, degree)):
            mono = mono * rng.choice(symbols)
        out = out + mono
    return out


def leibniz_reference(f: Expr, image) -> Expr:
    """The derivation with values ``image(s)`` on symbols, by its definition
    sum_s image(s) * df/ds; the reference that Expr.derive is tested against."""
    out = ZERO
    for s in f.symbols():
        out = out + image(s) * f.partial(s)
    return out


def fc_symbols(n, m, max_i, max_a):
    """Every special coordinate v_I^{a,A} with 1 <= |I| <= max_i, |A| <= max_a."""
    out = []
    dirs = tuple(range(1, n + 1))
    fibs = tuple(range(1, m + 1))
    for alpha in fibs:
        for k in range(1, max_i + 1):
            for ii in itertools.combinations_with_replacement(dirs, k):
                for l in range(0, max_a + 1):
                    for aa in itertools.combinations_with_replacement(fibs, l):
                        out.append(fc(alpha, ii, aa))
    return out


def fc_pool(n, m, max_i=1, max_a=1):
    return [x(i) for i in range(1, n + 1)] + [v(a) for a in range(1, m + 1)] + \
        fc_symbols(n, m, max_i, max_a)


def spatial_jets(m, max_order):
    return [jet(a, (1,) * k) for a in range(1, m + 1) for k in range(max_order + 1)]
