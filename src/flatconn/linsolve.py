"""Bounded polynomial ansaetze and exact linear solving over Q.

The exactness, lifting and recovery questions in this package reduce to: does
a linear operator equation have a polynomial solution whose monomials come
from a declared finite pool?  An :class:`AnsatzSpec`, an ``expr.Frozen``
record, fixes the pool (allowed symbols and a total-degree cap, at most
:data:`MAX_UNKNOWNS` unknowns).
``jets.cochain_preimage`` applies the operator, the degree-0 cochain
differential, to the basis elements mu e_a (fiber a outer, mu inner) of the
connected blocks of the system that hold the target's rows, on packed
integer monomial keys: each symbol is a bit field of width W =
D.bit_length(), D bounding every monomial's total degree, so keys never
carry and are never unpacked.  Every other column is 0 in the answer.
:func:`solve_by_superposition` finds the rational combination of the images
it is given that equals the target: each component of an image is a sparse
map {key: coefficient} whose keys it treats as opaque, the rows are keyed by
(component, key), and :func:`solve_linear` solves them exactly.  Most rows
pin one unknown at 0: it propagates those pins until none is new, then runs
one Gaussian elimination on what is left, with no further split into
blocks.  Rows go in unsorted: the pivot columns are the leading columns of
the row space, so only the column (basis) order fixes a solution.

A "no solution" answer is always relative to the ansatz (bounded-no).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .expr import Expr, Frozen, ONE, Symbol

if TYPE_CHECKING:
    from .expr import Scalar

__all__ = ["AnsatzSpec", "MAX_UNKNOWNS", "solve_linear", "solve_by_superposition"]

# The most unknowns, monomials times fibers, that an ansatz may give: about
# 17 times the 11,400 of the SDYM exactness test, and few enough that
# enumerating the monomials takes seconds, not minutes.
MAX_UNKNOWNS = 200_000


class AnsatzSpec(Frozen):
    """A finite monomial pool: ``symbols`` up to total degree ``degree``.

    Frozen, because the sorted pool fixes the column order; two specs with
    the same pool and degree are equal."""

    __slots__ = ("symbols", "degree")

    def __init__(self, symbols: Sequence[Symbol], degree: int):
        if type(degree) is not int or degree < 0:
            raise ValueError("degree bound must be a nonnegative int, got %r" % (degree,))
        self._put(symbols=tuple(sorted(set(symbols), key=lambda s: s.key)), degree=degree)

    def __eq__(self, other):
        return type(other) is AnsatzSpec and (self.symbols, self.degree) == (
            other.symbols, other.degree)

    def unknowns(self, fibers: int) -> int:
        """C(len(symbols) + degree, degree) monomials times ``fibers``, by
        arithmetic; over :data:`MAX_UNKNOWNS`, a ValueError that states it."""
        n = comb(len(self.symbols) + self.degree, self.degree) * fibers
        if n > MAX_UNKNOWNS:
            raise ValueError("ansatz too large: %d unknowns (%d symbols, degree %d, %d fibers), "
                             "over the cap of %d" % (n, len(self.symbols), self.degree, fibers,
                                                     MAX_UNKNOWNS))
        return n

    def monomials(self) -> List[Expr]:
        """All monomials of the pool, in a deterministic order."""
        out = [ONE]
        for d in range(1, self.degree + 1):
            for combo in combinations_with_replacement(self.symbols, d):
                mono = []
                for s in combo:
                    if mono and mono[-1][0] is s:
                        mono[-1] = (s, mono[-1][1] + 1)
                    else:
                        mono.append((s, 1))
                out.append(Expr({tuple(mono): 1}))
        return out


def solve_linear(rows) -> Optional[Dict[int, Scalar]]:
    """One exact solution of the sparse system, or None if inconsistent.

    Row ``(coeffs, const)`` reads sum_j coeffs[j] x_j + const = 0; free
    columns are set to zero.  A one-column row with a zero constant pins its
    column at 0.  Pinned columns are dropped from every row, pass after pass,
    until no row pins a new one; the rest goes through one exact elimination
    (no split into blocks).  A pinned column is a pivot column with value 0,
    and dropping it keeps the row space, so the answer is that of plain
    elimination.
    """
    while True:
        pins = {j for coeffs, const in rows if len(coeffs) == 1 and const == 0 for j in coeffs}
        if not pins:
            return _eliminate(rows)
        left = []
        for coeffs, const in rows:
            if not pins.isdisjoint(coeffs):
                coeffs = {j: q for j, q in coeffs.items() if j not in pins}
                if not coeffs:
                    if const != 0:
                        return None
                    continue
            left.append((coeffs, const))
        rows = left


def _eliminate(rows) -> Optional[Dict[int, Scalar]]:
    pivots: Dict[int, Tuple[Dict[int, Scalar], Scalar]] = {}
    for coeffs, const in rows:
        row = dict(coeffs)
        rhs = const
        while row:
            hit = None
            for c in row:
                if c in pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                break
            prow, prhs = pivots[hit]
            factor = row.pop(hit)
            for c, q in prow.items():
                if c == hit:
                    continue
                acc = row.get(c, 0) - factor * q
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
            rhs -= factor * prhs
        if not row:
            if rhs != 0:
                return None
            continue
        lead = min(row)
        inv = Fraction(1, row[lead])
        if inv.denominator == 1:
            inv = inv.numerator  # a unit pivot keeps an int row int
        row = {c: q * inv for c, q in row.items()}
        pivots[lead] = (row, rhs * inv)
    out: Dict[int, Scalar] = {}
    for c in sorted(pivots, reverse=True):
        prow, prhs = pivots[c]
        # Row reads: x_c + sum_{c' > c} q x_{c'} + rhs = 0.
        val = -prhs
        for cc, q in prow.items():
            if cc != c:
                val -= q * out.get(cc, 0)
        out[c] = val
    return out


def solve_by_superposition(
    images: Sequence[Sequence[Mapping[Hashable, Scalar]]],
    target: Sequence[Mapping[Hashable, Scalar]],
) -> Optional[List[Scalar]]:
    """Coefficients c with sum_j c_j images[j] == target componentwise.

    ``images[j]`` holds the components of a linear operator applied to the
    j-th basis element.  A component, like each entry of ``target``, is a
    sparse map {key: nonzero coefficient}; the keys (packed monomials, or
    the monomials of :attr:`Expr.terms`) are only hashed and compared, and
    the system has one row per (component, key).  Unknowns that no equation
    constrains come back as zero.  Returns None when no combination exists
    (bounded-no at the basis).
    """
    ncomp = len(target)
    # The rows of component ci, keyed by key: together, rows keyed (ci, key).
    keyed: List[Dict[Hashable, Dict[int, Scalar]]] = [{} for _ in range(ncomp)]
    for j, comps in enumerate(images):
        if len(comps) != ncomp:
            raise ValueError("image %d has %d components, expected %d"
                             % (j, len(comps), ncomp))
        for rows, comp in zip(keyed, comps):
            for key, q in comp.items():
                row = rows.get(key)
                if row is None:
                    rows[key] = {j: q}
                else:
                    row[j] = q  # one entry per key: no sum
    consts = []
    for rows, comp in zip(keyed, target):
        for key in comp:
            rows.setdefault(key, {})
        consts.append({key: -q for key, q in comp.items()})
    sol = solve_linear([(coeffs, const.get(key, 0)) for rows, const in zip(keyed, consts)
                        for key, coeffs in rows.items()])
    if sol is None:
        return None
    return [sol.get(j, 0) for j in range(len(images))]
