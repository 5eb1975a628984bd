"""Total-derivative schemes on jet spaces and evolution equations.

Every chart (a scheme here, ``fce.FcChart``) is a :class:`Chart`: it judges
its own symbols by ``check_symbol``, deriving nothing.  A scheme knows
pairwise commuting directions D_1, ..., D_N and states how each acts on the
jets it accepts; :class:`DerivScheme` does the rest.  Three built-in flavors:

* :class:`FreeJet` -- the free jet space J^inf of an n-by-m trivial bundle,
  D_i(u_sigma) = u_{sigma i};
* :class:`Evolution` -- internal coordinates (x, t, u_k) of an evolution
  system u_t = F(x, t, u_0, ..., u_r): the spatial rule shifts the order, the
  temporal rule prolongs the right-hand side;
* :class:`Extended` -- an existing scheme plus k fiber coordinates that all
  original variables are independent of (the trivial extension), named by
  the extension: covering fibers y1..yk over an equation, bundle fibers
  v1..vk over a :class:`Base`, the chart of a coordinate connection.

On top of the schemes: evolutionary vector fields and the symmetry test for
evolution systems, whose report (``reports.check``) reads its verdict from
the residuals it prints: pass when each D_t(phi^a) - Ev_phi(F^a) is 0.
Every derivation here is fixed by its values on symbols and applied through
the one Leibniz kernel :meth:`Expr.derive`.

A flat representation phi attaches to an equation the complex C_phi, and
every cochain of the package is one :class:`Cochain` (an ``expr.Frozen``) on
the object that fixes it.  That object provides six names: ``base_dirs``
and ``fiber_dirs`` (tuples), ``f_symbol(i, s)`` = F_i on one symbol,
memoized by the complex, ``twist[(i, a)]``, the pairs (b, D_a(a_i^b)) with
a nonzero value, ``check_component(I, a, f)``, which validates one
component f dx_I (x) e_a handed in from outside and returns f as an Expr,
and ``_pack_memo``, built empty and filled only by :func:`cochain_preimage`.
``flatrep.FlatRepSpec`` is such an object for any phi, and
``fce.FcChart`` for phi = identity on E_fc (F_i = D_i); the horizontal de
Rham complex is the case with one trivial fiber and no twist.
:func:`apply_f` extends F_i to an Expr through the Leibniz kernel.  A cochain
computes its differential :attr:`Cochain.d`, through
:func:`cochain_differential`, once.  :func:`cochain_preimage` is its bounded
inverse in degree 0, the one place where an ansatz system is built and
solved: ``flatrep.exactness_test`` (and ``lift_symmetry`` through it) asks
it whether a cocycle of phi is exact, and ``fce.recover_f`` asks it for the
f of a symmetry of E_fc.  It assembles only the connected blocks of the
ansatz system that hold the target's rows, grown from those rows by key
lookups on packed integer keys (each symbol a bit field of width
W = D.bit_length(), D bounding every monomial's total degree, so keys never
carry and are never unpacked; the complex's ``_pack_memo`` holds the slots,
in the order the complex first sees each symbol, and F_i(s) packed per W);
every other coefficient is 0 in the solver's answer.  It checks every answer
by its differential.
Every signed sparse sum of Exprs in the package goes through :func:`add_term`.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement, islice
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .expr import (
    KIND_INDEP, KIND_JET, KIND_PARAM, Expr, Frozen, ONE, Symbol, ZERO, jet, positive, render, v,
    x, y,
)
from .linsolve import solve_by_superposition
from .reports import Report, check

__all__ = [
    "Chart", "Base", "FreeJet", "Evolution", "Extended", "Cochain",
    "total_derivative", "d_sigma", "evolutionary_apply",
    "is_symmetry_evolution", "sort_with_sign", "add_term",
    "apply_f", "cochain_differential", "cochain_preimage", "DirectionError",
]


class DirectionError(ValueError):
    """A direction index outside the scheme's range."""


def sort_with_sign(indices: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Sort a tuple of indices, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def add_term(acc: dict, key, value, sign: int = 1) -> None:
    """acc[key] += sign * value in a sparse dict; a key whose sum is zero is
    dropped.  Values are Exprs or Derivations; ``sign`` is +1 or -1."""
    if sign < 0:
        value = -value
    got = acc.get(key)
    if got is not None:
        value = got + value
    if value.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = value


if TYPE_CHECKING:
    from .expr import Scalar
    from .linsolve import AnsatzSpec

    # The key (sorted directions I, fiber index a) of the term f dx_I (x) e_a.
    CochainKey = Tuple[Tuple[int, ...], int]


class Cochain(Frozen):
    """A q-cochain sum f dx_I (x) e_a of the complex of ``complex``, a chart
    or a flat representation (see the module docstring), keyed (I, a) with
    I sorted.  Degree 0 holds its components as a tuple in fiber order,
    degree q >= 1 a read-only map {(I, a): f} without zero values.

    Immutable, because it holds its own differential :attr:`d`.
    """

    __slots__ = ("complex", "degree", "data", "_d")

    def __init__(self, complex, degree: int, data: Mapping[CochainKey, Expr]):
        if type(degree) is not int or degree < 0:
            raise ValueError("cochain degree must be a nonnegative int, got %r" % (degree,))
        comps: Dict[CochainKey, Expr] = {}
        for (dirs, a), e in data.items():
            dirs = tuple(dirs)
            e = complex.check_component(dirs, a, e)
            if len(dirs) != degree:
                raise ValueError("key %r does not match degree %d" % (dirs, degree))
            key, sign = sort_with_sign(dirs)
            if sign != 0:
                add_term(comps, (key, a), e, sign)
        if degree == 0:
            comps = tuple(comps.get(((), a), ZERO) for a in complex.fiber_dirs)
        self._fix(complex, degree, comps)

    def _fix(self, complex, degree: int, data) -> None:
        """Set every field once; ``data``, a dict at degree >= 1, goes read-only."""
        self._put(complex=complex, degree=degree,
                  data=data if degree == 0 else MappingProxyType(data), _d=None)

    @classmethod
    def _built(cls, complex, degree: int, data) -> "Cochain":
        """A cochain whose data (a tuple at degree 0, else a dict) ``complex``
        built itself, taken without checks."""
        c = cls.__new__(cls)
        c._fix(complex, degree, data)
        return c

    def on(self, complex) -> "Cochain":
        """This cochain when it lives on ``complex``, else its data checked
        against ``complex``."""
        if self.complex is complex:
            return self
        return Cochain(complex, self.degree, dict(self.items()))

    @property
    def d(self) -> "Cochain":
        """The differential, computed once by :func:`cochain_differential`."""
        if self._d is None:
            cx = self.complex
            self._put(_d=Cochain._built(
                cx, self.degree + 1, cochain_differential(self.items(), cx)))
        return self._d

    def component(self, dirs: Tuple[int, ...], a: int) -> Expr:
        """f of f dx_I (x) e_a, I = ``dirs`` in any order; a key off the complex is refused."""
        got = self.data.get((dirs, a)) if self.degree else None
        if got is not None:
            return got
        self.complex.check_component(dirs, a, ZERO)
        if len(dirs) != self.degree:
            raise ValueError("key %r does not match degree %d" % (dirs, self.degree))
        if not self.degree:
            return self.data[self.complex.fiber_dirs.index(a)]
        key, sign = sort_with_sign(dirs)
        got = self.data.get((key, a))
        return ZERO if got is None else got if sign > 0 else -got

    def items(self) -> Iterable[Tuple[CochainKey, Expr]]:
        if self.degree:
            return self.data.items()
        return zip((((), a) for a in self.complex.fiber_dirs), self.data)

    def is_zero(self) -> bool:
        if self.degree:
            return not self.data
        return all(e.is_zero() for e in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.data == other.data
        )

    def __repr__(self):
        if self.degree == 0:
            return "(" + ", ".join(render(e) for e in self.data) + ")"
        bits = []
        for (dirs, a) in sorted(self.data):
            wedge = "^".join("dx%d" % i for i in dirs)
            bits.append("(%s) %s (x) e%d" % (render(self.data[(dirs, a)]), wedge, a))
        return " + ".join(bits) if bits else "0"


def apply_f(complex, i: int, f: Expr) -> Expr:
    """F_i(f) on ``complex``, unchecked: the Leibniz kernel over the values
    ``complex.f_symbol(i, s)`` on the symbols s of f."""
    return f.derive(partial(complex.f_symbol, i))


def cochain_differential(
    items: Iterable[Tuple[CochainKey, Expr]], complex,
) -> Dict[CochainKey, Expr]:
    """The differential of the complex C_phi of a flat representation phi,
    d(f dx_I (x) e_a) = sum_i dx_i ^ dx_I (x) (F_i(f) e_a - sum_b f D_a(a_i^b) e_b),
    on ``((I, a), f)`` items, skipping zero ones; :attr:`Cochain.d` calls it."""
    twist = complex.twist
    out: Dict[CochainKey, Expr] = {}
    for (dirs, a), f in items:
        if f.is_zero():
            continue
        for i in complex.base_dirs:
            key, sign = sort_with_sign((i,) + dirs)
            if sign == 0:
                continue
            add_term(out, (key, a), apply_f(complex, i, f), sign)
            for b, t in twist.get((i, a), ()):
                add_term(out, (key, b), t * f, -sign)
    return out


def cochain_preimage(complex, target: Cochain, ansatz: AnsatzSpec) -> Optional[Cochain]:
    """A 0-cochain of ``complex`` with components in the ansatz whose
    differential is the 1-cochain ``target``, or None when the ansatz holds
    none (bounded-no).

    The unknowns are the coefficients of the basis mu e_a, a over the
    fibers and mu over the ansatz monomials, in that order (a outer, mu
    inner); :meth:`AnsatzSpec.unknowns` refuses too many before any is
    built.  Only the blocks that hold the target's rows are assembled
    (:func:`_target_block`, from ``complex.f_symbol`` on each pool symbol,
    packed once per width in the complex's ``_pack_memo``): every other
    column lies in a block with a zero right-hand side, so it is 0 in the
    answer of :func:`solve_linear` (free columns 0, pivots the leading
    columns of the row space), and the blocks solved in global column order
    give the whole system's answer.  A
    returned answer is rebuilt as Exprs and checked exactly by its
    differential, the Expr path checking the packed one.  A target of any
    other degree is refused.
    """
    if target.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    target = target.on(complex)
    fibers = complex.fiber_dirs
    ansatz.unknowns(len(fibers))
    monos = ansatz.monomials()
    goal = [target.component((i,), a) for i in complex.base_dirs for a in fibers]
    columns, images, pack = _target_block(complex, ansatz, monos, goal)
    coeffs = solve_by_superposition(images, [pack(e) for e in goal])
    if coeffs is None:
        return None
    comps = [ZERO] * len(fibers)
    for j, q in zip(columns, coeffs):
        if q:
            pos, k = divmod(j, len(monos))
            comps[pos] = comps[pos] + q * monos[k]
    answer = Cochain._built(complex, 0, tuple(comps))
    if answer.d != target:
        raise AssertionError("cochain preimage fails verification")  # pragma: no cover
    return answer


def _target_block(
    complex, ansatz: AnsatzSpec, monos: Sequence[Expr], target: Sequence[Expr],
) -> Tuple[List[int], List[List[Mapping[int, Scalar]]], Callable[[Expr], Dict[int, Scalar]]]:
    """The columns (increasing) and images of the connected blocks of
    d(sum_j c_j mu e_a) = ``target`` that hold a row of the target, and
    ``pack``, which puts an Expr on the images' keys.  Column
    ``a_pos * len(monos) + k`` is mu e_a, mu = monos[k], ``monos`` being
    ``ansatz.monomials()``; its image is the components ((i,), b), i outer
    and b inner, of d(mu e_a) =
    sum_i dx_i (x) (F_i(mu) e_a - sum_b mu D_a(a_i^b) e_b), as sparse maps.

    Packed exponent vectors (Monagan and Pearce): ``complex._pack_memo``
    gives each symbol of the twist values, pools, F_i(s) (from
    ``complex.f_symbol``) and targets a slot, in the order the complex first
    sees it, and keeps deg F_i(s) per (i, s) and, per width W, the units,
    the pool's F_i(s) as (key(m) - key(s), c) per term c m and the negated
    twist rows.  A slot is a bit field of width W = D.bit_length(), D
    bounding the total degree of every ansatz, image and target monomial of
    the solve, and prod s^p_s packs to sum p_s 2^(W slot(s)).  The key of
    monos[k] is the sum of the units of its factors, enumerated as
    ``monomials()`` does.  No field carries, so keys are compared and never
    unpacked, and a product of monomials is a sum of keys: F_i(mu) is built
    by Leibniz as key(mu) - key(s) + key(m) with coefficient p c, for each
    factor s^p of mu and term c m of F_i(s), in the column's own fiber; the
    twist part is key(mu) + key(t).

    The blocks grow from the target's rows (component ((i,), b), key K),
    looking up key(mu) in a map to k: through F_i, K - key(m) + key(s) in
    fiber b; through the twist, K - key(t) for each term t of D_a(a_i^b),
    in fiber a.  A column found so is built once, joins if its image holds
    K, and adds its rows, until no row is new: the connected components of
    Pothen and Fan's block triangular form.
    """
    directions, fibers, f_symbol = complex.base_dirs, complex.fiber_dirs, complex.f_symbol
    twist, memo = complex.twist, complex._pack_memo
    if not memo:  # the first solve on the complex slots the twist values
        memo.update(slots={}, degrees={i: {} for i in directions}, widths={})
        memo["tdeg"] = _scan((t for pairs in twist.values() for _, t in pairs), memo["slots"])
    slots = memo["slots"]
    # At degree 0, or with no symbols, monos is [1] alone.
    pool = ansatz.symbols if ansatz.degree else ()
    mdeg = ansatz.degree if pool else 0
    fdeg = -1
    for i, degrees in memo["degrees"].items():
        for s in pool:
            if s not in degrees:
                value = f_symbol(i, s)  # a foreign s is refused before it takes a slot
                slots.setdefault(s, len(slots))
                degrees[s] = _scan((value,), slots)
            fdeg = max(fdeg, degrees[s])
    gdeg = _scan(target, slots)
    # The monomials mu key the index; a term of F_i(mu) has degree at most
    # deg(mu) - 1 + deg F_i(s), a twist term deg(mu) + deg(t); _scan gives -1
    # where there is no term at all.
    width = max(mdeg, gdeg, mdeg + memo["tdeg"], mdeg - 1 + fdeg).bit_length()
    tables = memo["widths"]
    if width not in tables:
        unit = {s: 1 << (width * n) for s, n in slots.items()}
        neg = {(i, a, b): {k: -c for k, c in _pack(unit, t).items()}
               for (i, a), pairs in twist.items() for b, t in pairs}
        tables[width] = unit, {i: {} for i in directions}, [
            [[neg.get((i, a, b), {}) for b in fibers] for i in directions] for a in fibers]
    unit, lead, plans = tables[width]
    for s, n in islice(slots.items(), len(unit), None):  # slotted since the table was made
        unit[s] = 1 << (width * n)
    for i, leads in lead.items():
        for s in pool:
            if s not in leads:
                leads[s] = [(k - unit[s], c) for k, c in _pack(unit, f_symbol(i, s)).items()]
    # The two lookups per component ((i,), b): (fiber position, key shift).
    shifts = [list(dict.fromkeys([(bpos, d) for s in pool for d, _ in lead[i][s]] + [
        (apos, kt) for apos, plan in enumerate(plans) for kt in plan[ipos][bpos]]))
        for ipos, i in enumerate(directions) for bpos in range(len(fibers))]
    n = len(monos)
    keys = _monomial_keys([unit[s] for s in pool], mdeg)
    index = {kmu: k for k, kmu in enumerate(keys)}
    built: Dict[int, List[Mapping[int, Scalar]]] = {}
    pack = partial(_pack, unit)

    def image(j: int) -> List[Mapping[int, Scalar]]:
        pos, k = divmod(j, n)
        kmu = keys[k]
        (mono,) = monos[k].terms
        comps = built[j] = []
        for i, parts in zip(directions, plans[pos]):
            for bpos, t in enumerate(parts):
                h: Dict[int, Scalar] = {}
                if bpos == pos:
                    for s, p in mono:
                        for d, c in lead[i][s]:
                            _add_coeff(h, kmu + d, p * c)
                for kt, c in t.items():
                    _add_coeff(h, kmu + kt, c)
                comps.append(h)
        return comps

    seen = [set(pack(e)) for e in target]
    todo = [(ci, key) for ci, row_keys in enumerate(seen) for key in row_keys]
    block: Dict[int, List[Mapping[int, Scalar]]] = {}
    while todo:
        ci, key = todo.pop()
        for pos, d in shifts[ci]:
            k = index.get(key - d)
            if k is None or pos * n + k in block:
                continue
            j = pos * n + k
            comps = built.get(j) or image(j)
            if key in comps[ci]:
                block[j] = comps
                for cj, comp in enumerate(comps):
                    new = comp.keys() - seen[cj]
                    seen[cj] |= new
                    todo += [(cj, kk) for kk in new]
    columns = sorted(block)
    return columns, [block[j] for j in columns], pack


def _monomial_keys(units: Sequence[int], degree: int) -> List[int]:
    """The packed key of each monomial of degree at most ``degree`` in the
    symbols whose slot units are ``units``, in the order of
    ``AnsatzSpec.monomials()``: 1, then combinations with replacement by
    degree, a key being the sum of its factors' units."""
    keys = [0]
    for d in range(1, degree + 1):
        keys += map(sum, combinations_with_replacement(units, d))
    return keys


def _pack(unit: Mapping[Symbol, int], e: Expr) -> Dict[int, Scalar]:
    """``e`` as {packed key: coefficient}, a key being sum p_s ``unit[s]``."""
    out = {}
    for mono, c in e.terms.items():
        k = 0
        for s, p in mono:
            k += p * unit[s]
        out[k] = c
    return out


def _scan(exprs: Iterable[Expr], slots: Dict[Symbol, int]) -> int:
    """The largest total degree of a monomial of ``exprs``, -1 if there is
    none; gives each of their symbols without a slot the next one."""
    deg = -1
    for e in exprs:
        for mono in e.terms:
            d = 0
            for s, p in mono:
                if s not in slots:
                    slots[s] = len(slots)
                d += p
            if d > deg:
                deg = d
    return deg


def _add_coeff(acc: Dict[int, Scalar], key: int, c: Scalar) -> None:
    """acc[key] += c in a sparse map of nonzero coefficients."""
    got = acc.get(key)
    if got is None:
        acc[key] = c
    else:
        got += c
        if got:
            acc[key] = got
        else:
            del acc[key]


class Chart(Frozen):
    """A chart judges its own symbols and directions: ``check_symbol(s)``
    refuses a symbol that is not its coordinate, :meth:`check_direction` i > ``ndirs``."""

    __slots__ = ()

    def check_direction(self, i: int) -> None:
        if not 1 <= i <= self.ndirs:
            raise DirectionError("direction %d out of range 1..%d" % (i, self.ndirs))

    def check_expr(self, e: Expr) -> Expr:
        """``e`` as an Expr, refused on its first foreign symbol in key order."""
        e = Expr.wrap(e)
        for s in sorted(e.symbols()):
            self.check_symbol(s)
        return e


class DerivScheme(Chart):
    """Common behavior of total-derivative rule systems; immutable, because
    each scheme owns the memo of :func:`d_sigma`.  A scheme states ``ndirs``,
    ``m`` and, with m > 0, ``_check_jet(s)``, which refuses a jet off its
    chart, and ``_derive_jet(s, i)``, its rule on the jets it accepts, unchecked."""

    ndirs: int
    m: int
    # The memo of d_sigma, (sorted sigma, f) -> D_sigma f; empty at construction.
    _dsigma: Dict[Tuple[Tuple[int, ...], Expr], Expr]

    def indep(self, i: int) -> Symbol:
        """The coordinate whose differential pairs with direction i."""
        self.check_direction(i)
        return x(i)

    def check_symbol(self, s: Symbol) -> None:
        """Refuse ``s`` unless it is a jet of the chart, x_j (j <= ndirs) or a parameter."""
        k = s.kind
        if k == KIND_JET and self.m:  # a scheme without dependents has no jets
            self._check_jet(s)
        elif k == KIND_INDEP:
            if s.index > self.ndirs:
                raise ValueError("independent %s outside chart" % render(s))
        elif k != KIND_PARAM:
            raise ValueError("symbol %s is foreign to the chart" % render(s))

    def derive_symbol(self, s: Symbol, i: int) -> Expr:
        """D_i applied to a single chart symbol, judged by :meth:`check_symbol`:
        the scheme's rule on a jet, 1 on the coordinate of direction i, else 0."""
        self.check_direction(i)
        self.check_symbol(s)
        if s.kind == KIND_JET:
            return self._derive_jet(s, i)
        return ONE if self.indep(i) is s else ZERO


class Base(DerivScheme):
    """The base R^n of a bundle: n independents, no dependents, no jets."""

    def __init__(self, n: int):
        self._put(m=0, ndirs=positive(n, "n"), _dsigma={})


class FreeJet(DerivScheme):
    """Free jet space of a trivial bundle with n independents, m dependents."""

    def __init__(self, n: int, m: int):
        n, m = positive(n, "n"), positive(m, "m")
        self._put(n=n, m=m, ndirs=n, _dsigma={})

    def _check_jet(self, s: Symbol) -> None:
        if s.index > self.m or any(d > self.n for d in s.sigma):
            raise ValueError("jet symbol %s outside chart" % render(s))

    def _derive_jet(self, s: Symbol, i: int) -> Expr:
        return Expr.wrap(jet(s.index, s.sigma + (i,)))


class Evolution(DerivScheme):
    """Internal chart (x, t, u_k) of the evolution system u^a_t = F^a.

    Direction 1 is x, direction 2 is t; jets carry purely spatial
    multi-indices (repetitions of 1).  D_t on u^a_k is D_x^k(F^a).
    """

    def __init__(self, m: int, rhs: Sequence[Expr]):
        if len(rhs) != positive(m, "m"):
            raise ValueError("expected %d right-hand sides, got %d" % (m, len(rhs)))
        self._put(m=m, ndirs=2, _dsigma={})
        self._put(rhs=tuple(map(self.check_expr, rhs)))

    def _check_jet(self, s: Symbol) -> None:
        if s.index > self.m or (s.sigma and set(s.sigma) != {1}):
            raise ValueError("jet %s is not spatial or outside chart" % render(s))

    def _derive_jet(self, s: Symbol, i: int) -> Expr:
        if i == 1:
            return Expr.wrap(jet(s.index, s.sigma + (1,)))
        return d_sigma(self, s.sigma, self.rhs[s.index - 1])


class Extended(DerivScheme):
    """A scheme plus ``nfibers`` fiber directions whose rules are all
    trivial, named by the extension itself: bundle fibers v1..vk over a
    :class:`Base`, covering fibers y1..yk over any other scheme."""

    def __init__(self, base: DerivScheme, nfibers: int):
        fiber = v if isinstance(base, Base) else y
        fibers = tuple(fiber(b) for b in range(1, positive(nfibers, "nfibers") + 1))
        self._put(base=base, nfibers=nfibers, fibers=fibers, ndirs=base.ndirs + nfibers,
                  m=base.m, _fiber_set=frozenset(fibers), _dsigma={})

    def indep(self, i: int) -> Symbol:
        self.check_direction(i)
        if i <= self.base.ndirs:
            return self.base.indep(i)
        return self.fibers[i - self.base.ndirs - 1]

    def check_symbol(self, s: Symbol) -> None:
        if s not in self._fiber_set:
            self.base.check_symbol(s)

    def _derive_jet(self, s: Symbol, i: int) -> Expr:
        return self.base._derive_jet(s, i) if i <= self.base.ndirs else ZERO


def total_derivative(scheme: DerivScheme, i: int, f: Expr) -> Expr:
    """D_i f = sum_s D_i(s) * df/ds over the finitely many symbols of f."""
    scheme.check_direction(i)
    return Expr.wrap(f).derive(lambda s: scheme.derive_symbol(s, i))


def d_sigma(scheme: DerivScheme, sigma: Iterable[int], f: Expr) -> Expr:
    """Composition D_{i_1} ... D_{i_k}; order is irrelevant by commutativity.

    Memoized per scheme on (sigma, f); Evolution's D_t rule on u^a_k is
    D_x^k(F^a) served from the same memo.
    """
    sig = tuple(sorted(sigma))
    f = Expr.wrap(f)
    if not sig:
        return f
    memo = scheme._dsigma
    key = (sig, f)
    got = memo.get(key)
    if got is None:
        got = total_derivative(scheme, sig[-1], d_sigma(scheme, sig[:-1], f))
        memo[key] = got
    return got


def evolutionary_apply(scheme: DerivScheme, phi: Sequence[Expr], f: Expr) -> Expr:
    """Apply the evolutionary field with generating section phi to f.

    Ev_phi(f) = sum over jet symbols u^a_sigma of f of D_sigma(phi^a) df/du.
    Non-jet symbols (independents, fibers, parameters) are constants for it.
    """
    if len(phi) != scheme.m:
        raise ValueError("expected %d generating functions, got %d" % (scheme.m, len(phi)))
    phi = [Expr.wrap(p) for p in phi]

    def image(s: Symbol) -> Expr:
        if s.kind != KIND_JET:
            return ZERO
        return d_sigma(scheme, s.sigma, phi[s.index - 1])

    return Expr.wrap(f).derive(image)


def is_symmetry_evolution(scheme: Evolution, phi: Sequence[Expr]) -> Report:
    """Check the linearized equation D_t(phi^a) = Ev_phi(F^a) on internal
    coordinates."""
    if not isinstance(scheme, Evolution):
        raise TypeError("symmetry test requires an evolution scheme")
    if len(phi) != scheme.m:
        raise ValueError("expected %d generating functions, got %d" % (scheme.m, len(phi)))
    phi = [Expr.wrap(p) for p in phi]
    return check("is-symmetry", [
        render(total_derivative(scheme, 2, p) - evolutionary_apply(scheme, phi, rhs))
        for p, rhs in zip(phi, scheme.rhs)])
