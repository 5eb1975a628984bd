"""Exact sparse multivariate polynomials over Q in a typed symbol universe.

Every quantity in this package is an :class:`Expr`: a canonical dictionary
mapping monomials to nonzero rational coefficients.  A monomial is a sorted
tuple of (Symbol, power) pairs, so two mathematically equal polynomials are
represented by identical dictionaries and zero-testing is emptiness.

Symbols are typed and totally ordered:

================  =========================  ==========
kind              meaning                    rendering
================  =========================  ==========
``param``         formal parameter           ``lam``
``indep``         independent variable x_i   ``x1``
``basefiber``     bundle fiber coord v^a     ``v1``
``jet``           jet variable of order |s|  ``u[3]``
``fc``            v_I^{a,A} on the equation  ``v[1;2,2;1]``
                  of flat connections
``fiber``         covering fiber coord       ``y1``
================  =========================  ==========

Coefficients are exact rationals, stored as an ``int`` when integral, else as
a :class:`fractions.Fraction` (equal values compare and hash alike in the two
types, so the canonical form is unaffected); division is only defined by
nonzero rational constants.  All values are immutable and
hashable, so they are safe to share and to memoize on.

Symbols are interned, so identity is equality, and they hash by identity
with CPython's own C hash.  A set of symbols therefore iterates in
heap-address order, which may differ from run to run; :meth:`Expr.symbols`
returns its symbols in first-appearance order instead, validators walk them
sorted by :attr:`Symbol.key`, and no output of the package depends on a
hash.

The product kernel compares symbols by a private bytes key ``_ord``, built
once when a symbol is interned, whose byte order is exactly the order of
the ``key`` tuples; a bytes comparison is one ``memcmp`` where the tuples
compare element by element.  A product with a one-factor monomial, the
common case in a derivation, inserts that factor with one scan and two
slices instead of a merge.

The package has one Leibniz loop, :func:`derive_into`, and one product
loop, :func:`mul_into`.  Both accumulate: they add ``sign`` times their
result into a term map that their caller owns, so a sum of derivatives and
products is built in one map and becomes an Expr once.  :meth:`Expr.derive`
and :meth:`Expr.__mul__` are each one call of them on a fresh map.  The
ring operations and :meth:`Expr.derive` hand the dict they built to the
new value without a copy; the public constructor copies its mapping.
:func:`derive_into` reads the terms of each symbol's image in place and
copies none of them.

:class:`Frozen`, the base of every record that owns a memo or a value set
once, lives here, in the lowest layer, and so does :class:`SymbolTable`, a
derivation's memo of values on symbols that fills itself and whose
``__getitem__`` is handed to :func:`derive_into`.  :class:`Expr` is
immutable by contract only: the ring operations build one with plain slot
stores.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Tuple, Union

__all__ = [
    "Frozen", "SymbolTable", "Symbol", "Expr", "x", "v", "y", "jet", "fc", "param",
    "const", "ZERO", "ONE", "render", "positive", "derive_into", "mul_into",
]

# Kind tags; the integer fixes the symbol order (and hence monomial order).
KIND_PARAM = 0
KIND_INDEP = 1
KIND_BASEFIBER = 2
KIND_JET = 3
KIND_FC = 4
KIND_FIBER = 5

def positive(value, what: str) -> int:
    """``value`` if it is an int >= 1 (a bool is not), else a ValueError that
    names ``what``: the one rule for every size in the package."""
    if type(value) is not int or value < 1:
        raise ValueError("%s must be a positive int, got %r" % (what, value))
    return value


def _check_indices(ix: Iterable[int], what: str) -> Tuple[int, ...]:
    t = tuple(ix)
    for i in t:
        if type(i) is not int or i < 1:
            raise ValueError("%s indices must be positive integers, got %r" % (what, i))
    return tuple(sorted(t))


def _order_key(key: tuple) -> bytes:
    """Bytes whose order is the tuple order of ``key``: the kind byte, the
    name in UTF-8 ended by NUL (names are identifiers, so hold no NUL), then
    each index tuple as its positive integers, each written as its byte
    length followed by its big-endian bytes, ended by a 0 byte.  A longer
    integer sorts after a shorter one, and an ended tuple before any of its
    extensions, as in the tuple order."""
    kind, name, *indices = key
    out = bytearray((kind,))
    out += name.encode()
    out.append(0)
    for ix in indices:
        for i in ix:
            n = (i.bit_length() + 7) // 8
            out.append(n)
            out += i.to_bytes(n, "big")
        out.append(0)
    return bytes(out)


class Frozen:
    """Base of the records that own a memo or a value set once: the
    constructor sets each field once through :meth:`_put`, and later
    assignment is refused, so no memo goes stale."""

    __slots__ = ()

    def _put(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __repr__(self):
        # The text a dataclass gives: the constructor's parameters as fields.
        code = type(self).__init__.__code__
        fields = code.co_varnames[1:code.co_argcount]
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % (k, getattr(self, k)) for k in fields))


class SymbolTable(dict, Frozen):
    """The values of one derivation on symbols, filled on first read: a
    missing symbol is handed to the class's ``_rule``, and the value is
    stored and returned.  A rule that raises stores nothing.

    ``table.__getitem__`` is the image that :func:`derive_into` reads, so a
    symbol met before costs one dict lookup and no Python call.  The fields
    of a table are the data its rule reads, set once by :meth:`_put`; a
    table owned by a chart holds no reference back to it, so the two are
    freed by reference counting.
    """

    __slots__ = ()

    def __missing__(self, s: "Symbol") -> "Expr":
        value = self[s] = self._rule(s)
        return value


class Symbol(Frozen):
    """A typed coordinate/parameter name.

    The full identity lives in ``key``, a 5-tuple
    (kind, name, (primary index,), multi-index 1, multi-index 2) whose
    lexicographic order is the deterministic total order on symbols.
    Instances are interned: equal keys give the identical object.  ``_ord``
    is the same order as bytes, for the product kernel.
    """

    __slots__ = ("key", "_ord", "_text")
    _interned: Dict[tuple, "Symbol"] = {}

    def __new__(cls, key: tuple) -> "Symbol":
        got = cls._interned.get(key)
        if got is not None:
            return got
        obj = object.__new__(cls)
        obj._put(key=key, _ord=_order_key(key), _text=None)
        cls._interned[key] = obj
        return obj

    # ---- structure accessors -------------------------------------------------
    @property
    def kind(self) -> int:
        return self.key[0]

    @property
    def index(self) -> int:
        """Primary index: i for x_i, alpha for v/y/jet/fc symbols."""
        return self.key[2][0]

    @property
    def sigma(self) -> Tuple[int, ...]:
        """Jet multi-index (sorted tuple of direction indices)."""
        return self.key[3]

    @property
    def ii(self) -> Tuple[int, ...]:
        """Fc base multi-index I."""
        return self.key[3]

    @property
    def aa(self) -> Tuple[int, ...]:
        """Fc fiber multi-index A."""
        return self.key[4]

    @property
    def name(self) -> str:
        return self.key[1]

    # ---- ordering / hashing --------------------------------------------------
    # Interned, so identity is equality: object's C hash and equality serve.
    __hash__ = object.__hash__

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    # ---- rendering -----------------------------------------------------------
    def render(self) -> str:
        if self._text is None:
            self._put(_text=self._render())
        return self._text

    def _render(self) -> str:
        k = self.kind
        if k == KIND_PARAM:
            return self.name
        if k == KIND_INDEP:
            return "x%d" % self.index
        if k == KIND_BASEFIBER:
            return "v%d" % self.index
        if k == KIND_FIBER:
            return "y%d" % self.index
        if k == KIND_JET:
            base = "u" if self.index == 1 else "u%d" % self.index
            sig = self.sigma
            if not sig or set(sig) == {1}:
                return "%s[%d]" % (base, len(sig))
            # Direction-list form; a trailing ';' keeps single non-1 indices
            # distinct from the order-count form above.
            body = ";".join(str(i) for i in sig)
            if len(sig) == 1:
                body += ";"
            return "%s[%s]" % (base, body)
        if k == KIND_FC:
            return "v[%d;%s;%s]" % (
                self.index,
                ",".join(str(i) for i in self.ii),
                ",".join(str(a) for a in self.aa),
            )
        raise AssertionError(k)

    def __repr__(self):
        return self.render()

    # ---- arithmetic lifts to Expr ---------------------------------------------
    def _expr(self) -> "Expr":
        return Expr({((self, 1),): 1})

    def __add__(self, other):
        return self._expr() + other

    def __radd__(self, other):
        return self._expr() + other

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-self._expr()) + other

    def __mul__(self, other):
        return self._expr() * other

    def __rmul__(self, other):
        return self._expr() * other

    def __pow__(self, n):
        return self._expr() ** n

    def __neg__(self):
        return -self._expr()

    def __truediv__(self, other):
        return self._expr() / other


def x(i: int) -> Symbol:
    """Independent variable x_i (i >= 1)."""
    return Symbol((KIND_INDEP, "", _check_indices([i], "independent"), (), ()))


def v(alpha: int) -> Symbol:
    """Base fiber coordinate v^alpha of a finite bundle chart."""
    return Symbol((KIND_BASEFIBER, "", _check_indices([alpha], "fiber"), (), ()))


def y(alpha: int) -> Symbol:
    """Fiber coordinate y^alpha of a covering / trivial extension."""
    return Symbol((KIND_FIBER, "", _check_indices([alpha], "fiber"), (), ()))


def jet(alpha: int, sigma: Iterable[int] = ()) -> Symbol:
    """Jet variable: alpha-th dependent differentiated along the multi-index sigma."""
    _check_indices([alpha], "dependent")
    return Symbol((KIND_JET, "", (alpha,), _check_indices(sigma, "jet"), ()))


def fc(alpha: int, ii: Iterable[int] = (), aa: Iterable[int] = ()) -> Symbol:
    """Special coordinate v_I^{alpha,A} on the equation of flat connections.

    Only |I| >= 1 or I = A = () (the coordinate v^alpha itself, which is
    represented by the basefiber symbol) are meaningful; the degenerate
    combination |I| = 0, |A| > 0 is rejected.
    """
    _check_indices([alpha], "fc")
    ii_t = _check_indices(ii, "fc base")
    aa_t = _check_indices(aa, "fc fiber")
    if not ii_t:
        if aa_t:
            raise ValueError("fc symbol needs |I| >= 1 when A is nonempty")
        return v(alpha)
    return Symbol((KIND_FC, "", (alpha,), ii_t, aa_t))


def param(name: str) -> Symbol:
    """Formal parameter (constant for all derivations)."""
    if not name or not name.isidentifier():
        raise ValueError("parameter name must be an identifier, got %r" % (name,))
    return Symbol((KIND_PARAM, name, (), (), ()))


if TYPE_CHECKING:
    # A monomial: sorted tuple of (symbol, positive power) pairs.
    Monomial = Tuple[Tuple[Symbol, int], ...]
    Scalar = Union[int, Fraction]
    ExprLike = Union["Expr", Symbol, int, Fraction]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if len(b) != 1:
        if len(a) != 1:
            return _mono_merge(a, b)
        a, b = b, a
    # One factor (most products in a derivation): one scan finds its place.
    ((s, p),) = b
    o = s._ord
    k = 0
    for t, q in a:
        if t is s:
            return a[:k] + ((s, p + q),) + a[k + 1:]
        if o < t._ord:
            return a[:k] + b + a[k:]
        k += 1
    return a + b


def _mono_merge(a: Monomial, b: Monomial) -> Monomial:
    out: List[Tuple[Symbol, int]] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        sa, pa = a[i]
        sb, pb = b[j]
        if sa is sb:
            out.append((sa, pa + pb))
            i += 1
            j += 1
        elif sa._ord < sb._ord:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_sort_key(m: Monomial):
    # Lexicographic in the symbol order with higher powers of earlier symbols
    # first; the empty (constant) monomial sorts first.
    return tuple((s.key, -p) for s, p in m)


class Expr:
    """Canonical sparse polynomial over Q.

    ``terms`` maps monomials to nonzero rational coefficients: int when
    integral, else Fraction.  Instances are immutable by contract; all
    operations return new values.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar]):
        self.terms = dict(terms)
        self._hash = None

    # ---- coercion --------------------------------------------------------------
    @staticmethod
    def wrap(value: ExprLike) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, Symbol):
            return value._expr()
        if isinstance(value, (int, Fraction)):
            q = Fraction(value)
            if not q:
                return ZERO
            return Expr({(): q.numerator if q.denominator == 1 else q})
        raise TypeError("cannot build an Expr from %r" % (value,))

    # ---- predicates / inspection -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Scalar:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        raise ValueError("not a constant: %s" % (self,))

    def symbols(self) -> Dict[Symbol, None]:
        """The symbols of the terms, in first-appearance order (a dict, so
        that iterating it never follows a hash)."""
        return dict.fromkeys(s for mono in self.terms for s, _ in mono)

    def total_degree(self) -> int:
        """Maximum monomial degree; 0 for constants and for the zero polynomial."""
        deg = 0
        for mono in self.terms:
            deg = max(deg, sum(p for _, p in mono))
        return deg

    # ---- ring operations ---------------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        other = Expr.wrap(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = c
            else:
                acc = acc + c
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return _owned(out)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _owned({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: ExprLike) -> "Expr":
        return self + (-Expr.wrap(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return (-self) + other

    def __mul__(self, other: ExprLike) -> "Expr":
        other = Expr.wrap(other)
        if not self.terms or not other.terms:
            return ZERO
        if self is ONE or other is ONE:
            return other if self is ONE else self
        # Multiply through the smaller factor.
        if len(self.terms) > len(other.terms):
            return _owned(mul_into({}, other, self))
        return _owned(mul_into({}, self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("exponent must be a plain integer, got %r" % (n,))
        if n < 0:
            raise ValueError("negative exponent %d not allowed" % n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other: ExprLike) -> "Expr":
        other = Expr.wrap(other)
        q = other.constant_value()  # raises for non-constant divisors
        if q == 0:
            raise ZeroDivisionError("division of an Expr by zero")
        return self * Expr.wrap(Fraction(1, q))

    # ---- equality / hashing --------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Symbol)):
            other = Expr.wrap(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # ---- calculus --------------------------------------------------------------------
    def partial(self, s: Symbol) -> "Expr":
        """Formal partial derivative with respect to the symbol ``s``."""
        return self.derive(lambda t: ONE if t is s else ZERO)

    def derive(self, image: Callable[[Symbol], "Expr"]) -> "Expr":
        """The derivation whose value on each symbol ``s`` is ``image(s)``:
        :func:`derive_into` on a fresh term map, which the new value owns."""
        return _owned(derive_into({}, self, image))

    def subs(self, bindings: Mapping[Symbol, ExprLike]) -> "Expr":
        """Simultaneous substitution; symbols absent from ``bindings`` are kept."""
        if not bindings:
            return self
        images = {s: Expr.wrap(e) for s, e in bindings.items()}
        out = ZERO
        for mono, c in self.terms.items():
            factor = Expr({(): c})
            plain: List[Tuple[Symbol, int]] = []
            for sym, p in mono:
                img = images.get(sym)
                if img is None:
                    plain.append((sym, p))
                else:
                    factor = factor * img ** p
            if plain:
                factor = factor * Expr({tuple(plain): 1})
            out = out + factor
        return out

    def collect(self, p: Symbol) -> List[Tuple[int, "Expr"]]:
        """Coefficients of the powers of ``p``: f = sum_k p^k coeff_k.

        Returns the nonzero (degree, coefficient) pairs sorted by degree; each
        coefficient is free of ``p``.
        """
        buckets: Dict[int, Dict[Monomial, Scalar]] = {}
        for mono, c in self.terms.items():
            deg = 0
            rest: List[Tuple[Symbol, int]] = []
            for sym, pw in mono:
                if sym is p:
                    deg = pw
                else:
                    rest.append((sym, pw))
            buckets.setdefault(deg, {})[tuple(rest)] = c
        return [(d, Expr(buckets[d])) for d in sorted(buckets)]

    def coefficient(self, p: Symbol, degree: int) -> "Expr":
        for d, c in self.collect(p):
            if d == degree:
                return c
        return ZERO

    def evaluate(self, point: Mapping[Symbol, Scalar]) -> Fraction:
        """Evaluate at a rational point; every symbol must be bound."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for sym, p in mono:
                val *= Fraction(point[sym]) ** p
            total += val
        return total

    # ---- rendering ------------------------------------------------------------------
    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: List[str] = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            c = self.terms[mono]
            body = "*".join(
                s.render() if p == 1 else "%s^%d" % (s.render(), p) for s, p in mono
            )
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = "%s*%s" % (mag, body)
            if not parts:
                parts.append(text if c > 0 else "-" + text)
            else:
                parts.append((" + " if c > 0 else " - ") + text)
        return "".join(parts)

    def __repr__(self):
        return self.render()


def derive_into(out: Dict[Monomial, Scalar], f: Expr,
                image: Callable[[Symbol], Expr], sign: Scalar = 1) -> Dict[Monomial, Scalar]:
    """Add sign * D(f) to the term map ``out`` and return it, D being the
    derivation whose value on each symbol ``s`` is ``image(s)``.

    Applies the Leibniz rule, sum_s image(s) * df/ds, in one pass over the
    monomials of f.  ``image`` is called once per distinct symbol of f and
    returns ZERO for symbols the derivation kills.  Each image's terms are
    read in place, never copied, so an image may be a memoized value shared
    with other callers: the kernel only reads it.  A coefficient that sums
    to zero leaves ``out``.  This is the one Leibniz kernel behind every
    total, vertical, evolutionary and symmetry derivation in the package;
    a sum of derivatives accumulates in one map by calling it once per term.
    """
    images: Dict[Symbol, Mapping[Monomial, Scalar]] = {}
    for mono, c in f.terms.items():
        if sign != 1:
            c = sign * c
        for k, (sym, p) in enumerate(mono):
            img = images.get(sym)
            if img is None:
                img = images[sym] = image(sym).terms
            if not img:
                continue
            if p == 1:
                rest = mono[:k] + mono[k + 1:]
                cp = c
            else:
                rest = mono[:k] + ((sym, p - 1),) + mono[k + 1:]
                cp = c * p
            for mi, ci in img.items():
                m = _mono_mul(rest, mi) if rest else mi
                cc = cp * ci
                acc = out.get(m)
                if acc is None:
                    out[m] = cc
                else:
                    acc = acc + cc
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
    return out


def mul_into(out: Dict[Monomial, Scalar], a: Expr, b: Expr,
             sign: Scalar = 1) -> Dict[Monomial, Scalar]:
    """Add sign * a * b to the term map ``out`` and return it, the terms of
    ``a`` in the outer loop; the one product loop of the package."""
    bt = b.terms
    for ma, ca in a.terms.items():
        if sign != 1:
            ca = sign * ca
        for mb, cb in bt.items():
            m = _mono_mul(ma, mb)
            c = ca * cb
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return out


def _owned(terms: Dict[Monomial, Scalar]) -> Expr:
    """An Expr on ``terms`` itself, not a copy: for a canonical dict that its
    caller has just built and hands over."""
    e = _new(Expr)
    e.terms = terms
    e._hash = None
    return e


_new = object.__new__
ZERO = Expr({})
ONE = Expr({(): 1})


def const(q: Scalar) -> Expr:
    """Constant polynomial."""
    return Expr.wrap(Fraction(q))


def render(e: ExprLike) -> str:
    """Bit-exact textual form of an expression (stable across runs)."""
    return Expr.wrap(e).render()
