"""Prebuilt KdV objects: the evolution scheme u_t = u_3 + 6 u_0 u_1, the
one-fiber covering attached to the Miura transformation with its parameter,
and the four classical symmetry characteristics.

The model never changes, so a process builds and checks it once: every
:func:`build_kdv` returns the same frozen :class:`KdvBundle`, whose Miura
spec keeps its memos across calls.  A specialisation :func:`miura_at` is
the spec's ``subs``, built afresh on every call over the same extended
scheme; a spec caches its own twist and writes nothing into the scheme's
D_sigma memo, so memory grows with the models, not with the parameter
values asked for.  The covering is built by ``flatrep.covering_to_flatrep``
from its flat keys (i, b).
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .expr import Expr, Frozen, Symbol, jet, param, x, y
from .flatrep import FlatRepSpec, check_flat_rep, covering_to_flatrep
from .jets import Evolution, is_symmetry_evolution, total_derivative

__all__ = ["KdvBundle", "build_kdv", "miura_at"]


def _u(k: int) -> Symbol:
    return jet(1, (1,) * k)


class KdvBundle(Frozen):
    """The KdV model, frozen, with read-only symmetries: the one bundle of
    the process is shared by every caller of :func:`build_kdv`.  ``miura``
    has the fiber component y1 and the parameter lam symbolic."""

    __slots__ = ("scheme", "miura", "symmetries", "lam")

    def __init__(self, scheme: Evolution, miura: FlatRepSpec,
                 symmetries: Mapping[str, Expr], lam: Symbol):
        self._put(scheme=scheme, miura=miura,
                  symmetries=MappingProxyType(dict(symmetries)), lam=lam)


# The bundle of this process, once build_kdv has built and checked it.
_BUNDLE: Optional[KdvBundle] = None


def build_kdv() -> KdvBundle:
    """The KdV bundle of this process, constructed and self-checked on the
    first call; a failed check raises and keeps nothing, so the next call
    checks again.

    The Miura covering is y_x = lam + u_0 + y^2, y_t = u_2 + 2 u_0^2
    - 2 lam u_0 - 4 lam^2 + 2 u_1 y + y^2 (2 u_0 - 4 lam); its compatibility
    is the KdV equation itself, verified here with the parameter symbolic.
    """
    global _BUNDLE
    if _BUNDLE is not None:
        return _BUNDLE
    u0, u1, u2, u3 = _u(0), _u(1), _u(2), _u(3)
    rhs = u3 + 6 * u0 * u1
    scheme = Evolution(1, [rhs])
    lam = param("lam")
    fiber = y(1)
    a_x = lam + u0 + fiber ** 2
    a_t = (
        u2 + 2 * u0 ** 2 - 2 * lam * u0 - 4 * lam ** 2
        + 2 * u1 * fiber + fiber ** 2 * (2 * u0 - 4 * lam)
    )
    miura = covering_to_flatrep(scheme, {(1, 1): a_x, (2, 1): a_t}, 1)
    symmetries = {
        "x-translation": Expr.wrap(u1),
        "t-translation": rhs,
        "galilean": 1 + 6 * x(2) * u1,
        # The paper names the scaling symmetry without a formula; this is the
        # standard generating function 2u + x u_x + 3t u_t.
        "scaling": 2 * u0 + x(1) * u1 + 3 * x(2) * rhs,
    }
    if total_derivative(scheme, 2, Expr.wrap(u0)) != rhs:
        raise AssertionError("evolution rule broken")
    if not check_flat_rep(miura).ok:
        raise AssertionError("Miura covering fails the compatibility condition")
    for name, phi in symmetries.items():
        if not is_symmetry_evolution(scheme, [phi]).ok:
            raise AssertionError("%s is not a KdV symmetry" % name)
    _BUNDLE = KdvBundle(scheme=scheme, miura=miura, symmetries=symmetries, lam=lam)
    return _BUNDLE


def miura_at(bundle: KdvBundle, value: Fraction) -> FlatRepSpec:
    """The Miura representation at a fixed rational parameter value, a new
    spec on every call."""
    spec = bundle.miura.subs({bundle.lam: Expr.wrap(Fraction(value))})
    if not check_flat_rep(spec).ok:  # pragma: no cover - substitution preserves it
        raise AssertionError("specialized Miura covering is not flat")
    return spec
