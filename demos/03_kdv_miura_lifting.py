"""KdV, the Miura covering, and which symmetries survive the lift.

The one-fiber covering y_x = lam + u + y^2, y_t = ... attached to the Miura
transformation is compatible exactly on solutions of KdV.  Differentiating
the family in lam produces a 1-cocycle of the representation complex; its
non-exactness certifies that the parameter is essential.  A symmetry of KdV
lifts to the covering exactly when its own cocycle is exact, and the solver
reproduces the classical verdict table.

Run:  python3 demos/03_kdv_miura_lifting.py
"""

from fractions import Fraction

from flatconn.expr import jet, param, render, x, y
from flatconn.linsolve import AnsatzSpec
from flatconn import flatrep
from flatconn.kdv import build_kdv, miura_at

kdv = build_kdv()
u = lambda k: jet(1, (1,) * k)

print("covering coefficients:")
print("  a_x =", render(kdv.miura.a(1, 3)))
print("  a_t =", render(kdv.miura.a(2, 3)))
print("flat for symbolic lam:", flatrep.check_flat_rep(kdv.miura).verdict)

# --- the lambda-family cocycle ------------------------------------------------

c = flatrep.infinitesimal_deformation(kdv.miura, kdv.lam)
print("\ninfinitesimal part of the lam-family:")
print("  dx-component:", render(c.component((1,), 3)))
print("  dt-component:", render(c.component((2,), 3)))
print("closed:", "pass" if c.d.is_zero() else "fail")

ansatz = AnsatzSpec(symbols=(x(1), x(2), y(1), u(0), u(1), u(2)), degree=4)
witness = flatrep.exactness_test(c.complex, c, ansatz)
print("exact at degree <= 4:", "witness %r" % witness if witness else "bounded-no "
      "(the parameter is essential)")

# --- the lifting verdict table -------------------------------------------------

def bounds(with_lam):
    syms = [x(1), x(2), y(1)] + [u(k) for k in range(4)]
    if with_lam:
        syms.append(param("lam"))
    return AnsatzSpec(symbols=tuple(syms), degree=4)

print("\nlifting verdicts (degree <= 4, jet order <= 3):")
for name, spec, with_lam in (
    ("x-translation, any lam", kdv.miura, True),
    ("t-translation, any lam", kdv.miura, True),
    ("galilean, lam = 1", miura_at(kdv, Fraction(1)), False),
    ("scaling, lam = 0", miura_at(kdv, Fraction(0)), False),
    ("scaling, lam = 1", miura_at(kdv, Fraction(1)), False),
):
    phi = kdv.symmetries[name.split(",")[0]]
    lift = flatrep.lift_symmetry(spec, [phi], bounds(with_lam))
    if lift is None:
        print("  %-24s bounded-no" % name)
    else:
        print("  %-24s lifts with a = %s" % (name, render(lift.component((), 3))))
