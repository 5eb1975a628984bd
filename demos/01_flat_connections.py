"""Flat connections on a trivial bundle, two ways.

A connection on the bundle R^n x R^m -> R^n is nm functions v_i^a(x, v); it
is flat exactly when the frame fields d/dx_i + v_i^a d/dv^a commute.  It is
the simplest flat representation, ``flatrep.connection``.  This script
checks flatness once through the explicit residuals of that system and once
through the Froelicher-Nijenhuis self-bracket of the connection form, and
shows the covariant differential the flat structure induces.

Run:  python3 demos/01_flat_connections.py
"""

from flatconn.expr import Expr, render, v, x
from flatconn import flatrep
from flatconn.vforms import Derivation, VForm, connection_forms, d_nabla_vertical

# --- three connections on R^2 x R^1 -----------------------------------------

trivial = flatrep.connection(2, 1, {})
gradient = flatrep.connection(2, 1, {(1, 1): Expr.wrap(x(2)), (2, 1): Expr.wrap(x(1))})
bent = flatrep.connection(2, 1, {(1, 1): Expr.wrap(v(1)), (2, 1): x(1) * v(1)})

for name, spec in (("trivial", trivial), ("v1=x2, v2=x1", gradient),
                   ("v1=v, v2=x1*v", bent)):
    residuals = spec.flatness_residuals
    print("%-14s residuals: %s" % (name, [render(r) for r in residuals]))

# --- the same verdicts through the Nijenhuis bracket ------------------------

print()
for name, spec in (("v1=x2, v2=x1", gradient), ("v1=v, v2=x1*v", bent)):
    ubar, _ = connection_forms(spec)
    bracket = ubar.nijenhuis(ubar)
    print("[[Ubar, Ubar]] for %s: %s" % (name, "0" if bracket.is_zero() else bracket))

# The nonzero bracket is exactly twice the flatness residual: for the bent
# connection above it reads 2*v dx1^dx2 (x) D_3.  The chart (x1, x2, v1) has
# the directions D_1 = d/dx1, D_2 = d/dx2 and D_3 = d/dv1.

# --- the covariant differential of a flat connection ------------------------

print()
ubar, _ = connection_forms(gradient)
chart = ubar.space
# theta = v (x) d/dv1, and d/dv1 is the direction D_3 of the chart.
theta = VForm(chart, ubar.coframe, 0, {(): Derivation(chart, {3: Expr.wrap(v(1))})})
image = d_nabla_vertical(gradient, theta)
print("d_nabla(v (x) d/dv) =", image)
print("d_nabla twice        =", d_nabla_vertical(gradient, image))
