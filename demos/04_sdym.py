"""Self-dual Yang-Mills: Lax condition, rewriting, gauge cocycles.

The SDYM system is the condition that [d1 + A1 + lam(d3 + A3),
d2 + A2 + lam(d4 + A4)] vanish for every lam; its three lambda coefficients
orient a rewriting system whose normal forms serve as internal coordinates.
The lam-family of flat representations over (x1, x2) has a non-exact
infinitesimal cocycle (the parameter is essential), while the cocycle of any
generalized gauge symmetry G_H is exact with explicit witness -sigma(H).

Run:  python3 demos/04_sdym.py   (a few seconds, most of them in the k=2 solve)
"""

from flatconn.expr import jet, param, render, x, y
from flatconn.linsolve import AnsatzSpec
from flatconn import flatrep, sdym

# --- the three equations for k = 1 -------------------------------------------

m0, m1, m2 = sdym.lambda_expand(1)
print("k = 1 (abelian) lambda coefficients:")
for deg, m in ((0, m0), (1, m1), (2, m2)):
    print("  lam^%d: %s" % (deg, render(m[0][0])))

# --- rewriting: the equations are the rules ------------------------------------

rew = sdym.SdymRewriter(2)
m0, m1, m2 = sdym.lambda_expand(2)
print("\nk = 2: residuals normalize to zero:",
      all(rew.normalize(e).is_zero() for m in (m0, m1, m2) for row in m for e in row))
deep = jet(sdym.alpha(2, 4, 1, 2), (1, 1, 3))
print("a deep reducible jet, normalized, has %d terms"
      % len(rew.normalize(deep + 0 * deep).terms))

# --- the flat representation and the essential parameter ----------------------

spec = sdym.build_flatrep(2, None)
print("\nflat for symbolic lam:", flatrep.check_flat_rep(spec).verdict)
c = flatrep.infinitesimal_deformation(spec, param("lam"))
print("lam-family cocycle closed:", "pass" if c.d.is_zero() else "fail")

pool = [x(i) for i in (1, 2, 3, 4)] + [y(p) for p in (1, 2)]
for alpha in range(1, rew.m + 1):
    pool.append(jet(alpha, ()))
    for d in (1, 2, 3, 4):
        s = jet(alpha, (d,))
        if not spec.scheme.base.reducible(s):
            pool.append(s)
witness = flatrep.exactness_test(c.complex, c, AnsatzSpec(tuple(pool), 2))
print("exact at w-degree <= 2, jet order <= 1:",
      "witness found" if witness else "bounded-no (the parameter is essential)")

# --- generalized gauge symmetries have exact cocycles --------------------------

print("\ngauge cocycle identity (symbolic lam):")
for label in ("const", "a1"):
    print("  H = %-5s %s" % (label, sdym.verify_ugh(2, label).verdict))
print("  planted non-gauge witness:", sdym.verify_ugh(2, "a1", witness="square").verdict)
