"""flatconn: exact symbolic machinery for flat connections on PDE.

Subpackages by layer:

* :mod:`flatconn.expr` -- canonical sparse polynomials over Q in a typed
  symbol universe;
* :mod:`flatconn.jets` -- total-derivative schemes, evolutionary fields,
  and the one cochain type, which lives on a chart or a flat
  representation (each is its own complex);
* :mod:`flatconn.vforms` -- vector-valued forms and the
  Froelicher-Nijenhuis bracket;
* :mod:`flatconn.fce` -- calculus on the equation of flat connections
  (special coordinates, the vertical complex, symmetries, the bracket);
* :mod:`flatconn.flatrep` -- flat representations, deformation cocycles,
  exactness, symmetry lifting;
* :mod:`flatconn.kdv`, :mod:`flatconn.sdym` -- the two worked families;
* :mod:`flatconn.problems`, :mod:`flatconn.cli` -- problem files, reports
  and the command line front end.
"""

from .expr import Expr, Symbol, const, fc, jet, param, render, v, x, y
from .jets import (
    Cochain, Evolution, Extended, FreeJet, d_sigma, evolutionary_apply,
    is_symmetry_evolution, total_derivative,
)
from .linsolve import AnsatzSpec
from .reports import Report, emit_report

__all__ = [
    "Expr", "Symbol", "const", "fc", "jet", "param", "render", "v", "x", "y",
    "Cochain", "Evolution", "Extended", "FreeJet", "d_sigma",
    "evolutionary_apply", "is_symmetry_evolution", "total_derivative",
    "AnsatzSpec", "Report", "emit_report",
]

__version__ = "0.1.0"
