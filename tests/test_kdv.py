from fractions import Fraction

import pytest

from flatconn.expr import Expr, jet, param, render, x, y
from flatconn.jets import is_symmetry_evolution, total_derivative
from flatconn import flatrep
from flatconn.kdv import build_kdv, miura_at


def u(k):
    return jet(1, (1,) * k)


@pytest.fixture(scope="module")
def kdv():
    return build_kdv()


def test_evolution_rule(kdv):
    assert total_derivative(kdv.scheme, 2, Expr.wrap(u(0))) == u(3) + 6 * u(0) * u(1)


def test_miura_flat_with_symbolic_parameter(kdv):
    assert flatrep.check_flat_rep(kdv.miura).verdict == "pass"
    assert kdv.miura.a(1, 3) == param("lam") + u(0) + y(1) ** 2


def test_named_symmetries(kdv):
    assert set(kdv.symmetries) == {
        "x-translation", "t-translation", "galilean", "scaling",
    }
    for phi in kdv.symmetries.values():
        assert is_symmetry_evolution(kdv.scheme, [phi]).verdict == "pass"
    assert kdv.symmetries["galilean"] == 1 + 6 * x(2) * u(1)
    assert kdv.symmetries["scaling"] == \
        2 * u(0) + x(1) * u(1) + 3 * x(2) * (u(3) + 6 * u(0) * u(1))


def test_lambda_family_cocycle_verbatim(kdv):
    c = flatrep.infinitesimal_deformation(kdv.miura, kdv.lam)
    assert c.data == {
        ((1,), 3): Expr.wrap(1) + Expr.wrap(0),
        ((2,), 3): -(2 * u(0) + 8 * param("lam") + 4 * y(1) ** 2),
    }
    assert c.d.is_zero()


def test_miura_at_rational_values(kdv):
    spec0 = miura_at(kdv, Fraction(0))
    assert spec0.a(1, 3) == u(0) + y(1) ** 2
    assert render(spec0.a(2, 3)) == "2*u[0]^2 + 2*u[0]*y1^2 + 2*u[1]*y1 + u[2]"
    spec_half = miura_at(kdv, Fraction(1, 2))
    assert flatrep.check_flat_rep(spec_half).verdict == "pass"


def test_one_bundle_per_process(kdv):
    assert build_kdv() is kdv and build_kdv() is build_kdv()
    # a specialisation is a new spec on every call
    assert miura_at(kdv, Fraction(1)) is not miura_at(kdv, Fraction(1))


def test_bundle_refuses_assignment(kdv):
    with pytest.raises(AttributeError):
        kdv.lam = param("mu")
    with pytest.raises(AttributeError):
        kdv.miura = miura_at(kdv, Fraction(0))
    with pytest.raises(TypeError):
        kdv.symmetries["zero"] = Expr.wrap(0)
    with pytest.raises(TypeError):
        del kdv.symmetries["galilean"]
    assert len(kdv.symmetries) == 4


def test_failed_build_keeps_nothing(monkeypatch):
    # The check is made to fail by feeding it a wrong verdict; each call then
    # checks again and fails again, and no bundle is kept.
    from flatconn import kdv as kdv_module, reports

    monkeypatch.setattr(kdv_module, "_BUNDLE", None)
    monkeypatch.setattr(kdv_module, "is_symmetry_evolution",
                        lambda scheme, phi: reports.Report("is-symmetry", reports.FAIL, ["1"]))
    for _ in range(2):
        with pytest.raises(AssertionError, match="is not a KdV symmetry"):
            build_kdv()
        assert kdv_module._BUNDLE is None
