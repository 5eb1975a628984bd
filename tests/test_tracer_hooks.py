import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _target(modname, attr):
    mod = importlib.import_module("flatconn." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(mod, cls_name)).get(meth)
    return getattr(mod, attr, None)


def test_tracer_wraps_every_target_and_restores_it():
    # The benchmark's tracer wraps library functions by name; a rename, or a
    # function turned into a property, must fail here and not only there.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = {key: _target(*key) for key in tracer.TARGETS}
    for key, fn in originals.items():
        assert inspect.isfunction(fn), key
    namespaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name == "flatconn" or name.startswith("flatconn.")}
    t = tracer.Tracer()
    try:
        t.install()
        for key, fn in originals.items():
            assert _target(*key) is not fn, key
    finally:
        t.uninstall()
    for key, fn in originals.items():
        assert _target(*key) is fn, key
    for name, before in namespaces.items():
        after = vars(sys.modules[name])
        assert all(after[k] is val for k, val in before.items()), name
