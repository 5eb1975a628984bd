import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = ("01_flat_connections.py", "02_fce_symmetries.py", "03_kdv_miura_lifting.py",
         "04_sdym.py", "05_problem_files.py")

# The whole stdout of the SDYM demo: its verdicts, including the bounded-no
# of the essential parameter, and the size of one normal form.
SDYM_STDOUT = """\
k = 1 (abelian) lambda coefficients:
  lam^0: -u[2;] + u2[1]
  lam^1: -u[4;] + u2[3;] - u3[2;] + u4[1]
  lam^2: -u3[4;] + u4[3;]

k = 2: residuals normalize to zero: True
a deep reducible jet, normalized, has 158 terms

flat for symbolic lam: pass
lam-family cocycle closed: pass
exact at w-degree <= 2, jet order <= 1: bounded-no (the parameter is essential)

gauge cocycle identity (symbolic lam):
  H = const pass
  H = a1    pass
  planted non-gauge witness: fail
"""


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    if name == "04_sdym.py":
        assert done.stdout == SDYM_STDOUT
