import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 04_sdym takes several seconds; test_sdym and the cli-mix transcript cover
# its paths.
DEMOS = ("01_flat_connections.py", "02_fce_symmetries.py", "03_kdv_miura_lifting.py",
         "05_problem_files.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
