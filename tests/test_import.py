"""Importing `berbench` loads numpy with one BLAS thread and leaves the
environment as it found it.

Each case runs in a child process, since numpy loads once per process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Records OPENBLAS_NUM_THREADS as numpy starts to load, then imports berbench.
CHILD = """
import importlib.abc, json, os, sys

seen = []

class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Spy())
before = dict(os.environ)
import berbench
print(json.dumps({"seen": seen, "unchanged": dict(os.environ) == before}))
"""


@pytest.mark.parametrize("user_value, loaded_with", [(None, "1"), ("3", "3")])
def test_numpy_loads_with_one_blas_thread_unless_the_user_says(user_value, loaded_with):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, timeout=120, check=True
    )
    assert json.loads(child.stdout) == {"seen": [loaded_with], "unchanged": True}
