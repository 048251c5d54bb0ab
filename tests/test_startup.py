"""How a fresh process starts OpenBLAS: the ``mrfcm`` command on one thread,
a library user with the default.

OpenBLAS reads its thread count once, when numpy loads it, so each case
runs in a new interpreter and reads the count through ``engine``'s setter
lookup after its imports.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mrfcm import engine

SRC = Path(__file__).resolve().parent.parent / "src"
# The variables OpenBLAS takes its thread count from, in its order of precedence.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    engine._blas_thread_calls() is None,
    reason="numpy's BLAS exposes no OpenBLAS thread-count getter to read")


def fresh(imports: str, **env) -> tuple[int, str | None]:
    """(OpenBLAS thread count, OPENBLAS_NUM_THREADS) in a new interpreter
    after ``imports``, with no thread variable set but those in ``env``."""
    script = (f"{imports}\nimport json, os\nfrom mrfcm import engine\n"
              "print(json.dumps([engine._blas_thread_calls()[0](), "
              "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    child_env.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=child_env,
                          capture_output=True, text=True, timeout=60, check=True)
    count, variable = json.loads(proc.stdout)
    return count, variable


@pytest.fixture(scope="module")
def default_count():
    """The count OpenBLAS picks when numpy loads before any mrfcm module."""
    count, variable = fresh("import numpy")
    assert variable is None
    return count


def test_command_module_starts_openblas_on_one_thread():
    assert fresh("import mrfcm.cli") == (1, "1")


def test_package_import_keeps_the_default(default_count):
    assert fresh("import mrfcm") == (default_count, None)


def test_callers_thread_count_wins(default_count):
    # OpenBLAS caps a requested count at the processors it finds.
    assert fresh("import mrfcm.cli", OPENBLAS_NUM_THREADS="2") == (min(2, default_count), "2")


def test_command_module_after_numpy_changes_nothing(default_count):
    assert fresh("import numpy\nimport mrfcm.cli") == (default_count, None)
