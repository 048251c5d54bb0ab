"""The package's public names, and what importing them loads.

Adding or removing a public name is a deliberate change: edit these lists
with it, and say so in CHANGES.md.
"""
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrfcm
from mrfcm import engine, ingest, mca

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "CategoricalDataset", "CategoryMargins", "ColumnSpec", "DataIOError",
    "EngineError", "FcmConfig", "FcmResult", "JobMetrics", "JobSpec",
    "MCAModel", "MrfcmError", "NumericError", "PartitionedStore",
    "SchemaError", "ValidityReport", "ValidityRow",
    "accumulate_burt", "discretize", "encode_csv", "fcm_iteration", "fit_mca",
    "infer_schema", "init_centroids", "load_csv", "membership_row", "objective",
    "partition", "pc", "pe", "replicate_to_size",
    "run_fcm", "run_job", "sc", "schema_dump", "sweep", "xb",
]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mrfcm import *", namespace)  # raises if a listed name is missing
    assert all(namespace[name] is getattr(mrfcm, name) for name in mrfcm.__all__)
    assert sorted(mrfcm.__all__) == PUBLIC_NAMES


def test_mca_functions_hold_no_projection_job():
    # fcm projects its distinct records with MCAModel.transform in the driver.
    functions = [name for name, value in vars(mca).items()
                 if inspect.isfunction(value) and value.__module__ == mca.__name__
                 and not name.startswith("_")]
    assert functions == ["accumulate_burt", "fit_mca"]


def test_dir_lists_every_public_name():
    assert set(mrfcm.__all__) <= set(dir(mrfcm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mrfcm.no_such_name


def test_ingest_re_exports_the_engine_store():
    assert ingest.partition is engine.partition
    assert ingest.PartitionedStore is engine.PartitionedStore


# The set-up script of perfbench/run.py: after numpy, one small engine job
# through the package's names.
ENGINE_JOB = """
import numpy as np
import mrfcm
store = mrfcm.partition(np.arange(8.0).reshape(4, 2), 2)
mrfcm.run_job(mrfcm.JobSpec(2, 2, "setup"), store, None,
              lambda pid, block, ctx: [(pid, float(block.sum()))],
              lambda key, values: sum(values))
"""


def loaded_after(script: str, names) -> list[str]:
    """Those of ``names`` that a new interpreter has imported after ``script``."""
    probe = (f"{script}\nimport json, sys\n"
             f"print(json.dumps([n for n in {list(names)!r} if n in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_engine_job_loads_only_the_engine():
    unused = ["mrfcm.ingest", "mrfcm.fcm", "mrfcm.mca", "mrfcm.validity", "mrfcm.cli",
              "mrfcm.datasets", "csv", "concurrent.futures"]
    assert loaded_after(ENGINE_JOB, unused) == []


def test_package_import_loads_no_submodule():
    modules = ["numpy", "mrfcm.engine", "mrfcm.errors", "mrfcm.ingest", "mrfcm.fcm",
               "mrfcm.mca", "mrfcm.validity", "mrfcm.cli", "mrfcm.datasets"]
    assert loaded_after("import mrfcm", modules) == []
