"""The package's public names.

Adding or removing a public name is a deliberate change: edit these lists
with it, and say so in CHANGES.md.
"""
import inspect

import mrfcm
from mrfcm import mca

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
