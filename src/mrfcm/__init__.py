"""Fuzzy c-means over heterogeneous tabular data.

Pipeline: encode mixed-type records into categories, fit a multiple
correspondence analysis from globally aggregated statistics, project
the distinct records into its Euclidean space, and cluster them with
fuzzy c-means expressed as one map-reduce job per iteration, each
distinct record weighted by how often it occurs; the memberships are
then expanded back to every record.  A validity sweep scores candidate
cluster counts with four indices and picks the consensus.

Importing the package loads no submodule.  Each public name is imported
from its module on first use (PEP 562), so a process that only runs
engine jobs loads ``engine`` and ``errors``, and the ``mrfcm`` command can
start OpenBLAS on one thread before anything imports numpy (see ``cli``).
"""
import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    "engine": ("JobMetrics", "JobSpec", "PartitionedStore", "partition", "run_job"),
    "errors": ("DataIOError", "EngineError", "MrfcmError", "NumericError", "SchemaError"),
    "fcm": ("FcmConfig", "FcmResult", "fcm_iteration", "init_centroids", "membership_row",
            "objective", "run_fcm"),
    "ingest": ("CategoricalDataset", "ColumnSpec", "discretize", "encode_csv", "infer_schema",
               "load_csv", "replicate_to_size", "schema_dump"),
    "mca": ("CategoryMargins", "MCAModel", "accumulate_burt", "fit_mca"),
    "validity": ("ValidityReport", "ValidityRow", "pc", "pe", "sc", "sweep", "xb"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, imported from its module and kept in this namespace.
    Any other name raises AttributeError, which lets ``from mrfcm import
    cli`` fall back to importing the submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
