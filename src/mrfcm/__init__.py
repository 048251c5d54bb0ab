"""Fuzzy c-means over heterogeneous tabular data.

Pipeline: encode mixed-type records into categories, fit a multiple
correspondence analysis from globally aggregated statistics, project
the distinct records into its Euclidean space, and cluster them with
fuzzy c-means expressed as one map-reduce job per iteration, each
distinct record weighted by how often it occurs; the memberships are
then expanded back to every record.  A validity sweep scores candidate
cluster counts with four indices and picks the consensus.
"""

from .engine import JobMetrics, JobSpec, run_job
from .errors import DataIOError, EngineError, MrfcmError, NumericError, SchemaError
from .fcm import (FcmConfig, FcmResult, fcm_iteration, init_centroids, membership_row,
                  objective, run_fcm)
from .ingest import (CategoricalDataset, ColumnSpec, PartitionedStore, discretize,
                     encode_csv, infer_schema, load_csv, partition,
                     replicate_to_size, schema_dump)
from .mca import CategoryMargins, MCAModel, accumulate_burt, fit_mca
from .validity import ValidityReport, ValidityRow, pc, pe, sc, sweep, xb

__version__ = "0.1.0"

__all__ = [
    "CategoricalDataset", "CategoryMargins", "ColumnSpec", "DataIOError",
    "EngineError", "FcmConfig", "FcmResult", "JobMetrics", "JobSpec",
    "MCAModel", "MrfcmError", "NumericError", "PartitionedStore",
    "SchemaError", "ValidityReport", "ValidityRow",
    "accumulate_burt", "discretize", "encode_csv", "fcm_iteration", "fit_mca",
    "infer_schema", "init_centroids", "load_csv", "membership_row", "objective",
    "partition", "pc", "pe", "replicate_to_size",
    "run_fcm", "run_job", "sc", "schema_dump", "sweep", "xb",
]
