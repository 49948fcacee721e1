"""Telemetry data model: columnar drive-day records, event tables, splits.

This package is the substrate every other layer builds on:

- :mod:`repro.data.fields` — the drive-day schema (Section 2 of the paper);
- :mod:`repro.data.dataset` — struct-of-arrays record container;
- :mod:`repro.data.tables` — drive metadata and the swap/repair event log;
- :mod:`repro.data.split` — drive-grouped cross-validation splits;
- :mod:`repro.data.sampling` — majority-class downsampling;
- :mod:`repro.data.io` — NPZ/CSV persistence;
- :mod:`repro.data.store` — mmap-backed columnar store (zero-copy replay).
"""

from .._lazy import lazy_exports

__all__ = [
    "DriveDayDataset",
    "concat_datasets",
    "DAILY_FIELDS",
    "ERROR_TYPES",
    "FIELD_DOC",
    "FIELD_DTYPES",
    "NON_TRANSPARENT_ERRORS",
    "TRANSPARENT_ERRORS",
    "WORKLOAD_FIELDS",
    "MODEL_NAMES",
    "DriveTable",
    "SwapLog",
    "model_index",
    "GroupKFold",
    "grouped_train_test_split",
    "class_balance",
    "downsample_majority",
    "SMART_COLUMNS",
    "export_smart_csv",
    "to_smart_table",
    "TraceIntegrityError",
    "STORE_MAGIC",
    "STORE_SUFFIX",
    "is_store_file",
    "save_dataset_store",
    "load_dataset_store",
    "open_store_columns",
    "save_dataset_npz",
    "load_dataset_npz",
    "load_dataset_checked",
    "load_raw_columns_npz",
    "iter_drive_day_chunks",
    "iter_drive_days",
    "export_dataset_csv",
    "save_swaplog_npz",
    "load_swaplog_npz",
    "save_drivetable_npz",
    "load_drivetable_npz",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".dataset": ("DriveDayDataset", "concat_datasets"),
        ".fields": (
            "DAILY_FIELDS",
            "ERROR_TYPES",
            "FIELD_DOC",
            "FIELD_DTYPES",
            "NON_TRANSPARENT_ERRORS",
            "TRANSPARENT_ERRORS",
            "WORKLOAD_FIELDS",
        ),
        ".io": (
            "TraceIntegrityError",
            "export_dataset_csv",
            "iter_drive_day_chunks",
            "iter_drive_days",
            "load_dataset_checked",
            "load_dataset_npz",
            "load_drivetable_npz",
            "load_raw_columns_npz",
            "load_swaplog_npz",
            "save_dataset_npz",
            "save_drivetable_npz",
            "save_swaplog_npz",
        ),
        ".sampling": ("class_balance", "downsample_majority"),
        ".smart": ("SMART_COLUMNS", "export_smart_csv", "to_smart_table"),
        ".split": ("GroupKFold", "grouped_train_test_split"),
        ".store": (
            "STORE_MAGIC",
            "STORE_SUFFIX",
            "is_store_file",
            "load_dataset_store",
            "open_store_columns",
            "save_dataset_store",
        ),
        ".tables": ("MODEL_NAMES", "DriveTable", "SwapLog", "model_index"),
    },
)
