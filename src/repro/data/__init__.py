"""Datasets: synthetic generators and the Table 2 benchmark registry."""

from repro.data.synthetic import make_regression
from repro.data.datasets import (
    Dataset,
    DatasetSpec,
    DATASETS,
    get_dataset,
    dataset_table,
)
from repro.data.scaling import normalize_feature_rows, normalize_sample_columns

__all__ = [
    "make_regression",
    "Dataset",
    "DatasetSpec",
    "DATASETS",
    "get_dataset",
    "dataset_table",
    "normalize_feature_rows",
    "normalize_sample_columns",
]
