"""Label paths: value type, evaluation, enumeration, catalog and splitting."""

from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    domain_size,
    enumerate_label_paths,
    update_selectivity_nonzeros,
)
from repro.paths.evaluation import (
    BFSPathEvaluator,
    MatrixPathEvaluator,
    PathEvaluator,
    evaluate_path,
    path_selectivity,
)
from repro.paths.index import (
    domain_index_to_path,
    path_to_domain_index,
    paths_to_domain_indices,
)
from repro.paths.label_path import SEPARATOR, LabelPath, as_label_path
from repro.paths.splitting import (
    BaseLabelSet,
    GreedySplitter,
    edge_label_base_set,
    length_bounded_base_set,
)

__all__ = [
    "SEPARATOR",
    "BaseLabelSet",
    "BFSPathEvaluator",
    "GreedySplitter",
    "LabelPath",
    "MatrixPathEvaluator",
    "PathEvaluator",
    "SelectivityCatalog",
    "as_label_path",
    "compute_selectivity_nonzeros",
    "domain_index_to_path",
    "domain_size",
    "edge_label_base_set",
    "enumerate_label_paths",
    "evaluate_path",
    "length_bounded_base_set",
    "path_selectivity",
    "path_to_domain_index",
    "paths_to_domain_indices",
    "update_selectivity_nonzeros",
]
