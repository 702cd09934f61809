"""MPC primitives (paper §2.1–2.2): the O(N/p)-load, O(1)-round toolbox."""

from .dangling import elimination_order, remove_dangling
from .degrees import (
    attach_by_key,
    degree_table,
    distinct_labels,
    label_tuples,
    lookup_table,
    select_labelled,
)
from .estimate_out import estimate_path_out, propagate_sketches, sketch_column
from .kmv import KMV, MultiKMV, median_estimate
from .multi_search import multi_search
from .packing import parallel_packing
from .reduce_by_key import count_by_key, distinct_keys, reduce_by_key
from .scan import exclusive_prefix
from .semijoin import anti_semijoin, semijoin
from .sort import distributed_sort, splitters_for

__all__ = [
    "distributed_sort",
    "splitters_for",
    "exclusive_prefix",
    "reduce_by_key",
    "count_by_key",
    "distinct_keys",
    "multi_search",
    "semijoin",
    "anti_semijoin",
    "parallel_packing",
    "degree_table",
    "attach_by_key",
    "label_tuples",
    "select_labelled",
    "distinct_labels",
    "lookup_table",
    "remove_dangling",
    "elimination_order",
    "KMV",
    "MultiKMV",
    "median_estimate",
    "estimate_path_out",
    "propagate_sketches",
    "sketch_column",
]
