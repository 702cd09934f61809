"""Server allocation for subquery fan-out (paper §3–§6).

The paper repeatedly "allocates ``⌈size/L⌉`` servers" to each of many
subqueries and proves the total is O(p).  We realize this with *virtual
server ranges*: each task gets a contiguous range of virtual servers, and
virtual server ``v`` maps to real server ``v mod p``.  When the total is
O(p), each real server hosts O(1) virtual servers, so per-round loads are
preserved up to the paper's constants.  Items are placed inside a task's
range by hashing a colocation key (typically the join attribute value), so
tuples that must meet land on the same virtual — hence real — server.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Mapping, Tuple

from ..mpc.cluster import ClusterView
from ..mpc.hashing import hash_to_bucket

__all__ = ["RangeAllocation"]


class RangeAllocation:
    """Contiguous virtual-server ranges for a family of tasks."""

    def __init__(self, view: ClusterView, sizes: Mapping[Hashable, int], load: int) -> None:
        """Allocate ``⌈sizes[k]/load⌉`` virtual servers to every task ``k``.

        ``load`` is the paper's target load L.  The task map is coordinator
        state: O(#tasks) control traffic is charged.
        """
        if load < 1:
            raise ValueError("load must be ≥ 1")
        self.view = view
        self.load = load
        self.ranges: Dict[Hashable, Tuple[int, int]] = {}
        offset = 0
        for key in sizes:
            width = max(1, math.ceil(sizes[key] / load))
            self.ranges[key] = (offset, width)
            offset += width
        self.virtual_total = offset
        view.tracker.record_control(len(self.ranges))
        view.control_scatter(1)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.ranges

    def width(self, key: Hashable) -> int:
        return self.ranges[key][1]

    def dest(self, key: Hashable, colocate: Any, salt: int = 0) -> int:
        """Real server (local index) for an item of task ``key`` whose
        colocation key is ``colocate``."""
        start, width = self.ranges[key]
        virtual = start + hash_to_bucket(colocate, width, salt)
        return virtual % self.view.p
