"""Software B+-tree — the baseline's table-cache index (paper §7.1).

The baseline (CIDR extended with software table caching) maps Hash-PBN
bucket indexes to cache-line slots with "an open-source high performing
B+ tree" based on Intel PALM.  This module provides an equivalent
in-memory B+-tree with:

* insert / delete / search / in-order iteration,
* node-visit accounting — the CPU cost model charges cycles per node
  visited, which is what makes tree indexing the dominant table-caching
  cost in Table 2 (43.9% of CPU),
* a geometry that mirrors the hardware tree's (branching factor per
  level), so the software and hardware indexes are directly comparable.

Correctness is validated against a dict model under randomized operation
sequences in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["BPlusTree"]


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: List[int] = []
        self.children: List["_Node"] = []  # internal nodes only
        self.values: List[Any] = []  # leaves only
        self.next_leaf: Optional["_Node"] = None  # leaf chain


class BPlusTree:
    """B+-tree keyed by integers (bucket indexes) with leaf chaining.

    ``order`` is the maximum number of keys per node (fan-out - 1 for
    internal nodes).  Nodes split at ``order + 1`` keys and rebalance
    below ``ceil(order / 2)`` keys.
    """

    def __init__(self, order: int = 16):
        if order < 3:
            raise ValueError(f"order must be >= 3, got {order}")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        #: Total tree nodes touched by all operations — the unit the CPU
        #: model charges cycles against (Table 2 "tree indexing").
        self.node_visits = 0

    # -- invariant thresholds -------------------------------------------------
    @property
    def _min_keys(self) -> int:
        return (self.order + 1) // 2

    # -- search -----------------------------------------------------------------
    def _find_leaf(self, key: int) -> Tuple[_Node, List[Tuple[_Node, int]]]:
        """Descend to the leaf for ``key``; returns (leaf, path).

        ``path`` holds (internal node, child slot) pairs root-first.
        """
        node = self._root
        path: List[Tuple[_Node, int]] = []
        while not node.is_leaf:
            self.node_visits += 1
            slot = bisect_right(node.keys, key)  # keys <= key go right
            path.append((node, slot))
            node = node.children[slot]
        self.node_visits += 1
        return node, path

    def search(self, key: int) -> Optional[Any]:
        """Return the value for ``key`` or None."""
        leaf, _ = self._find_leaf(key)
        position = bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return leaf.values[position]
        return None

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    # -- insert -----------------------------------------------------------------
    def insert(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        if value is None:
            raise ValueError("None values are indistinguishable from misses")
        leaf, path = self._find_leaf(key)
        position = bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            leaf.values[position] = value
            return
        leaf.keys.insert(position, key)
        leaf.values.insert(position, value)
        self._size += 1
        if len(leaf.keys) > self.order:
            self._split(leaf, path)

    def _split(self, node: _Node, path: List[Tuple[_Node, int]]) -> None:
        middle = len(node.keys) // 2
        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            sibling.keys = node.keys[middle:]
            sibling.values = node.values[middle:]
            node.keys = node.keys[:middle]
            node.values = node.values[:middle]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
            separator = sibling.keys[0]
        else:
            separator = node.keys[middle]
            sibling.keys = node.keys[middle + 1 :]
            sibling.children = node.children[middle + 1 :]
            node.keys = node.keys[:middle]
            node.children = node.children[: middle + 1]

        if not path:
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [node, sibling]
            self._root = new_root
            return
        parent, slot = path[-1]
        parent.keys.insert(slot, separator)
        parent.children.insert(slot + 1, sibling)
        if len(parent.keys) > self.order:
            self._split(parent, path[:-1])

    # -- delete -----------------------------------------------------------------
    def delete(self, key: int) -> bool:
        """Remove ``key``; returns whether it was present."""
        leaf, path = self._find_leaf(key)
        position = bisect_left(leaf.keys, key)
        if position == len(leaf.keys) or leaf.keys[position] != key:
            return False
        del leaf.keys[position]
        del leaf.values[position]
        self._size -= 1
        self._rebalance(leaf, path)
        return True

    def _rebalance(self, node: _Node, path: List[Tuple[_Node, int]]) -> None:
        if not path:
            # Root: collapse when an internal root has a single child.
            if not self._root.is_leaf and len(self._root.children) == 1:
                self._root = self._root.children[0]
            return
        minimum = self._min_keys
        if node.is_leaf:
            if len(node.keys) >= minimum:
                return
        elif len(node.children) >= minimum:
            return

        parent, slot = path[-1]
        left = parent.children[slot - 1] if slot > 0 else None
        right = parent.children[slot + 1] if slot + 1 < len(parent.children) else None

        if left is not None and self._can_lend(left):
            self._borrow_from_left(node, left, parent, slot)
        elif right is not None and self._can_lend(right):
            self._borrow_from_right(node, right, parent, slot)
        elif left is not None:
            self._merge(left, node, parent, slot - 1)
            self._rebalance(parent, path[:-1])
        else:
            self._merge(node, right, parent, slot)
            self._rebalance(parent, path[:-1])

    def _can_lend(self, node: _Node) -> bool:
        if node.is_leaf:
            return len(node.keys) > self._min_keys
        return len(node.children) > self._min_keys

    def _borrow_from_left(
        self, node: _Node, left: _Node, parent: _Node, slot: int
    ) -> None:
        if node.is_leaf:
            node.keys.insert(0, left.keys.pop())
            node.values.insert(0, left.values.pop())
            parent.keys[slot - 1] = node.keys[0]
        else:
            node.keys.insert(0, parent.keys[slot - 1])
            parent.keys[slot - 1] = left.keys.pop()
            node.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, node: _Node, right: _Node, parent: _Node, slot: int
    ) -> None:
        if node.is_leaf:
            node.keys.append(right.keys.pop(0))
            node.values.append(right.values.pop(0))
            parent.keys[slot] = right.keys[0]
        else:
            node.keys.append(parent.keys[slot])
            parent.keys[slot] = right.keys.pop(0)
            node.children.append(right.children.pop(0))

    def _merge(self, left: _Node, right: _Node, parent: _Node, sep_slot: int) -> None:
        """Fold ``right`` into ``left``; removes the separator at sep_slot."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[sep_slot])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[sep_slot]
        del parent.children[sep_slot + 1]

    # -- iteration / introspection ---------------------------------------------------
    def items(self) -> Iterator[Tuple[int, Any]]:
        """All (key, value) pairs in key order via the leaf chain."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            for key, value in zip(node.keys, node.values):
                yield key, value
            node = node.next_leaf

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 = a lone leaf)."""
        levels, node = 1, self._root
        while not node.is_leaf:
            levels += 1
            node = node.children[0]
        return levels

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is broken.

        Used by the property-based tests after every operation batch.
        """
        size = sum(1 for _ in self.items())
        assert size == self._size, f"size {self._size} != iterated {size}"
        keys = [key for key, _ in self.items()]
        assert keys == sorted(set(keys)), "leaf chain out of order"
        self._check_node(self._root, is_root=True)

    def _check_node(self, node: _Node, is_root: bool = False) -> Tuple[int, int]:
        """Returns (min_key, height) of the subtree; asserts invariants."""
        if node.is_leaf:
            assert len(node.keys) == len(node.values)
            if not is_root:
                assert len(node.keys) >= self._min_keys, "leaf underflow"
            assert len(node.keys) <= self.order, "leaf overflow"
            return (node.keys[0] if node.keys else -1, 1)
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert len(node.children) >= self._min_keys, "internal underflow"
        assert len(node.keys) <= self.order, "internal overflow"
        heights = set()
        for position, child in enumerate(node.children):
            min_key, child_height = self._check_node(child)
            heights.add(child_height)
            if position > 0:
                assert min_key >= node.keys[position - 1], "separator violated"
        assert len(heights) == 1, "unbalanced subtree heights"
        first_min, height = self._check_node(node.children[0])
        return first_min, height + 1
