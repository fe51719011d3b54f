"""Max-tree over per-server (or per-rack) free-slot counts.

First-fit placement keeps asking "which is the lowest-numbered server /
rack with at least ``n`` free slots?".  A complete binary tree whose inner
nodes hold the maximum of their children answers that by walking only the
subtrees that contain such an element, and takes a point update in
O(log n) -- usually less, since the walk to the root stops at the first
ancestor whose maximum did not move.  Plain lists, no numpy: updates come
one element at a time.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence


class MaxTree:
    """Fixed-length vector of counts with an ordered ``>= need`` query."""

    __slots__ = ("_size", "_length", "_tree")

    def __init__(self, values: Sequence[int]) -> None:
        size = 1
        while size < len(values):
            size *= 2
        # Leaves live at [size, 2 * size); padding leaves hold -1 so they
        # never satisfy a query.
        tree = [-1] * (2 * size)
        tree[size:size + len(values)] = values
        for node in range(size - 1, 0, -1):
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
        self._size = size
        self._length = len(values)
        self._tree = tree

    def values(self) -> List[int]:
        """The counts, in index order."""
        return self._tree[self._size:self._size + self._length]

    def add(self, index: int, delta: int) -> None:
        """Adjust one count and the maxima above it."""
        tree = self._tree
        node = index + self._size
        top = tree[node] + delta
        tree[node] = top
        while node > 1:
            sibling = tree[node ^ 1]
            if sibling > top:
                top = sibling
            node >>= 1
            if tree[node] == top:
                break
            tree[node] = top

    def at_least(self, need: int) -> Iterator[int]:
        """Indices whose count is ``>= need``, in ascending order.

        The tree must not be updated while the iterator is live.
        """
        tree = self._tree
        size = self._size
        node = 1
        while True:
            if tree[node] >= need:
                while node < size:  # leftmost qualifying leaf below
                    node *= 2
                    if tree[node] < need:
                        node += 1
                yield node - size
            # Move to the subtree that starts right after this one.
            while node & 1:
                node >>= 1
            if node == 0:
                return  # climbed past the root
            node += 1
