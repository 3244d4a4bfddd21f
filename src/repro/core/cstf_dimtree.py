"""CSTF-DT: dimension-tree MTTKRP scheduling.

The paper's related work highlights Kaya & Uçar's dimension trees
("a novel computational scheme using dimension trees to effectively
parallelize MTTKRPs in CP-ALS", SISC 2018) as the state of the art for
amortising work *across* the N MTTKRPs of a CP-ALS iteration — the same
goal CSTF-QCOO pursues with its queue, attacked from the compute side
instead of the communication side.  This module brings the scheme to
the COO dataflow as a third CSTF variant.

A binary *dimension tree* partitions the mode set: each node ``S``
(a subset of modes) stores the tensor contracted with the factors of
all modes outside ``S``::

    T_S[(i_m)_{m in S}, :] = sum_{other indices} X(i_1..i_N)
                             * prod_{m not in S} A_m[i_m, :]

The root is the tensor itself; a leaf ``{n}`` is exactly the mode-``n``
MTTKRP result.  Each contraction is a chain of factor joins followed by
a ``reduceByKey`` on the child's retained indices — and critically the
*reduce collapses fibers*: node ``{0,1}`` has one record per distinct
``(i, j)`` pair, not per nonzero, so every descendant computation runs
on the (often much smaller) contracted RDD.

Reuse bookkeeping follows Kaya & Uçar: a node stays valid until a
factor *outside* its mode set is updated.  In the canonical mode order
the left subtree (modes ``0..k``) is computed once and serves every one
of its leaves before mode ``k+1``'s update invalidates it.

For 3rd-order tensors the scheme matches CSTF-COO's shuffle count and
wins only when fibers collapse; for order >= 4 it additionally removes
redundant joins (the classic dimension-tree flop saving), which the
ablation benchmark measures.
"""

from __future__ import annotations

from ..engine.rdd import RDD
from ..tensor.coo import COOTensor
from .cp_als import CPALSDriver


class _TreeNode:
    """One dimension-tree node: a mode subset and its cached RDD."""

    __slots__ = ("modes", "left", "right", "rdd")

    def __init__(self, modes: tuple[int, ...]):
        self.modes = modes
        self.left: "_TreeNode | None" = None
        self.right: "_TreeNode | None" = None
        self.rdd: RDD | None = None  # None = not materialised / invalid

    def __repr__(self) -> str:
        return f"_TreeNode(modes={self.modes})"


def build_tree(order: int) -> _TreeNode:
    """Balanced binary dimension tree over modes ``0..order-1``."""
    def build(modes: tuple[int, ...]) -> _TreeNode:
        node = _TreeNode(modes)
        if len(modes) > 1:
            half = (len(modes) + 1) // 2
            node.left = build(modes[:half])
            node.right = build(modes[half:])
        return node
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    return build(tuple(range(order)))


class CstfDimTree(CPALSDriver):
    """CP-ALS with dimension-tree MTTKRP reuse on the COO dataflow."""

    name = "cstf-dimtree"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._root: _TreeNode | None = None
        self._leaves: dict[int, _TreeNode] = {}

    # ------------------------------------------------------------------
    def _setup(self, tensor_rdd: RDD, tensor: COOTensor,
               factor_rdds: list[RDD], rank: int) -> None:
        self._root = build_tree(tensor.order)
        # records ((i_1..i_N), value); materialize point for columnar
        # partitions — contractions consume per-record tuples
        self._root.rdd = tensor_rdd.materialize_records()
        self._leaves = {}

        def index_leaves(node: _TreeNode) -> None:
            if len(node.modes) == 1:
                self._leaves[node.modes[0]] = node
            for child in (node.left, node.right):
                if child is not None:
                    index_leaves(child)
        index_leaves(self._root)

    def _teardown(self) -> None:
        self._root = None
        self._leaves = {}
        super()._teardown()

    # ------------------------------------------------------------------
    def _mttkrp(self, mode: int, tensor_rdd: RDD,
                factor_rdds: list[RDD], rank: int) -> RDD:
        assert self._root is not None
        leaf = self._leaves[mode]
        m_rdd = self._materialize(leaf, factor_rdds)
        # updating A_mode invalidates every node that excludes `mode`
        self._invalidate_excluding(self._root, mode)
        return m_rdd

    # ------------------------------------------------------------------
    # tree materialisation
    # ------------------------------------------------------------------
    def _materialize(self, target: _TreeNode,
                     factor_rdds: list[RDD]) -> RDD:
        """Compute ``target``'s RDD from its deepest valid ancestor."""
        path = self._path_to(self._root, target)
        assert path is not None
        # walk down from the last node on the path that has an RDD
        start = max(i for i, node in enumerate(path)
                    if node.rdd is not None)
        for i in range(start + 1, len(path)):
            parent, child = path[i - 1], path[i]
            child.rdd = self._contract(parent, child, factor_rdds)
            if len(child.modes) > 1:
                child.rdd = child.rdd.cache()
        assert target.rdd is not None
        return target.rdd

    def _contract(self, parent: _TreeNode, child: _TreeNode,
                  factor_rdds: list[RDD]) -> RDD:
        """Contract the factors of ``parent.modes - child.modes`` out of
        the parent's RDD and reduce onto the child's key."""
        p_modes = parent.modes
        contract = [m for m in p_modes if m not in child.modes]
        child_pos = [p_modes.index(m) for m in child.modes]
        current = parent.rdd
        assert current is not None

        first = len(p_modes) == self._order_of_root()
        for step, m in enumerate(contract):
            pos = p_modes.index(m)
            keyed = current.map(
                lambda rec, _pos=pos: (rec[0][_pos], rec)
            ).set_name(f"dt-key-mode{m}")
            # the factor through the same record seam; it keeps the
            # partitioner, so the join's factor side stays narrow
            joined = keyed.join(factor_rdds[m].materialize_records(),
                                self.num_partitions)
            if step == 0 and first:
                # root records carry a scalar value
                def fold(kv):
                    (key_p, val), row = kv[1]
                    return (key_p, val * row)
            else:
                def fold(kv):
                    (key_p, vec), row = kv[1]
                    return (key_p, vec * row)
            current = joined.map(fold).set_name(f"dt-mult-mode{m}")

        if len(child.modes) == 1:
            # a leaf is the MTTKRP output: keyed rows, as every driver's
            def rekey(rec, _pos=child_pos[0]):
                key_p, vec = rec
                return (key_p[_pos], vec)
            reduced = self.ctx.kernel.sum_rows_by_key(
                current.map(rekey), self.num_partitions)
        else:
            def rekey(rec, _pos=tuple(child_pos)):
                key_p, vec = rec
                return (tuple(key_p[p] for p in _pos), vec)
            reduced = current.map(rekey).reduce_by_key(
                lambda a, b: a + b, self.num_partitions)
        return reduced.set_name(f"dt-node{child.modes}")

    def _order_of_root(self) -> int:
        assert self._root is not None
        return len(self._root.modes)

    # ------------------------------------------------------------------
    # validity bookkeeping
    # ------------------------------------------------------------------
    def _path_to(self, node: _TreeNode,
                 target: _TreeNode) -> list[_TreeNode] | None:
        if node is target:
            return [node]
        for child in (node.left, node.right):
            if child is not None and \
                    set(target.modes) <= set(child.modes):
                sub = self._path_to(child, target)
                if sub is not None:
                    return [node] + sub
        return None

    def _invalidate_excluding(self, node: _TreeNode, mode: int) -> None:
        """Drop cached nodes whose content depends on factor ``mode``
        (i.e. nodes not containing ``mode``); the root never drops."""
        for child in (node.left, node.right):
            if child is None:
                continue
            if mode not in child.modes:
                self._invalidate(child)
            else:
                self._invalidate_excluding(child, mode)

    def _invalidate(self, node: _TreeNode) -> None:
        """Eagerly drop a stale subtree (never called on the root)."""
        if node.rdd is not None:
            node.rdd.unpersist()
            node.rdd = None
        for child in (node.left, node.right):
            if child is not None:
                self._invalidate(child)

    # ------------------------------------------------------------------
    def shuffles_per_mttkrp(self, order: int) -> int:
        """Upper bound: like COO when nothing is reusable; strictly
        fewer in steady state for order >= 3 (mode 2 of each iteration
        reuses the cached {0,1}-node)."""
        return order
