"""Zhang–Shasha tree edit distance (Zhang & Shasha, SIAM J. Comput. 1989).

The paper uses the tree edit distance between the ASTs of the original and
the repaired expression as the repair cost (§5).  This is a from-scratch
implementation of the classic O(n² · min(depth, leaves)²) dynamic program:

1. number nodes in post-order;
2. compute ``l(i)``, the post-order index of the leftmost leaf descendant of
   node ``i``;
3. compute the set of *keyroots* (nodes with no left sibling on the path to
   the root);
4. fill the forest-distance tables for every pair of keyroots.

Unit insert/delete/relabel costs are used, matching the paper's "how many AST
nodes changed" reading of repair size.

The repair fast path layers three optimizations on top of the DP, all
provably result-preserving:

* **Annotation memoization** — the post-order numbering, leftmost-leaf
  indices and keyroots of a tree (:class:`AnnotatedTree`) depend only on the
  expression, so they are computed once per (interned) expression and reused
  across every pairing (:meth:`TedCache.annotation`).  Annotations are pure
  shape-plus-labels data; renaming variables reuses the shape arrays and
  substitutes only the ``var:`` labels (:meth:`AnnotatedTree.rename_vars`),
  which is how cluster pool indexes derive the annotation of a translated
  pool expression in O(n) instead of re-walking the tree.
* **Distance memoization** — the full DP result is cached per expression
  pair (symmetric under unit costs, so both orders hit).
* **Lower-bound pruning** — when the caller supplies a cost ``budget``,
  the cheap bound ``max(|n₁−n₂|, max(n₁,n₂) − |labels₁ ∩ labels₂|)`` (every
  edit script must insert/delete the size difference and touch every node
  whose label has no counterpart) is checked first; when it already reaches
  the budget the DP is skipped and the bound is returned.  The returned
  value is then a *lower bound* ≥ budget, which is exactly what
  branch-and-bound callers need to discard the candidate; results below the
  budget are always exact.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from ..counters import SUM, Counters
from ..model.expr import Expr, intern_expr
from .tree import TreeNode, expr_to_tree, postorder

__all__ = [
    "AnnotatedTree",
    "TedCache",
    "TedCounters",
    "tree_edit_distance",
    "expr_edit_distance",
    "ted_lower_bound",
]

#: Label prefix of variable leaves (see :func:`repro.ted.tree.expr_to_tree`);
#: the only labels affected by variable renaming.
_VAR_LABEL_PREFIX = "var:"


class AnnotatedTree:
    """Post-order labels, leftmost-leaf indices and keyroots of a tree.

    Plain-data form of everything the Zhang–Shasha DP needs: ``labels[i]``
    is the label of the i-th node in post-order, ``lmld[i]`` the post-order
    index of its leftmost leaf descendant, ``keyroots`` the sorted keyroot
    indices.  Instances are immutable once built and safely shared between
    threads and memo tables.
    """

    __slots__ = ("labels", "lmld", "keyroots", "_label_counts")

    def __init__(
        self,
        labels: tuple[str, ...],
        lmld: tuple[int, ...],
        keyroots: tuple[int, ...],
    ) -> None:
        self.labels = labels
        self.lmld = lmld
        self.keyroots = keyroots
        self._label_counts: Counter | None = None

    @classmethod
    def from_tree(cls, root: TreeNode) -> "AnnotatedTree":
        nodes: list[TreeNode] = list(postorder(root))
        labels = tuple(node.label for node in nodes)
        index_of = {id(node): i for i, node in enumerate(nodes)}
        lmld = [0] * len(nodes)
        for i, node in enumerate(nodes):
            current = node
            while current.children:
                current = current.children[0]
            lmld[i] = index_of[id(current)]
        # Keyroots: the highest node for every distinct leftmost-leaf value.
        keyroot_for: dict[int, int] = {}
        for i, left in enumerate(lmld):
            keyroot_for[left] = i
        return cls(labels, tuple(lmld), tuple(sorted(keyroot_for.values())))

    @classmethod
    def from_expr(cls, expr: Expr) -> "AnnotatedTree":
        return cls.from_tree(expr_to_tree(expr))

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AnnotatedTree)
            and other.labels == self.labels
            and other.lmld == self.lmld
            and other.keyroots == self.keyroots
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.lmld, self.keyroots))

    @property
    def label_counts(self) -> Counter:
        """Multiset of node labels (lazily computed, used by the lower bound)."""
        counts = self._label_counts
        if counts is None:
            counts = Counter(self.labels)
            self._label_counts = counts
        return counts

    def rename_vars(self, mapping: Mapping[str, str]) -> "AnnotatedTree":
        """Annotation of the same tree with variables renamed via ``mapping``.

        Renaming never changes the tree *shape*, so the leftmost-leaf and
        keyroot arrays are shared with ``self``; only ``var:`` labels are
        substituted.  Equals ``AnnotatedTree.from_expr(expr.rename_vars(m))``
        for the underlying expression, at O(n) cost.
        """
        prefix = _VAR_LABEL_PREFIX
        offset = len(prefix)
        labels = tuple(
            prefix + mapping.get(label[offset:], label[offset:])
            if label.startswith(prefix)
            else label
            for label in self.labels
        )
        return AnnotatedTree(labels, self.lmld, self.keyroots)


def ted_lower_bound(a: AnnotatedTree, b: AnnotatedTree) -> int:
    """Cheap lower bound on the tree edit distance between two trees.

    Any edit script must bridge the size difference with inserts/deletes,
    and every node whose label has no counterpart in the other tree's label
    multiset must be inserted, deleted or relabelled — one unit each.
    """
    size_a, size_b = len(a), len(b)
    shared = sum((a.label_counts & b.label_counts).values())
    return max(abs(size_a - size_b), max(size_a, size_b) - shared)


class TedCounters(Counters):
    """The :class:`TedCache` counters (see its docstring)."""

    FIELDS = dict.fromkeys(("dp_runs", "memo_hits", "lb_prunes", "trivial_hits"), SUM)


class TedCache:
    """Memoization and counters for expression edit distances.

    One instance is owned by :class:`repro.engine.cache.RepairCaches` and
    shared by every batch worker; a module-level default serves direct
    :func:`expr_edit_distance` calls.  ``enabled=False`` turns every lookup
    into a miss (nothing is stored) while the counters keep counting, which
    is how the unpruned baseline of ``benchmarks/test_repair_throughput.py``
    measures how many DP runs the fast path avoids.

    Counters (monotonic, in ``stats``, a :class:`TedCounters`):

    * ``dp_runs`` — full Zhang–Shasha DP executions;
    * ``memo_hits`` — distances answered from the pair memo;
    * ``lb_prunes`` — DPs skipped because the lower bound reached the budget;
    * ``trivial_hits`` — equal-expression short-circuits.

    Both memo tables are size-bounded (``max_entries``): when a table
    reaches the bound it is flushed wholesale, trading a rare warm-up
    re-computation for zero per-entry eviction bookkeeping — a long-lived
    engine grading an unbounded submission stream cannot grow them forever
    (the pre-fast-path code bounded its memo with ``lru_cache`` the same
    order of magnitude).
    """

    def __init__(self, enabled: bool = True, max_entries: int = 1 << 16) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._annotations: dict[Expr, AnnotatedTree] = {}
        self._distances: dict[tuple[Expr, Expr], int] = {}
        self.stats = TedCounters()

    # -- annotations -----------------------------------------------------------

    def annotation(self, expr: Expr) -> AnnotatedTree:
        """Return the (memoized) Zhang–Shasha annotation of ``expr``."""
        if not self.enabled:
            return AnnotatedTree.from_expr(expr)
        ann = self._annotations.get(expr)
        if ann is None:
            ann = AnnotatedTree.from_expr(expr)
            if len(self._annotations) >= self.max_entries:
                self._annotations.clear()
            self._annotations[expr] = ann
        return ann

    def seed_annotation(self, expr: Expr, annotation: AnnotatedTree) -> None:
        """Pre-populate the annotation memo (e.g. from a cluster pool index).

        The caller guarantees ``annotation`` equals
        ``AnnotatedTree.from_expr(expr)``; pool indexes derive it via
        :meth:`AnnotatedTree.rename_vars` without re-walking the tree.
        """
        if self.enabled:
            if len(self._annotations) >= self.max_entries:
                self._annotations.clear()
            self._annotations.setdefault(expr, annotation)

    # -- distances -------------------------------------------------------------

    def distance(self, expr1: Expr, expr2: Expr, *, budget: float | None = None) -> int:
        """Edit distance between two expressions, memoized and budget-pruned.

        When ``budget`` is given and the lower bound already reaches it, the
        bound is returned without running the DP — a valid lower bound on
        the true distance, sufficient for the caller to discard the pairing.
        Results strictly below the budget are always exact.
        """
        if expr1 is expr2 or expr1 == expr2:
            self.stats.add("trivial_hits")
            return 0
        a = intern_expr(expr1)
        b = intern_expr(expr2)
        if self.enabled:
            cached = self._distances.get((a, b))
            if cached is not None:
                self.stats.add("memo_hits")
                return cached
        ann_a = self.annotation(a)
        ann_b = self.annotation(b)
        if budget is not None:
            bound = ted_lower_bound(ann_a, ann_b)
            if bound >= budget:
                self.stats.add("lb_prunes")
                return bound
        self.stats.add("dp_runs")
        result = _annotated_distance(ann_a, ann_b, 1, 1, 1)
        if self.enabled:
            if len(self._distances) >= self.max_entries:
                self._distances.clear()
            # Unit costs make the distance symmetric: store both orders.
            self._distances[(a, b)] = result
            self._distances[(b, a)] = result
        return result

    # -- maintenance -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Snapshot of the counters, for reports and benchmarks."""
        return self.stats.as_dict()

    def entry_counts(self) -> dict[str, int]:
        return {
            "ted_annotations": len(self._annotations),
            "ted_distances": len(self._distances),
        }

    def clear(self) -> None:
        """Drop memoized entries (counters are preserved)."""
        self._annotations.clear()
        self._distances.clear()


#: Default cache behind plain ``expr_edit_distance(a, b)`` calls (replaces
#: the former module ``lru_cache``); the engine threads its own instance.
_DEFAULT_CACHE = TedCache()


def tree_edit_distance(
    tree1: TreeNode,
    tree2: TreeNode,
    *,
    insert_cost: int = 1,
    delete_cost: int = 1,
    relabel_cost: int = 1,
) -> int:
    """Return the edit distance between two ordered labelled trees."""
    return _annotated_distance(
        AnnotatedTree.from_tree(tree1),
        AnnotatedTree.from_tree(tree2),
        insert_cost,
        delete_cost,
        relabel_cost,
    )


def _annotated_distance(
    a: AnnotatedTree,
    b: AnnotatedTree,
    insert_cost: int,
    delete_cost: int,
    relabel_cost: int,
) -> int:
    size_a, size_b = len(a), len(b)
    distance = [[0] * size_b for _ in range(size_a)]

    def update_cost(i: int, j: int) -> int:
        return 0 if a.labels[i] == b.labels[j] else relabel_cost

    for keyroot_a in a.keyroots:
        for keyroot_b in b.keyroots:
            _forest_distance(
                a,
                b,
                keyroot_a,
                keyroot_b,
                distance,
                insert_cost,
                delete_cost,
                update_cost,
            )
    return distance[size_a - 1][size_b - 1]


def _forest_distance(
    a: AnnotatedTree,
    b: AnnotatedTree,
    keyroot_a: int,
    keyroot_b: int,
    distance: list[list[int]],
    insert_cost: int,
    delete_cost: int,
    update_cost,
) -> None:
    la, lb = a.lmld, b.lmld
    off_a = la[keyroot_a]
    off_b = lb[keyroot_b]
    rows = keyroot_a - off_a + 2
    cols = keyroot_b - off_b + 2
    forest = [[0] * cols for _ in range(rows)]

    for i in range(1, rows):
        forest[i][0] = forest[i - 1][0] + delete_cost
    for j in range(1, cols):
        forest[0][j] = forest[0][j - 1] + insert_cost

    for i in range(1, rows):
        for j in range(1, cols):
            node_a = off_a + i - 1
            node_b = off_b + j - 1
            if la[node_a] == off_a and lb[node_b] == off_b:
                forest[i][j] = min(
                    forest[i - 1][j] + delete_cost,
                    forest[i][j - 1] + insert_cost,
                    forest[i - 1][j - 1] + update_cost(node_a, node_b),
                )
                distance[node_a][node_b] = forest[i][j]
            else:
                left_a = la[node_a] - off_a
                left_b = lb[node_b] - off_b
                forest[i][j] = min(
                    forest[i - 1][j] + delete_cost,
                    forest[i][j - 1] + insert_cost,
                    forest[left_a][left_b] + distance[node_a][node_b],
                )


def expr_edit_distance(
    expr1: Expr,
    expr2: Expr,
    *,
    cache: TedCache | None = None,
    budget: float | None = None,
) -> int:
    """Tree edit distance between the ASTs of two model expressions.

    Args:
        expr1: The "old" expression.
        expr2: The "new" expression.
        cache: Memo table and counters to route the computation through;
            defaults to a shared module-level cache.
        budget: Optional branch-and-bound budget.  When the cheap lower
            bound already reaches it the DP is skipped and the bound (a
            value ≥ ``budget`` but possibly below the true distance) is
            returned; results below the budget are always exact.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    return cache.distance(expr1, expr2, budget=budget)
