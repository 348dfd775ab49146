"""Tests for the Zhang–Shasha tree edit distance substrate."""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.model.expr import Const, Op, Var
from repro.ted import (
    AnnotatedTree,
    TedCache,
    TreeNode,
    expr_edit_distance,
    expr_to_tree,
    ted_lower_bound,
    tree_edit_distance,
    tree_size,
)


def _t(label: str, *children: TreeNode) -> TreeNode:
    node = TreeNode(label)
    for child in children:
        node.add(child)
    return node


def test_identical_trees_distance_zero():
    tree = _t("a", _t("b"), _t("c", _t("d")))
    assert tree_edit_distance(tree, tree) == 0


def test_single_relabel():
    assert tree_edit_distance(_t("a", _t("b")), _t("a", _t("x"))) == 1


def test_insert_and_delete():
    small = _t("a", _t("b"))
    large = _t("a", _t("b"), _t("c"))
    assert tree_edit_distance(small, large) == 1
    assert tree_edit_distance(large, small) == 1


def test_classic_zhang_shasha_example():
    # The well-known f(d(a, c(b)), e) vs f(c(d(a, b)), e) example: distance 2.
    t1 = _t("f", _t("d", _t("a"), _t("c", _t("b"))), _t("e"))
    t2 = _t("f", _t("c", _t("d", _t("a"), _t("b"))), _t("e"))
    assert tree_edit_distance(t1, t2) == 2


def test_completely_different_trees():
    t1 = _t("a")
    t2 = _t("x", _t("y"), _t("z"))
    assert tree_edit_distance(t1, t2) == 3


def test_expr_edit_distance_on_paper_repair():
    # Fig. 2(g): change 0.0 to [0.0] in the return expression.
    old = Op("ite", Op("Eq", Var("new"), Const([])), Const(0.0), Var("new"))
    new = Op("ite", Op("Eq", Var("new"), Const([])), Const([0.0]), Var("new"))
    assert expr_edit_distance(old, new) == 1
    assert expr_edit_distance(old, old) == 0


def test_expr_to_tree_labels():
    tree = expr_to_tree(Op("Add", Var("x"), Const(1)))
    assert tree.label == "op:Add"
    assert [child.label for child in tree.children] == ["var:x", "const:1"]
    assert tree_size(tree) == 3


# -- properties ---------------------------------------------------------------------


def _tree_strategy():
    return st.recursive(
        st.sampled_from("abcde").map(TreeNode),
        lambda children: st.tuples(
            st.sampled_from("abcde"), st.lists(children, min_size=1, max_size=3)
        ).map(lambda t: TreeNode(t[0], list(t[1]))),
        max_leaves=6,
    )


@given(_tree_strategy(), _tree_strategy())
def test_distance_symmetric_with_unit_costs(t1, t2):
    assert tree_edit_distance(t1, t2) == tree_edit_distance(t2, t1)


@given(_tree_strategy(), _tree_strategy())
def test_distance_bounds(t1, t2):
    distance = tree_edit_distance(t1, t2)
    assert 0 <= distance <= tree_size(t1) + tree_size(t2)
    assert distance >= abs(tree_size(t1) - tree_size(t2))


@given(_tree_strategy())
def test_distance_identity(tree):
    assert tree_edit_distance(tree, tree) == 0


# -- the fast path: annotations, memoization, lower bound, budgets --------------------


def _random_expr(rng, depth: int = 3):
    """Small random expression over a fixed vocabulary (deterministic per rng)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice("abcxyz"))
        return Const(rng.choice([0, 1, 2, 2.5, True, None, "s", []]))
    name = rng.choice(["Add", "Sub", "Mult", "Eq", "f", "g"])
    return Op(
        name, *(_random_expr(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    )


def _fresh_distance(expr1, expr2) -> int:
    """The from-scratch Zhang–Shasha DP, bypassing every cache."""
    return tree_edit_distance(expr_to_tree(expr1), expr_to_tree(expr2))


def test_memoized_distance_equals_fresh_dp_on_random_corpus():
    """Property (seeded, deterministic): the memoized/pruned fast path agrees
    with the from-scratch DP on every random expression pair."""
    rng = random.Random(20180618)
    cache = TedCache()
    pairs = [(_random_expr(rng), _random_expr(rng)) for _ in range(120)]
    for expr1, expr2 in pairs:
        expected = _fresh_distance(expr1, expr2)
        assert expr_edit_distance(expr1, expr2, cache=cache) == expected
        # Second lookup must hit the memo and still agree (both orders).
        assert expr_edit_distance(expr1, expr2, cache=cache) == expected
        assert expr_edit_distance(expr2, expr1, cache=cache) == expected
    assert cache.stats.memo_hits > 0
    assert cache.stats.dp_runs <= len(pairs)


def test_budgeted_distance_is_exact_below_budget_and_bounding_above():
    """With a budget, results below it are exact and results at/above it are
    valid lower bounds (never above the true distance's admissible range)."""
    rng = random.Random(77)
    for _ in range(150):
        expr1, expr2 = _random_expr(rng), _random_expr(rng)
        true_distance = _fresh_distance(expr1, expr2)
        budget = rng.randint(0, 8) + 0.5
        result = expr_edit_distance(expr1, expr2, cache=TedCache(), budget=budget)
        if result < budget:
            assert result == true_distance
        else:
            assert true_distance >= budget
            assert result <= true_distance  # a lower bound, usable as such


def test_lower_bound_never_exceeds_distance():
    rng = random.Random(5)
    for _ in range(100):
        expr1, expr2 = _random_expr(rng), _random_expr(rng)
        a = AnnotatedTree.from_expr(expr1)
        b = AnnotatedTree.from_expr(expr2)
        assert ted_lower_bound(a, b) <= _fresh_distance(expr1, expr2)


def test_annotation_rename_matches_rebuilt_annotation():
    """Deriving a renamed expression's annotation by label substitution must
    equal rebuilding it from the renamed expression (shape is rename-invariant)."""
    rng = random.Random(13)
    mapping = {"a": "p", "b": "q", "x": "a", "y": "zz"}
    for _ in range(80):
        expr = _random_expr(rng)
        base = AnnotatedTree.from_expr(expr)
        derived = base.rename_vars(mapping)
        rebuilt = AnnotatedTree.from_expr(expr.rename_vars(mapping))
        assert derived == rebuilt
        # The shape arrays are shared, not copied.
        assert derived.lmld is base.lmld
        assert derived.keyroots is base.keyroots


def test_disabled_cache_counts_every_dp():
    cache = TedCache(enabled=False)
    a = Op("Add", Var("x"), Const(1))
    b = Op("Add", Var("x"), Const(2))
    assert expr_edit_distance(a, b, cache=cache) == 1
    assert expr_edit_distance(a, b, cache=cache) == 1
    assert cache.stats.dp_runs == 2
    assert cache.stats.memo_hits == 0
    assert cache.entry_counts() == {"ted_annotations": 0, "ted_distances": 0}


def test_seeded_annotation_is_used():
    cache = TedCache()
    expr = Op("Add", Var("x"), Const(1))
    seeded = AnnotatedTree.from_expr(expr)
    cache.seed_annotation(expr, seeded)
    assert cache.annotation(expr) is seeded


def test_cache_tables_are_bounded():
    """The memo tables flush at max_entries instead of growing forever."""
    rng = random.Random(9)
    cache = TedCache(max_entries=4)
    for _ in range(60):
        expr_edit_distance(_random_expr(rng), _random_expr(rng), cache=cache)
    counts = cache.entry_counts()
    assert counts["ted_annotations"] <= 4
    assert counts["ted_distances"] <= 5  # both orders land after a flush check
