"""Expression trees for the Clara program model.

The paper (Def. 3.1) builds expressions from variables, constants and
operations.  We mirror that with three immutable node types:

* :class:`Var` -- a reference to a program variable.
* :class:`Const` -- a literal value (int, float, bool, str, ``None`` or an
  empty list/tuple).
* :class:`Op` -- an operation applied to argument expressions.  Operation
  names are plain strings; the interpreter (:mod:`repro.interpreter`) gives
  them meaning.  Unknown operations evaluate to the undefined value, which
  lets us model student code that calls functions that do not exist.

Expressions are hashable and comparable structurally, which the clustering
and repair algorithms rely on (expression pools are de-duplicated by
structural equality).

Hashes and structural keys are computed once per node and cached (the
matching and repair loops hash the same expressions millions of times), and
:func:`intern_expr` hash-conses expressions into canonical objects so that
identical sub-expressions share one node — and therefore one cached hash,
one structural key and one memoized tree annotation (see
:class:`repro.ted.zhang_shasha.TedCache`).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Op",
    "intern_expr",
    "clear_intern_table",
    "intern_table_size",
    "VAR_COND",
    "VAR_RET",
    "VAR_RETFLAG",
    "VAR_OUT",
    "VAR_STDIN",
    "SPECIAL_VARS",
    "is_special_var",
    "is_iterator_var",
]

#: Special variable modelling the branch/loop condition (the paper's ``?``).
VAR_COND = "$cond"
#: Special variable modelling the return value (the paper's ``return``).
VAR_RET = "$ret"
#: Synthetic flag recording whether the function has returned (early returns).
VAR_RETFLAG = "$retflag"
#: Special variable accumulating printed output (used by the C problems).
VAR_OUT = "$out"
#: Special variable modelling the standard-input stream (list of values).
VAR_STDIN = "$stdin"

#: Variables that carry observable behaviour and must never be pruned.
SPECIAL_VARS = frozenset({VAR_COND, VAR_RET, VAR_OUT, VAR_STDIN})


def is_special_var(name: str) -> bool:
    """Return ``True`` for the model's reserved variables (``$``-prefixed)."""
    return name.startswith("$")


def is_iterator_var(name: str) -> bool:
    """Return ``True`` for synthetic for-loop iterator variables."""
    return name.startswith("$iter")


class Expr:
    """Base class of all expression nodes.

    Subclasses are immutable; all traversals below are allocation-free where
    possible because matching and repair evaluate and rewrite expressions in
    tight loops.
    """

    __slots__ = ()

    # -- structural helpers ------------------------------------------------

    def variables(self) -> set[str]:
        """Return the set of variable names occurring in the expression."""
        out: set[str] = set()
        self._collect_variables(out)
        return out

    def _collect_variables(self, out: set[str]) -> None:
        raise NotImplementedError

    def size(self) -> int:
        """Return the number of AST nodes (used by costs and metrics)."""
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        """Return the direct sub-expressions (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield the node and all descendants in pre-order."""
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def structural_key(self) -> tuple:
        """Return a hashable tuple identifying the expression structurally.

        Two expressions are ``==`` exactly when their structural keys are
        equal.  The key is computed once per node and cached, so repeated
        lookups (cache keys, interning) are O(1) after the first call.
        """
        key = self._skey
        if key is None:
            key = self._compute_key()
            self._skey = key
        return key

    def _compute_key(self) -> tuple:
        raise NotImplementedError

    # -- rewriting ----------------------------------------------------------

    def substitute_vars(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Return a copy where each variable ``v`` is replaced by ``mapping[v]``.

        Variables not present in ``mapping`` are left untouched.
        """
        raise NotImplementedError

    def rename_vars(self, mapping: Mapping[str, str]) -> "Expr":
        """Return a copy where variable names are renamed via ``mapping``."""
        return self.substitute_vars(
            {old: Var(new) for old, new in mapping.items()}
        )

    def replace_at(self, path: tuple[int, ...], replacement: "Expr") -> "Expr":
        """Return a copy with the node at ``path`` replaced.

        A path is a tuple of child indices from the root; the empty path is
        the node itself.  Used by the AutoGrader baseline's rewrite rules.
        """
        if not path:
            return replacement
        raise IndexError(f"path {path!r} does not exist in {self!r}")

    def node_at(self, path: tuple[int, ...]) -> "Expr":
        """Return the node at ``path`` (see :meth:`replace_at`)."""
        if not path:
            return self
        raise IndexError(f"path {path!r} does not exist in {self!r}")

    def paths(self) -> Iterator[tuple[tuple[int, ...], "Expr"]]:
        """Yield ``(path, node)`` pairs for every node in the tree."""
        yield (), self
        for index, child in enumerate(self.children()):
            for sub_path, node in child.paths():
                yield (index, *sub_path), node

    # -- misc ---------------------------------------------------------------

    def map(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild the tree bottom-up, applying ``fn`` to every node."""
        return fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self})"


class Var(Expr):
    """A reference to a program variable."""

    __slots__ = ("name", "_skey", "_hash")

    def __init__(self, name: str) -> None:
        self.name = name
        self._skey = None
        self._hash = None

    def _collect_variables(self, out: set[str]) -> None:
        out.add(self.name)

    def size(self) -> int:
        return 1

    def substitute_vars(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def map(self, fn: Callable[[Expr], Expr]) -> Expr:
        return fn(self)

    def _compute_key(self) -> tuple:
        return ("v", self.name)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(("Var", self.name))
            self._hash = value
        return value

    def __str__(self) -> str:
        return self.name


class Const(Expr):
    """A literal constant.

    ``value`` may be an ``int``, ``float``, ``bool``, ``str``, ``None`` or a
    (possibly empty) ``tuple``/``list`` of such values.  Lists are stored as
    given; the interpreter never mutates values in place.
    """

    __slots__ = ("value", "_skey", "_hash")

    def __init__(self, value: object) -> None:
        self.value = value
        self._skey = None
        self._hash = None

    def _collect_variables(self, out: set[str]) -> None:  # no variables
        return None

    def size(self) -> int:
        return 1

    def substitute_vars(self, mapping: Mapping[str, Expr]) -> Expr:
        return self

    def map(self, fn: Callable[[Expr], Expr]) -> Expr:
        return fn(self)

    def _key(self) -> tuple[str, object]:
        value = self.value
        if isinstance(value, list):
            value = ("__list__", tuple(value))
        return (type(value).__name__, value)

    def _compute_key(self) -> tuple:
        return ("c",) + self._key()

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Const) and other._key() == self._key()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(("Const", self._key()))
            self._hash = value
        return value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        if isinstance(self.value, list):
            return "[" + ", ".join(repr(v) for v in self.value) + "]"
        return repr(self.value)


class Op(Expr):
    """An operation applied to argument expressions."""

    __slots__ = ("name", "args", "_skey", "_hash")

    def __init__(self, name: str, *args: Expr) -> None:
        self.name = name
        self.args = tuple(args)
        self._skey = None
        self._hash = None

    def _collect_variables(self, out: set[str]) -> None:
        for arg in self.args:
            arg._collect_variables(out)

    def size(self) -> int:
        return 1 + sum(arg.size() for arg in self.args)

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def substitute_vars(self, mapping: Mapping[str, Expr]) -> Expr:
        new_args = tuple(arg.substitute_vars(mapping) for arg in self.args)
        if new_args == self.args:
            return self
        return Op(self.name, *new_args)

    def replace_at(self, path: tuple[int, ...], replacement: Expr) -> Expr:
        if not path:
            return replacement
        index, *rest = path
        if index >= len(self.args):
            raise IndexError(f"path {path!r} does not exist in {self!r}")
        new_args = list(self.args)
        new_args[index] = self.args[index].replace_at(tuple(rest), replacement)
        return Op(self.name, *new_args)

    def node_at(self, path: tuple[int, ...]) -> Expr:
        if not path:
            return self
        index, *rest = path
        if index >= len(self.args):
            raise IndexError(f"path {path!r} does not exist in {self!r}")
        return self.args[index].node_at(tuple(rest))

    def map(self, fn: Callable[[Expr], Expr]) -> Expr:
        new_args = tuple(arg.map(fn) for arg in self.args)
        node = self if new_args == self.args else Op(self.name, *new_args)
        return fn(node)

    def _compute_key(self) -> tuple:
        return ("o", self.name, tuple(arg.structural_key() for arg in self.args))

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Op)
            and other.name == self.name
            and other.args == self.args
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(("Op", self.name, self.args))
            self._hash = value
        return value

    def __str__(self) -> str:
        return render_expression(self)


# ---------------------------------------------------------------------------
# Interning (hash-consing)
# ---------------------------------------------------------------------------

#: Canonical expression per structural key.  Expressions are tiny immutable
#: trees drawn from a bounded vocabulary (student code for one assignment),
#: so the table stays small in practice; :data:`MAX_INTERN_ENTRIES` bounds
#: it anyway so a long-lived engine crossing many corpora cannot grow it
#: forever.  ``dict.setdefault`` keeps the table safe under concurrent
#: interning from service request threads (one winner per key).
_INTERN_TABLE: dict[tuple, Expr] = {}

#: Flush threshold for the intern table.  Flushing only costs identity
#: sharing on *future* interns (structural equality is unaffected), so a
#: rare bulk clear is preferable to per-entry eviction bookkeeping.
MAX_INTERN_ENTRIES = 1 << 16


def intern_expr(expr: Expr) -> Expr:
    """Return the canonical object for ``expr`` (hash-consing).

    Structurally equal expressions intern to the *same* object, and the
    canonical object's sub-expressions are themselves interned, so identical
    sub-trees share nodes (and their cached hashes, structural keys and tree
    annotations).  Interning an already-canonical expression is a single
    dict lookup on its cached structural key.
    """
    key = expr.structural_key()
    canonical = _INTERN_TABLE.get(key)
    if canonical is not None:
        return canonical
    if isinstance(expr, Op):
        args = tuple(intern_expr(arg) for arg in expr.args)
        if any(new is not old for new, old in zip(args, expr.args)):
            expr = Op(expr.name, *args)
    if len(_INTERN_TABLE) >= MAX_INTERN_ENTRIES:
        _INTERN_TABLE.clear()
    return _INTERN_TABLE.setdefault(key, expr)


def clear_intern_table() -> None:
    """Drop all interned expressions (canonical objects stay valid)."""
    _INTERN_TABLE.clear()


def intern_table_size() -> int:
    """Number of canonical expressions currently interned."""
    return len(_INTERN_TABLE)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_BINARY_SYMBOLS = {
    "Add": "+",
    "Sub": "-",
    "Mult": "*",
    "Div": "/",
    "FloorDiv": "//",
    "Mod": "%",
    "Pow": "**",
    "Eq": "==",
    "NotEq": "!=",
    "Lt": "<",
    "LtE": "<=",
    "Gt": ">",
    "GtE": ">=",
    "And": "and",
    "Or": "or",
    "In": "in",
    "NotIn": "not in",
}

_UNARY_SYMBOLS = {
    "USub": "-",
    "UAdd": "+",
    "Not": "not ",
}


def render_expression(expr: Expr) -> str:
    """Render an expression as readable, Python-like source text.

    The output is used in feedback messages shown to students, so it aims to
    look like the code they wrote rather than like an internal dump.
    """
    if isinstance(expr, (Var, Const)):
        return str(expr)
    if not isinstance(expr, Op):  # pragma: no cover - defensive
        return repr(expr)
    name = expr.name
    args = expr.args
    if name in _BINARY_SYMBOLS and len(args) == 2:
        left = _render_child(args[0])
        right = _render_child(args[1])
        return f"{left} {_BINARY_SYMBOLS[name]} {right}"
    if name in _UNARY_SYMBOLS and len(args) == 1:
        return f"{_UNARY_SYMBOLS[name]}{_render_child(args[0])}"
    if name == "ite" and len(args) == 3:
        return (
            f"({render_expression(args[1])} if {render_expression(args[0])}"
            f" else {render_expression(args[2])})"
        )
    if name == "GetElement" and len(args) == 2:
        return f"{_render_child(args[0])}[{render_expression(args[1])}]"
    if name == "ListInit":
        return "[" + ", ".join(render_expression(a) for a in args) + "]"
    if name == "TupleInit":
        rendered = ", ".join(render_expression(a) for a in args)
        if len(args) == 1:
            rendered += ","
        return "(" + rendered + ")"
    if name == "Slice" and len(args) == 3:
        return (
            f"{_render_child(args[0])}[{render_expression(args[1])}:"
            f"{render_expression(args[2])}]"
        )
    rendered_args = ", ".join(render_expression(a) for a in args)
    return f"{name}({rendered_args})"


def _render_child(expr: Expr) -> str:
    text = render_expression(expr)
    if isinstance(expr, Op) and (
        expr.name in _BINARY_SYMBOLS or expr.name in ("ite",)
    ):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Convenience constructors used across the code base
# ---------------------------------------------------------------------------

TRUE = Const(True)
FALSE = Const(False)


def conjunction(terms: Sequence[Expr]) -> Expr:
    """Build ``And`` of ``terms``, folding trivial cases."""
    significant = [t for t in terms if t != TRUE]
    if not significant:
        return TRUE
    result = significant[0]
    for term in significant[1:]:
        result = Op("And", result, term)
    return result


def negation(term: Expr) -> Expr:
    """Build ``Not(term)`` folding double negation and constants."""
    if isinstance(term, Const) and isinstance(term.value, bool):
        return Const(not term.value)
    if isinstance(term, Op) and term.name == "Not" and len(term.args) == 1:
        return term.args[0]
    return Op("Not", term)
