"""Cell combinatorics for the three polytope families.

Three kinds of basis cells appear throughout the package:

* ``SubsetCell`` -- a cell of the simplex with vertex set {1..n}, written
  ``{1,3}@4``; the nonempty subsets of {1..n} are the cells of the
  (n-1)-simplex.  A cell is stored as its n-bit mask (bit e-1 set iff
  e is in the subset), so products, composition, faces and boundary are
  bit operations; ``parse_subset_cell`` is the one place a literal is
  validated.  The exhaustive checks and the products go one step further
  and encode a cell as one int, its *key* ``mask | 1 << arity``: the
  arity is ``key.bit_length() - 1`` and the mask is ``key ^ 1 << arity``,
  so equality and hashing are int operations.  ``SubsetCell.key`` and
  ``cell_of_key`` convert; ``subset_keys(n)`` enumerates the keys of
  arity n.
* ``PlanarTree`` -- a planar rooted tree whose internal vertices all have
  at least two children, written ``(|,(|,|))``; trees with n+1 leaves are
  the cells of the Stasheff polytope attached to arity n.  There is one
  instance per tree, so tree equality is identity.
* ``CubeCell`` -- a word over {0,1,*}, written ``0*1``; words of length
  n-1 are the cells of the (n-1)-cube.

The string forms above are the interchange grammar used by the CLI and the
parsers in this module.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache

from .series import super_catalan_numbers


# =====================================================================
# simplex cells
# =====================================================================


# stores the fields of an _Immutable cell, whose own __setattr__ refuses
_set_field = object.__setattr__


class _Immutable:
    """Base of the slotted cells: their constructors set the fields
    through ``_set_field``, and nothing can set or delete one after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class SubsetCell(_Immutable):
    """Nonempty subset X of {1..arity}, a cell of the (arity-1)-simplex,
    stored as the mask with bit e-1 set iff e is in X.  Only the types and
    the range are checked here; ``parse_subset_cell`` validates literals.
    Immutable: equal cells (same arity and mask) hash equal."""

    __slots__ = ("arity", "mask")

    def __init__(self, arity: int, mask: int) -> None:
        # a bool is an int subclass, but {1}@True is no literal
        if arity.__class__ is not int:
            raise TypeError(f"arity must be an int, not {arity.__class__.__name__}")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if mask.__class__ is not int:
            raise TypeError("mask must be an int bitmask; parse literals with parse_subset_cell")
        if mask <= 0 or mask.bit_length() > arity:
            raise ValueError(f"mask must select a nonempty subset of 1..{arity}")
        _set_field(self, "arity", arity)
        _set_field(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is not SubsetCell:
            return NotImplemented
        return self.mask == other.mask and self.arity == other.arity

    def __hash__(self) -> int:
        return hash((self.arity, self.mask))

    def __repr__(self) -> str:
        return f"SubsetCell(arity={self.arity}, mask={self.mask})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return (SubsetCell, (self.arity, self.mask))

    @property
    def elements(self) -> tuple[int, ...]:
        # scan the binary digits for 1s from the lowest bit up: C-speed
        # scans and one step per element, also for a sparse mask of huge arity
        digits, out = bin(self.mask), []
        p = digits.rfind("1")
        while p >= 0:
            out.append(len(digits) - p)
            p = digits.rfind("1", 0, p)
        return tuple(out)

    @property
    def degree(self) -> int:
        return self.mask.bit_count() - 1

    @property
    def key(self) -> int:
        """The one-int encoding ``mask | 1 << arity``; see ``cell_of_key``."""
        return self.mask | 1 << self.arity

    def literal(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}@" + str(self.arity)

    def __str__(self) -> str:
        return self.literal()


def parse_subset_cell(text: str, max_arity: int | None = None) -> SubsetCell:
    """Parse ``{1,3}@4`` (grammar: '{' int (',' int)* '}' '@' int), the one
    place a literal is validated.  The mask takes one bit per vertex, so
    an arity above ``max_arity`` (if given) is refused before it is built.
    """
    s = text.strip()
    body, sep, arity_part = s[1:].partition("}@")
    try:
        if not (s.startswith("{") and sep):
            raise ValueError
        elems = [int(p) for p in body.split(",")] if body else []
        arity = int(arity_part)
    except ValueError:
        raise ValueError(f"bad cell literal {text!r} (grammar: {{i,j,...}}@n)") from None
    why = None
    if arity < 1:
        why = "arity must be >= 1"
    elif max_arity is not None and arity > max_arity:
        why = f"arity {arity} is above the cap {max_arity}"
    elif not elems:
        why = "cell must be a nonempty subset"
    elif any(a >= b for a, b in zip(elems, elems[1:])):
        why = "elements must be strictly increasing"
    elif elems[0] < 1 or elems[-1] > arity:
        why = f"elements must lie in 1..{arity}"
    if why:
        raise ValueError(f"bad cell literal {text!r}: {why} (grammar: {{i,j,...}}@n)")
    return SubsetCell(arity, sum(1 << (e - 1) for e in elems))


def cell_of_key(key: int) -> SubsetCell:
    """The cell whose key is ``key``: the top bit marks the arity, the
    bits below it are the mask."""
    arity = key.bit_length() - 1
    return SubsetCell(arity, key ^ 1 << arity)


def key_literal(key: int) -> str:
    """The literal of the cell with key ``key``, such as ``{1,3}@3``."""
    return cell_of_key(key).literal()


def subset_keys(n: int) -> range:
    """The keys of the 2^n - 1 cells of arity n, in ascending mask order:
    the order of ``enumerate_subset_cells(n)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return range((1 << n) + 1, 1 << (n + 1))


def enumerate_subset_cells(n: int) -> list[SubsetCell]:
    """All 2^n - 1 cells of the (n-1)-simplex, in ``subset_keys(n)`` order."""
    return list(map(cell_of_key, subset_keys(n)))


# =====================================================================
# planar trees
# =====================================================================


class PlanarTree:
    """Planar rooted tree; every internal vertex has >= 2 children.

    The one-leaf tree is ``LEAF`` (children == ()); every other tree is
    made by ``graft_each``.  One instance per tree: equality is identity.
    """

    __slots__ = ("children", "leaves", "vertices")

    def __new__(cls, children: tuple["PlanarTree", ...] = ()) -> "PlanarTree":
        children = tuple(children)
        known = _TREES.get(children)
        if known is not None:
            return known
        if len(children) == 1:
            raise ValueError("internal vertices need >= 2 children")
        return graft_each(children[:-1], children[-1:], ())[0]

    def __reduce__(self):
        # the default copy would get LEAF from __new__() and overwrite it
        return (PlanarTree, (self.children,))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def degree(self) -> int:
        """Cell degree in the Stasheff polytope: binary trees are vertices."""
        return self.leaves - 1 - self.vertices

    def literal(self) -> str:
        return _render(self, {})

    def __str__(self) -> str:
        return self.literal()

    def __repr__(self) -> str:
        return f"PlanarTree[{self.literal()}]"


_TREES: dict[tuple, PlanarTree] = {}  # children tuple -> the one tree with them
_new_tree = object.__new__
LEAF = _TREES[()] = _new_tree(PlanarTree)
LEAF.children, LEAF.leaves, LEAF.vertices = (), 1, 0


def tree_literals(trees: "list[PlanarTree] | tuple[PlanarTree, ...]") -> list[str]:
    """The literals of a batch of trees.  Each distinct proper subtree is
    rendered once, into a memo that lives for this call only and is filled
    by a first pass, before any literal is kept: the memo's strings then
    share little memory with the literals, which lowers a large batch's peak."""
    memo: dict = {}
    for t in trees:
        _render(t, memo)
    return [_render(t, memo) for t in trees]


def _render(t: PlanarTree, memo: dict) -> str:
    parts = []
    for c in t.children:
        s = memo.get(c)
        if s is None:
            s = memo[c] = _render(c, memo)
        parts.append(s)
    return "(" + ",".join(parts) + ")" if parts else "|"


def graft(parts: "list[PlanarTree] | tuple[PlanarTree, ...]") -> PlanarTree:
    """Join >= 2 trees under a new root."""
    parts = tuple(parts)
    if len(parts) < 2:
        raise ValueError("graft needs at least two trees")
    return PlanarTree(parts)


def graft_each(head: tuple, trees, tail: tuple) -> tuple:
    """``graft(head + (t,) + tail)`` for each t in ``trees``: one table
    lookup per tree.  Every tree but ``LEAF`` is made here, from the leaf
    and vertex totals of ``head + tail``."""
    if not head and not tail:
        raise ValueError("graft needs at least two trees")
    leaves, vertices = 0, 1
    for c in head + tail:
        leaves += c.leaves
        vertices += c.vertices
    get, out = _TREES.get, []
    for t in trees:
        tree = get(k := head + (t,) + tail)
        if tree is None:
            tree = _new_tree(PlanarTree)
            tree.children = k
            tree.leaves = leaves + t.leaves
            tree.vertices = vertices + t.vertices
            tree = _TREES.setdefault(k, tree)  # so racing makers share one tree
        out.append(tree)
    return tuple(out)


def decompose(t: PlanarTree) -> tuple[PlanarTree, ...]:
    """Children of the root; inverse of graft.  The leaf does not decompose."""
    if t.is_leaf:
        raise ValueError("the one-leaf tree has no root decomposition")
    return t.children


# The deepest nesting parse_tree accepts.  The parser, ``literal``, the
# leaf functions and the products recurse once per level (a product of x
# and y up to depth(x) + depth(y) levels, about four frames each), and
# they reach Python's default recursion limit near 250 levels; a tree that
# a capped command produces has at most 11 leaves, so depth <= 10.
TREE_DEPTH_CAP = 50


def parse_tree(text: str) -> PlanarTree:
    """Parse the grammar  tree := '|' | '(' tree (',' tree)+ ')', nested
    at most TREE_DEPTH_CAP deep."""
    s = text.strip()
    try:
        tree, pos = _parse_tree_at(s, 0, 0)
        if pos != len(s):
            raise ValueError(f"trailing input at position {pos}")
    except ValueError as exc:
        raise ValueError(
            f"bad tree literal {text!r}: {exc} (grammar: '|' or '(t,t,...)')"
        ) from None
    return tree


def _parse_tree_at(s: str, pos: int, depth: int) -> tuple[PlanarTree, int]:
    if pos >= len(s):
        raise ValueError("unexpected end")
    if s[pos] == "|":
        return LEAF, pos + 1
    if s[pos] != "(":
        raise ValueError(f"unexpected {s[pos]!r} at position {pos}")
    if depth == TREE_DEPTH_CAP:
        raise ValueError(f"nested past TREE_DEPTH_CAP = {TREE_DEPTH_CAP} at position {pos}")
    pos += 1
    children = []
    while True:
        child, pos = _parse_tree_at(s, pos, depth + 1)
        children.append(child)
        if pos >= len(s):
            raise ValueError("unterminated '('")
        if s[pos] == ",":
            pos += 1
            continue
        if s[pos] == ")":
            pos += 1
            break
        raise ValueError(f"expected ',' or ')' at position {pos}")
    if len(children) < 2:
        raise ValueError("internal vertices need >= 2 children")
    return PlanarTree(tuple(children)), pos


@lru_cache(maxsize=None)
def _trees_with_leaves(leaf_count: int) -> tuple[PlanarTree, ...]:
    if leaf_count == 1:
        return (LEAF,)
    out = []
    for k in range(2, leaf_count + 1):
        for comp in compositions(leaf_count, k):
            # product runs its last factor fastest, as graft_each runs its trees
            last = _trees_with_leaves(comp[-1])
            for head in itertools.product(*map(_trees_with_leaves, comp[:-1])):
                out.extend(graft_each(head, last, ()))
    return tuple(out)


def enumerate_planar_trees(leaf_count: int) -> list[PlanarTree]:
    """All planar trees with the given number of leaves.

    Order is recursive-lexicographic: by root arity, then by the leaf
    composition of the children (lexicographic), then recursively.
    Counts are the super-Catalan numbers 1, 1, 3, 11, 45, 197, ...
    """
    if leaf_count < 1:
        raise ValueError("leaf_count must be >= 1")
    return list(_trees_with_leaves(leaf_count))


def compositions(total: int, parts: int):
    """Yield all ordered tuples of ``parts`` positive ints summing to total
    (for ``parts < 1``, only the empty composition of 0), read off their
    parts - 1 cut points in 1..total-1, whose lex order is theirs."""
    if parts < 1 or total < parts:
        if parts == total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in itertools.pairwise((0, *cuts, total)))


# =====================================================================
# leaf bookkeeping on trees
# =====================================================================


class LeafOrientation(Enum):
    LEFT = "left"
    RIGHT = "right"
    MIDDLE = "middle"


def leaf_faces(t: PlanarTree, memo: dict | None = None) -> tuple:
    """For every leaf i = 1..t.leaves, in order, the pair
    (``remove_leaf(t, i)``, ``leaf_orientation(t, i)``).

    The one definition of leaf deletion, in one pass: the table of each
    child is computed once and each of its faces grafted back in the
    child's place.  ``memo`` (tree -> its table) keeps the tables, so
    trees that share subtrees, such as all coefficients of one complex,
    build each subtree's table once; its owner decides how long it lives.
    """
    memo = {} if memo is None else memo
    out = memo.get(t)
    if out is not None:
        return out
    if not t.children:
        raise ValueError("the one-leaf tree has no leaf faces")
    out = []
    kids = t.children
    last = len(kids) - 1
    for idx, child in enumerate(kids):
        head, tail = kids[:idx], kids[idx + 1 :]
        if child.is_leaf:
            # a vertex left with a single child is contracted away
            rest = head + tail
            orientation = (
                LeafOrientation.LEFT
                if idx == 0
                else LeafOrientation.RIGHT
                if idx == last
                else LeafOrientation.MIDDLE
            )
            out.append((rest[0] if len(rest) == 1 else PlanarTree(rest), orientation))
        else:
            subs, orientations = zip(*leaf_faces(child, memo))
            out.extend(zip(graft_each(head, subs, tail), orientations))
    out = memo[t] = tuple(out)
    return out


def _check_leaf(t: PlanarTree, i: int, why: str) -> None:
    if t.is_leaf:
        raise ValueError(why)
    if not 1 <= i <= t.leaves:
        raise ValueError(f"leaf index {i} out of range 1..{t.leaves}")


def leaf_orientation(t: PlanarTree, i: int) -> LeafOrientation:
    """Orientation of leaf i (1-based, left to right).

    A leaf is LEFT if it is the first child of its parent, RIGHT if the
    last, MIDDLE otherwise.  Read off ``leaf_faces``, whose table covers
    every leaf: to visit many leaves of one tree, read that table once.
    """
    _check_leaf(t, i, "the one-leaf tree has no oriented leaves")
    return leaf_faces(t)[i - 1][1]


def remove_leaf(t: PlanarTree, i: int) -> PlanarTree:
    """Delete leaf i; a vertex left with a single child is contracted
    away.  Read off ``leaf_faces``, like ``leaf_orientation``."""
    _check_leaf(t, i, "cannot remove the only leaf")
    return leaf_faces(t)[i - 1][0]


# =====================================================================
# cube cells
# =====================================================================


class CubeCell(_Immutable):
    """Word over {0,1,*}; words of length n-1 are the cells of an (n-1)-cube.
    Immutable: equal words are equal cells and hash equal."""

    __slots__ = ("word",)

    def __init__(self, word: str) -> None:
        if any(ch not in "01*" for ch in word):
            raise ValueError(f"cube word may only contain 0, 1, * (got {word!r})")
        _set_field(self, "word", word)

    def __eq__(self, other):
        if other.__class__ is not CubeCell:
            return NotImplemented
        return self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"CubeCell(word={self.word!r})"

    def __reduce__(self):
        return (CubeCell, (self.word,))

    @property
    def arity(self) -> int:
        return len(self.word) + 1

    @property
    def degree(self) -> int:
        return self.word.count("*")

    def literal(self) -> str:
        return self.word

    def __str__(self) -> str:
        return self.word


def parse_cube_cell(text: str) -> CubeCell:
    """Parse a raw word over {0,1,*}; the empty word is the arity-1 cell."""
    return CubeCell(text.strip())


def enumerate_cube_cells(n: int) -> list[CubeCell]:
    """All 3^(n-1) cells of the (n-1)-cube, words in product order over 0,1,*."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [CubeCell("".join(w)) for w in itertools.product("01*", repeat=n - 1)]


def cell_count(family: str, arity: int) -> int:
    """The number of cells of a family at this arity, from the closed
    forms: 2^n - 1 subset cells, the super-Catalan number s_n of planar
    trees with n + 1 leaves, 3^(n-1) cube cells."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if family == "subset":
        return 2**arity - 1
    if family == "tree":
        return super_catalan_numbers(arity)[-1]
    if family == "cube":
        return 3 ** (arity - 1)
    raise ValueError(f"unknown cell family {family!r}; accepted: subset, tree, cube")
