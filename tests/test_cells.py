"""Basis cells: simplex subsets, planar trees, cube words."""

import copy
import operator
import pickle

import pytest

from trioperad.cells import (
    _TREES,
    LEAF,
    TREE_DEPTH_CAP,
    CubeCell,
    LeafOrientation,
    PlanarTree,
    SubsetCell,
    cell_count,
    compositions,
    decompose,
    enumerate_cube_cells,
    enumerate_planar_trees,
    enumerate_subset_cells,
    graft,
    graft_each,
    leaf_faces,
    leaf_orientation,
    parse_cube_cell,
    parse_subset_cell,
    parse_tree,
    remove_leaf,
)
from trioperad.dendriform import _mid, _prec, _star, _succ

# frozen counts
SUBSET_COUNTS = {n: 2**n - 1 for n in range(1, 11)}
TREE_COUNTS = {1: 1, 2: 1, 3: 3, 4: 11, 5: 45, 6: 197, 7: 903, 8: 4279}
CUBE_COUNTS = {n: 3 ** (n - 1) for n in range(1, 8)}


# ---------------------------------------------------------------- subsets


def test_subset_cell_fields():
    c = SubsetCell(4, 0b101)
    assert c.arity == 4
    assert c.mask == 0b101
    assert c.elements == (1, 3)
    assert c.degree == 1
    assert c.literal() == "{1,3}@4"
    assert parse_subset_cell("{1,3}@4") == c


def test_subset_cell_validation():
    with pytest.raises(ValueError):
        SubsetCell(2, 0)
    with pytest.raises(ValueError):
        SubsetCell(2, 0b100)
    with pytest.raises(ValueError):
        SubsetCell(0, 1)
    with pytest.raises(TypeError, match="mask.*parse_subset_cell"):
        SubsetCell(3, (1, 2))


@pytest.mark.parametrize(
    "rebuild",
    [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_subset_cell_copies_are_equal_cells(rebuild):
    for n in range(1, 5):
        for c in enumerate_subset_cells(n):
            r = rebuild(c)
            assert type(r) is SubsetCell
            assert (r.arity, r.mask) == (c.arity, c.mask)
            assert r == c and hash(r) == hash(c)


def test_subset_cell_is_immutable():
    c = SubsetCell(4, 5)
    with pytest.raises(AttributeError):
        c.mask = 1
    with pytest.raises(AttributeError):
        c.arity = 5
    with pytest.raises(AttributeError):
        del c.mask
    with pytest.raises(AttributeError):
        c.extra = 0
    assert (c.arity, c.mask) == (4, 5)


def test_subset_cell_equality_hash_and_repr():
    c = SubsetCell(4, 5)
    assert c == SubsetCell(4, 5)
    assert hash(c) == hash(SubsetCell(4, 5))
    assert len({c, SubsetCell(4, 5), parse_subset_cell("{1,3}@4")}) == 1
    assert c != (4, 5)
    assert c != SubsetCell(5, 5)
    assert c != SubsetCell(4, 6)
    assert repr(c) == "SubsetCell(arity=4, mask=5)"


def test_subset_parse_roundtrip():
    for text in ("{1}@1", "{2}@3", "{1,2,5}@5"):
        assert parse_subset_cell(text).literal() == text


def test_subset_parse_errors_cite_grammar():
    for bad in (
        "{1}",
        "1@2",
        "{}@2",
        "{1;2}@2",
        "{2,1}@3",
        "{1,1}@3",
        "{1}@0",
        "{-1}@2",
        "{3}@2",
    ):
        with pytest.raises(ValueError, match="grammar"):
            parse_subset_cell(bad)


@pytest.mark.parametrize(
    "text, reason",
    [
        # checked in this order: arity, nonempty, increasing, range
        ("{5,1}@0", "arity must be >= 1"),
        ("{1}@9", "arity 9 is above the cap 8"),
        ("{}@2", "cell must be a nonempty subset"),
        ("{3,2}@2", "elements must be strictly increasing"),
        ("{2,1}@3", "elements must be strictly increasing"),
        ("{0,3}@2", "elements must lie in 1..2"),
    ],
)
def test_subset_parse_error_messages(text, reason):
    with pytest.raises(ValueError) as info:
        parse_subset_cell(text, max_arity=8)
    assert str(info.value) == f"bad cell literal {text!r}: {reason} (grammar: {{i,j,...}}@n)"


def test_enumerate_subset_cells_pinned_order():
    assert [c.literal() for c in enumerate_subset_cells(2)] == [
        "{1}@2",
        "{2}@2",
        "{1,2}@2",
    ]


def test_enumerate_subset_cells_counts():
    for n, want in SUBSET_COUNTS.items():
        assert len(enumerate_subset_cells(n)) == want
        assert cell_count("subset", n) == want


def test_subset_degree_counts_are_binomial():
    from math import comb

    for n in range(1, 8):
        by_degree = {}
        for c in enumerate_subset_cells(n):
            by_degree[c.degree] = by_degree.get(c.degree, 0) + 1
        assert by_degree == {d: comb(n, d + 1) for d in range(n)}


# ------------------------------------------------------------------ trees


def test_leaf_and_graft():
    assert LEAF.is_leaf
    assert LEAF.leaves == 1
    a = graft((LEAF, LEAF))
    assert a.leaves == 2
    assert a.vertices == 1
    assert a.literal() == "(|,|)"
    assert decompose(a) == (LEAF, LEAF)


def test_graft_rejects_single_child():
    with pytest.raises(ValueError):
        graft((LEAF,))


def test_graft_each_is_graft_per_tree():
    trees = [t for n in range(1, 5) for t in enumerate_planar_trees(n)]
    # a tree built here first, so the batch interns it: 37-leaf corollas
    # appear nowhere else
    fresh = PlanarTree((LEAF,) * 37)
    assert (fresh, LEAF) not in _TREES
    a = parse_tree("(|,|)")
    for head, tail in (((LEAF,), ()), ((), (a,)), ((a, LEAF), (LEAF,)), ((fresh,), ())):
        got = graft_each(head, trees, tail)
        assert type(got) is tuple and len(got) == len(trees)
        for t, g in zip(trees, got):
            assert g is graft(head + (t,) + tail)
    assert _TREES[(fresh, LEAF)].leaves == 38
    assert _TREES[(fresh, LEAF)].vertices == 2
    assert graft_each((LEAF,), (), ()) == ()
    with pytest.raises(ValueError, match="at least two trees"):
        graft_each((), trees, ())


def _recount(t: PlanarTree, memo: dict) -> tuple:
    """t's (leaves, vertices), recounted from its children; asserts that
    every field of t and its subtrees matches and each is the tree the
    constructor returns for its children."""
    got = memo.get(t)
    if got is None:
        counts = [_recount(c, memo) for c in t.children]
        leaves = sum(n for n, _ in counts) if counts else 1
        vertices = sum(v for _, v in counts) + 1 if counts else 0
        assert (t.leaves, t.vertices, t.degree) == (leaves, vertices, leaves - 1 - vertices)
        assert t is PlanarTree(t.children)
        got = memo[t] = leaves, vertices
    return got


def test_product_trees_have_recounted_fields():
    trees = [t for n in range(1, 6) for t in enumerate_planar_trees(n)]
    memo: dict = {}
    for x in trees:
        for y in trees:
            ops = (_star,) if LEAF in (x, y) else (_prec, _succ, _mid, _star)
            for op in ops:
                for t in op(x, y):
                    _recount(t, memo)
    assert len(memo) == 26233
    # a head no other test builds, so every tree of the batch is new
    fresh = PlanarTree((LEAF,) * 41)
    a = parse_tree("(|,|)")
    assert not any((fresh, t, a) in _TREES for t in trees)
    for t, g in zip(trees, graft_each((fresh,), trees, (a,))):
        _recount(g, memo)
        assert (g.leaves, g.vertices) == (t.leaves + 43, t.vertices + 3)


def test_tree_parse_roundtrip():
    for text in ("|", "(|,|)", "(|,|,|)", "((|,|),|,(|,(|,|)))"):
        assert parse_tree(text).literal() == text


def test_tree_parse_errors():
    for bad in ("", "(", "(|)", "(|,|", "(|,|))", "x", "(|,|)x", "(|;|)", _nested(51)):
        with pytest.raises(ValueError) as info:
            parse_tree(bad)
        message = str(info.value)
        assert message.startswith(f"bad tree literal {bad!r}: ")
        assert message.endswith("(grammar: '|' or '(t,t,...)')")


def _nested(depth: int) -> str:
    # the right comb: each level nests one more tree in the last slot
    return "(|," * depth + "|" + ")" * depth


def test_tree_parse_depth_cap():
    deep = parse_tree(_nested(TREE_DEPTH_CAP))
    assert deep.leaves == TREE_DEPTH_CAP + 1
    assert deep.literal() == _nested(TREE_DEPTH_CAP)
    assert remove_leaf(deep, deep.leaves).leaves == TREE_DEPTH_CAP
    assert leaf_orientation(deep, deep.leaves) is LeafOrientation.RIGHT
    for bad in (_nested(TREE_DEPTH_CAP + 1), _nested(1200)):
        with pytest.raises(ValueError, match=r"TREE_DEPTH_CAP = \d+ .*grammar"):
            parse_tree(bad)
    # a deep tree inside a wide one counts its depth from the root
    with pytest.raises(ValueError, match="TREE_DEPTH_CAP"):
        parse_tree("(|," + _nested(TREE_DEPTH_CAP) + ")")


def test_tree_degree():
    # degree = leaves - 1 - internal vertices
    assert parse_tree("(|,|)").degree == 0
    assert parse_tree("(|,|,|)").degree == 1
    assert parse_tree("(|,(|,|))").degree == 0
    assert parse_tree("(|,|,|,|)").degree == 2


def test_enumerate_planar_trees_counts():
    for leaves, want in TREE_COUNTS.items():
        assert len(enumerate_planar_trees(leaves)) == want
        if leaves > 1:
            # trees with n + 1 leaves are the cells of arity n
            assert cell_count("tree", leaves - 1) == want


def test_leaf_orientation_pinned():
    t = parse_tree("(|,(|,|))")
    assert leaf_orientation(t, 1) is LeafOrientation.LEFT
    assert leaf_orientation(t, 2) is LeafOrientation.LEFT
    assert leaf_orientation(t, 3) is LeafOrientation.RIGHT
    c = parse_tree("(|,|,|)")
    assert leaf_orientation(c, 2) is LeafOrientation.MIDDLE


def test_remove_leaf_pinned():
    t = parse_tree("(|,(|,|))")
    assert remove_leaf(t, 1) == parse_tree("(|,|)")  # unary node contracts
    assert remove_leaf(parse_tree("(|,|,|)"), 2) == parse_tree("(|,|)")


def test_remove_leaf_errors():
    with pytest.raises(ValueError):
        remove_leaf(LEAF, 1)
    with pytest.raises(ValueError):
        remove_leaf(parse_tree("(|,|)"), 3)


def _slow_leaf_face(t, i):
    """Reference for leaf i of t: walk down to it by the children's leaf
    counts, delete it there (a vertex left with one child is contracted)
    and read its orientation off its place among its siblings."""
    acc = 0
    for idx, child in enumerate(t.children):
        if i <= acc + child.leaves:
            head, tail = t.children[:idx], t.children[idx + 1 :]
            if child.is_leaf:
                rest = head + tail
                if idx == 0:
                    side = LeafOrientation.LEFT
                elif not tail:
                    side = LeafOrientation.RIGHT
                else:
                    side = LeafOrientation.MIDDLE
                return (rest[0] if len(rest) == 1 else graft(rest)), side
            sub, side = _slow_leaf_face(child, i - acc)
            return graft(head + (sub,) + tail), side
        acc += child.leaves
    raise AssertionError(f"no leaf {i} in {t}")


def test_leaf_faces_match_the_slow_reference():
    memo = {}
    for n in range(2, 9):
        for t in enumerate_planar_trees(n):
            want = tuple(_slow_leaf_face(t, i) for i in range(1, n + 1))
            # a memo shared by all trees, and none
            assert leaf_faces(t, memo) == want
            assert leaf_faces(t) == want
            for i, (low, side) in enumerate(want, start=1):
                assert remove_leaf(t, i) is low
                assert leaf_orientation(t, i) is side


def test_leaf_faces_of_the_one_leaf_tree_raise():
    with pytest.raises(ValueError, match="one-leaf tree"):
        leaf_faces(LEAF)
    with pytest.raises(ValueError, match="one-leaf tree"):
        leaf_orientation(LEAF, 1)
    with pytest.raises(ValueError, match="out of range"):
        leaf_orientation(parse_tree("(|,|)"), 0)


# ----------------------------------------------------------- hash-consing


@pytest.mark.parametrize(
    "rebuild",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_the_tree_itself(rebuild):
    for n in range(1, 6):
        for t in enumerate_planar_trees(n):
            assert rebuild(t) is t
    assert LEAF.children == ()
    assert LEAF.leaves == 1


def test_single_child_is_refused_before_interning():
    size = len(_TREES)
    with pytest.raises(ValueError, match=">= 2 children"):
        PlanarTree((LEAF,))
    assert len(_TREES) == size
    assert (LEAF,) not in _TREES


def test_remove_leaf_returns_the_enumerated_trees():
    for n in range(2, 7):
        lower = {u.literal(): u for u in enumerate_planar_trees(n - 1)}
        for t in enumerate_planar_trees(n):
            for i in range(1, n + 1):
                r = remove_leaf(t, i)
                assert r is lower[r.literal()]


# ------------------------------------------------------------------ cubes


def test_cube_cell_fields():
    c = parse_cube_cell("0*1")
    assert c.arity == 4
    assert c.degree == 1
    assert c.literal() == "0*1"
    assert parse_cube_cell("").arity == 1


def test_cube_cell_validation():
    with pytest.raises(ValueError):
        CubeCell("02")


def test_cube_cell_equality_hash_repr_and_immutability():
    c = CubeCell("0*1")
    assert c == parse_cube_cell("0*1") and hash(c) == hash(CubeCell("0*1"))
    assert c != CubeCell("0*0") and c != "0*1"
    assert {c: 1}[CubeCell(word="0*1")] == 1
    assert len(set(enumerate_cube_cells(3) + enumerate_cube_cells(3))) == 9
    assert repr(c) == "CubeCell(word='0*1')"
    with pytest.raises(AttributeError):
        c.word = "000"
    with pytest.raises(AttributeError):
        del c.word
    with pytest.raises(AttributeError):
        c.extra = 0
    assert c.word == "0*1"
    for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        r = rebuild(c)
        assert type(r) is CubeCell and r == c and hash(r) == hash(c)


def test_enumerate_cube_cells():
    assert [c.literal() for c in enumerate_cube_cells(2)] == ["0", "1", "*"]
    for n, want in CUBE_COUNTS.items():
        assert len(enumerate_cube_cells(n)) == want
        assert cell_count("cube", n) == want


@pytest.mark.parametrize("family", ["subset", "tree", "cube"])
def test_cell_count_rejects_arity_below_one(family):
    for arity in (0, -1):
        with pytest.raises(ValueError, match="arity must be >= 1"):
            cell_count(family, arity)


@pytest.mark.parametrize("family", ["simplex", "octahedron", "Cube", ""])
def test_cell_count_rejects_unknown_family(family):
    # no name falls through to the cube count
    with pytest.raises(ValueError, match="accepted: subset, tree, cube$"):
        cell_count(family, 3)


# ------------------------------------------------------------ round trips


@pytest.mark.parametrize(
    "enumerate_cells, parse, top, same",
    [
        # leaves; a tree is hash-consed, so parsing returns the object itself
        (enumerate_planar_trees, parse_tree, 7, operator.is_),
        (enumerate_subset_cells, parse_subset_cell, 8, operator.eq),
        (enumerate_cube_cells, parse_cube_cell, 6, operator.eq),
    ],
    ids=["tree", "subset", "cube"],
)
def test_parse_inverts_literal(enumerate_cells, parse, top, same):
    # exhaustive: every tree with <= 7 leaves, every subset cell of arity
    # <= 8, every cube word of arity <= 6
    for n in range(1, top + 1):
        for x in enumerate_cells(n):
            assert same(parse(x.literal()), x)


# ----------------------------------------------------------- compositions


def test_compositions():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(2, 3)) == []
