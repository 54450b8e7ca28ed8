"""Leveled metric trees, insertion/collapse, and dual trees of chord
families."""

import contextlib
import copy
import io
import itertools
import json
import pickle
import sys
import tempfile
from collections import deque
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from levelring import cli, jsonio, trees
from levelring.trees import (
    ChordFamily,
    STree,
    boundary_points,
    canonical_form,
    collapse,
    distance,
    dual_tree,
    infinite_points,
    insert,
    isomorphic,
    path,
    tree_is_locally_finite,
    verify_metric,
)
from levelring.values import _ECHO, INF, ZERO, LevelValue, pair, total

from helpers import random_chords, random_flat_tree, random_insertion, random_tree


# --- oracles (kept independent of the implementation) -----------------------

def all_simple_paths(tree, x, y):
    """Every node-simple x-y walk, by exhaustive DFS."""
    found = []

    def walk(cur, seen, steps):
        if cur == y:
            found.append(list(steps))
            return
        for nxt, length in tree.neighbors(cur).items():
            if nxt not in seen:
                walk(nxt, seen | {nxt}, steps + [(cur, nxt, length)])

    walk(x, {x}, [])
    return found


def oracle_path(tree, x, y):
    """The path as a breadth-first walk from x finds it: walk until y is
    reached, then follow the recorded parents back."""
    parent = {x: None}
    queue = deque([x])
    while y not in parent:
        cur = queue.popleft()
        for nxt, length in tree.neighbors(cur).items():
            if nxt not in parent:
                parent[nxt] = (cur, length)
                queue.append(nxt)
    steps = []
    while y != x:
        prev, length = parent[y]
        steps.append((prev, y, length))
        y = prev
    return steps[::-1]


def oracle_walk(tree, root, within=None):
    """The breadth-first walk the tree code used before it hung trees:
    (node, parent, length) for every other node reached from root, in
    order of hops, staying inside `within` when given."""
    seen = {root}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt, length in tree.neighbors(cur).items():
            if nxt not in seen and (within is None or nxt in within):
                seen.add(nxt)
                queue.append(nxt)
                yield nxt, cur, length


def oracle_connected(tree, group):
    """The old collapse rule: a walk from the smallest node, kept inside
    the set, reaches every other node of it."""
    chosen = set(group)
    return sum(1 for _ in oracle_walk(tree, min(chosen), chosen)) == len(chosen) - 1


def oracle_canonical_form(tree):
    """The old canonical form: a far end u of a walk from the first node,
    a far end of a walk from u, the path between them as the spine, and
    at each center the flat rooted encoding a walk from it builds."""

    def far_end(root):
        last = deque(oracle_walk(tree, root), maxlen=1)
        return last[0][0] if last else root

    def rooted_form(root):
        depth = {root: 0}
        children = {n: [] for n in tree.nodes}
        for node, prev, length in oracle_walk(tree, root):
            depth[node] = depth[prev] + 1
            children[prev].append((length.level, length.magnitude, node))
        rank, form = {}, []
        for _, level in itertools.groupby(reversed(depth), key=depth.__getitem__):
            signature = {
                n: tuple(sorted((lv, mag, rank[c]) for lv, mag, c in children[n])) for n in level
            }
            distinct = {s: i for i, s in enumerate(sorted(set(signature.values())))}
            rank.update((n, distinct[s]) for n, s in signature.items())
            form.append(tuple(sorted(signature.values())))
        return tuple(form)

    u = far_end(tree.nodes[0])
    spine = [u] + [b for _, b, _ in oracle_path(tree, u, far_end(u))]
    centers = {spine[(len(spine) - 1) // 2], spine[len(spine) // 2]}
    return min(rooted_form(c) for c in centers)


def oracle_verify_metric(tree):
    """The all-triples audit of the path distances: symmetry and
    definiteness on every pair, the triangle inequality on every triple."""
    table = {(x, y): distance(tree, x, y) for x in tree.nodes for y in tree.nodes}
    d = lambda x, y: table[(x, y)]
    for x, y in itertools.product(tree.nodes, repeat=2):
        if d(x, y) != d(y, x) or (d(x, y) == ZERO) != (x == y):
            return False
    for x, y, z in itertools.product(tree.nodes, repeat=3):
        if not (d(y, z) <= d(y, x) + d(x, z)):
            return False
    return True


def separating_distance(family, regions, r1, r2):
    """Sum of the weights of the chords separating two regions.

    A region lies inside chord (c, d) when its own chord is nested in
    (c, d) — the region just inside a chord counts as inside it; the outer
    region is inside nothing.
    """

    def inside(region, lo, hi):
        tag = regions[region]
        if tag[0] == "outer":
            return False
        a, b = tag[1]
        return lo <= a and b <= hi

    return total(
        w for lo, hi, w in family.chords if inside(r1, lo, hi) != inside(r2, lo, hi)
    )


def encode_over_all_roots(tree):
    """Reference canonical form for the differential test: recursive rooted
    encodings keyed by edge length, minimised over every choice of root."""

    def enc(node, parent):
        return tuple(
            sorted(
                ((length.level, length.magnitude), enc(nxt, node))
                for nxt, length in tree.neighbors(node).items()
                if nxt != parent
            )
        )

    return min(enc(root, None) for root in tree.nodes)


def chord_parent(rows, idx):
    """Reference for dual_tree: index of the smallest chord strictly
    enclosing rows[idx], found by scanning every chord."""
    a, b, _ = rows[idx]
    best = None
    for k, (c, d, _) in enumerate(rows):
        if k == idx:
            continue
        if c <= a and b <= d:
            if best is None or (rows[best][1] - rows[best][0]) > (d - c):
                best = k
    return best


# --- fixtures ----------------------------------------------------------------

ABC = STree(["a", "b", "c"], [("a", "b", pair(0, 1)), ("b", "c", pair(1, 2))])
STAR = STree(
    ["c", "p", "q"],
    [("c", "p", pair(0, 1)), ("c", "q", pair(0, 2))],
)


# --- construction guards ------------------------------------------------------

def test_tree_validation():
    def fault(nodes, edges=()):
        with pytest.raises(ValueError) as caught:
            STree(nodes, edges)
        return str(caught.value)

    assert fault([]) == "a tree needs at least one node"
    assert fault(["a", "a"]) == "node ids must be unique"
    assert fault(["a", "b"], []) == "2 nodes need exactly 1 edges for a tree, got 0"
    assert fault(["a", "b"], [("a", "a", pair(0, 1)), ("a", "b", pair(0, 1))]) == "self-loop at 'a'"
    assert fault(["a", "b"], [("a", "x", pair(0, 1))]) == "edge ('a','x') mentions unknown nodes"
    assert fault(["a", "b"], [("a", "b", ZERO)]) == "edge ('a','b') needs a nonzero length"
    # right count, but a doubled edge leaves c-d unreachable
    assert fault(
        ["a", "b", "c", "d"],
        [("a", "b", pair(0, 1)), ("a", "b", pair(0, 2)), ("c", "d", pair(0, 1))],
    ) == "tree is not connected"
    # two faults: each edge is checked in the order given, unknown nodes then
    # a self-loop then its length, and the edge count only after every edge
    assert fault(["a", "b"], [("x", "x", ZERO)]) == "edge ('x','x') mentions unknown nodes"
    assert fault(
        ["a", "b"], [("a", "b", pair(0, 1)), ("b", "a", pair(0, 1)), ("b", "a", ZERO)]
    ) == "edge ('b','a') needs a nonzero length"


def oracle_stree(nodes, edges=()):
    """The eager build the one-pass constructor replaced, kept as its
    oracle: edges are normalised into a list, checked, counted, sorted, and
    only then written into the adjacency; the tree is hung breadth-first
    from its first node.  Returns an STree whose sorted edges are stored."""
    node_list = tuple(map(str, nodes))
    if not node_list:
        raise ValueError("a tree needs at least one node")
    adjacency = {n: {} for n in node_list}
    if len(adjacency) != len(node_list):
        raise ValueError("node ids must be unique")
    edge_list = []
    for a, b, length in edges:
        a, b = str(a), str(b)
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge ({_ECHO.repr(a)},{_ECHO.repr(b)}) mentions unknown nodes")
        if a == b:
            raise ValueError(f"self-loop at {_ECHO.repr(a)}")
        if not isinstance(length, LevelValue) or length.is_zero:
            raise ValueError(f"edge ({_ECHO.repr(a)},{_ECHO.repr(b)}) needs a nonzero length")
        edge_list.append((a, b, length) if a < b else (b, a, length))
    if len(edge_list) != len(node_list) - 1:
        raise ValueError(
            f"{len(node_list)} nodes need exactly {len(node_list) - 1} edges "
            f"for a tree, got {len(edge_list)}"
        )
    edge_list.sort(key=itemgetter(0, 1))
    for a, b, length in edge_list:
        adjacency[a][b] = adjacency[b][a] = length
    up, level, hops = {node_list[0]: (None, 0)}, [node_list[0]], 0
    while level:
        hops += 1
        below = []
        for cur in level:
            for nxt in adjacency[cur]:
                if nxt not in up:
                    up[nxt] = (cur, hops)
                    below.append(nxt)
        level = below
    if len(up) != len(node_list):
        raise ValueError("tree is not connected")
    tree = object.__new__(STree)
    tree.__dict__.update(nodes=node_list, edges=tuple(edge_list), _adjacency=adjacency, _up=up)
    return tree


def drawn_edge_list(rng: Random):
    """Nodes and edges of a random attachment tree, the edges shuffled and
    each given in either orientation, with up to two faults drawn from every
    kind the build names; a faulty edge may be unknown, a loop and of a bad
    length at once.  Node ids are strs, or ints that edges give as ints or
    as their strs."""
    n = rng.randint(1, 14)
    ints = rng.random() < 0.3
    nodes = list(range(n)) if ints else [f"n{i}" for i in range(n)]
    rng.shuffle(nodes)

    def spelled(i):
        return rng.choice((i, str(i))) if ints else f"n{i}"

    def length():
        return pair(rng.randint(0, 2), rng.choice((INF, Fraction(rng.randint(1, 9), rng.randint(1, 4)))))

    edges = [(spelled(rng.randrange(i)), spelled(i), length()) for i in range(1, n)]
    edges = [(b, a, l) if rng.random() < 0.5 else (a, b, l) for a, b, l in edges]
    rng.shuffle(edges)
    faults = ["edge", "few", "many", "rewire", "double", "dup_node"]
    for fault in rng.sample(faults, rng.choice((0, 1, 1, 2, 2))):
        k = rng.choice((-1, rng.randrange(len(edges)))) if edges else None  # often the last edge
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if fault == "edge" and edges:
            a, b, l = edges[k]
            while (a, b, l) == edges[k]:
                if rng.random() < 0.5:
                    b = a  # a self-loop
                if rng.random() < 0.5:
                    a = rng.choice(("zz", n + 5))  # an unknown node, in both ends of a loop
                    b = a if b == edges[k][0] else b
                if rng.random() < 0.5:
                    l = rng.choice((ZERO, Fraction(1), 1, None, "1"))
            edges[k] = (a, b, l)
        elif fault == "few" and edges:
            del edges[k]
        elif fault == "many" and n > 1:
            # one or two more edges, before the last, so that a fault in the
            # last edge follows a surplus
            for _ in range(rng.randint(1, 2)):
                edges.insert(rng.randint(0, max(len(edges) - 1, 0)), (spelled(u), spelled(v), length()))
        elif fault == "rewire" and n > 1 and edges:
            edges[k] = (spelled(u), spelled(v), length())  # a tree, a cycle or a doubled edge
        elif fault == "double" and len(edges) > 1:
            a, b, _ = edges[(k + 1) % len(edges)]
            edges[k] = (a, b, length()) if rng.random() < 0.5 else (b, a, length())
        elif fault == "dup_node":
            twin = rng.choice(nodes)
            nodes.insert(rng.randint(0, len(nodes)), str(twin) if ints and rng.random() < 0.5 else twin)
    return nodes, edges


def built_or_fault(build, nodes, edges):
    try:
        return build(nodes, edges)
    except ValueError as exc:
        return exc.args


def assert_same_tree(tree, oracle):
    assert tree.nodes == oracle.nodes
    assert {n: dict(tree.neighbors(n)) for n in tree.nodes} == oracle._adjacency
    assert tree._up == oracle._up
    assert tree.edges == oracle.edges
    assert tree == oracle and hash(tree) == hash(oracle) and repr(tree) == repr(oracle)
    assert tree._replace() == oracle and jsonio.tree_to_json(tree) == jsonio.tree_to_json(oracle)


def copies(tree) -> list:
    clones = [pickle.loads(pickle.dumps(tree, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return clones + [copy.copy(tree), copy.deepcopy(tree)]


@given(st.integers(min_value=0, max_value=2**32))
def test_build_oracle_on_drawn_edge_lists(seed):
    nodes, edges = drawn_edge_list(Random(seed))
    tree, oracle = built_or_fault(STree, nodes, edges), built_or_fault(oracle_stree, nodes, edges)
    if not isinstance(oracle, STree):
        assert tree == oracle
        return
    unread = copies(tree)
    assert "edges" not in vars(tree) and not any("edges" in vars(c) for c in unread)
    assert_same_tree(tree, oracle)  # the first read of edges
    for clone in unread + copies(tree):
        assert_same_tree(clone, oracle)


def test_single_node_tree():
    t = STree(["only"])
    assert t.edges == ()
    assert verify_metric(t)
    assert boundary_points(t) == set()
    assert infinite_points(t) == set()
    assert tree_is_locally_finite(t)


# --- paths and distance -------------------------------------------------------

def test_path_examples():
    assert path(ABC, "a", "a") == []
    assert path(ABC, "a", "c") == [
        ("a", "b", pair(0, 1)),
        ("b", "c", pair(1, 2)),
    ]
    assert [(u, v) for u, v, _ in path(STAR, "p", "q")] == [("p", "c"), ("c", "q")]
    with pytest.raises(KeyError):
        path(ABC, "a", "nope")


def test_distance_examples():
    assert distance(ABC, "a", "c") == pair(1, 2)  # higher level absorbs
    assert distance(ABC, "a", "a") == ZERO
    same = STree(["a", "b", "c"], [("a", "b", pair(1, 2)), ("b", "c", pair(1, 3))])
    assert distance(same, "a", "c") == pair(1, 5)
    assert distance(ABC, "c", "a") == distance(ABC, "a", "c")


def test_path_is_unique_on_small_trees():
    rng = Random(11)
    for _ in range(40):
        t = random_tree(rng, max_nodes=6)
        for x, y in itertools.combinations(t.nodes, 2):
            simple = all_simple_paths(t, x, y)
            assert len(simple) == 1
            assert simple[0] == path(t, x, y)


def deepest(tree, root):
    """A node the most hops from root: the last one a breadth-first walk
    reaches."""
    order, seen = [root], {root}
    for cur in order:
        for nxt in tree.neighbors(cur):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order[-1]


def rehung(rng, tree):
    """The same tree with its node list shuffled and every edge reversed, so
    the build hangs it from an arbitrary node; half the time that node is a
    leaf the most hops from the old first node."""
    nodes = list(tree.nodes)
    rng.shuffle(nodes)
    if rng.random() < 0.5:
        leaf = deepest(tree, tree.nodes[0])
        nodes.remove(leaf)
        nodes.insert(0, leaf)
    edges = [(b, a, length) for a, b, length in tree.edges]
    rng.shuffle(edges)
    return STree(nodes, edges)


def attachment_tree(rng, n):
    """Random attachment tree on exactly n nodes."""
    names = [f"n{i}" for i in range(n)]
    return STree(
        names,
        [(names[rng.randrange(i)], names[i], pair(rng.randint(0, 2), rng.randint(1, 9)))
         for i in range(1, n)],
    )


def connected_group(rng, tree):
    """A random connected node set, grown from a random node."""
    group = [rng.choice(tree.nodes)]
    for _ in range(rng.randrange(len(tree.nodes))):
        frontier = [n for g in group for n in tree.neighbors(g) if n not in group]
        if not frontier:
            break
        group.append(rng.choice(frontier))
    return group


def assert_paths_agree(tree, pairs):
    for x, y in pairs:
        assert path(tree, x, y) == oracle_path(tree, x, y), (tree, x, y)


def test_path_agrees_with_the_breadth_first_oracle():
    rng = Random(67)
    sizes = set()
    for _ in range(120):
        t = random_tree(rng, max_nodes=30)
        for tree in (t, rehung(rng, t)):
            assert_paths_agree(tree, itertools.product(tree.nodes, repeat=2))
        sizes.add(len(t.nodes))
    assert len(sizes) > 25


def test_path_agrees_with_the_oracle_on_large_trees():
    rng = Random(71)
    names = [f"v{i:04d}" for i in range(2000)]
    chain = STree(names, [(names[i], names[i + 1], pair(i % 3, 1)) for i in range(1999)])
    star = STree(names[:1000], [(names[0], names[i], pair(0, i)) for i in range(1, 1000)])
    big = attachment_tree(rng, 1000)
    for tree in (chain, star, big, rehung(rng, chain), rehung(rng, star), rehung(rng, big)):
        ends = [tree.nodes[0], deepest(tree, tree.nodes[0]), deepest(tree, tree.nodes[-1])]
        pairs = [rng.sample(tree.nodes, 2) for _ in range(150)]
        pairs += itertools.product(ends, repeat=2)
        assert_paths_agree(tree, pairs)
    assert len(path(chain, names[0], names[-1])) == 1999


def test_path_agrees_with_the_oracle_on_derived_trees():
    rng = Random(73)
    for _ in range(60):
        t = random_tree(rng, max_nodes=12)
        grown = insert(t, *random_insertion(rng, t))
        shrunk = collapse(grown, connected_group(rng, grown))
        dual, _ = dual_tree(random_chords(rng, max_chords=12))
        for tree in (grown, shrunk, dual):
            assert_paths_agree(tree, itertools.product(tree.nodes, repeat=2))


@given(
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=20),
)
def test_path_oracle_on_drawn_trees(seed, picks):
    rng = Random(seed)
    tree = rehung(rng, random_tree(rng, max_nodes=40))
    n = len(tree.nodes)
    assert_paths_agree(tree, [(tree.nodes[i % n], tree.nodes[j % n]) for i, j in picks])


def test_metric_battery():
    rng = Random(23)
    for _ in range(100):
        assert verify_metric(random_tree(rng))


_SUM = LevelValue.__add__


def _first_term(a, b):
    """Not commutative: a nonzero sum keeps its first term."""
    return b if a.is_zero else a


def _smaller_term(a, b):
    """Not monotone: terms of one level sum to the smaller of the two."""
    if a.is_zero or b.is_zero or a.level != b.level:
        return _SUM(a, b)
    return min(a, b)


@pytest.mark.parametrize(
    "add", [_SUM, _first_term, _smaller_term], ids=["leveled", "first_term", "smaller_term"]
)
def test_metric_audit_agrees_with_the_oracle(monkeypatch, add):
    monkeypatch.setattr(LevelValue, "__add__", add)
    rng = Random(29)
    verdicts, sizes = set(), set()
    for _ in range(300):
        t = random_tree(rng, max_nodes=12)
        verdict = verify_metric(t)
        assert verdict == oracle_verify_metric(t), t
        verdicts.add(verdict)
        sizes.add(len(t.nodes))
    assert sizes == set(range(1, 13))
    assert verdicts == ({True} if add is _SUM else {True, False})


@pytest.mark.parametrize("add", [_first_term, _smaller_term])
def test_metric_audit_fails_under_a_broken_sum(monkeypatch, add):
    # a-b-c with lengths 2 then 1 at one level: under _first_term the
    # distances are asymmetric; under _smaller_term they are symmetric and
    # definite, and only the monotone step check (or a triangle) sees it
    line = STree(["a", "b", "c"], [("a", "b", pair(0, 2)), ("b", "c", pair(0, 1))])
    assert verify_metric(line) and oracle_verify_metric(line)
    monkeypatch.setattr(LevelValue, "__add__", add)
    assert not verify_metric(line)
    assert not oracle_verify_metric(line)


class _NoProducts:
    """Stands in for `itertools` in `trees`: refuses every pair or triple
    loop, so the audit must do its work inside the walks."""

    def __getattr__(self, name):
        return getattr(itertools, name)

    @staticmethod
    def product(*iterables, repeat=1):
        raise AssertionError("a product loop ran")


def test_tree_metric_visits_no_triple(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(trees, "itertools", _NoProducts())
    rng = Random(31)
    nodes = [f"n{i}" for i in range(200)]
    edges = [
        {"a": nodes[rng.randrange(i)], "b": nodes[i],
         "len": {"level": rng.randint(0, 2), "real": rng.choice(["1", "3/2", "inf"])}}
        for i in range(1, 200)
    ]
    doc = tmp_path / "tree.json"
    doc.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    assert cli.main(["tree", "metric", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"metric": True}


def built_trees(monkeypatch) -> list:
    """Every STree built from now on, in order of construction."""
    built, init = [], STree.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(STree, "__init__", recording)
    return built


def test_only_written_trees_sort_their_edges(monkeypatch, tmp_path, capsys):
    rng = Random(83)
    tree = random_tree(rng, max_nodes=60)
    while len(tree.nodes) < 10:
        tree = random_tree(rng, max_nodes=60)
    doc = jsonio.tree_to_json(tree)
    v, insertion, attach = random_insertion(rng, tree)
    inputs = {
        "metric": doc,
        "dist": {"tree": doc, "pairs": [rng.sample(tree.nodes, 2) for _ in range(5)]},
        "collapse": {"tree": doc, "group": [tree.nodes[0], next(iter(tree.neighbors(tree.nodes[0])))]},
        "insert": {
            "tree": doc, "at": v, "insertion": jsonio.tree_to_json(insertion), "attach": attach,
        },
    }
    for sub, body in inputs.items():
        (tmp_path / f"{sub}.json").write_text(json.dumps(body))
    built = built_trees(monkeypatch)
    for sub in inputs:
        built.clear()
        assert cli.main(["tree", sub, str(tmp_path / f"{sub}.json")]) == 0, capsys.readouterr()
        assert json.loads(capsys.readouterr().out)["result"]
        # dist and metric sort no edges; collapse and insert sort only the tree they write
        written = built[-1] if sub in ("collapse", "insert") else None
        assert built and ["edges" in vars(t) for t in built] == [t is written for t in built], sub
    flat = random_flat_tree(rng, max_nodes=20)
    tree_is_locally_finite(flat)
    assert "edges" not in vars(flat)


def test_tree_dist_takes_no_walk(monkeypatch, tmp_path, capsys):
    rng = Random(79)
    nodes = [f"n{i}" for i in range(1200)]
    edges = [
        {"a": nodes[rng.randrange(i)], "b": nodes[i],
         "len": {"level": rng.randint(0, 2), "real": rng.choice(["1", "3/2", "inf"])}}
        for i in range(1, 1200)
    ]
    rng.shuffle(nodes)
    doc = tmp_path / "dist.json"
    doc.write_text(json.dumps(
        {"tree": {"nodes": nodes, "edges": edges}, "pairs": [rng.sample(nodes, 2) for _ in range(3)]}
    ))
    assert cli.main(["tree", "dist", str(doc)]) == 0
    walked = capsys.readouterr()
    roots, hang = [], trees._hang

    def build_only(adjacency, root):
        # the build hangs the tree once; any later hanging is a walk
        if roots:
            raise AssertionError(f"a walk ran from {root}")
        roots.append(root)
        return hang(adjacency, root)

    monkeypatch.setattr(trees, "_hang", build_only)
    assert cli.main(["tree", "dist", str(doc)]) == 0
    assert capsys.readouterr() == walked
    assert roots == [nodes[0]]


# --- boundary and infinite points ---------------------------------------------

def test_infinite_points_examples():
    span = STree(["a", "b"], [("a", "b", pair(0, INF))])
    assert infinite_points(span) == {"a", "b"}
    assert boundary_points(span) == {"a", "b"}
    assert tree_is_locally_finite(span)

    flat = STree(["a", "b", "c"], [("a", "b", pair(0, 1)), ("b", "c", pair(0, 1))])
    assert infinite_points(flat) == set()
    assert not tree_is_locally_finite(flat)  # finite-length leaf edges

    with pytest.raises(ValueError):
        infinite_points(ABC)  # has a level-1 edge


def test_interior_infinite_point():
    # every approach to b is infinite, so b qualifies despite degree 2
    t = STree(
        ["a", "b", "c"],
        [("a", "b", pair(0, INF)), ("b", "c", pair(0, INF))],
    )
    assert infinite_points(t) == {"a", "b", "c"}
    assert not tree_is_locally_finite(t)


def test_mixed_leaf_is_not_infinite():
    t = STree(
        ["c", "p", "q"],
        [("c", "p", pair(0, INF)), ("c", "q", pair(0, 3))],
    )
    assert infinite_points(t) == {"p"}
    assert boundary_points(t) == {"p", "q"}
    assert not tree_is_locally_finite(t)


# --- insertion and collapse ----------------------------------------------------

def test_insert_point_tree_at_leaf():
    grown = insert(ABC, "c", STree(["p"]), {"p": "b"})
    assert isomorphic(grown, ABC)
    assert "c" not in grown.nodes and "p" in grown.nodes


def test_insert_edge_at_interior_node():
    rod = STree(["p", "q"], [("p", "q", pair(0, 5))])
    grown = insert(ABC, "b", rod, {"p": "a", "q": "c"})
    assert len(grown.nodes) == 3 - 1 + 2
    assert len(grown.edges) == 2 + 2 - 1
    # the old a-c path now runs through the rod
    assert distance(grown, "a", "c") == pair(1, 2)
    assert distance(grown, "a", "q") == pair(0, 6)


def test_insert_path_for_star_center():
    rod = STree(
        ["u", "v", "w"],
        [("u", "v", pair(0, 1)), ("v", "w", pair(0, 1))],
    )
    grown = insert(STAR, "c", rod, {"u": "p", "w": "q"})
    assert len(grown.nodes) == len(STAR.nodes) - 1 + 3
    assert len(grown.edges) == len(STAR.edges) + 3 - 1
    assert {n: grown.degree(n) for n in sorted(grown.nodes)} == {
        "p": 1,
        "q": 1,
        "u": 2,
        "v": 2,
        "w": 2,
    }
    assert isomorphic(collapse(grown, rod.nodes), STAR)


def test_insert_star_for_branch_point():
    wye = STree(
        ["m", "u", "v", "w"],
        [("m", "u", pair(1, 1)), ("m", "v", pair(1, 1)), ("m", "w", pair(1, 1))],
    )
    hub = STree(
        ["c", "p", "q", "r"],
        [("c", "p", pair(0, 1)), ("c", "q", pair(0, 2)), ("c", "r", pair(0, 3))],
    )
    grown = insert(hub, "c", wye, {"u": "p", "v": "q", "w": "r"})
    assert len(grown.nodes) == 4 - 1 + 4
    assert len(grown.edges) == 3 + 4 - 1
    assert isomorphic(collapse(grown, wye.nodes), hub)


def test_insert_guards():
    rod = STree(["u", "v", "w"], [("u", "v", pair(0, 1)), ("v", "w", pair(0, 1))])
    with pytest.raises(ValueError):
        insert(STAR, "c", rod, {"u": "p"})  # arity mismatch
    with pytest.raises(ValueError):
        insert(STAR, "c", rod, {"u": "p", "v": "q"})  # v is interior to the rod
    with pytest.raises(ValueError):
        clash = STree(["p", "q"], [("p", "q", pair(0, 1))])
        insert(STAR, "c", clash, {"p": "p", "q": "q"})
    with pytest.raises(KeyError):
        insert(STAR, "nope", STree(["z"]), {})


def test_collapse_identity_and_whole():
    assert isomorphic(collapse(ABC, ["b"]), ABC)
    assert collapse(ABC, ABC.nodes).nodes == ("a",)
    with pytest.raises(ValueError):
        collapse(ABC, ["a", "c"])  # not adjacent
    with pytest.raises(KeyError):
        collapse(ABC, ["a", "zz"])


def test_insert_collapse_round_trip_battery():
    rng = Random(31)
    for _ in range(80):
        t = random_tree(rng)
        v, sub, attach = random_insertion(rng, t)
        grown = insert(t, v, sub, attach)
        assert len(grown.nodes) == len(t.nodes) - 1 + len(sub.nodes)
        assert len(grown.edges) == len(t.edges) + len(sub.nodes) - 1
        assert isomorphic(collapse(grown, sub.nodes), t)


# --- isomorphism ---------------------------------------------------------------

def test_isomorphic_ignores_labels_and_order():
    t1 = STree(["a", "b", "c"], [("a", "b", pair(0, 1)), ("b", "c", pair(1, 2))])
    t2 = STree(["z", "y", "x"], [("y", "z", pair(1, 2)), ("x", "y", pair(0, 1))])
    assert isomorphic(t1, t2)
    assert canonical_form(t1) == canonical_form(t2)


def test_isomorphic_sees_lengths():
    t1 = STree(["a", "b"], [("a", "b", pair(0, 1))])
    t2 = STree(["a", "b"], [("a", "b", pair(0, 2))])
    t3 = STree(["a", "b"], [("a", "b", pair(1, 1))])
    assert not isomorphic(t1, t2)
    assert not isomorphic(t1, t3)


def test_isomorphic_sees_shape():
    rod = STree(
        ["a", "b", "c", "d"],
        [("a", "b", pair(0, 1)), ("b", "c", pair(0, 1)), ("c", "d", pair(0, 1))],
    )
    star = STree(
        ["a", "b", "c", "d"],
        [("a", "b", pair(0, 1)), ("a", "c", pair(0, 1)), ("a", "d", pair(0, 1))],
    )
    assert not isomorphic(rod, star)


def relabelled(rng, tree):
    """The same tree under fresh node names, with edges listed in a random
    order and orientation."""
    fresh = [f"m{i}" for i in range(len(tree.nodes))]
    rng.shuffle(fresh)
    names = dict(zip(tree.nodes, fresh))
    edges = []
    for a, b, length in tree.edges:
        ends = [names[a], names[b]]
        rng.shuffle(ends)
        edges.append((*ends, length))
    rng.shuffle(edges)
    return STree(rng.sample(fresh, len(fresh)), edges)


def test_isomorphic_agrees_with_the_all_roots_form():
    rng = Random(53)
    same = different = 0
    while same < 100 or different < 100:
        t = random_tree(rng, max_nodes=7, levels=(0, 1))
        if same < 100:
            copy = relabelled(rng, t)
            assert encode_over_all_roots(copy) == encode_over_all_roots(t)
            assert isomorphic(t, copy) and canonical_form(t) == canonical_form(copy)
            same += 1
        other = random_tree(rng, max_nodes=7, levels=(0, 1))
        if different < 100 and len(other.nodes) == len(t.nodes):
            if encode_over_all_roots(other) != encode_over_all_roots(t):
                assert not isomorphic(t, other)
                different += 1


def assert_hangings_agree(rng, tree):
    """canonical_form and collapse's connectivity rule against the walks
    they replaced, on a connected set and on a random one; returns the
    random set's connectivity."""
    assert canonical_form(tree) == oracle_canonical_form(tree)
    drawn = rng.sample(tree.nodes, rng.randint(1, len(tree.nodes)))
    verdicts = []
    for group in (connected_group(rng, tree), drawn):
        connected = oracle_connected(tree, group)
        try:
            collapse(tree, group)
        except ValueError as exc:
            assert str(exc) == "collapse set is not connected" and not connected, (tree, group)
        else:
            assert connected, (tree, group)
        verdicts.append(connected)
    assert verdicts[0]
    return verdicts[1]


def test_hangings_agree_with_the_walk_oracles():
    rng = Random(89)
    seen, sizes = set(), set()
    for _ in range(150):
        t = random_tree(rng, max_nodes=30)
        dual, _ = dual_tree(random_chords(rng, max_chords=12))
        for tree in (t, rehung(rng, t), dual, rehung(rng, dual)):
            seen.add(assert_hangings_agree(rng, tree))
        sizes.add(len(t.nodes))
    assert seen == {True, False} and len(sizes) > 25


@given(st.integers(min_value=0, max_value=2**32))
def test_hanging_oracles_on_drawn_trees(seed):
    rng = Random(seed)
    assert_hangings_agree(rng, rehung(rng, random_tree(rng, max_nodes=40)))


def test_large_trees_need_no_deep_recursion():
    n = 10_000
    names = [f"v{i:05d}" for i in range(n)]
    line = STree(names, [(names[i], names[i + 1], pair(i % 2, 1)) for i in range(n - 1)])
    star = STree(names, [(names[0], names[i], pair(0, i)) for i in range(1, n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert len(canonical_form(line)) == n // 2 + 1  # one entry per depth below a center
        assert len(canonical_form(star)) == 2
        for tree in (line, star):
            assert isomorphic(tree, relabelled(Random(59), tree))
            assert len(collapse(tree, names[: n // 2]).nodes) == n // 2 + 1
        assert distance(line, names[1], names[-1]) == pair(1, n // 2 - 1)
        assert distance(star, names[1], names[-1]) == pair(0, n)
    finally:
        sys.setrecursionlimit(limit)


def test_tree_identity_ignores_adjacency():
    twin = STree(["c", "b", "a"][::-1], [("c", "b", pair(1, 2)), ("b", "a", pair(0, 1))])
    assert twin == ABC and hash(twin) == hash(ABC)
    assert repr(ABC) == (
        "STree(nodes=('a', 'b', 'c'), edges=(('a', 'b', pair(0, '1')), ('b', 'c', pair(1, '2'))))"
    )
    assert dict(ABC.neighbors("b")) == {"a": pair(0, 1), "c": pair(1, 2)}
    with pytest.raises(TypeError):
        ABC.neighbors("b")["d"] = pair(0, 1)


@pytest.mark.parametrize("node", [[], {"b": 1}, 3])
def test_non_string_node_ids_are_unknown(node):
    with pytest.raises(KeyError):
        distance(ABC, node, "a")
    with pytest.raises(KeyError):
        path(ABC, "a", node)
    with pytest.raises(KeyError):
        ABC.neighbors(node)


# --- chord families and dual trees ----------------------------------------------

def test_chord_family_guards():
    with pytest.raises(ValueError):
        ChordFamily(4, [(1, 3, pair(0, 1)), (2, 4, pair(0, 1))])  # crossing
    with pytest.raises(ValueError):
        ChordFamily(4, [(1, 3, pair(0, 1)), (3, 4, pair(0, 1))])  # shared end
    with pytest.raises(ValueError):
        ChordFamily(4, [(1, 5, pair(0, 1))])  # out of range
    with pytest.raises(ValueError):
        ChordFamily(4, [(1, 2, ZERO)])
    with pytest.raises(ValueError):
        ChordFamily(4, [(2, 2, pair(0, 1))])
    with pytest.raises(ValueError, match="mark count -4 is negative"):
        ChordFamily(-4, [])
    with pytest.raises(TypeError, match="mark count must be an int: 4.9"):
        ChordFamily(4.9, [(1, 2, pair(0, 1))])
    with pytest.raises(TypeError, match=r"chord ends must be ints: \(1.2,2.8\)"):
        ChordFamily(4, [(1.2, 2.8, pair(0, 1))])
    assert ChordFamily(0, []).marks == 0


def oracle_crosses(chords):
    """The all-pairs crossing scan ChordFamily ran before its sweep."""
    rows = [(min(i, j), max(i, j)) for i, j, _ in chords]
    return any(
        a < c < b < d or c < a < d < b
        for (a, b), (c, d) in itertools.combinations(rows, 2)
    )


def named_crossing(chords):
    """The pair the crossing diagnostic names, by its definition: the chord
    with the smallest left end that crosses a chord starting before it, and
    the innermost such chord."""
    rows = sorted((min(i, j), max(i, j)) for i, j, _ in chords)
    for c, d in rows:
        earlier = [(a, b) for a, b in rows if a < c < b < d]
        if earlier:
            return max(earlier), (c, d)
    return None


def random_matching(rng):
    """Chords on distinct marks in random order: a non-crossing family, or
    one with two chords' ends swapped, or a uniform matching."""
    m = rng.randint(2, 12)
    draw = rng.random()
    if draw < 0.4:
        chords = list(random_chords(rng, max_chords=m).chords)
        if len(chords) >= 2 and draw < 0.25:
            s, t = rng.sample(range(len(chords)), 2)
            (a, b, w), (c, d, v) = chords[s], chords[t]
            chords[s], chords[t] = (a, d, w), (c, b, v)
    else:
        marks = rng.sample(range(1, 2 * m + 1), 2 * m)
        chords = [(marks[2 * k], marks[2 * k + 1], pair(0, 1)) for k in range(m)]
    rng.shuffle(chords)
    marks = 2 * len(chords)
    return marks, [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in chords]


def test_chord_sweep_agrees_with_the_all_pairs_oracle():
    rng = Random(41)
    verdicts = set()
    for _ in range(600):
        marks, chords = random_matching(rng)
        crossing = oracle_crosses(chords)
        verdicts.add(crossing)
        if not crossing:
            assert ChordFamily(marks, chords).chords == tuple(sorted(
                (min(i, j), max(i, j), w) for i, j, w in chords
            ))
            continue
        with pytest.raises(ValueError) as caught:
            ChordFamily(marks, chords)
        (a, b), (c, d) = named_crossing(chords)
        assert str(caught.value) == f"chords ({a},{b}) and ({c},{d}) cross"
    assert verdicts == {True, False}


def test_many_nested_chords():
    # 40k chords, each inside the one before: the sweep keeps them all open
    m = 40_000
    family = ChordFamily(2 * m, [(i, 2 * m + 1 - i, pair(0, 1)) for i in range(m, 0, -1)])
    tree, _ = dual_tree(family)
    assert len(tree.nodes) == m + 1
    assert distance(tree, "outer", f"r{m}_{m + 1}") == pair(0, m)


def test_single_chord_dual():
    tree, regions = dual_tree(ChordFamily(2, [(1, 2, pair(0, 1))]))
    assert len(tree.nodes) == 2
    assert distance(tree, "outer", "r1_2") == pair(0, 1)
    assert regions["outer"] == ("outer",)
    assert regions["r1_2"] == ("chord", (1, 2))


def test_nested_chords_dual():
    fam = ChordFamily(4, [(1, 4, pair(0, 1)), (2, 3, pair(1, 1))])
    tree, _ = dual_tree(fam)
    assert sorted(tree.nodes) == ["outer", "r1_4", "r2_3"]
    # crossing both chords, the inner level-1 weight absorbs the outer one
    assert distance(tree, "outer", "r2_3") == pair(1, 1)
    assert [(u, v) for u, v, _ in path(tree, "outer", "r2_3")] == [
        ("outer", "r1_4"),
        ("r1_4", "r2_3"),
    ]


def test_parallel_chords_dual():
    m = 5
    fam = ChordFamily(
        2 * m, [(i, 2 * m + 1 - i, pair(0, i)) for i in range(1, m + 1)]
    )
    tree, regions = dual_tree(fam)
    assert len(tree.nodes) == m + 1
    assert boundary_points(tree) == {"outer", "r5_6"}
    assert distance(tree, "outer", "r5_6") == pair(0, sum(range(1, m + 1)))
    assert distance(tree, "outer", "r5_6") == separating_distance(
        fam, regions, "outer", "r5_6"
    )


def test_sibling_chords_dual_is_a_star():
    fam = ChordFamily(
        6, [(1, 2, pair(0, 1)), (3, 4, pair(0, 2)), (5, 6, pair(0, 3))]
    )
    tree, _ = dual_tree(fam)
    assert tree.degree("outer") == 3
    assert distance(tree, "r1_2", "r5_6") == pair(0, 4)


def test_dual_distance_matches_separating_weights():
    rng = Random(41)
    for _ in range(60):
        fam = random_chords(rng)
        tree, regions = dual_tree(fam)
        assert len(tree.nodes) == len(fam.chords) + 1
        for r1, r2 in itertools.combinations(tree.nodes, 2):
            assert distance(tree, r1, r2) == separating_distance(
                fam, regions, r1, r2
            )


def test_dual_tree_agrees_with_the_enclosing_scan():
    rng = Random(61)
    for _ in range(200):
        full = random_chords(rng, max_chords=8)
        kept = [row for row in full.chords if rng.random() < 0.7]
        for fam in (full, ChordFamily(full.marks, kept)):
            rows = fam.chords
            names = ["outer"] + [f"r{a}_{b}" for a, b, _ in rows]
            edges = []
            for idx, (a, b, w) in enumerate(rows):
                up = chord_parent(rows, idx)
                edges.append(("outer" if up is None else names[up + 1], f"r{a}_{b}", w))
            tree, _ = dual_tree(fam)
            assert tree == STree(names, edges) and tree.nodes == tuple(names)


def test_dual_then_dist_gives_each_chord_its_weight(tmp_path, capsys):
    # the regions on the two sides of a chord are one edge apart in the
    # dual, so through the CLI their distance is the chord's weight
    rng = Random(83)
    chords, ops = tmp_path / "chords.json", tmp_path / "dist.json"
    for _ in range(40):
        fam = random_chords(rng, max_chords=10)
        rows = fam.chords
        listed = [{"ends": rng.sample([a, b], 2), "weight": jsonio.svalue_to_json(w)}
                  for a, b, w in rows]
        rng.shuffle(listed)
        chords.write_text(json.dumps({"marks": fam.marks, "chords": listed}))
        assert cli.main(["tree", "dual", str(chords)]) == 0
        dual = json.loads(capsys.readouterr().out)["result"]["tree"]
        pairs = []
        for idx, (a, b, _) in enumerate(rows):
            up = chord_parent(rows, idx)
            pairs.append(["outer" if up is None else "r{}_{}".format(*rows[up][:2]), f"r{a}_{b}"])
        ops.write_text(json.dumps({"tree": dual, "pairs": pairs}))
        assert cli.main(["tree", "dist", str(ops)]) == 0
        got = json.loads(capsys.readouterr().out)["result"]["distances"]
        assert got == [
            {"pair": p, "value": jsonio.svalue_to_json(w)} for p, (_, _, w) in zip(pairs, rows)
        ]


def result_through_cli(words, doc):
    """The result the command reports on the document, run through
    cli.main."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        assert cli.main([*words, str(path)]) == 0
    return json.loads(out.getvalue())["result"]


def dual_through_cli(marks, chords):
    """The tree `tree dual` reports for the chords, run through cli.main
    and decoded; each chord is listed with its ends in the order given."""
    listed = [{"ends": [a, b], "weight": jsonio.svalue_to_json(w)} for a, b, w in chords]
    return jsonio.tree_from_json(result_through_cli(["tree", "dual"], {"marks": marks, "chords": listed})["tree"])


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=47))
def test_rotated_chords_give_an_isomorphic_dual(seed, shift):
    # the rotation law: relabelling mark i as (i - 1 + s) mod m + 1 moves
    # another region outside, so the dual is the same tree hung elsewhere
    rng = Random(seed)
    fam = random_chords(rng, max_chords=12)
    m = fam.marks
    turn = lambda i: (i - 1 + shift) % m + 1
    rotated = [(turn(b), turn(a), w) for a, b, w in fam.chords]
    rng.shuffle(rotated)
    assert isomorphic(dual_through_cli(m, fam.chords), dual_through_cli(m, rotated))


def arc_region(rows, x):
    """The region beside the arc from mark x to the next mark: the one just
    inside the innermost chord (a, b) with a <= x < b, or outer."""
    spans = [(b - a, a, b) for a, b, _ in rows if a <= x < b]
    return "r{}_{}".format(*min(spans)[1:]) if spans else "outer"


@given(st.integers(min_value=0, max_value=2**32))
def test_arc_distance_totals_the_separating_chords_through_cli(seed):
    # the separation law: the path between the regions beside arcs x < y
    # crosses exactly the chords with one end in (x, y]
    fam = random_chords(Random(seed), max_chords=12)
    dual = jsonio.tree_to_json(dual_through_cli(fam.marks, fam.chords))
    arcs = list(itertools.combinations(range(1, fam.marks + 1), 2))
    pairs = [[arc_region(fam.chords, x), arc_region(fam.chords, y)] for x, y in arcs]
    got = result_through_cli(["tree", "dist"], {"tree": dual, "pairs": pairs})["distances"]
    assert got == [
        {"pair": p, "value": jsonio.svalue_to_json(total(w for a, b, w in fam.chords if (x < a <= y) != (x < b <= y)))}
        for p, (x, y) in zip(pairs, arcs)
    ]


@given(st.integers(min_value=0, max_value=2**32))
def test_collapsing_across_a_chord_forgets_it_through_cli(seed):
    # the forgetting law: merging the regions on a chord's two sides gives
    # the dual of the family without that chord
    fam = random_chords(Random(seed), max_chords=12)
    rows = fam.chords
    dual = jsonio.tree_to_json(dual_through_cli(fam.marks, rows))
    for idx, (a, b, _) in enumerate(rows):
        up = chord_parent(rows, idx)
        group = [f"r{a}_{b}", "outer" if up is None else "r{}_{}".format(*rows[up][:2])]
        collapsed = result_through_cli(["tree", "collapse"], {"tree": dual, "group": group})["tree"]
        rest = rows[:idx] + rows[idx + 1:]
        assert isomorphic(jsonio.tree_from_json(collapsed), dual_through_cli(fam.marks, rest))


# --- order-tree axioms -----------------------------------------------------------

def common_prefix(p1, p2):
    out = []
    for s1, s2 in zip(p1, p2):
        if s1 != s2:
            break
        out.append(s1)
    return out


def test_common_prefix_of_paths_is_a_path():
    rng = Random(43)
    for _ in range(25):
        tree, _ = dual_tree(random_chords(rng))
        for x, y, z in itertools.product(tree.nodes, repeat=3):
            prefix = common_prefix(path(tree, x, y), path(tree, x, z))
            w = prefix[-1][1] if prefix else x
            assert prefix == path(tree, x, w)


def test_paths_meeting_at_a_point_concatenate():
    rng = Random(47)
    checked = 0
    for _ in range(25):
        tree, _ = dual_tree(random_chords(rng))
        for x, y, z in itertools.product(tree.nodes, repeat=3):
            first = path(tree, x, y)
            second = path(tree, y, z)
            touched_first = {x} | {v for _, v, _ in first}
            touched_second = {y} | {v for _, v, _ in second}
            if touched_first & touched_second == {y}:
                assert first + second == path(tree, x, z)
                checked += 1
    assert checked > 100
