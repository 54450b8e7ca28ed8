"""Finite trees with leveled edge lengths, and dual trees of chord
families.

An ``STree`` is a finite tree whose edges carry nonzero ``LevelValue``
lengths, each edge stored once, in the adjacency map the constructor
checks and fills in one pass; ``edges`` sorts them when first read.
Distance between nodes is the leveled sum along the unique connecting
path; since a sum always dominates its terms, the triangle inequality
comes for free.  Every rooted question hangs the tree one way,
breadth-first, as each node's parent and hops.  The build hangs it from
its first node, so ``path`` climbs from both ends until they meet, in the
hops of its own path, and ``collapse`` tests a node set's connectivity
with no walk.  ``verify_metric`` audits the distances in one pass of
O(n^2) time and memory: the tree hung from each node gives that node's
row, each step monotone and each distance nonzero and symmetric, from
which the triangle inequality follows.

``boundary_points`` are the degree-one nodes.  ``infinite_points`` is
offered for flat (all level-0) trees only: a node is infinite when every
path reaching it has infinite total length, i.e. when all of its incident
edges are infinite.  A tree is locally finite when boundary and infinite
points coincide (``tree_is_locally_finite``).

``insert`` splices a tree into a node (redistributing the node's edges
onto chosen near-boundary nodes of the insertion), ``collapse`` contracts
a connected node set back to a point, and ``isomorphic`` compares trees by
a canonical form that includes edge lengths.

``dual_tree`` converts a family of non-crossing weighted chords in a disk
into the tree of complementary regions: one node per region, one edge per
chord (carrying its weight) between the regions on its two sides.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from levelring.values import _ECHO, LevelValue, ZERO, _Record, total

__all__ = [
    "ChordFamily",
    "STree",
    "boundary_points",
    "canonical_form",
    "collapse",
    "distance",
    "dual_tree",
    "infinite_points",
    "insert",
    "isomorphic",
    "path",
    "tree_is_locally_finite",
    "verify_metric",
]

Edge = tuple[str, str, LevelValue]


class STree(_Record):
    """A finite tree; every edge carries a nonzero leveled length."""

    _FIELDS = ("nodes", "edges")
    nodes: tuple[str, ...]
    # node -> {neighbor: length} in the order given: the one copy of the edges
    _adjacency: dict[str, dict[str, LevelValue]]
    # node -> (parent, hops), the tree hung from nodes[0] by ``_hang`` when
    # the build checks connectivity; nodes[0] maps to (None, 0).  Lengths
    # stay in _adjacency: the garbage collector stops tracking a tuple of a
    # str and an int, but not one holding a LevelValue, and storing lengths
    # here made a 1,200-node build about a tenth slower.
    _up: dict[str, tuple[Optional[str], int]]

    def __init__(
        self, nodes: Iterable[str], edges: Iterable[tuple[str, str, LevelValue]] = ()
    ):
        node_list = tuple(map(str, nodes))
        if not node_list:
            raise ValueError("a tree needs at least one node")
        adjacency: dict[str, dict[str, LevelValue]] = {n: {} for n in node_list}
        if len(adjacency) != len(node_list):
            raise ValueError("node ids must be unique")
        count = 0
        for a, b, length in edges:
            a, b = str(a), str(b)
            if a not in adjacency or b not in adjacency:
                raise ValueError(f"edge ({_ECHO.repr(a)},{_ECHO.repr(b)}) mentions unknown nodes")
            if a == b:
                raise ValueError(f"self-loop at {_ECHO.repr(a)}")
            if not isinstance(length, LevelValue) or length.is_zero:
                raise ValueError(f"edge ({_ECHO.repr(a)},{_ECHO.repr(b)}) needs a nonzero length")
            adjacency[a][b] = adjacency[b][a] = length
            count += 1
        if count != len(node_list) - 1:
            raise ValueError(
                f"{len(node_list)} nodes need exactly {len(node_list) - 1} edges "
                f"for a tree, got {count}"
            )
        # connectivity (acyclicity then follows from the edge count)
        up = _hang(adjacency, node_list[0])
        if len(up) != len(node_list):
            raise ValueError("tree is not connected")
        self.__dict__.update(nodes=node_list, _adjacency=adjacency, _up=up)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Each (a, b, length) with a < b, sorted, derived when first read."""
        return tuple(sorted(_edge_rows(self)))

    def neighbors(self, node: str) -> Mapping[str, LevelValue]:
        """Adjacent nodes with the connecting edge lengths (a read-only view),
        in the order their edges were given, which is not part of the contract."""
        if not _is_node(self, node):
            raise KeyError(f"unknown node {_ECHO.repr(node)}")
        return MappingProxyType(self._adjacency[node])

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))


def _is_node(tree: STree, node) -> bool:
    return isinstance(node, str) and node in tree._adjacency


def _edge_rows(tree: STree) -> list[Edge]:
    """Each edge once as (a, b, length) with a < b, read off the parent links."""
    up, near = itertools.islice(tree._up.items(), 1, None), tree._adjacency
    return [(a, p, near[a][p]) if a < p else (p, a, near[a][p]) for a, (p, _) in up]


def _hang(adjacency: dict, root: str) -> dict[str, tuple[Optional[str], int]]:
    """The tree hung from root: node -> (parent, hops) for every node
    reached, in breadth-first order, one depth at a time; root maps to
    (None, 0)."""
    up = {root: (None, 0)}
    level, hops = [root], 0
    while level:
        hops += 1
        below = []
        for cur in level:
            for nxt in adjacency[cur]:
                if nxt not in up:
                    up[nxt] = (cur, hops)
                    below.append(nxt)
        level = below
    return up


def path(tree: STree, x: str, y: str) -> list[tuple[str, str, LevelValue]]:
    """The unique simple path from x to y as oriented (from, to, length)
    steps; empty for x == y.

    Both ends climb the parent links the build recorded, the deeper end
    first, until they meet, so a query costs the hops of its own path."""
    if not (_is_node(tree, x) and _is_node(tree, y)):
        raise KeyError(f"unknown node in path query: {_ECHO.repr(x)} or {_ECHO.repr(y)}")
    up, near = tree._up, tree._adjacency
    head, tail = [], []
    while x != y:
        px, hx = up[x]
        py, hy = up[y]
        if hx >= hy:
            head.append((x, px, near[x][px]))
            x = px
        else:
            tail.append((py, y, near[py][y]))
            y = py
    return head + tail[::-1]


def distance(tree: STree, x: str, y: str) -> LevelValue:
    """Leveled sum of the edge lengths along the unique x-y path."""
    return total(length for _, _, length in path(tree, x, y))


def verify_metric(tree: STree) -> bool:
    """Audit the metric axioms: symmetry, definiteness and the triangle
    inequality, in one pass of O(n^2) time and memory on n nodes.

    The tree hung from each node x gives x's row of distances, parents
    first.  Each step down to a node y checks what a row built this way
    can get wrong: the step is monotone (adding an edge never lowers a
    distance), d(x,y) is not ZERO, and d(x,y) equals d(y,x) when y's row is
    already built, so each unordered pair is compared once.  No triple is
    visited: the x-y, x-z and y-z paths meet at one median node m, and the
    leveled sum is associative, commutative and monotone, so with the rows
    symmetric, d(y,x) + d(x,z) = d(y,m) + d(m,z) + 2*d(m,x) >= d(y,z).
    """
    adjacency = tree._adjacency
    rows: dict[str, dict[str, LevelValue]] = {}
    for x in tree.nodes:
        dist = {x: ZERO}
        for node, (prev, _) in itertools.islice(_hang(adjacency, x).items(), 1, None):
            d = dist[node] = dist[prev] + adjacency[node][prev]
            if not dist[prev] <= d or d == ZERO or (node in rows and d != rows[node][x]):
                return False
        rows[x] = dist
    return True


def boundary_points(tree: STree) -> set[str]:
    """Nodes with exactly one direction (degree one)."""
    return {n for n in tree.nodes if tree.degree(n) == 1}


def infinite_points(tree: STree) -> set[str]:
    """Nodes every approach to which has infinite total length.

    Only defined for flat trees (all edge lengths at level 0), where path
    length is an extended real: a node qualifies exactly when all of its
    incident edges are infinite (the last step dominates any finite
    prefix).  A one-node tree has no approaches and no infinite points.
    """
    out = set()
    for n, incident in tree._adjacency.items():
        if any(l.level != 0 for l in incident.values()):
            raise ValueError("infinite points are defined for level-0 trees only")
        if incident and all(l.magnitude.is_infinite for l in incident.values()):
            out.add(n)
    return out


def tree_is_locally_finite(tree: STree) -> bool:
    """Whether boundary points and infinite points coincide (flat trees)."""
    return boundary_points(tree) == infinite_points(tree)


def insert(
    tree: STree, v: str, insertion: STree, attach: Mapping[str, str]
) -> STree:
    """Replace node v by the `insertion` tree.

    `attach` maps chosen nodes of the insertion (each of degree at most
    one there) onto the neighbors of v, bijectively; the edge that ran
    from v toward that neighbor is reattached to the chosen node, keeping
    its length.  Node sets must be disjoint.
    """
    neighbors = tree.neighbors(v)
    overlap = set(tree.nodes) & set(insertion.nodes)
    if overlap:
        raise ValueError(f"insertion shares node ids with the tree: {_ECHO.repr(sorted(overlap))}")
    if sorted(attach.values()) != sorted(neighbors):
        raise ValueError(
            "attachment must map onto the neighbors of the replaced node, "
            f"{sorted(neighbors)}; got {_ECHO.repr(sorted(attach.values()))}"
        )
    for b in attach:
        if b not in insertion.nodes:
            raise KeyError(f"attachment node {_ECHO.repr(b)} is not in the insertion")
        if insertion.degree(b) > 1:
            raise ValueError(
                f"attachment node {_ECHO.repr(b)} has degree {insertion.degree(b)} > 1"
            )
    to_node = {direction: b for b, direction in attach.items()}
    nodes = tuple(n for n in tree.nodes if n != v) + insertion.nodes
    edges = [e for e in _edge_rows(tree) if v not in e[:2]]
    edges += ((to_node[direction], direction, length) for direction, length in neighbors.items())
    edges += _edge_rows(insertion)
    return STree(nodes, edges)


def collapse(tree: STree, group: Iterable[str]) -> STree:
    """Contract a connected set of nodes to a single node (named by the
    smallest id in the set); edges inside the set vanish, edges leaving it
    are reattached."""
    chosen = {str(n) for n in group}
    if not chosen:
        raise ValueError("nothing to collapse")
    unknown = chosen - set(tree.nodes)
    if unknown:
        raise KeyError(f"unknown nodes: {_ECHO.repr(sorted(unknown))}")
    # each connected part of the set has one top node, the one that hangs
    # from a node outside it (the root hangs from None)
    if sum(tree._up[n][0] not in chosen for n in chosen) != 1:
        raise ValueError("collapse set is not connected")
    merged = min(chosen)
    nodes = [merged] + [n for n in tree.nodes if n not in chosen]
    near = tree._adjacency
    edges = [
        (merged if a in chosen else a, merged if p in chosen else p, near[a][p])
        for a, (p, _) in itertools.islice(tree._up.items(), 1, None)
        if a not in chosen or p not in chosen
    ]
    return STree(nodes, edges)


def _rooted_form(tree: STree, root: str) -> tuple:
    """Flat AHU encoding of the tree hung from root: one entry per depth,
    deepest first, holding the sorted signatures of that depth's nodes.  A
    signature is the sorted (level, magnitude, child rank) triples of a
    node's child edges; a node's rank is the index of its signature among
    the distinct signatures of its depth."""
    adjacency = tree._adjacency
    up = _hang(adjacency, root)
    children = defaultdict(list)
    for node, (prev, _) in itertools.islice(up.items(), 1, None):
        length = adjacency[node][prev]
        children[prev].append((length.level, length.magnitude, node))
    rank: dict[str, int] = {}
    form = []
    # the hanging lists nodes in order of hops, so reversed they come deepest first
    for _, level in itertools.groupby(reversed(up), key=lambda n: up[n][1]):
        signature = {
            n: tuple(sorted((lv, mag, rank[c]) for lv, mag, c in children[n])) for n in level
        }
        distinct = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        rank.update((n, distinct[s]) for n, s in signature.items())
        form.append(tuple(sorted(signature.values())))
    return tuple(form)


def canonical_form(tree: STree) -> tuple:
    """Root-independent canonical form: the smaller flat rooted encoding at
    the tree's one or two centers (the middle of a path with the most hops).
    Equal forms mean label- and orientation-independent equality of shape
    and lengths; forms nest to a fixed depth, so comparing them is flat."""
    # a hanging lists a node the most hops from its root last, and such a
    # node ends a path with the most hops
    up = _hang(tree._adjacency, next(reversed(tree._up)))
    spine = [next(reversed(up))]
    while up[spine[-1]][0] is not None:
        spine.append(up[spine[-1]][0])
    centers = {spine[(len(spine) - 1) // 2], spine[len(spine) // 2]}
    return min(_rooted_form(tree, c) for c in centers)


def isomorphic(a: STree, b: STree) -> bool:
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# chord families in a disk

class ChordFamily(_Record):
    """Non-crossing weighted chords on marks 1..marks around a circle.

    Crossings are found in one sweep by left end, as in parenthesis
    matching.  When chords cross, the diagnostic names the chord with the
    smallest left end that crosses a chord starting before it, together
    with the innermost such chord.
    """

    _FIELDS = ("marks", "chords")
    marks: int
    chords: tuple[tuple[int, int, LevelValue], ...]

    def __init__(self, marks: int, chords: Iterable[tuple[int, int, LevelValue]]):
        if type(marks) is not int:
            raise TypeError(f"mark count must be an int: {_ECHO.repr(marks)}")
        if marks < 0:
            raise ValueError(f"mark count {_ECHO.repr(marks)} is negative")
        rows = []
        for i, j, w in chords:
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"chord ends must be ints: ({_ECHO.repr(i)},{_ECHO.repr(j)})")
            if not (1 <= i <= marks and 1 <= j <= marks) or i == j:
                raise ValueError(
                    f"chord ends ({_ECHO.repr(i)},{_ECHO.repr(j)}) out of range 1..{_ECHO.repr(marks)}"
                )
            if not isinstance(w, LevelValue) or w.is_zero:
                raise ValueError(f"chord ({_ECHO.repr(i)},{_ECHO.repr(j)}) needs a nonzero weight")
            rows.append((i, j, w) if i < j else (j, i, w))
        ends = [e for i, j, _ in rows for e in (i, j)]
        if len(set(ends)) != len(ends):
            raise ValueError("chord endpoints must be distinct")
        rows.sort()
        # the chords still open at a chord's left end nest, innermost last;
        # it crosses those that end before it does, and the innermost ends first
        open_chords: list[tuple[int, int]] = []
        for a, b, _ in rows:
            while open_chords and open_chords[-1][1] < a:
                open_chords.pop()
            if open_chords and open_chords[-1][1] < b:
                c, d = open_chords[-1]
                raise ValueError(
                    f"chords ({_ECHO.repr(c)},{_ECHO.repr(d)}) and ({_ECHO.repr(a)},{_ECHO.repr(b)}) cross"
                )
            open_chords.append((a, b))
        self.__dict__.update(marks=marks, chords=tuple(rows))


def dual_tree(family: ChordFamily) -> tuple[STree, dict[str, tuple]]:
    """The tree of complementary regions of the chord family.

    One node per region — the outer region plus, for each chord, the
    region just inside it — and one edge per chord, joining the regions on
    its two sides with the chord's weight.  Also returns a provenance map,
    node id -> ("outer",) or ("chord", (i, j)), in the tree's node order.
    """
    provenance: dict[str, tuple] = {"outer": ("outer",)}
    edges = []
    # chords come sorted by left end and never cross, so the chords still
    # open at a chord's left end are exactly those enclosing it, innermost last
    enclosing: list[tuple[int, str]] = []
    for a, b, weight in family.chords:
        while enclosing and enclosing[-1][0] < a:
            enclosing.pop()
        name = f"r{a}_{b}"
        provenance[name] = ("chord", (a, b))
        edges.append((enclosing[-1][1] if enclosing else "outer", name, weight))
        enclosing.append((b, name))
    return STree(list(provenance), edges), provenance
