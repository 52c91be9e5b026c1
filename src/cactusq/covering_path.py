"""Shortest non-simple 1-covering walks on cactus graphs.

A walk P 1-covers G when every vertex is on P or adjacent to a vertex of
P.  `solve_cactus` finds a minimum-length such walk in polynomial time by
a dynamic program over the block tree of the weighted vertex cactus;
`CactusSolver` keeps that program up to date as pendant vertices are
removed, for graphs that shrink a vertex at a time (the QFT stages).
`brute_force_oracle` is the exponential BFS reference used to validate it.
Among the shortest covering walks the DP prefers the one with the fewest
revisits (the most distinct vertices), so it returns a simple walk
whenever a simple walk is as short as any covering walk.

Conventions: `k` is the number of walk elements, `length` = k - 1 edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import add, attrgetter

from .graph_core import (
    BlockTree,
    Graph,
    WeightedVertexCactus,
    build_block_tree,
    build_vertex_cactus,
    validate_cactus,
)


class TooLarge(Exception):
    """Graph exceeds the brute-force state-space limit."""


@dataclass(frozen=True)
class CoveringPath:
    """A walk with its covered set R_P and fringe B_P = R_P minus the walk."""

    vertices: tuple[int, ...]
    covered: frozenset[int]
    fringe: frozenset[int]

    @staticmethod
    def from_vertices(g: Graph, vertices) -> "CoveringPath":
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a walk needs at least one vertex")
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"walk step ({a},{b}) is not an edge")
        on_path = set(vs)
        covered = set(on_path)
        for v in on_path:
            covered.update(g.adjacency[v])
        return CoveringPath(
            vertices=vs,
            covered=frozenset(covered),
            fringe=frozenset(covered - on_path),
        )

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def k_distinct(self) -> int:
        return len(set(self.vertices))

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def is_covering(self, g: Graph) -> bool:
        return len(self.covered) == g.n


def _shortest_walk(g: Graph, limit: int, mask_of) -> CoveringPath:
    """Shortest walk whose vertices' bit masks, `mask_of(v)`, together
    cover every vertex, by BFS over (vertex, union of the masks so far).
    Exponential in n; raises TooLarge above `limit` vertices."""
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds the oracle limit {limit}")
    full = (1 << g.n) - 1
    mask = [mask_of(v) for v in range(g.n)]
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for v in range(g.n):
        state = (v, mask[v])
        if state not in parent:
            parent[state] = None
            queue.append(state)
    while queue:
        v, seen = state = queue.popleft()
        if seen == full:
            walk: list[int] = []
            cur: tuple[int, int] | None = state
            while cur is not None:
                walk.append(cur[0])
                cur = parent[cur]
            walk.reverse()
            return CoveringPath.from_vertices(g, walk)
        for u in g.adjacency[v]:
            nxt = (u, seen | mask[u])
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    raise AssertionError("a connected graph admits such a walk")


def brute_force_oracle(g: Graph, limit: int = 16) -> CoveringPath:
    """Exact shortest 1-covering walk by BFS over (vertex, covered-set).

    Exponential in n; raises TooLarge above `limit` vertices.
    """
    return _shortest_walk(g, limit, lambda v: (1 << v) | sum(1 << u for u in g.adjacency[v]))


def brute_force_visit_all(g: Graph, limit: int = 16) -> CoveringPath:
    """Shortest walk visiting every vertex (BFS over (vertex, visited-set))."""
    return _shortest_walk(g, limit, lambda v: 1 << v)


# ---------------------------------------------------------------------------
# Dynamic program over the block tree, rerooted.
#
# One DP step scores a block for a number of free ends: walk ends that may
# stop anywhere instead of returning to the block's pivot.  Seen across one
# of its bridges, a block summarises the part of the tree on its own side,
# with the walk entering at its end of the bridge (the pivot): with 0 free
# ends the walk covers that part and returns (d_l), with 1 it may stop
# inside it (d_p).  A root is the same step with 2 free ends: the walk
# passes through the pivot and both of its ends are free.  A single-vertex
# block has one pivot; a cycle root may put it at any position.
#
# A neighbour contributes nothing (it is "skipped") exactly when it is a
# single vertex with no other bridge: the visit next door already covers
# it.  Any other neighbour must be entered, because what lies beyond it is
# only covered from inside.
#
# Every root needs each of its neighbours as seen from it, so the DP runs
# once per bridge direction, in two passes from block 0.  The bottom-up
# pass gives each block its values as seen from its parent.  The top-down
# pass gives each block its values as seen from each child: the same step,
# with that child left out, the parent's top-down contribution in, and the
# pivot at the child's attach vertex.  Each root is then scored from its
# neighbours' cached contributions; the first strict minimum in block
# order wins, at its first best pivot, and its own record rebuilds the
# walk.
#
# Each contribution is held once, as what one block handed its neighbour;
# a block's bridges are kept in the order its neighbours' walks are laid
# out.  A step reads per-block arrays kept up to date as contributions
# arrive: their closed costs summed, and at each position the two children
# with the best savings (None where no neighbour attaches).  Leaving out
# `up` touches only its own position, the pivot, which no arm reads.  A
# cycle step scores candidates as integers, keeps the first minimum per
# count of free ends and builds records for those alone.  A push asks for
# 0 and 1 free ends.  Roots do not run the step to be scored: with both
# ends free a walk's saving depends only on where its two ends are, so one
# O(t) scan over a cycle's arcs (`cycle_root`) folds each saving with the
# first pivot that reaches it and gives the block's least root value and
# that pivot together.  Only the winning root runs the step, once, at that
# pivot, for its record.
#
# Every record has one shape, (pivot, mode, end1, end2).  The mode is
# ("vertex",), ("perim",) (once around the cycle) or ("chain", a, b) (the
# clockwise and counter-clockwise arms from the pivot, `_arms`, walked to
# depths a and b; the cycle edge between their tips is left unwalked).  An
# end is None, ("child", block) (the walk ends inside a child at the
# pivot) or ("armR"|"armL", depth, child) (the walk ends on an arm, or in a
# child hanging there).  The walk runs from end1 through the pivot to end2;
# with fewer than 2 free ends, end1 (then end2) is pinned to the pivot.
# Emission turns a record into items, popped off an explicit stack (a
# vertex, or a neighbouring block to walk with 0 or 1 free ends), so the
# depth of the block tree does not matter.
#
# Every DP value folds two keys into one integer: unit * length + revisits,
# where a revisit is a step onto a vertex the walk has already visited.
# The walk's step weights are one pair, `weights = (new, back) = (unit,
# unit + 1)`: a step out onto a new vertex weighs `new`, a step back onto a
# visited one weighs `back`.  `_Rerooted` holds the pair and passes it to
# every step, root scan and bridge.  Every cycle edge of the vertex cactus
# weighs 1, so once around a cycle of t vertices costs (t - 1) * new + back.
# No candidate walk crosses an edge of the vertex cactus more than twice,
# so with `unit` above twice its edge count the integers order walks by
# length first and break length ties towards fewer revisits.  A revisit in
# the vertex cactus is a revisit of the original graph: copies of a vertex
# are joined only through weight-0 bridges, which the walk has to cross.
#
# The tables outlive a solve.  Removing a pendant vertex deletes a leaf
# block and its bridge (`_Rerooted.remove_leaf`): the neighbour's top_at
# is ranked again at the attach position, and goes back to None when no
# neighbour is left there.  Only the contributions that point away from
# the leaf can change.  They are recomputed outwards, and a branch stops
# at the first one whose closed cost, saving and skip come out as before.
# The blocks that took a changed one are scored again as roots.  The
# tables then equal a fresh build's on the blocks left, except for the
# fold: the weights are the first build's, and every step, root scan and
# walk decoding takes them from the tables.  Their `unit` exceeds twice the
# edge count of every smaller graph too, so it orders walks just as the
# fresh build's smaller unit does.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ChildContribution:
    """Summary of one neighbouring subtree as seen from its attach vertex.

    `closed_cost` is the folded value of crossing the bridge, covering the
    subtree and coming back; `saving` is the gain from ending the walk
    inside the subtree instead of coming back.
    """

    block: int
    entry: int
    closed_cost: int
    saving: int
    skipped: bool
    # the block's records for 0 and 1 free ends, as seen from across the bridge
    records: tuple


def _top_ends(options, ends: int) -> list:
    """The at most `ends` (saving, end) options with the largest positive
    savings, largest first; a tie goes to the earlier option."""
    top: list = []
    for opt in options:
        if opt is None or opt[0] <= 0:
            continue
        i = len(top)
        while i and opt[0] > top[i - 1][0]:
            i -= 1
        if i < ends:
            top.insert(i, opt)
            del top[ends:]
    return top


def _record(pivot: int, mode, top: list, ends: int):
    """Record of a walk with `ends` free ends that stops at the `top`
    options, largest saving first.  With one free end the walk starts at
    the pivot (end1 is None); with two it runs from top[0] to top[1]."""
    if ends == 0 or not top:
        return pivot, mode, None, None
    if ends == 1:
        return pivot, mode, None, top[0][1]
    return pivot, mode, top[0][1], top[1][1] if len(top) > 1 else None


def dp_single_vertex(closed: int, top: list, ends: tuple[int, ...]):
    """DP step for a single-vertex block whose children's round trips sum
    to `closed`; `top` lists the largest positive savings of ending the
    walk inside a child, as (saving, end), largest first.  Returns
    [(value, record)] for each free-end count in `ends`."""
    out = []
    for e in ends:
        value = closed
        for saving, _ in top[:e]:
            value -= saving
        out.append((value, _record(0, ("vertex",), top, e)))
    return out


def _arms(seq: list, entry: int) -> tuple[list, list]:
    """The cycle `seq` read from its pivot at `entry`, clockwise and
    counter-clockwise, the pivot left out.  Every right arm is a prefix of
    the first, every left arm of the second."""
    before, after = seq[:entry], seq[entry + 1:]
    return after + before, before[::-1] + after[::-1]


def _arm_table(top_at: list, back: int):
    """Per depth d = 0..len(top_at) of the arm that visits these positions
    in order: the saving of the best end of walk within depth d, where
    that end leaves the arm (None at the tip, else (depth i, child)), and
    the depth of the deepest vertex within d that must be visited (one
    with neighbours, top_at not None).

    Ending at depth i saves i steps back of weight `back`, plus the
    child's saving when the walk ends inside one.  A tie goes to the tip,
    then to the shallower vertex, then to the earlier child.
    """
    saving, src, deep = [0], [None], [0]
    best, best_src, tip = -1, None, 0
    for d, top in enumerate(top_at, 1):
        tip += back
        if top and tip + top[0].saving > best:
            best, best_src = tip + top[0].saving, (d, top[0].block)
        saving.append(best if best > tip else tip)
        src.append(best_src if best > tip else None)
        deep.append(deep[-1] if top is None else d)
    return saving, src, deep


def _arm_end(name: str, saving: list, src: list, d: int):
    """The (saving, end) option of an arm walked to depth d, from its table."""
    if d == 0:
        return None
    return saving[d], (name, d, None) if src[d] is None else (name, *src[d])


# (right, left) arm depths short of the arm lengths, in candidate order
# (right depth ascending, then left); the shorter arm may stop one vertex
# early only when the other walks its whole length
_SHORTFALLS = ((2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0))


def dp_cycle(top_at: list, closed: int, entry: int, at_entry: list,
             weights: tuple[int, int], ends: tuple[int, ...]):
    """DP step for a cycle block with its pivot at position `entry`.

    `top_at[p]` lists the children at position p with the best savings,
    largest first, or is None when p has no neighbours; `closed` is the
    children's round trips.  `at_entry` holds the walk-end options
    (saving, end) at the pivot, less the neighbour the block is seen from.
    Candidates: walk the full perimeter, or pick one cycle edge to leave
    unwalked and treat the rest as a chain with two arms (the walk may
    stop one or two vertices short of an arm tip when adjacency still
    covers the rest).  Each arm holds at most one free end and the pivot's
    children the rest.  Values are folded with the step `weights`, (new,
    back) (see above).
    Returns [(value, record)] for each free-end count in `ends`, each the
    first strict minimum in candidate order.
    """
    t = len(top_at)
    new, back = weights
    step = new + back
    right, left = _arms(top_at, entry)
    sav_r, src_r, deep_r = _arm_table(right, back)
    sav_l, src_l, deep_l = _arm_table(left, back)
    e0 = at_entry[0][0] if at_entry else 0
    e1 = at_entry[1][0] if len(at_entry) > 1 else 0
    # the first minimum for 0, 1 and 2 free ends: value and arm depths
    # (a, b), None for once around
    v0 = (t - 1) * new + back + closed
    v1, v2 = v0 - e0, v0 - e0 - e1
    w0 = w1 = w2 = None
    for j in range(t):
        # edge (j, j + 1) unwalked: the right arm runs to j, the left arm
        # back round to j + 1
        m_r = (j - entry) % t
        m_l = t - 1 - m_r
        free_r, free_l = m_r - deep_r[m_r], m_l - deep_l[m_l]
        for short_r, short_l in _SHORTFALLS:
            if short_r > free_r or short_l > free_l:
                continue
            a, b = m_r - short_r, m_l - short_l
            value = closed + (a + b) * step
            if value < v0:
                v0, w0 = value, (a, b)
            hi, lo = sav_r[a], sav_l[b]
            if lo > hi:
                hi, lo = lo, hi
            top1 = hi if hi > e0 else e0
            if value - top1 < v1:
                v1, w1 = value - top1, (a, b)
            # the two largest of hi, lo, e0 and e1, knowing e0 >= e1
            top2 = hi + (lo if lo >= e0 else e0) if hi >= e0 else e0 + (hi if hi > e1 else e1)
            if value - top2 < v2:
                v2, w2 = value - top2, (a, b)
    out = []
    for e in ends:
        value, depths = ((v0, w0), (v1, w1), (v2, w2))[e]
        if depths is None:
            out.append((value, _record(entry, ("perim",), at_entry, e)))
        else:
            a, b = depths
            arms = [_arm_end("armR", sav_r, src_r, a), _arm_end("armL", sav_l, src_l, b)]
            out.append((value, _record(entry, ("chain", a, b),
                                       _top_ends(arms + at_entry, e), e)))
    return out


# A cycle root has both ends free, and then a walk's saving depends on
# where its ends are, not on the pivot.  Every candidate of `dp_cycle` walks
# an arc out and back at `step` per arc edge: the cycle less the edge into
# position r, or less a run of s = 1 or 2 neighbourless positions from r
# (`_SHORTFALLS`), so the arc runs from r + s round to r - 1.  Ends at arc
# positions u before w save their distance along the arc times `back`, plus
# c(u) + c(w), c the best child saving at a position (0 if none); both
# ends in the children of one position p save d(p), its two best child
# savings summed.  A pivot p scores a pair only when it lies on the arc
# from u to w, so the first pivot to reach a pair is u, or 0 when the walk
# from u to w crosses t - 1 -> 0, and a double end at p is reached from p.
# Folded as saving * t - pivot, one maximum gives both the least value and
# its first pivot.  The fold splits into a share per end, so each arc reads
# its best pair from prefix and suffix tables over the t positions, and a
# block costs O(t).

# stands for the best of no pairs at all
_NO_PAIR = float("-inf")


def _pairs(first: list, second: list) -> list:
    """At each index i, the best first[u] + second[w] over u < w <= i."""
    return [*accumulate(map(add, accumulate(first, max, initial=_NO_PAIR), second), max)]


def cycle_root(top_at: list, closed: int, weights: tuple[int, int]) -> tuple[int, int]:
    """The least over all pivots of `dp_cycle`'s value for 2 free ends,
    and the first pivot that reaches it, from integers alone."""
    t = len(top_at)
    new, back = weights
    step = new + back
    c = [top[0].saving if top else 0 for top in top_at]
    d = [sum(x.saving for x in top) if top else 0 for top in top_at]
    # over all positions: one that an arc leaves out has d = 0, and every
    # arc of two or more positions holds a pair that saves more
    double = max(x * t - p for p, x in enumerate(d))
    # the folded saving of ends at u < w is first[u] + second[w], and of a
    # walk from u > w across t - 1 -> 0 it is across[u] + second[w]
    first = [(x - u * back) * t - u for u, x in enumerate(c)]
    second = [(x + w * back) * t for w, x in enumerate(c)]
    across = [(x + (t - u) * back) * t for u, x in enumerate(c)]
    # pre[i]: the best u < w <= i, suf[i]: the best i <= u < w
    pre = _pairs(first, second)
    suf = _pairs(second[::-1], first[::-1])[::-1]
    second_pre = [*accumulate(second, max)]
    across_suf = [*accumulate(reversed(across), max)][::-1]
    # once around with both ends at one position; then the arcs less one
    # edge, which hold every pair and cost the same
    least = min(((t - 1) * new + back) * t - double,
                (t - 1) * step * t - max(suf[0], double, *map(add, across_suf[1:], second_pre)))
    for r in range(t):
        for s in (1, 2):
            if top_at[(r + s - 1) % t] is not None:
                break
            a = r + s  # the arc runs from a round to r - 1
            if s == t - 1:  # a single position, which holds both ends
                q = a % t
                ends = d[q] * t - q
            else:
                if r == 0:
                    pair = suf[s]
                elif a == t:
                    pair = pre[r - 1]
                elif a > t:  # the run holds t - 1 and 0: the arc is 1 .. t - 2
                    pair = _pairs(first[1:-1], second[1:-1])[-1]
                else:
                    pair = max(suf[a], pre[r - 1], across_suf[a] + second_pre[r - 1])
                ends = max(pair, double)
            least = min(least, (t - 1 - s) * step * t - ends)
    return divmod(closed * t + least, t)


_order_key = attrgetter("entry", "block")
# all that the block a contribution is handed to reads of it
_read_on = attrgetter("closed_cost", "saving", "skipped")


def _rank(top: list, c: ChildContribution) -> None:
    """Put c among `top`, the at most two best positive savings at one
    position, largest first; a tie goes to the earlier in _order_key order."""
    if c.skipped or c.saving <= 0:
        return
    i = len(top)
    while i and (c.saving > top[i - 1].saving or c.saving == top[i - 1].saving
                 and _order_key(c) < _order_key(top[i - 1])):
        i -= 1
    if i < 2:
        top.insert(i, c)
        del top[2:]


class _Rerooted:
    """DP values of every block as seen across each of its bridges.  The
    two passes start from block `start`; every start gives the same tables.
    `remove_leaf` keeps them up to date as leaf blocks are deleted."""

    def __init__(self, tvc: WeightedVertexCactus, bt: BlockTree, start: int = 0):
        self.bt = bt
        unit = sum(len(a) for a in tvc.adjacency) + 1
        # (new, back): a step onto a new vertex, a step back onto a visited one
        self.weights = (unit, unit + 1)
        # handed[b][towards]: the contribution b handed its neighbour `towards`
        self.handed: list[dict[int, ChildContribution]] = [{} for _ in bt.blocks]
        # what the step of each block reads of its neighbours' contributions,
        # kept up to date as they arrive: closed[b], the sum of their closed
        # costs, and top_at[b][p], the two with the best positive savings at
        # position p, in _top_ends order (None while p has no neighbour)
        self.closed = [0] * len(bt.blocks)
        self.top_at: list[list] = [[None] * len(verts) for _, verts in bt.blocks]
        # bridge[b][other]: (weight, own attach vertex, its position in b),
        # in the _order_key order of what `other` hands b: by other's attach
        # vertex, then by block
        self.bridge: list[dict[int, tuple[int, int, int]]] = []
        for b, (_, verts) in enumerate(bt.blocks):
            pos = {v: i for i, v in enumerate(verts)}
            self.bridge.append({other: (w, own, pos[own]) for other, w, own, _theirs
                                in sorted(bt.tree[b], key=lambda e: (e[3], e[0]))})
        parent = {start: -1}
        order = [start]
        for b in order:
            for other in self.bridge[b]:
                if other not in parent:
                    parent[other] = b
                    order.append(other)
        for b in reversed(order[1:]):
            self._push(b, parent[b])
        for b in order:
            for other in self.bridge[b]:
                if other != parent[b]:
                    self._push(b, other, self.handed[other][b])
        # each block's least value as the root, None once it is removed
        self.value: list[int | None] = [self.root(b)[0] for b in range(bt.n_blocks)]

    def _by_position(self, b: int, up: int | None) -> dict[int, list[ChildContribution]]:
        """The neighbours of b other than `up` that must be entered, by
        attach position."""
        out: dict[int, list[ChildContribution]] = {}
        for other, (_, _, p) in self.bridge[b].items():
            c = self.handed[other][b]
            if other != up and not c.skipped:
                out.setdefault(p, []).append(c)
        return out

    def _step(self, b: int, seen, pivot: int, ends: tuple[int, ...]):
        """The DP step of block b with pivot at position `pivot`, leaving
        out `seen`, the contribution of the neighbour attached there (None
        for a root, or before that neighbour has handed b its part)."""
        closed, top_at = self.closed[b], self.top_at[b]
        if seen is not None and not seen.skipped:
            closed -= seen.closed_cost
        at_pivot = [(c.saving, ("child", c.block))
                    for c in top_at[pivot] or () if c is not seen]
        if self.bt.blocks[b][0] == "vertex":
            return dp_single_vertex(closed, at_pivot, ends)
        return dp_cycle(top_at, closed, pivot, at_pivot, self.weights, ends)

    def _push(self, b: int, towards: int, seen=None) -> None:
        """Block b seen across its bridge to `towards`, handed to `towards`
        as a child contribution; `seen` is what `towards` handed b."""
        w, own, e_pos = self.bridge[b][towards]
        (d_l, closed), (d_p, open_) = self._step(b, seen, e_pos, (0, 1))
        new, back = self.weights
        c = self.handed[b][towards] = ChildContribution(
            block=b,
            entry=own,
            # over the bridge onto a new vertex, back as a revisit
            closed_cost=d_l + w * (new + back),
            saving=d_l - d_p + w * back,
            skipped=self.bt.blocks[b][0] == "vertex" and len(self.bridge[b]) == 1,
            records=(closed, open_),
        )
        tops = self.top_at[towards]
        p = self.bridge[towards][b][2]
        tops[p] = tops[p] or []
        if not c.skipped:
            self.closed[towards] += c.closed_cost
        _rank(tops[p], c)

    def _drop(self, b: int, towards: int) -> None:
        """Take the contribution b handed `towards` out of towards' tables.
        top_at at its position is ranked again if it was there, and is None
        if no other neighbour is left there."""
        old = self.handed[b][towards]
        if not old.skipped:
            self.closed[towards] -= old.closed_cost
        p = self.bridge[towards][b][2]
        at_p = [self.handed[other][towards] for other, (_, _, q) in self.bridge[towards].items()
                if q == p and other != b]
        tops = self.top_at[towards]
        if not at_p:
            tops[p] = None
        elif any(c is old for c in tops[p]):
            tops[p] = []
            for c in at_p:
                _rank(tops[p], c)

    def remove_leaf(self, leaf: int) -> None:
        """Delete leaf block `leaf` and its bridge, and bring the tables of
        the blocks left to what a fresh build on them would hold.

        Only the contributions that point away from the leaf change.  They
        are recomputed outwards from its neighbour, and a branch stops at
        the first one whose (closed_cost, saving, skipped) comes out as it
        was: what lies beyond reads nothing else of it.  The blocks that
        lost or took a changed contribution are scored again as roots."""
        (attach,) = self.bridge[leaf]
        gone, p = self.handed[leaf][attach], self.bridge[attach][leaf][2]
        self._drop(leaf, attach)
        del self.bridge[attach][leaf], self.handed[attach][leaf]
        self.bridge[leaf], self.handed[leaf], self.top_at[leaf] = {}, {}, []
        self.value[leaf] = None
        if (gone.skipped and self.top_at[attach][p] is not None
                and (self.bt.blocks[attach][0] == "cycle" or len(self.bridge[attach]) > 1)):
            # of a skipped leaf its neighbour reads only that position p
            # has a neighbour, and p still has one; nor does it turn into
            # a skipped leaf itself: its tables read as before
            return
        changed = [attach]
        queue = [(attach, towards) for towards in self.bridge[attach]]
        for b, towards in queue:
            old = self.handed[b][towards]
            self._drop(b, towards)
            self._push(b, towards, self.handed[towards][b])
            if _read_on(self.handed[b][towards]) != _read_on(old):
                changed.append(towards)
                queue += [(towards, other) for other in self.bridge[towards] if other != b]
        for b in changed:
            self.value[b] = self.root(b)[0]

    def root(self, b: int) -> tuple[int, int]:
        """Block b's least value as the root with both ends free, and the
        first pivot that reaches it."""
        if self.bt.blocks[b][0] == "vertex":
            return self.closed[b] - sum(c.saving for c in self.top_at[b][0] or ()), 0
        return cycle_root(self.top_at[b], self.closed[b], self.weights)

    # -- reconstruction ----------------------------------------------------
    # Item lists mix vertices with (free ends, block, up) tokens: walk
    # `block`, entered from its neighbour `up`, with 0 or 1 free ends.

    def _expand(self, items: list) -> list[int]:
        """Replace tokens by their items until only vertices are left."""
        walk: list[int] = []
        stack = items[::-1]
        while stack:
            item = stack.pop()
            if isinstance(item, int):
                walk.append(item)
            else:
                ends, b, up = item
                # a bridge record pins end1 to the pivot: its head is empty
                _, rest = self._items(b, up, self.handed[b][up].records[ends])
                stack.extend(reversed(rest))
        return walk

    def _exc(self, b: int, pos_kids, p: int, omit=()) -> list:
        """Round trips into the children hanging at position p of block b."""
        items: list = []
        vtx = self.bt.blocks[b][1][p]
        for c in pos_kids.get(p, []):
            if c.block not in omit:
                items += [(0, c.block, b), vtx]
        return items

    def _perimeter(self, b: int, pos_kids, start: int, omit=()) -> list:
        """Once around cycle b from position `start` and back to it."""
        verts = self.bt.blocks[b][1]
        clockwise, _ = _arms([*range(len(verts))], start)
        items = [verts[start]] + self._exc(b, pos_kids, start, omit)
        for p in clockwise:
            items += [verts[p]] + self._exc(b, pos_kids, p)
        return items + [verts[start]]

    def _arm_open(self, b, pos_kids, arm, depth, i_end, child) -> list:
        """Out along `arm` to `depth`, back to depth `i_end`, then into
        `child` (when given) without coming back."""
        verts = self.bt.blocks[b][1]
        items: list = []
        for i in range(depth):
            omit = (child,) if i == i_end - 1 else ()
            items += [verts[arm[i]]] + self._exc(b, pos_kids, arm[i], omit)
        items += [verts[arm[i]] for i in range(depth - 2, max(i_end - 2, -1), -1)]
        if child is not None:
            items.append((1, child, b))
        return items

    def _arm_closed(self, b, pos_kids, arm, depth, pivot) -> list:
        items = self._arm_open(b, pos_kids, arm, depth, 0, None)
        return items + [self.bt.blocks[b][1][pivot]] if depth else items

    def _items(self, b: int, up: int | None, record) -> tuple[list, list]:
        """Items of block b's record, entered from `up` (None for a root),
        as (head, rest): head runs from the pivot out to end1, rest from
        the pivot on to end2, so the walk is head reversed, then rest."""
        verts = self.bt.blocks[b][1]
        pos_kids = self._by_position(b, up)
        p, mode, *ends = record
        at_pivot = [e[1] for e in ends if e is not None and e[0] == "child"]
        arms = {}
        if mode[0] == "perim":
            middle = self._perimeter(b, pos_kids, p, omit=at_pivot)
        else:
            middle = [verts[p]] + self._exc(b, pos_kids, p, omit=at_pivot)
        if mode[0] == "chain":
            right, left = _arms([*range(len(verts))], p)
            arms = {"armR": (right, mode[1]), "armL": (left, mode[2])}
            open_arms = {e[0] for e in ends if e is not None}
            for name, (arm, depth) in arms.items():
                if name not in open_arms:
                    middle += self._arm_closed(b, pos_kids, arm, depth, p)
        head, tail = (
            [] if e is None
            else [(1, e[1], b)] if e[0] == "child"
            else self._arm_open(b, pos_kids, *arms[e[0]], e[1], e[2])
            for e in ends
        )
        return head, middle + tail

    def emit_root(self, r: int, record) -> list[int]:
        """The vertex-cactus walk of root r's record, built without recursion."""
        head, rest = self._items(r, None, record)
        return self._expand(head)[::-1] + self._expand(rest)


def solve_root_choices(dp: _Rerooted):
    """(folded value, root, record) of the first best root in block order,
    from the root values `dp` keeps.  Only that root runs the step, once,
    at its first best pivot."""
    value = min(v for v in dp.value if v is not None)
    root = dp.value.index(value)
    _, pivot = dp.root(root)
    (check, record), = dp._step(root, None, pivot, (2,))
    assert check == value, "root value drifted from the DP step"
    return value, root, record


def _walk_weight(tvc: WeightedVertexCactus, walk: list[int]) -> int:
    total = 0
    for a, b in zip(walk, walk[1:]):
        for nb, wt in tvc.adjacency[a]:
            if nb == b:
                total += wt
                break
        else:
            raise AssertionError(f"walk step ({a},{b}) is not an edge of T")
    return total


class CactusSolver:
    """The covering-walk DP of a connected cactus, built once and kept up
    to date as pendant vertices are removed from it.

    A pendant removed in place leaves the numbering a fresh build on the
    vertices left would give, in relative order: vertex ids, copy ids and
    block ids, and the cycles with their listings and hubs.  Those orders
    are the solver's only tie-breaks, so `walk` returns the fresh build's
    walk.  The step weights stay the first build's.  Their `unit` is
    larger than a fresh build's and orders any two candidate walks the
    same way, since every candidate makes fewer revisits than either unit.
    """

    def __init__(self, g: Graph):
        decomp = validate_cactus(g)
        self.g = g
        self.tvc = build_vertex_cactus(g, decomp)
        self.bt = build_block_tree(self.tvc)
        self.dp = _Rerooted(self.tvc, self.bt)
        self.removed: set[int] = set()
        self.first = 0  # the least vertex left, where validate_cactus starts its DFS
        self.blocks = self.bt.n_blocks  # blocks left

    def remove_pendant(self, v: int) -> bool:
        """Remove vertex v in place if it has one neighbour left, unless v
        is the least vertex left while a cycle is left too; otherwise
        remove nothing and return False.

        The DFS of a fresh build visits and pops such a v with no back
        edge, so the cycles it finds do not change.  From the least vertex
        it would start elsewhere, which with a cycle left can change the
        order the cycles are found in, or a cycle's listing or hub."""
        if (sum(u not in self.removed for u in self.g.adjacency[v]) != 1
                or v == self.first and self.tvc.cycles):
            return False
        self.removed.add(v)
        while self.first in self.removed:
            self.first += 1
        self.dp.remove_leaf(self.bt.block_of[v])
        self.blocks -= 1
        return True

    def walk(self) -> CoveringPath:
        """Minimum-length 1-covering walk of the vertices left, with the
        fewest revisits among those; every cost identity is asserted."""
        g, tvc, dp = self.g, self.tvc, self.dp
        if self.blocks == 1 and tvc.cycles:
            # a lone cycle: every vertex but the last two of its listing
            verts = tvc.cycles[0]
            path = CoveringPath.from_vertices(g, [tvc.origin[v] for v in verts[: len(verts) - 2]])
        else:
            value, root, record = solve_root_choices(dp)
            length, revisits = divmod(value, dp.weights[0])
            t_walk = dp.emit_root(root, record)
            assert _walk_weight(tvc, t_walk) == length, "reconstructed walk weight drifted"
            g_walk: list[int] = []
            for tv in t_walk:
                ov = tvc.origin[tv]
                if not g_walk or g_walk[-1] != ov:
                    g_walk.append(ov)
            path = CoveringPath.from_vertices(g, g_walk)
            assert path.length == length, "collapsed walk length drifted"
            assert path.k - path.k_distinct == revisits, "walk revisit count drifted"
        assert len(path.covered - self.removed) == g.n - len(self.removed), \
            "solver produced a non-covering walk"
        return path


def solve_cactus(g: Graph) -> CoveringPath:
    """Minimum-length 1-covering walk of a connected cactus.

    Among the walks of minimum length it returns one with the fewest
    revisits, so the walk is simple whenever some shortest covering walk
    is; ties beyond that fall to enumeration order.
    """
    return CactusSolver(g).walk()
