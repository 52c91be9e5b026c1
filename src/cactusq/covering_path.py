"""Shortest non-simple 1-covering walks on cactus graphs.

A walk P 1-covers G when every vertex is on P or adjacent to a vertex of
P.  `CactusSolver` finds a minimum-length such walk in polynomial time by
a dynamic program over the block tree of the weighted vertex cactus, and
keeps its tables up to date as vertices are removed (pendants, and those
that open a cycle), for graphs that shrink a vertex at a time (the QFT
stages); `solve_cactus` solves a graph once.  `brute_force_oracle` is the
exponential BFS reference used to validate it.
Among the shortest covering walks the DP prefers the one with the fewest
revisits (the most distinct vertices), so it returns a simple walk
whenever a simple walk is as short as any covering walk.

Conventions: `k` is the number of walk elements, `length` = k - 1 edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import add, attrgetter

from .graph_core import (
    Graph,
    NotConnected,
    build_block_tree,
    build_vertex_cactus,
    validate_cactus,
)

# largest vertex count the exponential brute-force walks accept
ORACLE_LIMIT = 16


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


def _shortest_walk(g: Graph, mask_of) -> CoveringPath:
    """Shortest walk whose vertices' bit masks, `mask_of(v)`, together
    cover every vertex, by BFS over (vertex, union of the masks so far).
    Exponential in n; raises TooLarge above ORACLE_LIMIT vertices, and
    NotConnected when no walk covers every vertex."""
    if g.n > ORACLE_LIMIT:
        raise TooLarge(f"n={g.n} exceeds the oracle limit {ORACLE_LIMIT}")
    full = (1 << g.n) - 1
    mask = [mask_of(v) for v in range(g.n)]
    # the n start states, one per vertex
    queue: deque[tuple[int, int]] = deque((v, mask[v]) for v in range(g.n))
    parent: dict[tuple[int, int], tuple[int, int] | None] = dict.fromkeys(queue)
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
    raise NotConnected("no walk covers every vertex: the graph is not connected")


def brute_force_oracle(g: Graph) -> CoveringPath:
    """Exact shortest 1-covering walk by BFS over (vertex, covered-set).

    Exponential in n; raises TooLarge above ORACLE_LIMIT vertices.
    """
    return _shortest_walk(g, lambda v: (1 << v) | sum(1 << u for u in g.adjacency[v]))


def brute_force_visit_all(g: Graph) -> CoveringPath:
    """Shortest walk visiting every vertex (BFS over (vertex, visited-set))."""
    return _shortest_walk(g, lambda v: 1 << v)


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
# Each bridge direction has one contribution, built with the bridge's
# facts and updated in place by every push; a block files what it is
# handed by attach position, in the order its neighbours' walks are laid
# out there.  A step reads per-block arrays kept up to date as
# contributions arrive: their closed costs summed, and at each position
# the two children with the best savings (None where no neighbour
# attaches).  Leaving out `up` touches only its own position, the pivot,
# which no arm reads.  A cycle step scores once around and one chain per
# clockwise tip as integers, keeps the first minimum per count of free
# ends and builds records for those alone.  A push asks for 0 and 1 free
# ends.  Roots do not run the step to be scored: with both ends free a
# walk's saving depends only on where its two ends are, so one O(t) scan
# over a cycle's arcs (`cycle_root`) folds each saving with the first
# pivot that reaches it and gives the block's least root value and that
# pivot together.  Only the winning root runs the step, once, at that
# pivot, for its record.
#
# Every record has one shape, (pivot, mode, end1, end2).  The mode is
# ("vertex",), ("perim",) (once around the cycle) or ("chain", a, b) (the
# clockwise and counter-clockwise arms from the pivot, `_arms`, walked to
# depths a and b; the s = t - 1 - a - b positions between their tips are
# left out).  An end is None, ("child", block) (the walk ends inside a
# child at the pivot) or ("armR"|"armL", depth, child) (the walk ends on
# an arm, or in a child hanging there).  The walk runs from end1 through
# the pivot to end2; with fewer than 2 free ends, end1 (then end2) is
# pinned to the pivot.
# Emission turns a record into items, popped off an explicit stack (a
# vertex, or a neighbouring block to walk with 0 or 1 free ends), so the
# depth of the block tree does not matter.  One walker decodes every arm
# (`_walk_arm`): out to its depth with each vertex's child round trips,
# back to the pivot or to where an end leaves it.  Once around is that
# walker over the whole clockwise arm, plus the closing edge.  Every walk
# is decoded from a record and checked the same way, a lone cycle's too:
# its walk, every vertex but the last two of the listing, is the chain
# record that takes the clockwise arm from position 0 to depth t - 3.
#
# Every DP value folds two keys into one integer: unit * length + revisits,
# where a revisit is a step onto a vertex the walk has already visited.
# The walk's step weights are one pair, `weights = (new, back) = (unit,
# unit + 1)`: a step out onto a new vertex weighs `new`, a step back onto a
# visited one weighs `back`.  `CactusSolver` holds the pair and passes it
# to every step, root scan and bridge.  Every cycle edge of the vertex cactus
# weighs 1, so once around a cycle of t vertices costs (t - 1) * new + back.
# No candidate walk crosses an edge of the vertex cactus more than twice,
# so with `unit` above twice its edge count the integers order walks by
# length first and break length ties towards fewer revisits.  A revisit in
# the vertex cactus is a revisit of the original graph: copies of a vertex
# are joined only through weight-0 bridges, which the walk has to cross.
#
# The tables outlive a solve.  Removing a pendant vertex deletes a leaf
# block and its bridge (`CactusSolver.remove_pendant`): its contribution is
# unfiled from the neighbour's attach position, whose top_at is ranked
# again from what that position files alone, or goes back to None when no
# neighbour is left there.  Only the contributions that point away from
# the leaf can change.  They are recomputed outwards, and a branch stops
# at the first one whose closed cost, saving and skip come out as before.
# Removing the one vertex of a cycle that has no other neighbours opens the
# cycle into a path of bridges (`CactusSolver.open_cycle`): what its
# neighbours handed it keeps its value and is filed on the path, the path's
# own bridges are scored both ways, and what points away from the path is
# recomputed outwards by the same rule.
# A block is scored as a root when a walk first asks, and keeps that score
# until its tables change, which every later push into it follows.
# A lone cycle is never scored.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ChildContribution:
    """What `block` hands the block across one bridge: its subtree as seen
    from `entry`, its end of the bridge.  `position` (of the other end, in
    the receiving block) and `weight` are the bridge's; each push updates
    the rest in place.  `closed_cost` is the folded value of crossing the
    bridge, covering the subtree and coming back; `saving` is the gain
    from ending the walk inside the subtree instead of coming back."""

    block: int
    entry: int
    position: int
    weight: int
    closed_cost: int = 0
    saving: int = 0
    skipped: bool = False
    # the block's records for 0 and 1 free ends, as seen from across the bridge
    records: tuple = ()


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
    """The cycle `seq` read clockwise and counter-clockwise from its pivot
    at `entry`, each arm from the pivot on: its entry at depth d is at
    index d.  Every right arm is a prefix of the first, every left arm of
    the second."""
    return seq[entry:] + seq[:entry], seq[entry::-1] + seq[:entry:-1]


def _arm_table(arm: list, back: int):
    """Per depth d = 0..len(arm) - 1 of `arm`, the top_at entries of a
    cycle arm from the pivot at depth 0 on: the saving of the best end of
    walk within depth d, and where that end leaves the arm (None at the
    tip, else (depth i, child)).

    Ending at depth i saves i steps back of weight `back`, plus the
    child's saving when the walk ends inside one.  A tie goes to the tip,
    then to the shallower vertex, then to the earlier child.
    """
    saving, src = [0], [None]
    best, best_src, tip = -1, None, 0
    for d, top in enumerate(islice(arm, 1, None), 1):
        tip += back
        if top and tip + top[0].saving > best:
            best, best_src = tip + top[0].saving, (d, top[0].block)
        saving.append(best if best > tip else tip)
        src.append(best_src if best > tip else None)
    return saving, src


def _arm_end(name: str, saving: list, src: list, d: int):
    """The (saving, end) option of an arm walked to depth d, from its table."""
    if d == 0:
        return None
    return saving[d], (name, d, None) if src[d] is None else (name, *src[d])


def dp_cycle(top_at: list, closed: int, entry: int, at_entry: list,
             weights: tuple[int, int], ends: tuple[int, ...]):
    """DP step for a cycle block with its pivot at position `entry`.

    `top_at[p]` lists the children at position p with the best savings,
    largest first, or is None when p has no neighbours; `closed` is the
    children's round trips.  `at_entry` holds the walk-end options
    (saving, end) at the pivot, less the neighbour the block is seen from.
    Candidates: walk the full perimeter, or a chain of two arms from the
    pivot, the clockwise one to depth a and the other to depth b, that
    leaves out the whole run of at most 2 positions with no neighbours
    after the clockwise tip (adjacency covers them).  Each arm
    holds at most one free end and the pivot's children the rest.  Values
    are folded with the step `weights`, (new, back) (see above).
    Returns [(value, record)] for each free-end count in `ends`, each the
    first strict minimum in candidate order.
    """
    t = len(top_at)
    new, back = weights
    step = new + back
    right, left = _arms(top_at, entry)
    sav_r, src_r = _arm_table(right, back)
    sav_l, src_l = _arm_table(left, back)
    # room[a]: how many positions in a row after depth a of the clockwise
    # arm have no neighbours, at most 2 and none past the arm's end; the
    # chain whose clockwise tip is at depth a leaves out that many
    room = [0] * t
    for d in range(t - 2, -1, -1):
        if right[d + 1] is None:
            room[d] = 2 if room[d + 1] else 1
    e0 = at_entry[0][0] if at_entry else 0
    e1 = at_entry[1][0] if len(at_entry) > 1 else 0
    # the first minimum for 0, 1 and 2 free ends: value and arm depths
    # (a, b), None for once around
    v0 = (t - 1) * new + back + closed
    v1, v2 = v0 - e0, v0 - e0 - e1
    w0 = w1 = w2 = None
    # One chain per clockwise tip j, the one that leaves out the whole
    # neighbourless run after it: a shorter run walks the other arm one
    # position further, out and back at new + back, where no child lets an
    # end save more than `back` more, so it scores strictly worse for any
    # count of free ends.  A run that holds position 0 is met first, its
    # tip at t - 2 or t - 1 read as j = -2 or -1 (which reach 0 only with
    # s = 2 and s >= 1); j = t - 2 or t - 1 meets it again, and a repeat
    # never wins a strict minimum.  So chains come in the order of their
    # least unwalked edge (i, i + 1 mod t).
    for j in range(-2, t):
        a = (j - entry) % t
        s = room[a]
        if j + s < 0:
            continue
        b = t - 1 - a - s
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
# where its ends are, not on the pivot.  Every candidate of `dp_cycle`
# walks an arc out and back at `step` per arc edge: the cycle less the
# edge into position r, or less the whole run of s <= 2 neighbourless
# positions from r that its chain leaves out (an arc that keeps one of
# them walks one more edge to save at most one `back` more), so the arc
# runs from r + s round to r - 1.  Ends at arc positions u before w save
# their distance along the arc times `back`, plus c(u) + c(w), c the best
# child saving at a position (0 if none); both ends in the children of
# one position p save d(p), its two best child savings summed.  A pivot p scores a pair only
# when it lies on the arc from u to w, so the first pivot to reach a pair
# is u, or 0 when the walk from u to w crosses t - 1 -> 0, and a double
# end at p is reached from p.  Folded as saving * t - pivot, one maximum
# gives both the least value and its first pivot.  The fold splits into a
# share per end, so each arc reads its best pair from prefix and suffix
# tables over the t positions, and a block costs O(t).

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
        if top_at[r] is not None:
            continue
        s = 2 if top_at[(r + 1) % t] is None else 1
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


class CactusSolver:
    """The covering-walk DP of a connected cactus: the DP values of every
    block as seen across each of its bridges, built once and kept up to
    date as vertices whose removal keeps the rest connected are removed:
    pendants, and the lone vertices that open a cycle.  The two passes
    start from block `start`; every start gives the same tables.  A block
    is scored as a root only when `walk` first needs it, and a lone cycle
    never is.  The solver keeps its own blocks (kind, vertex-cactus ids)
    and `block_of`, which openings change.

    After any removals the tables equal a fresh build's on the vertices
    left, and so does the numbering, in relative order: vertex ids, copy
    ids (numbered by vertex, then cycle), and the cycles left with their
    listings, since `validate_cactus` numbers the cycles by their
    vertices.  A pendant takes its block with it.  An opening takes its
    cycle's block: a copy on that cycle joins its hub, and a hub there
    moves to its vertex's next cycle in place of the copy there, which is
    where a fresh build puts the hub.  The path's other vertices get
    blocks of their own, appended; a fresh build numbers them after the
    cycles by vertex, the order `solve_root_choices` ranks blocks in.
    Those orders are the solver's only tie-breaks, so `walk` returns the
    fresh build's walk.  Only the step weights differ: they stay the
    first build's.  Removals only take edges from the vertex cactus, so
    their `unit` is larger than a fresh build's, and it orders any two
    candidate walks the same way, since every candidate makes fewer
    revisits than either unit."""

    def __init__(self, g: Graph, start: int = 0):
        self.g = g
        tvc = build_vertex_cactus(g, validate_cactus(g))
        bt = build_block_tree(tvc)
        self.origin = tvc.origin
        self.blocks, self.block_of = list(bt.blocks), list(bt.block_of)
        self.removed: set[int] = set()
        unit = sum(len(a) for a in tvc.adjacency) + 1
        # (new, back): a step onto a new vertex, a step back onto a visited one
        self.weights = (unit, unit + 1)
        # handed[b][towards]: the contribution b hands its neighbour
        # `towards`; into[b][p]: a tuple of those handed to b at position p,
        # in _order_key order: by their attach vertex, then by block (None
        # while p has no neighbour)
        self.handed: list[dict[int, ChildContribution]] = [{} for _ in bt.blocks]
        self.into: list[list] = []
        for b, (_, verts) in enumerate(bt.blocks):
            where = {v: i for i, v in enumerate(verts)}
            self.into.append(at := [None] * len(verts))
            for other, w, own, theirs in sorted(bt.tree[b], key=lambda e: (e[3], e[0])):
                c = self.handed[other][b] = ChildContribution(other, theirs, where[own], w)
                at[c.position] = at[c.position] or []
                at[c.position].append(c)
            at[:] = [x and tuple(x) for x in at]  # a tuple holds no spare room
        # what the step of each block reads of its neighbours' contributions,
        # kept up to date as they arrive: closed[b], the sum of their closed
        # costs, and top_at[b][p], the two with the best positive savings at
        # position p, in _top_ends order (None while p has no neighbour)
        self.closed = [0] * len(bt.blocks)
        self.top_at: list[list] = [[None] * len(verts) for _, verts in bt.blocks]
        parent = {start: -1}
        order = [start]
        for b in order:
            for other in self.handed[b]:
                if other not in parent:
                    parent[other] = b
                    order.append(other)
        for b in reversed(order[1:]):
            self._push(b, parent[b])
        for b in order:
            for other in self.handed[b]:
                if other != parent[b]:
                    self._push(b, other, self.handed[other][b])
        # value[b]: root(b) once a walk asks for it, until b's tables change
        self.value: list[tuple[int, int] | None] = [None] * bt.n_blocks

    def _step(self, b: int, seen, pivot: int, ends: tuple[int, ...]):
        """The DP step of block b with pivot at position `pivot`, leaving
        out `seen`, the contribution of the neighbour attached there (None
        for a root, or before that neighbour has handed b its part)."""
        closed, top_at = self.closed[b], self.top_at[b]
        if seen is not None and not seen.skipped:
            closed -= seen.closed_cost
        at_pivot = [(c.saving, ("child", c.block))
                    for c in top_at[pivot] or () if c is not seen]
        if self.blocks[b][0] == "vertex":
            return dp_single_vertex(closed, at_pivot, ends)
        return dp_cycle(top_at, closed, pivot, at_pivot, self.weights, ends)

    def _push(self, b: int, towards: int, seen=None) -> None:
        """Block b seen across its bridge to `towards`, its contribution to
        `towards` updated in place and ranked there; `seen` is what
        `towards` handed b, whose position is b's pivot."""
        c, pivot = self.handed[b][towards], self.handed[towards][b].position
        (d_l, closed), (d_p, open_) = self._step(b, seen, pivot, (0, 1))
        new, back = self.weights
        # over the bridge onto a new vertex, back as a revisit
        c.closed_cost = d_l + c.weight * (new + back)
        c.saving = d_l - d_p + c.weight * back
        c.skipped = self.blocks[b][0] == "vertex" and len(self.handed[b]) == 1
        c.records = (closed, open_)
        tops = self.top_at[towards]
        tops[c.position] = tops[c.position] or []
        if not c.skipped:
            self.closed[towards] += c.closed_cost
        _rank(tops[c.position], c)

    def _drop(self, b: int, towards: int) -> None:
        """Take the contribution b handed `towards` out of towards' tables.
        top_at at its position is ranked again from what that position
        files if it was there, and is None if no other neighbour is left
        there; towards' root value is cleared."""
        old = self.handed[b][towards]
        self.value[towards] = None
        if not old.skipped:
            self.closed[towards] -= old.closed_cost
        p = old.position
        at_p = [c for c in self.into[towards][p] or () if c is not old]
        tops = self.top_at[towards]
        if not at_p:
            tops[p] = None
        elif any(c is old for c in tops[p]):
            tops[p] = []
            for c in at_p:
                _rank(tops[p], c)

    def remove_pendant(self, v: int) -> bool:
        """Remove vertex v in place if it is left and has one neighbour
        left; otherwise remove nothing and return False.  Such a v is on no
        cycle: its block is a leaf, deleted with its bridge.

        The leaf's contribution is unfiled from its attach position.  Only
        the contributions that point away from the leaf change.  They are
        recomputed outwards from its neighbour, and a branch stops at the
        first one whose (closed_cost, saving, skipped) comes out as it
        was: what lies beyond reads nothing else of it.  The leaf is left
        with no top_at, which marks it removed."""
        if v in self.removed or sum(u not in self.removed for u in self.g.adjacency[v]) != 1:
            return False
        self.removed.add(v)
        leaf = self.block_of[v]
        ((attach, gone),) = self.handed[leaf].items()
        p = gone.position
        self._drop(leaf, attach)
        at = self.into[attach]
        at[p] = tuple(c for c in at[p] if c is not gone) or None
        del self.handed[attach][leaf]
        self.handed[leaf], self.into[leaf], self.top_at[leaf] = {}, [], []
        # the leaf, a pendant vertex, is skipped: the push that left it one
        # bridge set that.  So its neighbour reads only that position p has
        # a neighbour, and if p still has one and the neighbour does not
        # turn into a skipped leaf itself, its tables read as before
        kept = at[p] is not None and (self.blocks[attach][0] == "cycle"
                                      or len(self.handed[attach]) > 1)
        if not kept:
            self._propagate([(attach, towards) for towards in self.handed[attach]])
        return True

    def _propagate(self, queue: list) -> None:
        """Recompute the contributions in `queue`, (block, towards) pairs,
        and onwards away from each one that comes out changed; one with no
        records, new or handed over from another block, always counts as
        changed.  A block that reads an unchanged contribution as before
        keeps its root value."""
        for b, towards in queue:
            c = self.handed[b][towards]
            before, scored = c.records and _read_on(c), self.value[towards]
            self._drop(b, towards)
            self._push(b, towards, self.handed[towards][b])
            if _read_on(c) != before:
                queue += [(towards, other) for other in self.handed[towards] if other != b]
            else:
                self.value[towards] = scored

    def open_cycle(self, v: int) -> bool:
        """Remove vertex v in place if its only neighbours left are its
        two on one cycle; otherwise remove nothing and return False.

        The cycle opens into a path of bridges over the vertices left on
        it, in cycle order.  Each path vertex takes the block a fresh build
        gives it: the block of its hub when it is a copy, the block of its
        next cycle when it is a hub with copies (it takes the place of its
        copy there), and else a new single-vertex block.  What the cycle's
        neighbours handed it keeps its value and is filed where its bridge
        now ends.  The path's bridges are scored along it both ways, as the
        two passes of a build would; then every contribution that points
        away from the path is recomputed outwards, as in `remove_pendant`."""
        if v in self.removed:
            return False
        cyc = self.block_of[v]
        kind, verts = self.blocks[cyc]
        q = verts.index(v) if kind == "cycle" else -1
        if q < 0 or self.into[cyc][q] is not None:
            return False
        self.removed.add(v)
        t = len(verts)
        order = [*range(q + 1, t), *range(q)]  # the path, as cycle positions
        homes = []  # (block, position) of each path vertex
        for i in order:
            u = self.origin[verts[i]]
            if verts[i] != u:  # a copy: its hub's block
                home = self.block_of[u]
                homes.append((home, self.blocks[home][1].index(u)))
            elif links := [c.entry for c in self.into[cyc][i] or () if c.weight == 0]:
                # a hub: onto its next cycle, that of its least copy
                copy = min(links)
                home = self.block_of[u] = self.block_of[copy]
                hkind, hverts = self.blocks[home]
                p = hverts.index(copy)
                self.blocks[home] = (hkind, (*hverts[:p], u, *hverts[p + 1:]))
                homes.append((home, p))
            else:
                home = self.block_of[u] = len(self.blocks)
                self.blocks.append(("vertex", (u,)))
                self.handed.append({})
                self.into.append([None])
                self.top_at.append([None])
                self.closed.append(0)
                self.value.append(None)
                homes.append((home, 0))
        # the path's bridges, not yet pushed; into_path[home]: those handed to home
        into_path = {home: [] for home, _ in homes}
        for (a, pa), (b, pb) in zip(homes, homes[1:]):
            self.handed[a][b] = ChildContribution(a, self.blocks[a][1][pa], pb, 1)
            self.handed[b][a] = ChildContribution(b, self.blocks[b][1][pb], pa, 1)
            into_path[b].append(self.handed[a][b])
            into_path[a].append(self.handed[b][a])
        for i, (home, p) in zip(order, homes):
            filed = into_path[home]
            if home in self.handed[cyc]:
                # the copy link that made home a neighbour of the cycle goes
                link = self.handed[cyc][home]
                self._drop(cyc, home)
                filed += [c for c in self.into[home][p] if c is not link]
                del self.handed[home][cyc]
            for c in self.into[cyc][i] or ():
                if c.block == home:
                    continue
                # c's bridge now ends at home, from the same vertex: c is
                # filed there, and the cycle's side of it becomes home's,
                # with no records until it is pushed
                out = self.handed[home][c.block] = self.handed[cyc][c.block]
                out.block, out.records = home, ()
                self.handed[c.block][home] = self.handed[c.block].pop(cyc)
                c.position = p
                filed.append(c)
                if not c.skipped:
                    self.closed[home] += c.closed_cost
            self.into[home][p] = tuple(sorted(filed, key=_order_key))
            self.top_at[home][p] = tops = []
            for c in self.into[home][p]:
                _rank(tops, c)
            self.value[home] = None
        self.handed[cyc], self.into[cyc], self.top_at[cyc] = {}, [], []
        self.value[cyc] = None
        path = [b for b, _ in homes]
        for a, b in zip(path, path[1:]):
            self._push(a, b, self.handed[b][a])
        for a, b in zip(path[::-1], path[-2::-1]):
            self._push(a, b, self.handed[b][a])
        on_path = set(path)
        self._propagate([(a, b) for a in path for b in self.handed[a] if b not in on_path])
        return True

    def root(self, b: int) -> tuple[int, int]:
        """Block b's least value as the root with both ends free, and the
        first pivot that reaches it."""
        if self.blocks[b][0] == "vertex":
            return self.closed[b] - sum(c.saving for c in self.top_at[b][0] or ()), 0
        return cycle_root(self.top_at[b], self.closed[b], self.weights)

    def walk(self) -> CoveringPath:
        """Minimum-length 1-covering walk of the vertices left, with the
        fewest revisits among those; every cost identity is asserted."""
        g, origin = self.g, self.origin
        new = self.weights[0]
        value, root, record = solve_root_choices(self)
        length, revisits = divmod(value, new)
        # the vertex-cactus walk of the root's record, built without recursion
        head, rest = self._items(root, None, record)
        t_walk = self._expand(head)[::-1] + self._expand(rest)
        assert self._walk_weight(t_walk) == length, "reconstructed walk weight drifted"
        g_walk: list[int] = []
        for tv in t_walk:
            ov = origin[tv]
            if not g_walk or g_walk[-1] != ov:
                g_walk.append(ov)
        path = CoveringPath.from_vertices(g, g_walk)
        assert path.length == length, "collapsed walk length drifted"
        assert path.k - path.k_distinct == revisits, "walk revisit count drifted"
        assert len(path.covered - self.removed) == g.n - len(self.removed), \
            "solver produced a non-covering walk"
        return path

    def _walk_weight(self, walk: list[int]) -> int:
        """The weight of a walk over the vertex cactus left; asserts that
        each step is one of its edges: two vertices of one cycle next to
        each other in g (a cactus has no chords), or the two ends of a
        bridge."""
        total = 0
        block_of, origin, handed = self.block_of, self.origin, self.handed
        for a, b in zip(walk, walk[1:]):
            ba, bb = block_of[a], block_of[b]
            c = handed[ba].get(bb)
            if c is None:
                assert ba == bb and self.g.has_edge(origin[a], origin[b]), \
                    f"walk step ({a},{b}) is not an edge of T"
                total += 1
            else:
                assert c.entry == a and handed[bb][ba].entry == b, \
                    f"walk step ({a},{b}) is not an edge of T"
                total += c.weight
        return total

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

    def _exc(self, b: int, p: int, omit=()) -> list:
        """Round trips into the neighbours filed at position p of block b,
        but for skipped ones and those in `omit`."""
        items: list = []
        vtx = self.blocks[b][1][p]
        for c in self.into[b][p] or ():
            if not c.skipped and c.block not in omit:
                items += [(0, c.block, b), vtx]
        return items

    def _walk_arm(self, b: int, arm: list, depth: int, back_to: int,
                  child: int | None = None) -> list:
        """Out along `arm`, the positions of cycle b from the pivot at
        arm[0], to `depth`, with the round trips into each vertex's
        children; back to depth `back_to` (0 is the pivot), then into
        `child` (when given) without coming back."""
        verts = self.blocks[b][1]
        omit = (child,)
        items: list = []
        for i in range(1, depth + 1):
            items += [verts[arm[i]]] + self._exc(b, arm[i], omit if i == back_to else ())
        items += [verts[arm[i]] for i in range(depth - 1, back_to - 1, -1)]
        if child is not None:
            items.append((1, child, b))
        return items

    def _items(self, b: int, up: int | None, record) -> tuple[list, list]:
        """Items of block b's record, entered from `up` (None for a root),
        as (head, rest): head runs from the pivot out to end1, rest from
        the pivot on to end2, so the walk is head reversed, then rest.
        `up` attaches at the pivot, the one position its walk leaves out."""
        verts = self.blocks[b][1]
        p, mode, *ends = record
        at_pivot = [up] + [e[1] for e in ends if e is not None and e[0] == "child"]
        middle = [verts[p]] + self._exc(b, p, omit=at_pivot)
        arms = {}
        if mode[0] != "vertex":
            right, left = _arms([*range(len(verts))], p)
            if mode[0] == "perim":
                # once around: the whole clockwise arm, then the closing edge
                tip = len(verts) - 1
                middle += self._walk_arm(b, right, tip, tip) + [verts[p]]
            else:
                arms = {"armR": (right, mode[1]), "armL": (left, mode[2])}
                open_arms = {e[0] for e in ends if e is not None}
                for name, (arm, depth) in arms.items():
                    if name not in open_arms:
                        middle += self._walk_arm(b, arm, depth, 0)
        head, tail = (
            [] if e is None
            else [(1, e[1], b)] if e[0] == "child"
            else self._walk_arm(b, *arms[e[0]], e[1], e[2])
            for e in ends
        )
        return head, middle + tail


def solve_root_choices(solver: CactusSolver):
    """(folded value, root, record) of the first best root in a fresh
    build's block order: the cycles by id, then the single vertices by
    vertex.  A block left (its top_at not empty) is scored unless `solver`
    keeps its score in `value`; only the winner runs the step, once, at
    its first best pivot.  A lone cycle is scored as no root: its walk is
    every vertex but the last two of its listing, the clockwise arm from
    position 0 to its tip at depth t - 3."""
    blocks, value = solver.blocks, solver.value
    live = [b for b, top_at in enumerate(solver.top_at) if top_at]
    first = live[0]
    if blocks[first][0] == "cycle" and not solver.handed[first]:
        t = len(blocks[first][1])
        record = (0, ("chain", t - 3, 0), None, ("armR", t - 3, None))
        return (t - 3) * solver.weights[0], first, record
    for b in live:
        if value[b] is None:
            value[b] = solver.root(b)
    # ties go to the cycles (ranked False, then by id) before the single
    # vertices, ranked by their vertex: blocks that openings add have ids
    # past the others
    root = min(live, key=lambda b: (value[b][0],
                                    blocks[b][0] == "vertex" and blocks[b][1][0]))
    best, pivot = value[root]
    (check, record), = solver._step(root, None, pivot, (2,))
    assert check == best, "root value drifted from the DP step"
    return best, root, record


def solve_cactus(g: Graph) -> CoveringPath:
    """Minimum-length 1-covering walk of a connected cactus.

    Among the walks of minimum length it returns one with the fewest
    revisits, so the walk is simple whenever some shortest covering walk
    is; ties beyond that fall to enumeration order.
    """
    return CactusSolver(g).walk()
