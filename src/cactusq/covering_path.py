"""Shortest non-simple 1-covering walks on cactus graphs.

A walk P 1-covers G when every vertex is on P or adjacent to a vertex of
P.  `solve_cactus` finds a minimum-length such walk in polynomial time by
a dynamic program over the block tree of the weighted vertex cactus;
`brute_force_oracle` is the exponential BFS reference used to validate it.
Among the shortest covering walks the DP prefers the one with the fewest
revisits (the most distinct vertices), so it returns a simple walk
whenever a simple walk is as short as any covering walk.

Conventions: `k` is the number of walk elements, `length` = k - 1 edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


def brute_force_oracle(g: Graph, limit: int = 16) -> CoveringPath:
    """Exact shortest 1-covering walk by BFS over (vertex, covered-set).

    Exponential in n; raises TooLarge above `limit` vertices.
    """
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds the oracle limit {limit}")
    full = (1 << g.n) - 1
    closed_nbhd = [
        (1 << v) | sum(1 << u for u in g.adjacency[v]) for v in range(g.n)
    ]
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for v in range(g.n):
        state = (v, closed_nbhd[v])
        if state not in parent:
            parent[state] = None
            queue.append(state)
    while queue:
        v, mask = state = queue.popleft()
        if mask == full:
            walk: list[int] = []
            cur: tuple[int, int] | None = state
            while cur is not None:
                walk.append(cur[0])
                cur = parent[cur]
            walk.reverse()
            return CoveringPath.from_vertices(g, walk)
        for u in g.adjacency[v]:
            nxt = (u, mask | closed_nbhd[u])
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    raise AssertionError("connected graph must admit a covering walk")


def brute_force_visit_all(g: Graph, limit: int = 16) -> CoveringPath:
    """Shortest walk visiting every vertex (BFS over (vertex, visited-set))."""
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds the oracle limit {limit}")
    full = (1 << g.n) - 1
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for v in range(g.n):
        state = (v, 1 << v)
        parent[state] = None
        queue.append(state)
    while queue:
        v, mask = state = queue.popleft()
        if mask == full:
            walk: list[int] = []
            cur: tuple[int, int] | None = state
            while cur is not None:
                walk.append(cur[0])
                cur = parent[cur]
            walk.reverse()
            return CoveringPath.from_vertices(g, walk)
        for u in g.adjacency[v]:
            nxt = (u, mask | (1 << u))
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    raise AssertionError("connected graph must admit a visiting walk")


# ---------------------------------------------------------------------------
# Dynamic program over the block tree, rerooted.
#
# Seen across one of its bridges, a block summarises the part of the tree
# on its own side: d_l is the minimum weight of a walk that starts and ends
# at the block's end of the bridge while covering that part; d_p drops the
# requirement to return.  A neighbour contributes nothing (it is "skipped")
# exactly when it is a single vertex with no other bridge: the visit next
# door already covers it.  Any other neighbour must be entered, because
# what lies beyond it is only covered from inside.
#
# Every root needs each of its neighbours as seen from it, so the DP runs
# once per bridge direction, in two passes from block 0.  The bottom-up
# pass gives each block its values as seen from its parent.  The top-down
# pass gives each block its values as seen from each child: the same step,
# with that child left out, the parent's top-down contribution in, and the
# entry at the child's attach vertex.  Each root is then scored from its
# neighbours' cached contributions; the first strict minimum in block
# order wins, and its own record rebuilds the walk.  Emission pops tokens
# off an explicit stack (a vertex, or a block to walk closed or open), so
# the depth of the block tree does not matter.
#
# Every DP value folds two keys into one integer: unit * length + revisits,
# where a revisit is a step onto a vertex the walk has already visited.  A
# step out onto a new vertex weighs `unit`, a step back weighs `unit + 1`.
# No candidate walk crosses an edge of the vertex cactus more than twice,
# so with `unit` above twice its edge count the integers order walks by
# length first and break length ties towards fewer revisits.  A revisit in
# the vertex cactus is a revisit of the original graph: copies of a vertex
# are joined only through weight-0 bridges, which the walk has to cross.
# ---------------------------------------------------------------------------


@dataclass
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


def dp_single_vertex(children: list[ChildContribution]):
    """DP step for a single-vertex block: sum of child round trips, minus
    the best savings when the walk may end inside one child."""
    active = [c for c in children if not c.skipped]
    d_l = sum(c.closed_cost for c in active)
    best = None
    for c in active:
        if best is None or c.saving > best.saving:
            best = c
    if best is not None and best.saving > 0:
        return d_l, d_l - best.saving, best.block
    return d_l, d_l, None


def _arm_positions(t: int, entry: int, removal: int) -> tuple[list[int], list[int]]:
    """Split the cycle (positions mod t) at the removed edge (removal,
    removal+1) into the two arms leaving `entry`."""
    right = []
    p = entry
    while p != removal:
        p = (p + 1) % t
        right.append(p)
    left = []
    p = entry
    while p != (removal + 1) % t:
        p = (p - 1) % t
        left.append(p)
    return right, left


def _arm_depth_options(m: int, req: int) -> range:
    lo = max(req, m - 2, 0)
    return range(lo, m + 1)


def _depths_valid(a: int, m_a: int, b: int, m_b: int) -> bool:
    ok_a = a >= m_a - 1 or b == m_b
    ok_b = b >= m_b - 1 or a == m_a
    return ok_a and ok_b


def _arm_end_options(arm: list[int], depth: int, kids, back: int):
    """End-of-walk options on one arm at the given visit depth.

    Yields (saving, (i, child_block)) where i is the depth of the vertex
    the final descent leaves the arm at (i == depth, child None means
    stopping at the tip); ending there saves i steps back of weight `back`.
    """
    if depth >= 1:
        yield depth * back, (depth, None)
    for i in range(1, depth + 1):
        for c in kids[arm[i - 1]]:
            yield i * back + c.saving, (i, c.block)


def dp_cycle(t: int, weights: list[int], entry: int,
             vertex_children: dict[int, list[ChildContribution]], unit: int):
    """DP step for a cycle block entered at position `entry`.

    Candidates: walk the full perimeter, or pick one cycle edge to leave
    unwalked and treat the rest as a chain with two arms (the walk may
    stop one or two vertices short of an arm tip when adjacency still
    covers the rest).  Values are folded with `unit` (see above).
    Returns (d_l, d_p, choice records).
    """
    kids = {
        p: [c for c in vertex_children.get(p, []) if not c.skipped]
        for p in range(t)
    }
    required = {
        p: bool(vertex_children.get(p)) for p in range(t)
    }
    s_total = sum(c.closed_cost for cs in kids.values() for c in cs)
    # once around: one revisit, the step back onto the entry
    perim = s_total + unit * sum(weights) + 1
    back = unit + 1

    d_l, dl_choice = perim, ("perim",)
    d_p, dp_choice = perim, ("closed",)
    entry_best = None
    for c in kids[entry]:
        if entry_best is None or c.saving > entry_best.saving:
            entry_best = c
    if entry_best is not None and perim - entry_best.saving < d_p:
        d_p = perim - entry_best.saving
        dp_choice = ("perim_child", entry_best.block)

    for j in range(t):
        right, left = _arm_positions(t, entry, j)
        m_r, m_l = len(right), len(left)
        req_r = max((i + 1 for i in range(m_r) if required[right[i]]), default=0)
        req_l = max((i + 1 for i in range(m_l) if required[left[i]]), default=0)
        for a in _arm_depth_options(m_r, req_r):
            for b in _arm_depth_options(m_l, req_l):
                if not _depths_valid(a, m_r, b, m_l):
                    continue
                closed = s_total + (a + b) * (unit + back)
                if closed < d_l:
                    d_l = closed
                    dl_choice = ("chain", j, a, b)
                # one free end: deepest-arm or child-subtree endings
                best_s, best_end = 0, None
                for s, (i, cb) in _arm_end_options(right, a, kids, back):
                    if s > best_s:
                        best_s, best_end = s, ("armR", i, cb)
                for s, (i, cb) in _arm_end_options(left, b, kids, back):
                    if s > best_s:
                        best_s, best_end = s, ("armL", i, cb)
                for c in kids[entry]:
                    if c.saving > best_s:
                        best_s, best_end = c.saving, ("entry_child", c.block)
                if closed - best_s < d_p:
                    d_p = closed - best_s
                    dp_choice = ("chain", j, a, b, best_end)
    if d_l <= d_p:
        # the closed walk is no worse, so reuse it (keeps records consistent)
        d_p = d_l
        dp_choice = ("closed",)
    return d_l, d_p, (dl_choice, dp_choice)


def _best_cycle_root(t: int, weights: list[int],
                     per_vertex: dict[int, list[ChildContribution]], unit: int):
    """Minimum open-walk value of a cycle root with both ends free, plus a
    record sufficient to rebuild the walk."""
    kids = {
        p: [c for c in per_vertex.get(p, []) if not c.skipped]
        for p in range(t)
    }
    required = {p: bool(per_vertex.get(p)) for p in range(t)}
    s_total = sum(c.closed_cost for cs in kids.values() for c in cs)
    back = unit + 1
    perim = s_total + unit * sum(weights) + 1
    best = None
    # a bare uniform cycle looks the same from every pivot
    pivots = range(t) if any(required.values()) else [0]
    for p in pivots:
        pivot_opts = [(c.saving, ("pivot_child", c.block)) for c in kids[p]]
        top = sorted(pivot_opts, key=lambda x: -x[0])[:2]
        val = perim - sum(max(0, s) for s, _ in top)
        ends = [e for s, e in top if s > 0] + [None, None]
        cand = (val, (p, ("perim",), ends[0], ends[1]))
        if best is None or cand[0] < best[0]:
            best = cand
        for j in range(t):
            right, left = _arm_positions(t, p, j)
            m_r, m_l = len(right), len(left)
            req_r = max((i + 1 for i in range(m_r) if required[right[i]]),
                        default=0)
            req_l = max((i + 1 for i in range(m_l) if required[left[i]]),
                        default=0)
            for a in _arm_depth_options(m_r, req_r):
                for b in _arm_depth_options(m_l, req_l):
                    if not _depths_valid(a, m_r, b, m_l):
                        continue
                    closed = s_total + (a + b) * (unit + back)
                    opts = []
                    sR = max(_arm_end_options(right, a, kids, back),
                             key=lambda x: x[0], default=None)
                    if sR is not None:
                        opts.append((sR[0], ("armR",) + sR[1]))
                    sL = max(_arm_end_options(left, b, kids, back),
                             key=lambda x: x[0], default=None)
                    if sL is not None:
                        opts.append((sL[0], ("armL",) + sL[1]))
                    opts.extend(pivot_opts)
                    top = sorted(opts, key=lambda x: -x[0])[:2]
                    val = closed - sum(max(0, s) for s, _ in top)
                    ends = [e for s, e in top if s > 0] + [None, None]
                    cand = (val, (p, ("chain", j, a, b), ends[0], ends[1]))
                    if cand[0] < best[0]:
                        best = cand
    return best


def _order_key(c: ChildContribution) -> tuple[int, int]:
    return c.entry, c.block


class _Rerooted:
    """DP values of every block as seen across each of its bridges.  The
    two passes start from block `start`; every start gives the same tables."""

    def __init__(self, tvc: WeightedVertexCactus, bt: BlockTree, start: int = 0):
        self.bt = bt
        self.unit = sum(len(a) for a in tvc.adjacency) + 1  # the fold's step weight
        # into[b]: each neighbour's contribution seen from b, in _order_key order
        self.into: list[list[ChildContribution]] = [[] for _ in bt.blocks]
        # choice[b][towards]: DP record of b seen from its neighbour `towards`
        self.choice: list[dict[int, object]] = [{} for _ in bt.blocks]
        # bridge[b][other]: (weight, own attach vertex, its position in b)
        self.bridge: list[dict[int, tuple[int, int, int]]] = []
        self.weights: dict[int, list[int]] = {}
        for b, (kind, verts) in enumerate(bt.blocks):
            pos = {v: i for i, v in enumerate(verts)}
            self.bridge.append({other: (w, own, pos[own])
                                for other, w, own, _theirs in bt.tree[b]})
            if kind == "cycle":
                t = len(verts)
                self.weights[b] = [
                    next(wt for nb, wt in tvc.adjacency[verts[i]]
                         if nb == verts[(i + 1) % t])
                    for i in range(t)
                ]
        parent = {start: -1}
        order = [start]
        for b in order:
            for other in self.bridge[b]:
                if other not in parent:
                    parent[other] = b
                    order.append(other)
        for b in reversed(order[1:]):
            self.into[b].sort(key=_order_key)
            self._push(b, parent[b])
        for b in order:
            self.into[b].sort(key=_order_key)
            for other in self.bridge[b]:
                if parent[other] == b:
                    self._push(b, other)

    def _kids(self, b: int, up: int) -> list[ChildContribution]:
        return [c for c in self.into[b] if c.block != up]

    def _by_position(self, b: int, kids) -> dict[int, list[ChildContribution]]:
        out: dict[int, list[ChildContribution]] = {}
        for c in kids:
            out.setdefault(self.bridge[b][c.block][2], []).append(c)
        return out

    def _push(self, b: int, towards: int) -> None:
        """One DP step: block b seen across its bridge to `towards`, handed
        to `towards` as a child contribution."""
        kind, verts = self.bt.blocks[b]
        w, own, e_pos = self.bridge[b][towards]
        kids = self._kids(b, towards)
        if kind == "vertex":
            d_l, d_p, ch = dp_single_vertex(kids)
        else:
            d_l, d_p, ch = dp_cycle(len(verts), self.weights[b], e_pos,
                                    self._by_position(b, kids), self.unit)
        self.choice[b][towards] = ch
        out, back = self.unit, self.unit + 1
        self.into[towards].append(
            ChildContribution(
                block=b,
                entry=own,
                # over the bridge onto a new vertex, back as a revisit
                closed_cost=d_l + w * (out + back),
                saving=d_l - d_p + w * back,
                skipped=kind == "vertex" and len(self.bridge[b]) == 1,
            )
        )

    def root_walk(self, r: int):
        """Minimum open-walk value with block r as root and both endpoints
        free, plus a record sufficient to rebuild the walk."""
        kind, verts = self.bt.blocks[r]
        if kind == "cycle":
            return _best_cycle_root(len(verts), self.weights[r],
                                    self._by_position(r, self.into[r]), self.unit)
        active = [c for c in self.into[r] if not c.skipped]
        savings = sorted(
            (c for c in active if c.saving > 0),
            key=lambda c: (-c.saving, c.entry, c.block),
        )[:2]
        ends = [("pivot_child", c.block) for c in savings] + [None, None]
        value = sum(c.closed_cost for c in active) - sum(c.saving for c in savings)
        return value, (0, ("vertex",), ends[0], ends[1])

    # -- reconstruction ----------------------------------------------------
    # Item lists mix vertices with (open, block, up) tokens: walk `block`,
    # entered from its neighbour `up`, and return to the entry unless open.

    def _expand(self, items: list) -> list[int]:
        """Replace tokens by their items until only vertices are left."""
        walk: list[int] = []
        stack = items[::-1]
        while stack:
            item = stack.pop()
            if isinstance(item, int):
                walk.append(item)
            else:
                is_open, b, up = item
                stack.extend(reversed(self._block_items(b, up, is_open)))
        return walk

    def _exc(self, b: int, pos_kids, p: int, omit=()) -> list:
        """Round trips into the children hanging at position p of block b."""
        items: list = []
        vtx = self.bt.blocks[b][1][p]
        for c in pos_kids.get(p, []):
            if not c.skipped and c.block not in omit:
                items += [(False, c.block, b), vtx]
        return items

    def _perimeter(self, b: int, pos_kids, start: int, omit=()) -> list:
        """Once around cycle b from position `start` and back to it."""
        verts = self.bt.blocks[b][1]
        t = len(verts)
        items = [verts[start]] + self._exc(b, pos_kids, start, omit)
        for i in range(1, t):
            p = (start + i) % t
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
            items.append((True, child, b))
        return items

    def _arm_closed(self, b, pos_kids, arm, depth, e_pos) -> list:
        items = self._arm_open(b, pos_kids, arm, depth, 0, None)
        return items + [self.bt.blocks[b][1][e_pos]] if depth else items

    def _cycle_closed(self, b, pos_kids, e_pos, dl_choice) -> list:
        if dl_choice[0] == "perim":
            return self._perimeter(b, pos_kids, e_pos)
        _, j, a, bdep = dl_choice
        right, left = _arm_positions(len(self.bt.blocks[b][1]), e_pos, j)
        return ([self.bt.blocks[b][1][e_pos]] + self._exc(b, pos_kids, e_pos)
                + self._arm_closed(b, pos_kids, right, a, e_pos)
                + self._arm_closed(b, pos_kids, left, bdep, e_pos))

    def _block_items(self, b: int, up: int, is_open: bool) -> list:
        kind, verts = self.bt.blocks[b]
        pos_kids = self._by_position(b, self._kids(b, up))
        e_pos = self.bridge[b][up][2]
        ch = self.choice[b][up]
        if kind == "vertex":
            open_child = ch if is_open else None
            items = [verts[0]] + self._exc(b, pos_kids, 0, omit=(open_child,))
            return items + [(True, open_child, b)] if open_child is not None else items
        dl_choice, dp_choice = ch
        if not is_open or dp_choice[0] == "closed":
            return self._cycle_closed(b, pos_kids, e_pos, dl_choice)
        if dp_choice[0] == "perim_child":
            child = dp_choice[1]
            return self._perimeter(b, pos_kids, e_pos, omit=(child,)) + [(True, child, b)]
        _, j, a, bdep, end = dp_choice
        right, left = _arm_positions(len(verts), e_pos, j)
        omit_entry = (end[1],) if end[0] == "entry_child" else ()
        items = [verts[e_pos]] + self._exc(b, pos_kids, e_pos, omit=omit_entry)
        if end[0] == "entry_child":
            return (items + self._arm_closed(b, pos_kids, right, a, e_pos)
                    + self._arm_closed(b, pos_kids, left, bdep, e_pos)
                    + [(True, end[1], b)])
        if end[0] == "armR":
            return (items + self._arm_closed(b, pos_kids, left, bdep, e_pos)
                    + self._arm_open(b, pos_kids, right, a, end[1], end[2]))
        return (items + self._arm_closed(b, pos_kids, right, a, e_pos)
                + self._arm_open(b, pos_kids, left, bdep, end[1], end[2]))

    def emit_root(self, r: int, record) -> list[int]:
        """The vertex-cactus walk of root r's record, built without recursion."""
        verts = self.bt.blocks[r][1]
        pos_kids = self._by_position(r, self.into[r])
        p, mode, e1, e2 = record
        used = [e[1] for e in (e1, e2) if e is not None and e[0] == "pivot_child"]
        if mode[0] == "vertex":
            middle = [verts[0]] + self._exc(r, pos_kids, 0, omit=used)
        elif mode[0] == "perim":
            middle = self._perimeter(r, pos_kids, p, omit=used)
        else:
            _, j, a, bdep = mode
            right, left = _arm_positions(len(verts), p, j)
            arm_spec = {"armR": (right, a), "armL": (left, bdep)}
            open_arms = {e[0] for e in (e1, e2) if e is not None}
            middle = [verts[p]] + self._exc(r, pos_kids, p, omit=used)
            for name in ("armR", "armL"):
                if name not in open_arms:
                    middle += self._arm_closed(r, pos_kids, *arm_spec[name], p)
        ends = []
        for e in (e1, e2):
            if e is None:
                ends.append([])
            elif e[0] == "pivot_child":
                ends.append([(True, e[1], r)])
            else:
                ends.append(self._arm_open(r, pos_kids, *arm_spec[e[0]], e[1], e[2]))
        return self._expand(ends[0])[::-1] + self._expand(middle) + self._expand(ends[1])


def solve_root_choices(tvc: WeightedVertexCactus, bt: BlockTree):
    """Score every block as the root from one rerooted DP; return (folded
    value, DP, root, record) of the first best root in block order."""
    dp = _Rerooted(tvc, bt)
    best = None
    for root in range(bt.n_blocks):
        value, record = dp.root_walk(root)
        if best is None or value < best[0]:
            best = (value, root, record)
    return best[0], dp, best[1], best[2]


def _walk_weight(tvc: WeightedVertexCactus, walk: list[int]) -> int:
    total = 0
    for a, b in zip(walk, walk[1:]):
        w = next((wt for nb, wt in tvc.adjacency[a] if nb == b), None)
        if w is None:
            raise AssertionError(f"walk step ({a},{b}) is not an edge of T")
        total += w
    return total


def solve_cactus(g: Graph) -> CoveringPath:
    """Minimum-length 1-covering walk of a connected cactus.

    Among the walks of minimum length it returns one with the fewest
    revisits, so the walk is simple whenever some shortest covering walk
    is; ties beyond that fall to enumeration order.
    """
    decomp = validate_cactus(g)
    if g.n == 1:
        return CoveringPath.from_vertices(g, [0])
    tvc = build_vertex_cactus(g, decomp)
    bt = build_block_tree(tvc)
    if bt.n_blocks == 1 and bt.blocks[0][0] == "cycle":
        verts = bt.blocks[0][1]
        walk = [tvc.origin[v] for v in verts[: len(verts) - 2]]
        path = CoveringPath.from_vertices(g, walk)
        assert path.is_covering(g)
        return path
    value, dp, root, record = solve_root_choices(tvc, bt)
    length, revisits = divmod(value, dp.unit)
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
    assert path.is_covering(g), "solver produced a non-covering walk"
    return path
