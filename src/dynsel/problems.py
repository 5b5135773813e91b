"""Concrete objectives, cost models, instance generators and file I/O.

Two benchmark families are provided: maximum coverage over directed graphs
(`SetCoverObjective.from_graph`: a node covers itself plus its
out-neighbors) and influence maximization under the independent cascade
model, which is coverage over fixed live-edge samples.  Both worst-case
constructions used in the theoretical analysis are generated exactly, as
the objects the solvers read: the adversarial knapsack as a
(`LinearObjective`, `LinearCost`) pair and the bipartite cover graph as a
`SetCoverObjective`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import POS_INF, CostFn, ObjectiveFn


class GraphParseError(ValueError):
    """A graph file refused as `path: line k: message` (or `path: message`)."""

    def __init__(self, path, message, lineno=None):
        self.lineno = lineno
        where = f": line {lineno}" if lineno is not None else ""
        super().__init__(f"{path}{where}: {message}")


class DisconnectedSelectionError(ValueError):
    """Two selected nodes have no routing path between them."""


@dataclass
class DirectedGraph:
    """Adjacency-list graph; undirected graphs are stored symmetric.

    Each outgoing edge is (target, probability, weight).  Probability is the
    influence probability for cascade models, weight the routing length.
    `from_edges` and the file loaders check every edge as they store it.
    """

    n: int
    adjacency: list  # per node: list of (target, prob, weight)
    directed: bool = True

    @classmethod
    def from_edges(cls, n, edges, directed=True):
        """edges: iterable of (u, v) or (u, v, p) or (u, v, p, w)."""
        adjacency = [[] for _ in range(n)]
        for e in edges:
            u, v = e[0], e[1]
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0-{n - 1}")
            p = float(e[2]) if len(e) > 2 and e[2] is not None else 1.0
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge probability {p} outside [0, 1]")
            w = float(e[3]) if len(e) > 3 and e[3] is not None else None
            adjacency[u].append((v, p, w))
            if not directed:
                adjacency[v].append((u, p, w))
        return cls(n=n, adjacency=adjacency, directed=directed)

    def out_neighbors(self, u):
        return [t for (t, _p, _w) in self.adjacency[u]]

    def out_degree(self, u):
        return len(self.adjacency[u])

    def edge_list(self):
        """Edges as stored; undirected edges reported once (u <= v).  An
        undirected self-loop is stored twice, so every second copy is skipped."""
        out = []
        for u, edges in enumerate(self.adjacency):
            loops = 0
            for (t, p, w) in edges:
                if u == t and not self.directed:
                    loops += 1
                    if loops % 2 == 0:
                        continue
                if self.directed or u <= t:
                    out.append((u, t, p, w))
        return out


# ---------------------------------------------------------------------------
# objectives


class SetCoverObjective(ObjectiveFn):
    """f(X) = size of the union of the cover sets of the selected elements.

    Cover sets are kept as integer bitmasks over the universe, so one
    evaluation is one nonzero scan of the vector, an OR of the |X| selected
    masks and a popcount: the work grows with |X|, not with n.
    """

    def __init__(self, masks):
        self.masks = list(masks)
        self.n = len(self.masks)

    @classmethod
    def from_sets(cls, universe_size, cover_sets):
        sets = [set(s) for s in cover_sets]
        if any(not 0 <= e < universe_size for s in sets for e in s):
            raise ValueError("covered element outside universe")
        return cls(sum(1 << e for e in s) for s in sets)

    @classmethod
    def from_graph(cls, graph):
        """Maximum coverage over a directed graph: S_p = {p} | out(p), in
        node order."""
        return cls.from_sets(graph.n, ({p, *graph.out_neighbors(p)}
                                       for p in range(graph.n)))

    def __call__(self, bits) -> float:
        masks, covered = self.masks, 0
        for i in np.asarray(bits).nonzero()[0].tolist():
            covered |= masks[i]
        return float(covered.bit_count())


class LinearObjective(ObjectiveFn):
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if (self.values < 0).any():
            raise ValueError("values must be non-negative")
        self.n = self.values.size

    def __call__(self, bits) -> float:
        return float(self.values @ bits)


# Largest n * n * simulations bit footprint of the live-edge masks; larger
# instances need reverse influence sampling (Borgs et al., SODA 2014).
LIVE_EDGE_CAP = 1 << 30


@dataclass
class InfluenceInstance:
    """Influence maximization under the independent cascade model."""

    social_graph: DirectedGraph
    simulations: int = 500
    routing_graph: DirectedGraph | None = None
    per_node_cost: float = 0.1

    def __post_init__(self):
        if self.simulations < 1:
            raise ValueError("need at least one simulation")
        if self.n * self.n * self.simulations > LIVE_EDGE_CAP:
            raise ValueError(
                f"n = {self.n} and simulations = {self.simulations} need "
                f"n*n*simulations bits of live-edge masks, over {LIVE_EDGE_CAP}")

    @property
    def n(self):
        return self.social_graph.n


class IcSpreadObjective(SetCoverObjective):
    """Mean spread over R = `inst.simulations` live-edge samples drawn once.

    A live-edge sample keeps each edge with its influence probability, and a
    cascade from a seed set activates exactly the nodes the seeds reach in
    it (Kempe, Kleinberg & Tardos, KDD 2003).  Over fixed samples the spread
    is a coverage function on V x [R] divided by R, so f is monotone,
    submodular and the same on every call.  Node u's mask has bit r*w + v
    set when u reaches v in sample r, with w the node count rounded up to
    whole bytes so the per-sample blocks concatenate as bytes.
    """

    def __init__(self, inst: InfluenceInstance, rng):
        n, self.samples = inst.n, inst.simulations
        adjacency = inst.social_graph.adjacency
        sources = np.array([u for u, out in enumerate(adjacency) for _ in out])
        targets = np.array([t for out in adjacency for (t, _p, _w) in out])
        probs = np.array([p for out in adjacency for (_t, p, _w) in out])
        live = rng.random((self.samples, probs.size)) < probs
        sample, edge = np.nonzero(live)  # by sample, then in edge order
        us, ts = sources[edge].tolist(), targets[edge].tolist()
        ends = np.cumsum(np.bincount(sample, minlength=self.samples)).tolist()
        per_sample = []
        for start, end in zip([0, *ends], ends):
            kept = list(zip(us[start:end], ts[start:end]))
            reach = [1 << v for v in range(n)]
            changed = True
            while changed:  # until every node holds its whole reachable set
                changed = False
                for u, t in kept:
                    if reach[t] & ~reach[u]:
                        reach[u] |= reach[t]
                        changed = True
            per_sample.append(reach)
        nbytes = (n + 7) // 8
        super().__init__(int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in xs),
                                        "little") for xs in zip(*per_sample))

    def __call__(self, bits) -> float:
        return super().__call__(bits) / self.samples


def bfs_reachable(graph: DirectedGraph, seeds) -> int:
    """Number of nodes reachable from the seed set (oracle for p = 1)."""
    active = np.zeros(graph.n, dtype=bool)
    stack = list(seeds)
    active[list(seeds)] = True
    while stack:
        u = stack.pop()
        for v in graph.out_neighbors(u):
            if not active[v]:
                active[v] = True
                stack.append(v)
    return int(active.sum())


# ---------------------------------------------------------------------------
# cost models


class CardinalityCost(CostFn):
    min_increment = 1.0
    monotone = True

    def __init__(self, n):
        self.n = n

    def __call__(self, bits) -> float:
        return float(np.count_nonzero(bits))


class LinearCost(CostFn):
    monotone = True  # its weights are non-negative

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        if (self.weights < 0).any():
            raise ValueError("costs must be non-negative")
        self.n = self.weights.size
        positive = self.weights[self.weights > 0]
        self.min_increment = float(positive.min()) if positive.size else 0.0

    def __call__(self, bits) -> float:
        return float(self.weights.dot(bits))


def random_linear_cost(n, rng) -> LinearCost:
    """Per-node random cost in (0, 1], drawn once and persisted per instance."""
    if n < 1:
        raise ValueError("need n >= 1")
    w = 1.0 - rng.random(n)  # rng.random is [0,1), so 1-u is (0,1]
    return LinearCost(w)


def outdegree_cost(graph: DirectedGraph, q: int = 6) -> LinearCost:
    """o(p) = 1 + max{d(p) - q, 0} with d the out-degree.

    The printed formula with a minus sign would go non-positive for
    high-degree nodes; the additive form keeps every variant monotone with
    positive per-node cost.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    w = [1.0 + max(graph.out_degree(p) - q, 0) for p in range(graph.n)]
    return LinearCost(w)


# Sources per block of `routing_distances`' lockstep Dijkstra; a block's
# arrays hold this many rows whatever n is.  On a 2-vCPU VM, 128 took 3-4 ms
# at n = 100 (64: 4.8-6.7 ms) and 0.19-0.27 s at n = 400 (64: 0.22 s, 256:
# 0.29-0.31 s).
DIJKSTRA_BLOCK = 128


def routing_distances(graph: DirectedGraph) -> np.ndarray:
    """All-pairs shortest-path lengths of a routing graph, by Dijkstra's
    algorithm (1959) run in lockstep for blocks of sources: each step
    settles, per source, its nearest unsettled node u and relaxes every node
    v to min(d[v], d[u] + w(u, v)).  Each distance is the float sum that a
    per-source heap Dijkstra forms, so the matrix equals its bit for bit.
    O(n^3) elementwise work, on (block, n) arrays."""
    n = graph.n
    ends = [t for out in graph.adjacency for (t, _p, _w) in out]
    lengths = [w for out in graph.adjacency for (_t, _p, w) in out]
    if None in lengths:
        raise ValueError("routing edges must carry weights")
    starts = [u for u, out in enumerate(graph.adjacency) for _ in out]
    weight = np.full((n, n), POS_INF)
    np.minimum.at(weight, (starts, ends), lengths)  # lightest parallel edge
    if not (weight >= 0).all():
        raise ValueError("routing edge weights must be numbers >= 0")
    dist = np.empty((n, n))
    for first in range(0, n, DIJKSTRA_BLOCK):
        block = dist[first:first + DIJKSTRA_BLOCK]
        rows = np.arange(len(block))
        block.fill(POS_INF)
        block[rows, first + rows] = 0.0
        settled = np.zeros_like(block)  # +inf where a source settled the node
        pending = np.empty_like(block)
        relaxed = np.empty_like(block)
        for _ in range(n - 1):  # the last node left needs no step
            # a source with nothing reachable left picks any node;
            # relaxing from it again changes nothing
            u = np.add(block, settled, out=pending).argmin(axis=1)
            settled[rows, u] = POS_INF
            # u is in range; "clip" spares the copy "raise" makes of `out`
            np.take(weight, u, axis=0, out=relaxed, mode="clip")
            relaxed += block[rows, u][:, None]
            np.minimum(block, relaxed, out=block)
    return dist


class RoutingCost(CostFn):
    """Per-node charge plus a nearest-neighbor route over the selected nodes.

    The route is built in the all-pairs shortest-path metric of the routing
    graph, starts at the selected node with the lowest index, visits every
    selected node and has no return leg.  Selections of size <= 1 contribute
    zero route length.

    The cost is not monotone: adding a node can shorten the greedy route.
    With nodes at x = 0, 1, -1.05, 10, -0.9 on a line, all pairs joined at
    their distance and a per-node charge of 1, c({0, 1, 2, 3}) = 18.1 but
    c({0, ..., 4}) = 17.1.  So it declares no `monotone`, and exhaustive
    enumerations call it on every subset.

    The distance matrix is `routing_distances` of the routing graph,
    computed on the first route unless `use_distances` handed it in.
    """

    def __init__(self, inst: InfluenceInstance):
        if inst.routing_graph is None:
            raise ValueError("instance has no routing graph")
        self.inst = inst
        self.n = inst.n
        self.min_increment = inst.per_node_cost
        self.use_distances(None)

    def use_distances(self, dist) -> None:
        """Route over `dist`, the matrix `routing_distances` gives for this
        cost's routing graph, computed once elsewhere (None: compute it on
        the first route)."""
        self._dist = dist
        self._rows = {}  # node -> its distance row as a list, made on first use

    def _distances(self):
        if self._dist is None:
            self._dist = routing_distances(self.inst.routing_graph)
        return self._dist

    def __call__(self, bits) -> float:
        """O(k^2) for k selected nodes, walked over distance rows as
        Python lists: at route sizes, numpy's per-leg indexing costs more
        than the scan itself.  A row is converted the first time its node
        starts a leg, so only the rows of routed nodes are held twice."""
        selected = np.asarray(bits).nonzero()[0].tolist()
        cost = self.inst.per_node_cost * len(selected)
        if len(selected) <= 1:
            return float(cost)
        rows = self._rows
        current, unvisited = selected[0], selected[1:]  # start at the lowest index
        while unvisited:
            row = rows.get(current)
            if row is None:
                row = rows[current] = self._distances()[current].tolist()
            legs = [row[v] for v in unvisited]
            leg = min(legs)  # first minimum: ties -> lowest position = lowest index
            if leg == POS_INF:
                raise DisconnectedSelectionError(
                    f"no routing path from node {current} to {unvisited}")
            cost += leg
            current = unvisited.pop(legs.index(leg))
        return float(cost)


def make_cost(variant, *, n=None, graph=None, weights=None,
              influence=None) -> CostFn:
    """Build a cost model by the `[cost] variant` tag of a config."""
    if variant == "cardinality":
        return CardinalityCost(n if n is not None else graph.n)
    if variant == "random-linear":
        return LinearCost(weights)
    if variant == "outdegree":
        if graph is None:
            raise ValueError("[cost] variant = outdegree needs a graph: "
                             "[instance] kind = coverage or influence")
        return outdegree_cost(graph)
    if variant == "routing":
        if influence is None:
            raise ValueError("[cost] variant = routing needs "
                             "[instance] kind = influence")
        return RoutingCost(influence)
    raise ValueError(f"[cost] variant: unknown {variant!r}, expected "
                     "cardinality, random-linear, outdegree or routing")


# ---------------------------------------------------------------------------
# generators


def gen_adversarial_knapsack(n: int) -> tuple[LinearObjective, LinearCost]:
    """Worst case for greedy adaptation under budget increases: (f, c) of a
    linear knapsack.

    n + 1 items (cost, value): n/2 cheap low-value items (1, 1/n), n/2
    items (2, 1) and a special item (1, 3) that is optimal alone at B = 1.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be a positive even integer")
    half = n // 2
    return (LinearObjective([1.0 / n] * half + [1.0] * half + [3.0]),
            LinearCost([1.0] * half + [2.0] * half + [1.0]))


def gen_bipartite_cover(n: int) -> SetCoverObjective:
    """Worst case for greedy adaptation under budget decreases.

    k = l = sqrt(n) disjoint subgraphs.  In each, hub u_1 covers the l-1
    odd-indexed v-nodes and every u_j (j >= 2) covers v_{2j-3}, v_{2j-2}.
    Ground set is U (size n); the objective counts covered V-nodes.
    """
    k = math.isqrt(n)
    if k * k != n or k < 2:
        raise ValueError("n must be a perfect square with sqrt(n) >= 2")
    l = k
    per_v = 2 * l - 2
    cover_sets = []
    for i in range(k):
        base = i * per_v
        # u_1: v_1, v_3, ..., v_{2l-3}  (1-indexed odd, j = 1..l-1)
        cover_sets.append({base + (2 * j - 1) - 1 for j in range(1, l)})
        # u_j, j = 2..l: v_{2j-3}, v_{2j-2}
        for j in range(2, l + 1):
            cover_sets.append({base + (2 * j - 3) - 1, base + (2 * j - 2) - 1})
    return SetCoverObjective.from_sets(k * per_v, cover_sets)


def gen_ba_graph(n: int, m: int = 2, *, rng, edge_prob: float = 0.1) -> DirectedGraph:
    """Preferential-attachment social graph with m edges per new node.

    Barabasi-Albert growth from a star on m + 1 nodes: each new node draws
    its m distinct targets uniformly from the list of existing nodes, each
    repeated once per incident edge.  The draws are `random.Random(seed)`
    with the seed taken from `rng`, so the edges are those of
    `networkx.barabasi_albert_graph(n, min(m, n - 1), seed)` in the order
    of its `edges()`: sorted (u, v) pairs with u < v.  Each
    undirected attachment becomes two directed edges carrying the given
    influence probability.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 1:
        raise ValueError(f"need m >= 1 edges per new node, got m = {m}")
    m = min(m, n - 1)
    choice = random.Random(int(rng.integers(2**31))).choice
    pairs = [(0, v) for v in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()  # its iteration order feeds later draws
        while len(targets) < m:
            targets.add(choice(repeated))
        pairs.extend((t, source) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    pairs.sort()
    edges = []
    for (u, v) in pairs:
        edges.append((u, v, edge_prob))
        edges.append((v, u, edge_prob))
    return DirectedGraph.from_edges(n, edges, directed=True)


def gen_er_graph(n: int, p: float, rng) -> DirectedGraph:
    """Erdos-Renyi graph with Euclidean edge weights.

    Nodes are first placed uniformly at random in the unit square, then
    each unordered pair is an edge independently with probability p,
    weighted by the distance between its ends.  The positions are not kept.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    positions = rng.random((n, 2))
    edges = []
    for u in range(n):
        draws = rng.random(n - u - 1)
        for k, v in enumerate(range(u + 1, n)):
            if draws[k] < p:
                w = float(np.hypot(*(positions[u] - positions[v])))
                edges.append((u, v, 1.0, w))
    return DirectedGraph.from_edges(n, edges, directed=False)


def gen_random_digraph(n: int, p: float, rng, edge_prob: float = 0.1) -> DirectedGraph:
    """Directed ER-style graph; each ordered pair an edge with probability p."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    edges = []
    for u in range(n):
        draws = rng.random(n)
        for v in range(n):
            if u != v and draws[v] < p:
                edges.append((u, v, edge_prob))
    return DirectedGraph.from_edges(n, edges, directed=True)


# ---------------------------------------------------------------------------
# file I/O


def _number(kind, text, what):
    """`text` as `kind` (int or float); a ValueError names it as `what`."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} {text!r} is not {noun}") from None


def _endpoints(texts, n, first):
    """The endpoints written as `texts`, numbered from `first`, as 0-based
    node indices below the declared node count n."""
    ends = [_number(int, text, "endpoint") - first for text in texts]
    for node in ends:
        if not 0 <= node < n:
            raise ValueError(f"endpoint {node + first} outside the nodes "
                             f"{first}-{n - 1 + first}")
    return ends


def _node_count(text):
    """The node count written as `text`, an integer >= 1."""
    n = _number(int, text, "node count")
    if n < 1:
        raise ValueError(f"node count {n} is below 1")
    return n


def load_dimacs(path) -> DirectedGraph:
    """DIMACS clique format: `p edge n m` header, `e u v` lines, 1-indexed.

    Edges are taken as directed in the order written.
    """
    n = m = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            try:
                if parts[0] == "p":
                    if len(parts) != 4 or parts[1] != "edge":
                        raise ValueError("malformed problem line")
                    n = _node_count(parts[2])
                    m = _number(int, parts[3], "edge count")
                elif parts[0] == "e":
                    if len(parts) != 3:
                        raise ValueError("edge line needs two endpoints")
                    if n is None:
                        raise ValueError("edge before problem line")
                    edges.append(_endpoints(parts[1:], n, 1))
                else:
                    raise ValueError(f"unknown record {parts[0]!r}")
            except ValueError as exc:
                raise GraphParseError(path, exc, lineno) from None
    if n is None:
        raise GraphParseError(path, "missing problem line")
    if len(edges) != m:
        raise GraphParseError(path, f"header declares {m} edges, found {len(edges)}")
    return DirectedGraph.from_edges(n, edges)


def load_edge_list(path, routing=False) -> DirectedGraph:
    """Edge-list format: header `n m directed|undirected`, then
    `u v [p] [w]` lines, 0-indexed.  Lines starting with `#` are comments,
    and so are the `pos x y` node positions that files written before
    version 0.4.0 carry.  Each line is parsed and checked once, and a fault
    is refused by file and line.  For a `routing` graph, whose
    weights are route lengths, every edge needs a weight that is a finite
    number >= 0."""
    with open(path) as fh:
        lines = fh.readlines()
    adjacency = None
    found = 0
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#") or parts[0] == "pos":
            continue
        try:
            if adjacency is None:
                if len(parts) != 3 or parts[2] not in ("directed", "undirected"):
                    raise ValueError("header must be `n m directed|undirected`")
                n = _node_count(parts[0])
                m = _number(int, parts[1], "edge count")
                directed = parts[2] == "directed"
                adjacency = [[] for _ in range(n)]
            elif not 2 <= len(parts) <= 4:
                raise ValueError("edge line needs `u v [p] [w]`")
            else:
                p = _number(float, parts[2], "probability") if len(parts) > 2 else 1.0
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"edge probability {p!r} outside [0, 1]")
                w = _number(float, parts[3], "weight") if len(parts) > 3 else None
                if routing and w is None:
                    raise ValueError("routing edge line needs `u v p w`: "
                                     "its weight is the route length")
                if routing and not 0.0 <= w < math.inf:
                    raise ValueError(f"weight {parts[3]!r} is not a finite number >= 0")
                u, v = _endpoints(parts[:2], n, 0)
                adjacency[u].append((v, p, w))
                if not directed:
                    adjacency[v].append((u, p, w))
                found += 1
        except ValueError as exc:
            raise GraphParseError(path, exc, lineno) from None
    if adjacency is None:
        raise GraphParseError(path, "missing header line")
    if found != m:
        raise GraphParseError(path, f"header declares {m} edges, found {found}")
    return DirectedGraph(n, adjacency, directed=directed)


def save_edge_list(graph: DirectedGraph, path) -> None:
    edges = graph.edge_list()
    with open(path, "w") as fh:
        kind = "directed" if graph.directed else "undirected"
        fh.write(f"{graph.n} {len(edges)} {kind}\n")
        for (u, v, p, w) in edges:
            if w is not None:
                fh.write(f"{u} {v} {p!r} {w!r}\n")
            else:
                fh.write(f"{u} {v} {p!r}\n")
