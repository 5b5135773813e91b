import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsel.algorithms import brute_force_front
from dynsel.core import CostFn, substream
from dynsel.problems import (CardinalityCost, DirectedGraph,
                             DisconnectedSelectionError, GraphParseError,
                             InfluenceInstance, IcSpreadObjective, LinearCost,
                             LinearObjective, RoutingCost, SetCoverObjective,
                             bfs_reachable, gen_adversarial_knapsack,
                             gen_ba_graph, gen_bipartite_cover, gen_er_graph,
                             gen_random_digraph, load_dimacs, load_edge_list,
                             make_cost, outdegree_cost, random_linear_cost,
                             save_edge_list)

from conftest import bits_of


def numpy_walk(c, bits):
    """The nearest-neighbour route as first written: one numpy fancy-index,
    isfinite and argmin per leg over the Dijkstra matrix."""
    selected = np.flatnonzero(bits)
    cost = c.inst.per_node_cost * selected.size
    if selected.size <= 1:
        return float(cost)
    dist = c._distances()
    unvisited = list(selected[1:])
    current = selected[0]
    while unvisited:
        legs = dist[current, unvisited]
        if not np.isfinite(legs).any():
            raise DisconnectedSelectionError(current)
        k = int(np.argmin(legs))
        cost += legs[k]
        current = unvisited.pop(k)
    return float(cost)


# ---------------------------------------------------------------------------
# coverage objective


class TestCoverage:
    def test_g3_values(self, g3_objective):
        assert g3_objective(bits_of(3, [])) == 0.0
        assert g3_objective(bits_of(3, [0])) == 3.0
        assert g3_objective(bits_of(3, [1, 2])) == 2.0

    def test_bounded_by_n(self, g3_objective):
        assert g3_objective(bits_of(3, [0, 1, 2])) == 3.0

    @pytest.mark.parametrize("case", [0, 1, 2, "influence"])
    def test_submodular_exhaustive(self, case):
        n = 8
        if case == "influence":
            g = gen_random_digraph(n, 0.4, substream(5, "ic-sub"), edge_prob=0.4)
            f = IcSpreadObjective(InfluenceInstance(g, simulations=50),
                                  substream(99, "ic"))
        else:
            g = gen_random_digraph(n, 0.25, substream(case, "sub"))
            f = SetCoverObjective.from_graph(g)
        vals = {}
        for mask in range(1 << n):
            bits = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)
            vals[mask] = f(bits)
        for y in range(1 << n):
            sub = y
            while True:  # all x subset y
                x = sub
                for v in range(n):
                    bit = 1 << v
                    if y & bit:
                        continue
                    # influence values are counts / R: allow rounding
                    assert vals[x | bit] - vals[x] >= vals[y | bit] - vals[y] - 1e-9
                if sub == 0:
                    break
                sub = (sub - 1) & y


def _assert_kernel_is_the_union(f, sets, pick, scale=1):
    """f of `pick`, of the empty set and of the full set, as a uint8 array,
    a bool array and a 0/1 list, is |union of the selected sets| / scale."""
    for chosen in (pick, [False] * len(sets), [True] * len(sets)):
        want = len(set().union(*(s for s, on in zip(sets, chosen) if on)))
        for bits in (np.array(chosen, dtype=np.uint8),
                     np.array(chosen, dtype=bool), [int(on) for on in chosen]):
            assert f(bits) == want / scale


@settings(max_examples=80, deadline=None)
@given(data=st.data(), universe=st.integers(1, 200))
def test_set_cover_kernel_is_the_union_of_the_selected_sets(data, universe):
    sets = data.draw(st.lists(st.sets(st.integers(0, universe - 1)),
                              min_size=1, max_size=40))
    pick = data.draw(st.lists(st.booleans(), min_size=len(sets),
                              max_size=len(sets)))
    f = SetCoverObjective.from_sets(universe, sets)
    _assert_kernel_is_the_union(f, sets, pick)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), simulations=st.integers(1, 6),
       edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_ic_spread_kernel_is_the_union_of_the_selected_sets(
        data, n, simulations, edge_prob, seed):
    g = gen_random_digraph(n, 0.3, substream(seed, "kernel"), edge_prob=edge_prob)
    f = IcSpreadObjective(InfluenceInstance(g, simulations=simulations),
                          substream(seed, "kernel", "ic"))
    sets = [{e for e in range(m.bit_length()) if m >> e & 1} for m in f.masks]
    pick = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    _assert_kernel_is_the_union(f, sets, pick, scale=simulations)


# ---------------------------------------------------------------------------
# independent cascade


class TestIcSpread:
    def test_no_seeds(self, rng):
        g = gen_random_digraph(6, 0.3, substream(1, "g"))
        f = IcSpreadObjective(InfluenceInstance(g, simulations=5), rng)
        assert f(bits_of(6, [])) == 0.0

    def test_zero_probability_edges(self, rng):
        g = DirectedGraph.from_edges(5, [(0, 1, 0.0), (1, 2, 0.0)])
        f = IcSpreadObjective(InfluenceInstance(g, simulations=20), rng)
        assert f(bits_of(5, [0, 3])) == 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_certain_edges_equal_bfs(self, seed, rng):
        g = gen_random_digraph(20, 0.1, substream(seed, "p1"), edge_prob=1.0)
        f = IcSpreadObjective(InfluenceInstance(g, simulations=3), rng)
        seeds = [seed % 20, (seed * 7 + 1) % 20]
        assert f(bits_of(20, seeds)) == bfs_reachable(g, seeds)

    def test_objective_wrapper_counts_right_size(self):
        g = gen_random_digraph(7, 0.2, substream(2, "w"))
        inst = InfluenceInstance(g, simulations=4)
        f = IcSpreadObjective(inst, substream(3, "e"))
        assert f.n == 7

    def test_mean_over_samples(self):
        # one edge 0 -> 1 with p = 1/2: the spread of {0} is 1 + (share of
        # samples in which the edge is live)
        g = DirectedGraph.from_edges(2, [(0, 1, 0.5)])
        f = IcSpreadObjective(InfluenceInstance(g, simulations=400),
                              substream(4, "half"))
        spread = f(bits_of(2, [0]))
        assert 1.4 < spread < 1.6
        assert f(bits_of(2, [1])) == 1.0
        assert f(bits_of(2, [0, 1])) == 2.0

    def test_refuses_too_many_mask_bits(self):
        g = gen_random_digraph(10, 0.2, substream(0, "cap"))
        with pytest.raises(ValueError, match=r"n = 10 and simulations = 20000000"):
            InfluenceInstance(g, simulations=20_000_000)

    def test_rejects_zero_simulations(self):
        g = gen_random_digraph(4, 0.2, substream(0, "z"))
        with pytest.raises(ValueError):
            InfluenceInstance(g, simulations=0)


# ---------------------------------------------------------------------------
# cost models


class TestCosts:
    def test_outdegree_examples(self):
        g = DirectedGraph.from_edges(
            10, [(0, t) for t in range(1, 4)] + [(1, t) for t in range(2, 10)])
        c = outdegree_cost(g, q=6)
        assert c(bits_of(10, [0])) == 1.0   # d=3 -> o=1
        assert c(bits_of(10, [1])) == 3.0   # d=8 -> o=1+2
        assert c(bits_of(10, [])) == 0.0

    def test_outdegree_per_node_at_least_one(self):
        g = gen_random_digraph(15, 0.4, substream(4, "od"))
        c = outdegree_cost(g, q=2)
        assert all(c(bits_of(15, [v])) >= 1.0 for v in range(15))

    def test_random_linear_in_unit_interval(self):
        c = random_linear_cost(50, substream(9, "rl"))
        assert ((c.weights > 0) & (c.weights <= 1)).all()

    def test_routing_empty_and_singleton(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 1.0, 1.0)], directed=False)
        inst = InfluenceInstance(g, routing_graph=g)
        c = RoutingCost(inst)
        assert c(bits_of(3, [])) == 0.0
        assert c(bits_of(3, [2])) == pytest.approx(0.1)

    def test_routing_two_nodes(self):
        g = DirectedGraph.from_edges(2, [(0, 1, 1.0, 1.0)], directed=False)
        inst = InfluenceInstance(g, routing_graph=g)
        c = RoutingCost(inst)
        assert c(bits_of(2, [0, 1])) == pytest.approx(1.2)

    def test_routing_parallel_edges_take_the_lightest(self):
        # a sparse matrix built from both copies would sum them to 3.0
        g = DirectedGraph.from_edges(2, [(0, 1, 1.0, 1.0), (0, 1, 1.0, 2.0)],
                                     directed=False)
        inst = InfluenceInstance(g, routing_graph=g)
        c = RoutingCost(inst)
        assert c(bits_of(2, [0, 1])) == pytest.approx(1.2)

    def test_routing_uses_shortest_path(self):
        # direct edge 0-2 costs 5, via node 1 costs 2
        g = DirectedGraph.from_edges(
            3, [(0, 2, 1.0, 5.0), (0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)],
            directed=False)
        inst = InfluenceInstance(g, routing_graph=g)
        c = RoutingCost(inst)
        assert c(bits_of(3, [0, 2])) == pytest.approx(0.2 + 2.0)

    def test_routing_disconnected_raises(self):
        g = DirectedGraph.from_edges(4, [(0, 1, 1.0, 1.0)], directed=False)
        inst = InfluenceInstance(g, routing_graph=g)
        c = RoutingCost(inst)
        with pytest.raises(DisconnectedSelectionError):
            c(bits_of(4, [0, 3]))

    @pytest.mark.parametrize("seed", range(8))
    def test_routing_walk_matches_numpy_walk(self, seed):
        # even seeds: integer weights, so legs tie; odd seeds: Euclidean
        # weights over a sparse graph that may leave nodes unreachable
        rng = substream(seed, "routing-walk")
        n = int(rng.integers(2, 16))
        if seed % 2 == 0:
            edges = [(u, v, 1.0, float(rng.integers(1, 4)))
                     for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = DirectedGraph.from_edges(n, edges, directed=bool(seed % 4))
        else:
            g = gen_er_graph(n, 0.15, rng)
        c = RoutingCost(InfluenceInstance(g, routing_graph=g))
        raised = 0
        for _ in range(200):
            bits = (rng.random(n) < rng.random()).astype(np.uint8)
            try:
                want = numpy_walk(c, bits)
            except DisconnectedSelectionError:
                raised += 1
                with pytest.raises(DisconnectedSelectionError):
                    c(bits)
            else:
                assert c(bits) == want
        if seed % 2:
            assert raised > 0  # disconnected selections are covered

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), degree=st.floats(0.0, 6.0),
           directed=st.booleans(), integer_weights=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=300, degree=0.8, directed=False, integer_weights=True, seed=0)
    @example(n=200, degree=3.0, directed=True, integer_weights=False, seed=1)
    def test_routing_distances_equal_scipy_dijkstra(
            self, n, degree, directed, integer_weights, seed):
        """Bit for bit, over directed and undirected graphs with zero-weight
        and parallel edges and unreachable nodes; n > 128 crosses a block
        of sources."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        rng = np.random.default_rng(seed)
        m = int(degree * n)
        ends = rng.integers(n, size=(2, m)).tolist()
        weights = (rng.integers(0, 3, m).astype(float) if integer_weights
                   else np.where(rng.random(m) < 0.1, 0.0, rng.random(m))).tolist()
        edges = [(u, v, 1.0, w) for u, v, w in zip(*ends, weights)]
        edges += [(u, v, 1.0, w + 0.5) for (u, v, _p, w) in edges[::5]]  # parallel
        g = DirectedGraph.from_edges(n, edges, directed=directed)
        got = RoutingCost(InfluenceInstance(g, simulations=1,
                                            routing_graph=g))._distances()
        lightest = {}  # csr_matrix would sum parallel edges
        for (u, v, _p, w) in g.edge_list():
            lightest[u, v] = min(w, lightest.get((u, v), w))
        rows, cols = zip(*lightest) if lightest else ((), ())
        want = dijkstra(csr_matrix((list(lightest.values()), (rows, cols)),
                                   shape=(n, n)), directed=directed)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("weight", [-2.0, math.nan, None])
    def test_routing_refuses_weights_that_are_not_lengths(self, weight):
        g = DirectedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, weight)],
                                     directed=False)
        c = RoutingCost(InfluenceInstance(g, simulations=1, routing_graph=g))
        with pytest.raises(ValueError, match="routing edge"):
            c(bits_of(3, [0, 2]))

    @pytest.mark.parametrize("variant", ["cardinality", "random-linear", "outdegree"])
    def test_monotone_with_zero_empty_cost(self, variant):
        n = 6
        g = gen_random_digraph(n, 0.3, substream(7, "mono", variant))
        weights = random_linear_cost(n, substream(8, "mono", variant)).weights
        c = make_cost(variant, n=n, graph=g, weights=weights)
        assert c(bits_of(n, [])) == 0.0
        for mask in range(1 << n):
            bits = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)
            base = c(bits)
            for v in range(n):
                if not bits[v]:
                    added = bits.copy()
                    added[v] = 1
                    assert c(added) >= base

    def test_min_increment_is_a_lower_bound(self):
        n = 6
        c = random_linear_cost(n, substream(10, "mi"))
        assert c.min_increment > 0
        for mask in range(1 << n):
            bits = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)
            base = c(bits)
            for v in range(n):
                if not bits[v]:
                    added = bits.copy()
                    added[v] = 1
                    assert c(added) - base >= c.min_increment - 1e-12

    @pytest.mark.parametrize("variant", ["cardinality", "random-linear", "outdegree"])
    def test_linear_variants_declare_monotone(self, variant):
        n = 6
        g = gen_random_digraph(n, 0.3, substream(7, "mono", variant))
        weights = random_linear_cost(n, substream(8, "mono", variant)).weights
        assert make_cost(variant, n=n, graph=g, weights=weights).monotone is True

    def test_routing_declares_no_monotone(self):
        g = gen_er_graph(6, 1.0, substream(9, "mono-routing"))
        c = make_cost("routing", influence=InfluenceInstance(g, routing_graph=g))
        assert not hasattr(c, "monotone")
        assert not hasattr(CostFn, "monotone")  # wrappers forward the answer

    def test_routing_is_not_monotone_and_keeps_the_full_enumeration(self):
        xs = [0.0, 1.0, -1.05, 10.0, -0.9]  # five nodes on a line
        routing = DirectedGraph.from_edges(
            5, [(u, v, 1.0, abs(xs[u] - xs[v]))
                for u, v in itertools.combinations(range(5), 2)],
            directed=False)
        c = RoutingCost(InfluenceInstance(
            DirectedGraph.from_edges(5, []), simulations=1,
            routing_graph=routing, per_node_cost=1.0))
        # adding node 4 lets the nearest-neighbour route skip two long legs
        assert c(bits_of(5, [0, 1, 2, 3])) == pytest.approx(18.1)
        assert c(bits_of(5, range(5))) == pytest.approx(17.1)
        # a front pruned at the over-budget {0, 1, 2, 3} would answer 4.0
        f = LinearObjective([1.0] * 5)
        assert brute_force_front(f, c, [17.5]) == {17.5: 5.0}


# ---------------------------------------------------------------------------
# adversarial generators


class TestAdversarialKnapsack:
    def test_n4_items(self):
        f, c = gen_adversarial_knapsack(4)
        assert f.values.tolist() == [0.25, 0.25, 1.0, 1.0, 3.0]
        assert c.weights.tolist() == [1.0, 1.0, 2.0, 2.0, 1.0]

    def test_n2_items(self):
        f, c = gen_adversarial_knapsack(2)
        assert f.values.tolist() == [0.5, 1.0, 3.0]
        assert c.weights.tolist() == [1.0, 2.0, 1.0]

    def test_optimum_at_unit_budget_is_special_item(self):
        f, c = gen_adversarial_knapsack(4)
        special = bits_of(5, [4])
        assert brute_force_front(f, c, [1.0]) == {1.0: 3.0}
        assert (f(special), c(special)) == (3.0, 1.0)

    @pytest.mark.parametrize("n", [0, 3, -2])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            gen_adversarial_knapsack(n)


class TestBipartiteCover:
    def test_n16_full_cover(self):
        f = gen_bipartite_cover(16)
        assert f.n == 16 and f(bits_of(16, range(16))) == 24.0

    def test_n16_hubs(self):
        hubs = [i * 4 for i in range(4)]  # u_1 of each subgraph
        assert gen_bipartite_cover(16)(bits_of(16, hubs)) == 12.0

    def test_n16_one_non_hub_per_subgraph(self):
        picks = [i * 4 + 1 for i in range(4)]  # u_2 of each subgraph
        assert gen_bipartite_cover(16)(bits_of(16, picks)) == 8.0

    @pytest.mark.parametrize("n", [2, 15, 1])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            gen_bipartite_cover(n)


# ---------------------------------------------------------------------------
# random graph generators


class TestRandomGraphs:
    def test_er_no_edges(self):
        assert len(gen_er_graph(10, 0.0, substream(0, "er")).edge_list()) == 0

    def test_er_complete(self):
        g = gen_er_graph(10, 1.0, substream(0, "er"))
        assert len(g.edge_list()) == 45

    def test_er_expected_edge_count(self):
        # Binomial(C(100,2), 0.02): mean 99, sd ~9.85; mean of 30 seeds
        counts = [len(gen_er_graph(100, 0.02, substream(s, "er-mean")).edge_list())
                  for s in range(30)]
        se = np.sqrt(4950 * 0.02 * 0.98 / 30)
        assert abs(np.mean(counts) - 99.0) < 3 * se

    def test_er_positions_and_weights(self):
        # the positions are the stream's first draw, and are not kept
        g = gen_er_graph(20, 0.3, substream(3, "er-pos"))
        positions = substream(3, "er-pos").random((20, 2))
        assert not hasattr(g, "positions")
        for (u, v, _p, w) in g.edge_list():
            assert w == float(np.hypot(*(positions[u] - positions[v])))

    def test_ba_bidirected(self):
        g = gen_ba_graph(30, m=2, rng=substream(6, "ba"), edge_prob=0.1)
        for (u, v, p, _w) in g.edge_list():
            assert p == 0.1
            assert u in g.out_neighbors(v)

    def test_ba_matches_networkx_edge_for_edge(self):
        nx = pytest.importorskip("networkx")
        for n in (2, 3, 4, 5, 8, 9, 17, 40, 101, 300):
            for m in range(1, 8):
                for seed in range(3):
                    got = gen_ba_graph(n, m=m, rng=substream(seed, "ba-nx"),
                                       edge_prob=0.2)
                    draw = substream(seed, "ba-nx").integers(2**31)
                    ba = nx.barabasi_albert_graph(n, min(m, n - 1),
                                                  seed=int(draw))
                    want = DirectedGraph.from_edges(
                        n, [e for (u, v) in ba.edges()
                            for e in ((u, v, 0.2), (v, u, 0.2))])
                    assert got.adjacency == want.adjacency, (n, m, seed)

    @pytest.mark.parametrize("m", [0, -1])
    def test_ba_needs_one_edge_per_node(self, m):
        with pytest.raises(ValueError, match=f"m = {m}"):
            gen_ba_graph(10, m=m, rng=substream(0, "ba"))

    @pytest.mark.parametrize("make, message", [
        (lambda: gen_random_digraph(0, 0.2, substream(0, "rd")), "need n >= 1"),
        (lambda: gen_random_digraph(5, 1.5, substream(0, "rd")),
         "p must be a probability"),
        (lambda: gen_random_digraph(5, math.nan, substream(0, "rd")),
         "p must be a probability"),
        (lambda: random_linear_cost(0, substream(0, "rl")), "need n >= 1")],
        ids=["digraph-n-0", "digraph-p-1.5", "digraph-p-nan", "costs-n-0"])
    def test_max_coverage_generators_refuse_bad_values(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_digraph_edge_probability_param(self):
        g = gen_random_digraph(10, 0.5, substream(2, "dg"), edge_prob=0.25)
        assert all(p == 0.25 for (_u, _v, p, _w) in g.edge_list())


# ---------------------------------------------------------------------------
# file I/O


class TestDimacs:
    def test_parse_g3(self, tmp_path, g3):
        path = tmp_path / "g3.dimacs"
        path.write_text("c comment\np edge 3 2\ne 1 2\ne 1 3\n")
        g = load_dimacs(path)
        assert g.n == 3
        assert g.out_neighbors(0) == [1, 2]
        assert g.out_neighbors(1) == [] and g.out_neighbors(2) == []

    def test_empty_edge_section(self, tmp_path):
        path = tmp_path / "iso.dimacs"
        path.write_text("p edge 3 0\n")
        g = load_dimacs(path)
        assert g.n == 3 and len(g.edge_list()) == 0

    def test_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("p edge 3 1\ne 1\n")
        with pytest.raises(GraphParseError) as exc:
            load_dimacs(path)
        assert exc.value.lineno == 2

    def test_node_count_below_one(self, tmp_path):
        path = tmp_path / "empty.dimacs"
        path.write_text("p edge 0 0\n")
        with pytest.raises(GraphParseError,
                           match=r"empty\.dimacs: line 1: node count 0 is below 1"):
            load_dimacs(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "mis.dimacs"
        path.write_text("p edge 3 2\ne 1 2\n")
        with pytest.raises(GraphParseError):
            load_dimacs(path)

    def test_round_trip(self, tmp_path):
        g = gen_random_digraph(12, 0.2, substream(1, "rt"))
        edges = g.edge_list()
        path = tmp_path / "rt.dimacs"
        path.write_text(f"p edge {g.n} {len(edges)}\n"
                        + "".join(f"e {u + 1} {v + 1}\n" for (u, v, _p, _w) in edges))
        back = load_dimacs(path)
        assert back.n == g.n
        assert [(u, v) for (u, v, _p, _w) in back.edge_list()] == \
               [(u, v) for (u, v, _p, _w) in g.edge_list()]


class TestEdgeList:
    def test_round_trip_skips_pos_lines(self, tmp_path):
        g = gen_er_graph(15, 0.3, substream(4, "el"))
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        text = path.read_text()
        assert "pos" not in text
        back = load_edge_list(path, routing=True)
        assert back.n == g.n and back.directed == g.directed
        assert back.edge_list() == g.edge_list()
        # a file written before 0.4.0 holds a `pos x y` line per node after
        # its header; they are read as comments
        header, edges = text.split("\n", 1)
        path.write_text(header + "\n" + "pos 0.25 0.5\n" * g.n + edges)
        assert load_edge_list(path, routing=True).adjacency == g.adjacency

    def test_undirected_self_loop_listed_once(self, tmp_path):
        g = DirectedGraph.from_edges(2, [(0, 0), (0, 1)], directed=False)
        assert g.edge_list() == [(0, 0, 1.0, None), (0, 1, 1.0, None)]
        path = tmp_path / "loop.edges"
        save_edge_list(g, path)
        assert load_edge_list(path).adjacency == g.adjacency

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noh.edges"
        path.write_text("0 1\n")
        with pytest.raises(GraphParseError):
            load_edge_list(path)

    def test_bad_edge_arity(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("2 1 directed\n0 1 0.5 1.0 extra\n")
        with pytest.raises(GraphParseError) as exc:
            load_edge_list(path)
        assert exc.value.lineno == 2

    @pytest.mark.parametrize("line, message", [
        ("0 1 1.0 -2.0", "weight '-2.0' is not a finite number >= 0"),
        ("0 1 1.0 nan", "weight 'nan' is not a finite number >= 0"),
        ("0 1 1.0 inf", "weight 'inf' is not a finite number >= 0"),
        ("0 1 1.0", "routing edge line needs `u v p w`")])
    def test_routing_weights_refused_by_line(self, tmp_path, line, message):
        path = tmp_path / "r.edges"
        path.write_text(f"3 2 undirected\n1 2 1.0 0.5\n{line}\n")
        assert load_edge_list(path).n == 3  # any weight, or none, elsewhere
        with pytest.raises(GraphParseError, match=message) as exc:
            load_edge_list(path, routing=True)
        assert exc.value.lineno == 3

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_node_count_below_one(self, tmp_path, n):
        path = tmp_path / "empty.edges"
        path.write_text(f"{n} 0 directed\n")
        with pytest.raises(GraphParseError,
                           match=rf"empty\.edges: line 1: node count {n} is below 1"):
            load_edge_list(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "mis.edges"
        path.write_text("3 2 directed\n0 1\n")
        with pytest.raises(GraphParseError):
            load_edge_list(path)
