"""Property tests of the file formats: a schedule or graph written with the
save function reads back equal with the load function."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsel.dynamics import BudgetSchedule, load_schedule, save_schedule
from dynsel.problems import DirectedGraph, load_edge_list, save_edge_list

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def schedules(draw):
    b_min, b_init, b_max = sorted(draw(st.lists(st.floats(0.0, 1e6, **finite),
                                                min_size=3, max_size=3)))
    r = draw(st.floats(1e-6, 1e3, **finite))
    deltas = [u * r for u in draw(st.lists(st.floats(-1.0, 1.0), max_size=30))]
    return BudgetSchedule(
        b_init=b_init, b_min=b_min, b_max=b_max, deltas=deltas,
        tau=draw(st.integers(0, 10**6)), r=r,
        seed=draw(st.none() | st.integers(-2**31, 2**31)))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    prob = st.floats(0.0, 1.0) if draw(st.booleans()) else st.none()
    weight = st.floats(-1e6, 1e6, **finite) if draw(st.booleans()) else st.none()
    edges = draw(st.lists(st.tuples(node, node, prob, weight), max_size=20))
    positions = None
    if draw(st.booleans()):
        positions = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                  min_size=n, max_size=n))
    return DirectedGraph.from_edges(
        n, edges, directed=draw(st.booleans()),
        positions=np.asarray(positions) if positions is not None else None)


def _adjacency(graph):
    return [Counter(edges) for edges in graph.adjacency]


@settings(max_examples=60, deadline=None)
@given(schedule=schedules())
def test_schedule_round_trip(tmp_path_factory, schedule):
    path = tmp_path_factory.mktemp("sched") / "schedule.txt"
    save_schedule(schedule, path)
    assert load_schedule(path) == schedule


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_edge_list_round_trip(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("graph") / "graph.edges"
    save_edge_list(graph, path)
    loaded = load_edge_list(path)
    assert (loaded.n, loaded.directed) == (graph.n, graph.directed)
    assert _adjacency(loaded) == _adjacency(graph)
    assert loaded.edge_count() == graph.edge_count()
    if graph.positions is None:
        assert loaded.positions is None
    else:
        assert (loaded.positions == graph.positions).all()
