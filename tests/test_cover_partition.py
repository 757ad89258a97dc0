"""The cover daemons' neighbourhood-mask partition against a ball-mask
reference.

``_CoverDaemon._partition`` decides whether a node may join a batch by
OR-ing one mask per member of its closed neighbourhood N[v]; the
reference below is the direct formulation, one blocked-batch mask per
node written over each placed node's whole distance-2 ball.  Both must
issue the same batches, in the same order, from the same random stream,
for every generated graph (random, star, grid and the Section-9
``subdivided`` family), every scan (permutations and partial scans),
both daemons, and after ``topology_changed()`` rebuilds the memos.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import TOPOLOGIES
from repro.graphs.generators import (grid_graph, random_connected_graph,
                                     star_graph)
from repro.sim import ConflictFreeDaemon, TiledConflictFreeDaemon

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ref_balls(graph, nodes):
    """Distance-2 balls as sorted dense indices, and the index map."""
    order = {v: k for k, v in enumerate(nodes)}
    balls = []
    for v in nodes:
        ball = {v}
        for u in graph.neighbors(v):
            ball.add(u)
            ball.update(graph.neighbors(u))
        balls.append(sorted(order[w] for w in ball))
    return balls, order


def _ref_partition(scan, balls, order):
    """Greedy first-fit: a placed node blocks its batch on its ball."""
    blocked = [0] * len(balls)
    batches = []
    for v in scan:
        k = order[v]
        m = blocked[k]
        b = (~m & (m + 1)).bit_length() - 1
        if b == len(batches):
            batches.append([v])
        else:
            batches[b].append(v)
        for w in balls[k]:
            blocked[w] |= 1 << b
    return batches


def _ref_sweep(graph, nodes, rng, tiled):
    """One sweep's batches of either cover daemon, drawn from ``rng``."""
    balls, order = _ref_balls(graph, nodes)
    if not tiled:
        perm = list(nodes)
        rng.shuffle(perm)
        return _ref_partition(perm, balls, order)
    centers = list(nodes)
    rng.shuffle(centers)
    covered = [False] * len(nodes)
    batches = []
    for c in centers:
        tile = [nodes[k] for k in balls[order[c]] if not covered[k]]
        if not tile:
            continue
        for v in tile:
            covered[order[v]] = True
        batches.extend(_ref_partition(tile, balls, order))
    return batches


def _sweep(daemon, nodes):
    """The batches ``daemon`` issues for one whole sweep."""
    batches = []
    seen = 0
    while seen < len(nodes):
        batch = daemon.next_batch(nodes)
        batches.append(batch)
        seen += len(batch)
    return batches


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["random", "star", "grid", "subdivided"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "random":
        n = draw(st.integers(2, 48))
        return random_connected_graph(n, draw(st.integers(0, 2 * n)),
                                      seed=seed)
    if kind == "star":
        return star_graph(draw(st.integers(2, 16)), seed=seed)
    if kind == "grid":
        return grid_graph(draw(st.integers(1, 6)), draw(st.integers(2, 6)),
                          seed=seed)
    return TOPOLOGIES["subdivided"](
        seed=seed, base_n=draw(st.integers(3, 10)),
        extra=draw(st.integers(0, 8)), tau=draw(st.integers(1, 2)))


@settings(max_examples=60, **COMMON)
@given(graph=graphs(), data=st.data())
def test_mask_partition_matches_ball_reference(graph, data):
    """Any scan, permuted or partial: the same batches as the ball-mask
    partition."""
    nodes = graph.nodes()
    scan = data.draw(st.permutations(range(len(nodes))))
    scan = scan[:data.draw(st.integers(1, len(nodes)))]
    daemon = ConflictFreeDaemon(graph)
    got = daemon._partition(scan, daemon._closed(nodes), nodes)
    balls, order = _ref_balls(graph, nodes)
    assert got == _ref_partition([nodes[k] for k in scan], balls, order)


@settings(max_examples=40, **COMMON)
@given(graph=graphs(), seed=st.integers(0, 10_000), tiled=st.booleans(),
       victim=st.integers(0, 10_000))
def test_daemon_sweeps_match_reference(graph, seed, tiled, victim):
    """Whole sweeps of both daemons match the reference drawn from the
    same random stream, before and after a node crash that
    ``topology_changed()`` reports, and again once the node rejoins."""
    cls = TiledConflictFreeDaemon if tiled else ConflictFreeDaemon
    daemon = cls(graph, seed=seed)
    rng = random.Random(seed)
    for _ in range(2):
        assert _sweep(daemon, graph.nodes()) == \
            _ref_sweep(graph, graph.nodes(), rng, tiled)
    if graph.n < 3:
        return
    v = graph.nodes()[victim % graph.n]
    stub = graph.remove_node(v)
    daemon.topology_changed()
    for _ in range(2):
        assert _sweep(daemon, graph.nodes()) == \
            _ref_sweep(graph, graph.nodes(), rng, tiled)
    graph.restore_node(v, stub)
    daemon.topology_changed()
    assert _sweep(daemon, graph.nodes()) == \
        _ref_sweep(graph, graph.nodes(), rng, tiled)
    assert daemon.rng.getstate() == rng.getstate()
