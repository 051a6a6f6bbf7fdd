from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borwin.baselines import brute_force
from borwin.graph import (
    Arc,
    LazyTuple,
    NonContiguous,
    SinkUnreachable,
    Window,
    WindowedDag,
    all_tails,
    check_windows,
    longest_path,
    path_by_vertices,
    path_metrics,
    prune_unreachable,
    validate,
)
from borwin.huc import reached_graph
from borwin.phase1 import orient_dag
from borwin.rational import PLUS_INF

F = Fraction


# -- validate ---------------------------------------------------------------


def test_validate_fixture_ok(wclpp):
    report = validate(wclpp)
    assert report.ok
    assert report.warnings == ()


def test_validate_degenerate_single_vertex():
    dag = WindowedDag([Window(F(0), F(0))], [], 0, 0, labels=["s"])
    assert validate(dag).ok


def test_validate_cycle(wclpp):
    arcs = list(wclpp.arcs) + [Arc(4, 0, F(1), F(1))]
    bad = WindowedDag(wclpp.windows, arcs, 0, 4, labels=wclpp.labels, topo_order=wclpp.topo_order)
    report = validate(bad)
    assert not report.ok
    assert report.code == "CycleDetected"


def test_validate_bad_topo(wclpp):
    order = list(wclpp.topo_order)
    order[0], order[-1] = order[-1], order[0]
    bad = WindowedDag(wclpp.windows, wclpp.arcs, 0, 4, labels=wclpp.labels, topo_order=order)
    report = validate(bad)
    assert not report.ok
    assert report.code == "BadTopoOrder"


def test_validate_inverted_window(wclpp):
    windows = list(wclpp.windows)
    windows[2] = Window(F(5), F(1))
    report = validate(WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels))
    assert report.code == "InvertedWindow"


def test_validate_dangling_arc(wclpp):
    # an end past either side of the range: the arc is in no out-arc list
    # (a -1 would otherwise file it under the last vertex), and construction
    # leaves the report to validate
    for dangling in (Arc(0, 9, F(1), F(1)), Arc(-1, 2, F(1), F(1))):
        arcs = list(wclpp.arcs) + [dangling]
        dag = WindowedDag(wclpp.windows, arcs, 0, 4, labels=wclpp.labels)
        assert dag.out_arcs == wclpp.out_arcs
        report = validate(dag)
        assert report.code == "DanglingArc"


def test_validate_reports_each_structural_error_by_class_and_text(wclpp):
    windows, labels = wclpp.windows, wclpp.labels
    loop = WindowedDag(windows, [Arc(2, 2, F(1), F(1)), *wclpp.arcs], 0, 4, labels=labels, topo_order=wclpp.topo_order)
    out_of_range = [
        WindowedDag(windows, wclpp.arcs, source, sink, labels=labels, topo_order=wclpp.topo_order)
        for source, sink in ((5, 4), (0, -1))
    ]
    not_a_permutation = WindowedDag(windows, wclpp.arcs, 0, 4, labels=labels, topo_order=[0, 1, 1, 3, 4])
    cases = [
        (loop, "CycleDetected", "arc 0 is a self-loop"),
        *((dag, "DanglingArc", "source or sink out of range") for dag in out_of_range),
        (not_a_permutation, "BadTopoOrder", "stored order is not a permutation of the vertices"),
    ]
    for dag, code, detail in cases:
        report = validate(dag)
        assert (report.ok, report.code, report.detail) == (False, code, detail)


def test_validate_source_window_must_contain_zero(wclpp):
    windows = list(wclpp.windows)
    windows[0] = Window(F(1), F(2))
    report = validate(WindowedDag(windows, wclpp.arcs, 0, 4, labels=wclpp.labels))
    assert report.code == "BadSourceWindow"


def test_validate_warns_on_off_path_window(wclpp):
    windows = list(wclpp.windows) + [Window(F(0), F(1))]
    dag = WindowedDag(windows, wclpp.arcs, 0, 4, labels=list(wclpp.labels) + ["island"])
    report = validate(dag)
    assert report.ok
    assert any("island" in w for w in report.warnings)


# -- path metrics -------------------------------------------------------------


def test_path_metrics_pi4(wclpp):
    pi4 = path_by_vertices(wclpp, ["s", "1", "3", "p"])
    assert pi4.value == 33
    assert pi4.resource == 16
    assert pi4.prefix_resources == (F(0), F(5), F(10), F(16))


def test_path_metrics_pi5(wclpp):
    pi5 = path_by_vertices(wclpp, ["s", "3", "2", "p"])
    assert pi5.value == 26
    assert pi5.resource == 40


def test_path_metrics_empty(wclpp):
    empty = path_metrics(wclpp, [])
    assert empty.start == wclpp.source
    assert empty.value == 0 and empty.resource == 0


def test_path_metrics_noncontiguous(wclpp):
    with pytest.raises(NonContiguous):
        path_metrics(wclpp, [wclpp.find_arc(0, 1), wclpp.find_arc(3, 4)])


def test_path_metrics_noncontiguous_on_an_integer_built_graph(huc5):
    """Contiguity is checked on the integer arc ends, so a broken arc list
    over a compiled graph raises as it does over an eager one, and no
    arc is made."""
    dag, vmap = reached_graph(huc5)
    out = dag.out_arcs[dag.source]
    second = dag.out_arcs[dag.int_arcs().dst[out[0]]][0]
    assert path_metrics(dag, [out[0], second]).vertices()[0] == dag.source
    with pytest.raises(NonContiguous, match="does not continue"):
        path_metrics(dag, [out[0], out[-1]])
    with pytest.raises(NonContiguous, match="path starts at"):
        path_metrics(dag, [second], start=dag.source)
    assert dag.arcs._items is None


def test_lazy_tuple_builds_on_the_first_sequence_read():
    made = []

    def item(k):
        made.append(k)
        return k * k

    view = LazyTuple(4, item)
    assert len(view) == 4 and made == []
    assert view.one(3) == 9 and made == [3]
    assert view[1:3] == (1, 4) and made == [3, 0, 1, 2, 3]
    assert view.one(2) == 4 and list(view) == [0, 1, 4, 9] and len(made) == 5
    assert view == (0, 1, 4, 9) == view and view != [0, 1, 4, 9]


# -- window checks ------------------------------------------------------------


def test_check_windows_feasible_pi3(wclpp):
    assert check_windows(wclpp, path_by_vertices(wclpp, ["s", "1", "2", "p"])) is None


def test_check_windows_low_at_sink(wclpp):
    violation = check_windows(wclpp, path_by_vertices(wclpp, ["s", "1", "3", "p"]))
    assert violation.vertex == wclpp.vertex("p")
    assert violation.side == "lo"


def test_check_windows_high_at_sink(wclpp):
    violation = check_windows(wclpp, path_by_vertices(wclpp, ["s", "1", "3", "2", "p"]))
    assert violation.vertex == wclpp.vertex("p")
    assert violation.side == "hi"


def test_check_windows_reports_earliest(wclpp):
    violation = check_windows(wclpp, path_by_vertices(wclpp, ["s", "3", "2", "p"]))
    assert violation.vertex == wclpp.vertex("2")  # 30 > 27 before the sink is reached
    assert violation.side == "hi"


# -- parametric longest paths --------------------------------------------------


def test_longest_path_value_objective(wclpp):
    path, mu = longest_path(wclpp, F(0))
    assert path.labelled(wclpp) == ["s", "1", "3", "p"]
    assert path.value == 33 and mu == 33


def test_longest_path_resource_objective(wclpp):
    path, mu = longest_path(wclpp, PLUS_INF)
    assert path.labelled(wclpp) == ["s", "3", "2", "p"]
    assert path.resource == 40 and mu == 40


def test_longest_path_mixed_weight(wclpp):
    path, mu = longest_path(wclpp, F(7, 24))
    assert path.labelled(wclpp) == ["s", "1", "3", "2", "p"]
    assert mu == F(32) + F(7, 24) * 35
    assert mu == F(1013, 24)


def test_longest_path_unreachable():
    dag = WindowedDag(
        [Window(F(0), F(0)), Window(), Window()],
        [Arc(0, 2, F(1), F(0))],
        0,
        2,
        labels=["s", "dead", "p"],
    )
    with pytest.raises(SinkUnreachable):
        longest_path(dag, F(0), start=1)


def test_all_tails_tie_break(wclpp):
    tails = all_tails(wclpp, F(1, 19))
    v3 = wclpp.vertex("3")
    # exact tie between the direct sink arc (234/19) and the detour via 2
    # (129/19 + 105/19); the larger-value arc wins
    assert F(tails.mu[v3], tails.scale) == F(234, 19)
    assert tails.path(v3).labelled(wclpp) == ["3", "p"]
    assert F(tails.mu[wclpp.vertex("2")], tails.scale) == F(105, 19)
    assert F(tails.mu[wclpp.vertex("p")], tails.scale) == 0
    assert tails.path(wclpp.vertex("p")).arcs == ()


def test_all_tails_match_longest_path(wclpp):
    for delta in (F(0), F(1, 19), F(7, 24), F(3)):
        tails = all_tails(wclpp, delta)
        for u in range(wclpp.n):
            if u in tails:
                _, mu = longest_path(wclpp, delta, start=u)
                assert F(tails.mu[u], tails.scale) == mu


def test_longest_path_beats_enumerated_mu(wclpp):
    oracle = brute_force(wclpp)
    assert oracle.total_count == 5
    for delta in (F(0), F(1, 19), F(2, 3), F(5)):
        _, best_mu = longest_path(wclpp, delta)
        # enumerate all five paths explicitly
        for names in (
            ["s", "1", "3", "2", "p"],
            ["s", "3", "p"],
            ["s", "1", "2", "p"],
            ["s", "1", "3", "p"],
            ["s", "3", "2", "p"],
        ):
            p = path_by_vertices(wclpp, names)
            assert p.value + delta * p.resource <= best_mu


def reference_tails(dag, delta):
    """Plain Fraction sweep with the documented tie-break, kept here as
    the oracle for the library's integer kernel."""
    if delta is PLUS_INF:
        step = lambda a: a.resource  # noqa: E731
    else:
        step = lambda a: a.value + delta * a.resource  # noqa: E731
    mu = {dag.sink: F(0)}
    val = {dag.sink: F(0)}
    res = {dag.sink: F(0)}
    nxt = {dag.sink: None}
    key = {}
    for u in reversed(dag.topo_order):
        for aidx in dag.out_arcs[u]:
            a = dag.arcs[aidx]
            if a.dst not in mu:
                continue
            cand = step(a) + mu[a.dst]
            ck = (cand, a.value, a.resource, -a.dst, -aidx)
            if u not in key or ck > key[u]:
                key[u] = ck
                mu[u] = cand
                val[u] = a.value + val[a.dst]
                res[u] = a.resource + res[a.dst]
                nxt[u] = aidx
    return {u: (mu[u], val[u], res[u], nxt[u]) for u in mu}


_fractions = st.builds(
    F, st.integers(min_value=-12, max_value=12), st.sampled_from([1, 2, 3, 4, 6, 7])
)
_deltas = st.one_of(
    st.just(F(0)),
    st.just(PLUS_INF),
    st.builds(F, st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=8)),
)


@st.composite
def sweep_cases(draw):
    """Random DAG on a shuffled vertex order (so the stored topological
    order is not the identity), with fractional data of mixed
    denominators, negative resources, exact parallel duplicates,
    parallel arcs whose aggregate ties under the drawn weight and equal
    arcs into distinct successors of equal tails (through a relay vertex
    with a zero arc on), swept with sign 1 or -1. Ties are built in the
    oriented coordinates that get swept."""
    n = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.permutations(range(n)))
    delta = draw(_deltas)
    oriented = draw(st.booleans())
    sign = -1 if oriented else 1
    arcs = []
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n)) if n > 1 else 0):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        a = Arc(order[i], order[j], draw(_fractions), draw(_fractions))
        arcs.append(a)
        twin = draw(st.sampled_from(["none", "copy", "tie", "relay"]))
        if twin == "copy":
            arcs.append(a)
        elif twin == "relay":
            relay = n + len(arcs)  # fresh vertex id; unused ids stay isolated
            arcs.append(Arc(a.src, relay, a.value, a.resource))
            arcs.append(Arc(relay, a.dst, F(0), F(0)))
        elif twin == "tie":
            k = draw(st.integers(min_value=-3, max_value=3).filter(bool))
            if delta is PLUS_INF:
                arcs.append(Arc(a.src, a.dst, a.value + k, a.resource))
            else:
                arcs.append(Arc(a.src, a.dst, a.value - delta * k, a.resource + sign * k))
    size = n + len(arcs)
    dag = WindowedDag([Window()] * size, arcs, order[0], order[-1])
    return dag, delta, sign


@given(case=sweep_cases())
@settings(max_examples=300, deadline=None)
def test_all_tails_matches_fraction_reference(case):
    """A ``sign = -1`` sweep equals the reference sweep of the explicitly
    oriented copy, while its paths stay paths of the instance. The
    integer arrays and weights that phase 2 reads equal those of the
    oriented copy's sweep, with the sign in the resource weight."""
    dag, delta, sign = case
    tails = all_tails(dag, delta, sign)
    oriented = orient_dag(dag) if sign == -1 else dag
    ref = reference_tails(oriented, delta)
    copy = all_tails(oriented, delta)
    assert (tails.mu, tails.next_arc, tails.val) == (copy.mu, copy.next_arc, copy.val)
    assert (tails.wv, tails.wr, tails.scale) == (copy.wv, sign * copy.wr, copy.scale)
    arcs = dag.int_arcs()
    for u in range(dag.n):
        assert (u in tails) == (u in ref)
        assert (tails.mu[u] is None) == (u not in ref)
        if u in ref:
            mu, value, resource, next_arc = ref[u]
            assert F(tails.mu[u], tails.scale) == mu
            assert F(tails.val[u], arcs.dv) == value
            assert F(sign * tails.res[u], arcs.dr) == resource
            assert tails.next_arc[u] == next_arc
            assert tails.arc_ids(u)[:1] == (() if next_arc is None else (next_arc,))
            assert tails.path(u).value == value
            assert tails.path(u).resource == sign * resource
    assert -1 not in tails and dag.n not in tails


def test_prune_unreachable_keeps_fixture(wclpp):
    pruned, old_of_new = prune_unreachable(wclpp)
    assert pruned.n == wclpp.n
    assert list(old_of_new) == list(range(wclpp.n))


def test_prune_unreachable_drops_island(wclpp):
    windows = list(wclpp.windows) + [Window(None, None)]
    dag = WindowedDag(windows, wclpp.arcs, 0, 4, labels=list(wclpp.labels) + ["island"])
    pruned, old_of_new = prune_unreachable(dag)
    assert pruned.n == wclpp.n
    assert "island" not in pruned.labels
    assert brute_force(pruned).value == brute_force(wclpp).value


# -- properties ---------------------------------------------------------------


@given(
    widen_lo=st.integers(min_value=0, max_value=30),
    widen_hi=st.integers(min_value=0, max_value=30),
    vertex=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60)
def test_widening_windows_preserves_feasibility(widen_lo, widen_hi, vertex):
    dag = _fixture()
    feasible_before = [
        names
        for names in _all_path_names()
        if check_windows(dag, path_by_vertices(dag, names)) is None
    ]
    windows = list(dag.windows)
    w = windows[vertex]
    windows[vertex] = Window(
        None if w.lo is None else w.lo - widen_lo,
        None if w.hi is None else w.hi + widen_hi,
    )
    wider = WindowedDag(windows, dag.arcs, dag.source, dag.sink, labels=dag.labels)
    for names in feasible_before:
        assert check_windows(wider, path_by_vertices(wider, names)) is None


def _fixture():
    from conftest import make_wclpp5

    return make_wclpp5()


def _all_path_names():
    return [
        ["s", "1", "3", "2", "p"],
        ["s", "3", "p"],
        ["s", "1", "2", "p"],
        ["s", "1", "3", "p"],
        ["s", "3", "2", "p"],
    ]
