import itertools
import math
import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borwin.bounds import (
    NMCKP,
    TRIVIAL,
    MckpItem,
    NestedMckp,
    StageOutOfRange,
    UbProvider,
    ValueTailBound,
    ub_for_prefix,
)
from borwin.generate import random_dag
from borwin.graph import Arc, WindowedDag, all_tails
from borwin.huc import nmckp_of_instance

F = Fraction


def exhaustive_best_completion(
    mckp: NestedMckp, stage: int, cum: Fraction, with_lower: bool = True
) -> Optional[Fraction]:
    """Best total value over remaining stages by full enumeration."""
    best = None
    for combo in itertools.product(*[range(len(s)) for s in mckp.stages[stage:]]):
        total = F(0)
        weight = cum
        ok = True
        for k, pick in enumerate(combo):
            item = mckp.stages[stage + k][pick]
            total += item.value
            weight += item.weight
            hi = mckp.hi[stage + k]
            lo = mckp.lo[stage + k]
            if hi is not None and weight > hi:
                ok = False
                break
            if with_lower and lo is not None and weight < lo:
                ok = False
                break
        if ok and (best is None or total > best):
            best = total
    return best


def toy_mckp() -> NestedMckp:
    stages = (
        (MckpItem(F(0), F(0)), MckpItem(F(5), F(3)), MckpItem(F(7), F(5))),
        (MckpItem(F(0), F(0)), MckpItem(F(4), F(2))),
        (MckpItem(F(0), F(0)), MckpItem(F(6), F(4)), MckpItem(F(9), F(8))),
    )
    return NestedMckp(stages=stages, lo=(None, None, F(2)), hi=(F(5), F(6), F(9)))


def test_trivial_final_stage():
    provider = UbProvider(mode=TRIVIAL, mckp=toy_mckp())
    assert ub_for_prefix(provider, (3, F(9), F(12))) == 12


def test_stage_out_of_range():
    provider = UbProvider(mode=TRIVIAL, mckp=toy_mckp())
    with pytest.raises(StageOutOfRange):
        ub_for_prefix(provider, (4, F(0), F(0)))


def test_nested_mckp_and_provider_reject_bad_input():
    item = MckpItem(F(1), F(1))
    bad = [
        (dict(stages=((item,),), lo=(None, None), hi=(None,)), "stage and window lists must align"),
        (dict(stages=((item,),), lo=(F(2),), hi=(F(1),)), "stage 0 window is inverted"),
        (dict(stages=((item,), ()), lo=(None, None), hi=(None, None)), "stage 1 has no items"),
        (dict(stages=((MckpItem(F(1), F(-1)),),), lo=(None,), hi=(None,)), "stage 0 has a negative weight"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValueError) as exc:
            NestedMckp(**kwargs)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        UbProvider(mode="exact", mckp=toy_mckp())
    assert str(exc.value) == "unknown mode 'exact'"
    with pytest.raises(ValueError) as exc:
        UbProvider(mode=NMCKP, mckp=toy_mckp()).bound(0, 0, 0, 1, 1)
    assert str(exc.value) == "provider has no vertex-to-stage map"


def test_trivial_mode_on_commitment_fixture(huc5):
    mckp = nmckp_of_instance(huc5)
    provider = UbProvider(mode=TRIVIAL, mckp=mckp)
    # per-period maxima of the cumulative revenue ladder
    assert ub_for_prefix(provider, (0, F(0), F(0))) == F(33, 5)  # 3.8 + 0 + 0.4 + 0 + 2.4


def test_nmckp_bound_on_binding_toy():
    mckp = toy_mckp()
    provider = UbProvider(mode=NMCKP, mckp=mckp)
    bound = ub_for_prefix(provider, (0, F(0), F(0)))
    exact = exhaustive_best_completion(mckp, 0, F(0))
    assert exact is not None
    assert bound >= exact
    # the final cap (9) binds: all three maxima need weight 3+2+8 = 13
    trivial = ub_for_prefix(UbProvider(mode=TRIVIAL, mckp=mckp), (0, F(0), F(0)))
    assert bound < trivial


def test_nmckp_infeasible_remainder_returns_none():
    stages = ((MckpItem(F(1), F(4)),), (MckpItem(F(1), F(4)),))
    mckp = NestedMckp(stages=stages, lo=(None, None), hi=(F(4), F(5)))
    provider = UbProvider(mode=NMCKP, mckp=mckp)
    assert ub_for_prefix(provider, (0, F(3), F(0))) is None


def random_mckp(rng: random.Random) -> NestedMckp:
    stages = []
    cum_min = 0
    for _ in range(rng.randint(1, 5)):
        items = tuple(
            MckpItem(F(rng.randint(-4, 9)), F(rng.randint(0, 6)))
            for _ in range(rng.randint(1, 4))
        )
        stages.append(items)
    lo = []
    hi = []
    cum = 0
    for items in stages:
        cum += max(it.weight for it in items)
        lo.append(None if rng.random() < 0.5 else F(rng.randint(0, 3)))
        hi.append(None if rng.random() < 0.3 else F(rng.randint(2, int(cum) + 3)))
    for k in range(len(stages)):
        if lo[k] is not None and hi[k] is not None and lo[k] > hi[k]:
            lo[k], hi[k] = hi[k], lo[k]
    return NestedMckp(stages=tuple(stages), lo=tuple(lo), hi=tuple(hi))


def test_admissibility_and_refinement_random():
    for seed in range(200):
        rng = random.Random(seed)
        mckp = random_mckp(rng)
        stage = rng.randint(0, len(mckp.stages))
        cum = F(rng.randint(0, 5))
        acc = F(rng.randint(-5, 10))
        nmckp = ub_for_prefix(UbProvider(mode=NMCKP, mckp=mckp), (stage, cum, acc))
        trivial = ub_for_prefix(UbProvider(mode=TRIVIAL, mckp=mckp), (stage, cum, acc))
        exact = exhaustive_best_completion(mckp, stage, cum)
        if exact is not None:
            assert nmckp is not None, f"seed {seed}"
            assert nmckp >= acc + exact, f"seed {seed}"
            assert trivial >= acc + exact, f"seed {seed}"
        if nmckp is not None:
            assert nmckp <= trivial, f"seed {seed}"


def test_lp_relaxation_dominates_integer_optimum():
    for seed in range(120):
        rng = random.Random(1000 + seed)
        mckp = random_mckp(rng)
        lp = ub_for_prefix(UbProvider(mode=NMCKP, mckp=mckp), (0, F(0), F(0)))
        integer = exhaustive_best_completion(mckp, 0, F(0), with_lower=False)
        if integer is not None:
            assert lp is not None and lp >= integer, f"seed {seed}"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_admissibility_hypothesis(seed):
    rng = random.Random(seed)
    mckp = random_mckp(rng)
    lp = ub_for_prefix(UbProvider(mode=NMCKP, mckp=mckp), (0, F(0), F(0)))
    exact = exhaustive_best_completion(mckp, 0, F(0))
    if exact is not None:
        assert lp is not None and lp >= exact


def test_value_tail_bound(wclpp):
    bound = ValueTailBound(wclpp)
    assert (wclpp.int_arcs().dr, wclpp.int_arcs().dv) == (1, 1)
    # from vertex 2 the only completion is the final arc (value 5)
    assert bound.bound(wclpp.vertex("2"), 15, 24, 1, 1) == 29
    assert bound.bound(wclpp.vertex("s"), 0, 0, 1, 1) == 33


def test_value_tail_bound_on_a_fine_value_scale():
    # a random DAG whose values are rescaled to thirds, quarters and
    # fifths, so the bound is on a value scale dv > 1
    base = random_dag(random.Random(7), 12)
    arcs = [Arc(a.src, a.dst, a.value / (3 + k % 3), a.resource) for k, a in enumerate(base.arcs)]
    dag = WindowedDag(base.windows, arcs, base.source, base.sink, labels=base.labels)
    ints = dag.int_arcs()
    assert ints.dv > 1
    bound, tails = ValueTailBound(dag), all_tails(dag, F(0))
    for v in range(dag.n):
        for prefix_value in (-7, 0, 11):
            cap = bound.bound(v, 3, prefix_value, ints.dr, ints.dv)
            if v not in tails:
                assert cap is None
            else:
                assert F(cap, ints.dv) == F(prefix_value, ints.dv) + tails.path(v).value


# -- reference: the greedy in Fractions, rebuilt on every call ----------


def ref_frontier(items):
    best = {}
    for it in items:
        cur = best.get(it.weight)
        if cur is None or it.value > cur:
            best[it.weight] = it.value
    pts = sorted(best.items())
    mono = []
    for w, v in pts:
        if mono and v <= mono[-1][1]:
            continue
        mono.append((w, v))
    hull = []
    for w, v in mono:
        while len(hull) >= 2:
            (w1, v1), (w2, v2) = hull[-2], hull[-1]
            if (v2 - v1) * (w - w2) <= (v - v2) * (w2 - w1):
                hull.pop()
            else:
                break
        hull.append((w, v))
    return [MckpItem(value=v, weight=w) for w, v in hull]


def ref_lp_remainder(mckp, start, cum_weight):
    fronts = [ref_frontier(items) for items in mckp.stages[start:]]
    m = len(fronts)
    base_value = F(0)
    residual = []
    cum = cum_weight
    for k in range(m):
        cum += fronts[k][0].weight
        base_value += fronts[k][0].value
        cap = mckp.hi[start + k]
        if cap is None:
            residual.append(None)
        else:
            room = cap - cum
            if room < 0:
                return None
            residual.append(room)
    increments = []
    for k, front in enumerate(fronts):
        for j in range(len(front) - 1):
            dw = front[j + 1].weight - front[j].weight
            dv = front[j + 1].value - front[j].value
            increments.append((dv / dw, k, j, dw))
    increments.sort(key=lambda e: (-e[0], e[1], e[2]))
    value = base_value
    for ratio, k, _, dw in increments:
        room = None
        for t in range(k, m):
            if residual[t] is not None and (room is None or residual[t] < room):
                room = residual[t]
        take = dw if room is None else min(dw, room)
        if take <= 0:
            continue
        value += ratio * take
        for t in range(k, m):
            if residual[t] is not None:
                residual[t] -= take
    return value


def ref_ub(mode, mckp, state):
    stage, cum, acc = state
    if stage == len(mckp.stages):
        return acc
    if mode == TRIVIAL:
        return acc + sum((max(it.value for it in items) for items in mckp.stages[stage:]), F(0))
    rest = ref_lp_remainder(mckp, stage, cum)
    return None if rest is None else acc + rest


def fractions(lo, hi):
    return st.builds(F, st.integers(lo, hi), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def nested_mckps(draw):
    n = draw(st.integers(1, 6))
    stages = tuple(
        tuple(MckpItem(draw(fractions(-20, 40)), draw(fractions(0, 12))) for _ in range(draw(st.integers(1, 5))))
        for _ in range(n)
    )
    hi = tuple(draw(st.none() | fractions(0, 50)) for _ in range(n))
    lo = tuple(None if h is None else draw(st.none() | st.just(h / 2)) for h in hi)
    return NestedMckp(stages=stages, lo=lo, hi=hi)


@st.composite
def mckp_queries(draw):
    mckp = draw(nested_mckps())
    n = len(mckp.stages)
    # cum weights on and off the weight grid (thirds, sevenths)
    cums = st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 7]))
    states = st.tuples(st.integers(0, n), cums, fractions(-10, 10))
    queries = draw(st.lists(states, min_size=1, max_size=8))
    # every query again, in reverse order: a repeated query gives the same bound
    return mckp, queries + queries[::-1]


@given(mckp_queries())
@settings(max_examples=200, deadline=None)
def test_bound_table_equals_the_fraction_greedy(case):
    mckp, queries = case
    for mode in (NMCKP, TRIVIAL):
        provider = UbProvider(mode=mode, mckp=mckp)
        for state in queries:
            got = ub_for_prefix(provider, state)
            want = ref_ub(mode, mckp, state)
            assert got == want and type(got) is type(want), (mode, state)


@given(mckp_queries(), st.integers(1, 12), st.integers(1, 12), st.integers(-3000, 3000))
@settings(max_examples=100, deadline=None)
def test_the_integer_bound_decides_as_the_fraction_bound(case, dr, dv, value):
    """``UbProvider.bound`` on a prefix given in integers on the ``dr``
    and ``dv`` scales is the Fraction bound rounded up on the ``dv``
    scale, so comparing it with an integer incumbent value ``V`` prunes
    exactly when the Fraction bound is at most ``V / dv``."""
    mckp, queries = case
    for mode in (NMCKP, TRIVIAL):
        provider = UbProvider(mode=mode, mckp=mckp, stage_of_vertex=range(len(mckp.stages) + 1))
        for stage, cum, acc in queries:
            r, v = math.floor(cum * dr), math.floor(acc * dv)
            cap = ub_for_prefix(provider, (stage, F(r, dr), F(v, dv)))
            int_cap = provider.bound(stage, r, v, dr, dv)
            if cap is None:
                assert int_cap is None
                continue
            assert int_cap == math.ceil(dv * cap)
            for incumbent in (value, int_cap - 1, int_cap):
                assert (int_cap <= incumbent) == (cap <= F(incumbent, dv))


def test_bound_table_off_grid_and_over_cap():
    provider = UbProvider(mode=NMCKP, mckp=toy_mckp())
    assert ub_for_prefix(provider, (0, F(6), F(0))) is None  # over the first cap (5)
    # two partial takes, each in thirds: 2/3 at ratio 2 fills cap 1, 3 at ratio 3/2 fills cap 2
    assert ub_for_prefix(provider, (1, F(16, 3), F(2))) == 2 + F(2, 3) * 2 + 3 * F(3, 2)
