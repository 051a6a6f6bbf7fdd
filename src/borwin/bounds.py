"""Complementary value bounds for the enumeration phase.

Two providers implement the :class:`~borwin.phase2.ValueBound` protocol:

* :class:`ValueTailBound` is the structure-free default: prefix value
  plus the window-relaxed best completion value from the anchor.
* :class:`UbProvider` serves instances with nested multiple-choice
  knapsack structure (one item per stage, cumulative weight capped per
  stage). Its "trivial" mode ignores the caps and sums per-stage maxima;
  its "nmckp" mode solves the fractional relaxation of the remaining
  stages by a greedy over per-stage efficiency-frontier increments.

Stage lower bounds are dropped from the relaxation; dropping constraints
can only raise the bound, so admissibility is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .graph import TailMap, WindowedDag, all_tails

ZERO = Fraction(0)

TRIVIAL = "trivial"
NMCKP = "nmckp"


class StageOutOfRange(Exception):
    pass


@dataclass(frozen=True)
class MckpItem:
    value: Fraction
    weight: Fraction


@dataclass(frozen=True)
class NestedMckp:
    """One item per stage; the cumulative weight through stage t must lie
    in [lo[t], hi[t]]. Weights are nonnegative."""

    stages: tuple[tuple[MckpItem, ...], ...]
    lo: tuple[Optional[Fraction], ...]
    hi: tuple[Optional[Fraction], ...]

    def __post_init__(self):
        if not (len(self.stages) == len(self.lo) == len(self.hi)):
            raise ValueError("stage and window lists must align")
        for t, (l, h) in enumerate(zip(self.lo, self.hi)):
            if l is not None and h is not None and l > h:
                raise ValueError(f"stage {t} window is inverted")
        for t, items in enumerate(self.stages):
            if not items:
                raise ValueError(f"stage {t} has no items")
            if any(it.weight < 0 for it in items):
                raise ValueError(f"stage {t} has a negative weight")


def _frontier(items: Sequence[MckpItem]) -> list[MckpItem]:
    """Upper-left convex efficiency frontier: minimum-weight entry first,
    value strictly increasing, value-per-weight increments strictly
    decreasing."""
    best: dict[Fraction, Fraction] = {}
    for it in items:
        cur = best.get(it.weight)
        if cur is None or it.value > cur:
            best[it.weight] = it.value
    pts = sorted(best.items())  # by weight
    # drop dominated points (no value gain for extra weight)
    mono: list[tuple[Fraction, Fraction]] = []
    for w, v in pts:
        if mono and v <= mono[-1][1]:
            continue
        mono.append((w, v))
    # upper concave envelope over (weight, value)
    hull: list[tuple[Fraction, Fraction]] = []
    for w, v in mono:
        while len(hull) >= 2:
            (w1, v1), (w2, v2) = hull[-2], hull[-1]
            # keep slopes strictly decreasing
            if (v2 - v1) * (w - w2) <= (v - v2) * (w2 - w1):
                hull.pop()
            else:
                break
        hull.append((w, v))
    return [MckpItem(value=v, weight=w) for w, v in hull]


@dataclass(frozen=True)
class UbProvider:
    """Stage-structured bound provider; see module docstring.

    ``stage_of_vertex`` maps a graph vertex to the index of the first
    stage still to be decided beyond it, which is how the enumeration
    phase adapts graph prefixes to stage states.
    """

    mode: str
    mckp: NestedMckp
    stage_of_vertex: Optional[Mapping[int, int]] = None

    def __post_init__(self):
        if self.mode not in (TRIVIAL, NMCKP):
            raise ValueError(f"unknown mode {self.mode!r}")

    def bound(
        self, vertex: int, prefix_resource: Fraction, prefix_value: Fraction
    ) -> Optional[Fraction]:
        if self.stage_of_vertex is None:
            raise ValueError("provider has no vertex-to-stage map")
        stage = self.stage_of_vertex[vertex]
        return ub_for_prefix(self, (stage, prefix_resource, prefix_value))


def ub_for_prefix(
    provider: UbProvider, state: tuple[int, Fraction, Fraction]
) -> Optional[Fraction]:
    """Admissible bound on the total value of any completion of a prefix
    state ``(next stage index, cumulative weight, accumulated value)``.

    Returns ``None`` when even the lightest completion violates a cap, in
    which case no completion exists and the prefix can be discarded.
    """
    stage, cum_weight, acc_value = state
    mckp = provider.mckp
    n = len(mckp.stages)
    if not 0 <= stage <= n:
        raise StageOutOfRange(f"stage {stage} not in [0, {n}]")
    if stage == n:
        return acc_value
    if provider.mode == TRIVIAL:
        total = acc_value
        for items in mckp.stages[stage:]:
            total += max(it.value for it in items)
        return total
    remainder = _lp_remainder(mckp, stage, cum_weight)
    if remainder is None:
        return None
    return acc_value + remainder


def _lp_remainder(mckp: NestedMckp, start: int, cum_weight: Fraction) -> Optional[Fraction]:
    """Fractional optimum of the remaining stages with lower bounds
    dropped: per-stage frontier bases plus a greedy over frontier
    increments ordered by value per weight, each increment limited by the
    residual of every cap it feeds into."""
    fronts = [_frontier(items) for items in mckp.stages[start:]]
    m = len(fronts)
    base_value = ZERO
    residual: list[Optional[Fraction]] = []
    cum = cum_weight
    for k in range(m):
        cum += fronts[k][0].weight
        base_value += fronts[k][0].value
        cap = mckp.hi[start + k]
        if cap is None:
            residual.append(None)  # unbounded
        else:
            room = cap - cum
            if room < 0:
                return None
            residual.append(room)
    # suffix-minimum residual caps the increments of stage k and earlier
    increments: list[tuple[Fraction, int, int, Fraction]] = []
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


class ValueTailBound:
    """Default bound: prefix value plus the best window-relaxed completion
    value from the anchor. Vertices that cannot reach the sink have no
    completion at all.

    ``tails`` may pass in a ``delta = 0`` sweep already made of ``dag``
    (in either orientation: tail values and reachability are the same);
    otherwise ``dag`` is swept.
    """

    def __init__(self, dag: WindowedDag, tails: Optional[TailMap] = None):
        if tails is None:
            tails = all_tails(dag, ZERO)
        elif tails.delta != 0 or tails.dag is not dag:
            raise ValueError("value tails must be a delta = 0 sweep of the same instance")
        self._tails = tails

    def bound(
        self, vertex: int, prefix_resource: Fraction, prefix_value: Fraction
    ) -> Optional[Fraction]:
        info = self._tails.get(vertex)
        if info is None:
            return None
        return prefix_value + info.value
