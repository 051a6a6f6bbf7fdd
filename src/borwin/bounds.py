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

Both modes read a table that each :class:`NestedMckp` keeps for itself
(so it lives exactly as long as the instance):

* **Integers.** Item values are scaled by the lcm of their denominators;
  item weights and caps by the lcm of theirs. Frontiers, base sums and
  caps are exact integers.
* **Laziness.** A stage's frontier is built the first time a query
  starts at or before it. The table covers a suffix of stages and grows
  downwards, so a solve that asks only about late stages never builds
  the early ones.
* **Greedy.** Frontier increments are kept in ratio order, ties broken
  by stage, then position in the stage. A query keeps the suffix minima
  of the residual caps, so an increment reads its room at one index
  instead of rescanning every later cap; a take lowers the minima from
  its stage on, and those before it fall to the new minimum at its
  stage. This takes exactly what the greedy that rescans every later
  cap takes.
* **Memo.** The LP remainder depends on ``(stage, cumulative weight)``
  alone and is memoized on it; the trivial mode reads suffix sums of
  the per-stage maxima.
* **Exactness.** Whole increments add integers; each partial take adds
  one Fraction. A cumulative weight off the weight grid makes the
  residual caps Fractions, and the arithmetic stays exact. Every bound is
  the same Fraction as the greedy run in Fractions gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

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
    _table: Optional["_Table"] = field(default=None, init=False, repr=False, compare=False)

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

    def table(self) -> "_Table":
        """The bound table of this instance, created on first use."""
        if self._table is None:
            object.__setattr__(self, "_table", _Table(self))
        return self._table


def _frontier(points: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Upper-left convex efficiency frontier of ``(weight, value)``
    points: minimum-weight entry first, value strictly increasing,
    value-per-weight increments strictly decreasing."""
    best: dict[int, int] = {}
    for w, v in points:
        cur = best.get(w)
        if cur is None or v > cur:
            best[w] = v
    hull: list[tuple[int, int]] = []
    for w, v in sorted(best.items()):
        # drop dominated points (no value gain for extra weight)
        if hull and v <= hull[-1][1]:
            continue
        # keep slopes strictly decreasing
        while len(hull) >= 2:
            (w1, v1), (w2, v2) = hull[-2], hull[-1]
            if (v2 - v1) * (w - w2) <= (v - v2) * (w2 - w1):
                hull.pop()
            else:
                break
        hull.append((w, v))
    return hull


Num = Union[int, Fraction]


class _Table:
    """Scaled suffix data of a :class:`NestedMckp`, for the stages from
    ``start`` on; see the module docstring. Suffix lists are indexed by
    stage, with entry ``n`` standing for the empty suffix."""

    __slots__ = ("hi", "stages", "dv", "dw", "start", "base_w", "base_v", "top_v", "room", "incs", "memo")

    def __init__(self, mckp: NestedMckp):
        stages = mckp.stages
        n = len(stages)
        self.stages = stages
        self.dv = lcm(*{it.value.denominator for items in stages for it in items})
        self.dw = lcm(
            *{it.weight.denominator for items in stages for it in items},
            *{h.denominator for h in mckp.hi if h is not None},
        )
        self.hi = [None if h is None else h.numerator * (self.dw // h.denominator) for h in mckp.hi]
        self.start = n
        self.base_w = [0] * (n + 1)  # frontier base weights summed over stages >= t
        self.base_v = [0] * (n + 1)  # frontier base values, likewise
        self.top_v = [0] * (n + 1)  # stage maxima, likewise
        # min over capped u >= t of hi[u] + base_w[u + 1]; past a prefix of
        # weight c, the bases of stages s.. leave cap u a residual of
        # hi[u] + base_w[u + 1] - base_w[s] - c
        self.room: list[Optional[int]] = [None] * (n + 1)
        # (-ratio, stage, position, dv, dw) for every frontier increment of
        # the built stages, in greedy order
        self.incs: list[tuple[Fraction, int, int, int, int]] = []
        self.memo: dict[tuple[int, Fraction], Optional[Fraction]] = {}

    def extend(self, stage: int) -> None:
        """Build the frontiers of the stages from ``stage`` on."""
        if stage >= self.start:
            return
        dv, dw = self.dv, self.dw
        new = []
        for t in range(self.start - 1, stage - 1, -1):
            front = _frontier(
                [(it.weight.numerator * (dw // it.weight.denominator), it.value.numerator * (dv // it.value.denominator))
                 for it in self.stages[t]]
            )
            self.base_w[t] = self.base_w[t + 1] + front[0][0]
            self.base_v[t] = self.base_v[t + 1] + front[0][1]
            self.top_v[t] = self.top_v[t + 1] + front[-1][1]
            room = self.room[t + 1]
            if self.hi[t] is not None:
                cap = self.hi[t] + self.base_w[t + 1]
                room = cap if room is None or cap < room else room
            self.room[t] = room
            for j in range(len(front) - 1):
                (w1, v1), (w2, v2) = front[j], front[j + 1]
                new.append((Fraction(v1 - v2, w2 - w1), t, j, v2 - v1, w2 - w1))
        self.incs = sorted(self.incs + new)
        self.start = stage

    def top(self, stage: int) -> Fraction:
        """Sum of the maxima of the stages from ``stage`` on."""
        self.extend(stage)
        return Fraction(self.top_v[stage], self.dv)

    def remainder(self, stage: int, cum_weight: Fraction) -> Optional[Fraction]:
        """Fractional optimum of the stages from ``stage`` on, past a
        prefix of weight ``cum_weight``; ``None`` when even their bases
        break a cap. Memoized."""
        key = (stage, cum_weight)
        if key not in self.memo:
            self.memo[key] = self._greedy(stage, cum_weight)
        return self.memo[key]

    def _greedy(self, s: int, cum_weight: Fraction) -> Optional[Fraction]:
        self.extend(s)
        scaled = cum_weight * self.dw
        used: Num = self.base_w[s] + (scaled.numerator if scaled.denominator == 1 else scaled)
        # room[k]: least residual of the caps at stages s + k and later,
        # None where no cap is left; nondecreasing in k
        room: list[Optional[Num]] = [None if r is None else r - used for r in self.room[s:-1]]
        if room and room[0] is not None and room[0] < 0:
            return None
        total = self.base_v[s]
        part: Num = 0
        for _, t, _, dv, dw in self.incs:
            if t < s:
                continue
            k = t - s
            have = room[k]
            if have is None:
                total += dv
                continue
            if have >= dw:
                total += dv
                take = dw
            elif have > 0:
                part += Fraction(dv * have, dw)
                take = have
            else:
                continue
            # the take uses up room at every cap from stage t on, and
            # the suffix minima before t fall to the new minimum at t
            j = k
            while j < len(room) and room[j] is not None:
                room[j] -= take
                j += 1
            j = k - 1
            while j >= 0 and room[j] > room[k]:
                room[j] = room[k]
                j -= 1
        return Fraction(total, self.dv) if part == 0 else (total + part) / self.dv


@dataclass(frozen=True)
class UbProvider:
    """Stage-structured bound provider; see module docstring.

    ``stage_of_vertex`` gives, per graph vertex id, the index of the
    first stage still to be decided beyond it, which is how the
    enumeration phase adapts graph prefixes to stage states.
    """

    mode: str
    mckp: NestedMckp
    stage_of_vertex: Optional[Sequence[int]] = None

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
        return acc_value + mckp.table().top(stage)
    remainder = mckp.table().remainder(stage, cum_weight)
    if remainder is None:
        return None
    return acc_value + remainder


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
        self._dv = dag.int_arcs().dv

    def bound(
        self, vertex: int, prefix_resource: Fraction, prefix_value: Fraction
    ) -> Optional[Fraction]:
        if vertex not in self._tails:
            return None
        return prefix_value + Fraction(self._tails.val[vertex], self._dv)
