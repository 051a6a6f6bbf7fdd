"""Complementary value bounds for the enumeration phase.

Two providers implement the integer :class:`~borwin.phase2.ValueBound`:

* :class:`ValueTailBound` is the structure-free default: prefix value
  plus the window-relaxed best completion value from the anchor.
* :class:`UbProvider` serves instances with nested multiple-choice
  knapsack structure (one item per stage, cumulative weight capped per
  stage). Its "trivial" mode ignores the caps and sums per-stage maxima;
  its "nmckp" mode solves the fractional relaxation of the remaining
  stages by a greedy over per-stage efficiency-frontier increments.

Stage lower bounds are dropped from the relaxation; dropping constraints
can only raise the bound, so admissibility is preserved. Both modes work
in exact Fractions (:func:`ub_for_prefix`) and recompute what they read
on every call; ``UbProvider.bound`` converts at its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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


def _frontier(points: Sequence[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Upper-left convex efficiency frontier of ``(weight, value)``
    points: minimum-weight entry first, value strictly increasing,
    value-per-weight increments strictly decreasing."""
    best: dict[Fraction, Fraction] = {}
    for w, v in points:
        cur = best.get(w)
        if cur is None or v > cur:
            best[w] = v
    hull: list[tuple[Fraction, Fraction]] = []
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


def _remainder(mckp: NestedMckp, stage: int, cum_weight: Fraction) -> Optional[Fraction]:
    """Fractional optimum of the stages from ``stage`` on, past a prefix
    of weight ``cum_weight``: the frontier bases, then the frontier
    increments in (ratio, stage, position) order, each taken as far as
    the smallest residual cap at its stage or later allows. ``None``
    when even the bases break a cap."""
    value = ZERO
    used = cum_weight
    residual: list[Optional[Fraction]] = []  # per remaining stage, None if uncapped
    incs: list[tuple[Fraction, int, Fraction]] = []  # (ratio, stage offset, weight)
    for k, items in enumerate(mckp.stages[stage:]):
        front = _frontier([(it.weight, it.value) for it in items])
        used += front[0][0]
        value += front[0][1]
        cap = mckp.hi[stage + k]
        if cap is not None and cap < used:
            return None
        residual.append(None if cap is None else cap - used)
        for (w1, v1), (w2, v2) in zip(front, front[1:]):
            incs.append(((v2 - v1) / (w2 - w1), k, w2 - w1))
    incs.sort(key=lambda inc: -inc[0])  # stable: ties stay in (stage, position) order
    for ratio, k, dw in incs:
        room = min((r for r in residual[k:] if r is not None), default=None)
        take = dw if room is None or room > dw else room
        if take <= 0:
            continue
        value += ratio * take
        for j in range(k, len(residual)):
            if residual[j] is not None:
                residual[j] -= take
    return value


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

    def bound(self, vertex: int, prefix_resource: int, prefix_value: int, dr: int, dv: int) -> Optional[int]:
        if self.stage_of_vertex is None:
            raise ValueError("provider has no vertex-to-stage map")
        stage = self.stage_of_vertex[vertex]
        cap = ub_for_prefix(self, (stage, Fraction(prefix_resource, dr), Fraction(prefix_value, dv)))
        # ceil(dv * cap): for an integer V, ceil(dv * cap) <= V exactly when cap <= V / dv
        return None if cap is None else -(-cap.numerator * dv // cap.denominator)


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
        return acc_value + sum((max(it.value for it in items) for items in mckp.stages[stage:]), ZERO)
    remainder = _remainder(mckp, stage, cum_weight)
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

    def bound(self, vertex: int, prefix_resource: int, prefix_value: int, dr: int, dv: int) -> Optional[int]:
        if vertex not in self._tails:
            return None
        return prefix_value + self._tails.val[vertex]
