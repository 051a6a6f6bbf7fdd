"""Independent answer checks.

The benchmark must not vouch for the solver through the solver's own
checkers, so nothing here imports ``borwin``: instances are read from
their canonical JSON, witnesses are re-walked from the model rules, and
values are recomputed from the raw data. Every check returns ``None``
when it passes and a ``Failure`` naming the check otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


@dataclass(frozen=True)
class Failure:
    check: str
    message: str


def _q(x) -> Optional[Fraction]:
    return None if x is None else Fraction(x)


def _outside(r: Fraction, lo: Optional[Fraction], hi: Optional[Fraction]) -> bool:
    return (lo is not None and r < lo) or (hi is not None and r > hi)


def walk_dag(data: dict, arc_ids: Optional[Sequence[int]]) -> tuple[Optional[Failure], Optional[Fraction]]:
    """Walk a source-to-sink witness given as indices into ``data["arcs"]``.

    Every visited vertex, the source included, must see the cumulative
    resource inside its window. Returns the first failure, or the
    recomputed path value.
    """
    if arc_ids is None:
        return Failure("witness", "no arc list for the witness"), None
    window = {v["id"]: (_q(v.get("lo")), _q(v.get("hi"))) for v in data["vertices"]}
    arcs = data["arcs"]
    at = data["source"]
    cum = Fraction(0)
    value = Fraction(0)
    if _outside(cum, *window[at]):
        return Failure("witness_window", f"source window excludes 0 at {at}"), None
    for k in arc_ids:
        if not 0 <= k < len(arcs):
            return Failure("witness_arc", f"arc index {k} out of range"), None
        arc = arcs[k]
        if arc["from"] != at:
            return Failure("witness_contiguity", f"arc {k} leaves {arc['from']}, walk is at {at}"), None
        at = arc["to"]
        cum += Fraction(arc["resource"])
        value += Fraction(arc["value"])
        if _outside(cum, *window[at]):
            return Failure("witness_window", f"cumulative resource {cum} outside the window of {at}"), None
    if at != data["sink"]:
        return Failure("witness_contiguity", f"walk ends at {at}, not at the sink"), None
    return None, value


def walk_schedule(
    data: dict, schedule: Optional[Sequence[int]], volumes: Optional[Sequence[Fraction]]
) -> tuple[Optional[Failure], Optional[Fraction]]:
    """Walk a commitment schedule (one level per period) on the raw data.

    Level ``i`` runs points 1..i, so the period flow and revenue are sums
    over the ladder. A move up (down) may raise (lower) the flow by at
    most ``ramp_up`` (``ramp_down``) and starts a count-down of
    ``min_updown - 1`` periods during which the opposite move is
    forbidden; the initial hold ``l`` starts such a count-down on the
    side its sign gives. The cumulative flow after each period must lie
    in that period's window, and the reported volumes must equal it.
    Returns the first failure, or the recomputed revenue.
    """
    if schedule is None:
        return Failure("witness", "no schedule for the witness"), None
    periods = data["T"]
    if len(schedule) != periods:
        return Failure("schedule_length", f"{len(schedule)} levels for {periods} periods"), None
    flows = [Fraction(p["D"]) for p in data["points"]]
    powers = [Fraction(p["P"]) for p in data["points"]]
    shift = Fraction(data["phi2"]) - Fraction(data["phi1"])
    ramp_up = Fraction(data["ramp_up"])
    ramp_down = Fraction(data["ramp_down"])
    gap = int(data["min_updown"]) - 1
    initial = data.get("initial") or {}
    level = int(initial.get("i", 0))
    hold = int(initial.get("l", 0))
    no_down = max(hold, 0)  # periods before a move down is allowed
    no_up = max(-hold, 0)
    cum = Fraction(0)
    revenue = Fraction(0)
    for t, new in enumerate(schedule):
        if not 0 <= new < len(flows):
            return Failure("level_range", f"period {t + 1}: level {new} out of range"), None
        step = sum(flows[level + 1 : new + 1]) - sum(flows[new + 1 : level + 1])
        if new > level:
            if step > ramp_up:
                return Failure("ramp_up", f"period {t + 1}: flow rises by {step}"), None
            if no_up:
                return Failure("min_hold", f"period {t + 1}: moves up {no_up} periods early"), None
            no_down, no_up = gap, 0
        elif new < level:
            if -step > ramp_down:
                return Failure("ramp_down", f"period {t + 1}: flow falls by {-step}"), None
            if no_down:
                return Failure("min_hold", f"period {t + 1}: moves down {no_down} periods early"), None
            no_down, no_up = 0, gap
        else:
            no_down, no_up = max(no_down - 1, 0), max(no_up - 1, 0)
        level = new
        cum += sum(flows[1 : level + 1])
        price = Fraction(data["prices"][t])
        revenue += sum(price * powers[k] + shift * flows[k] for k in range(1, level + 1))
        if cum < Fraction(data["win_lo"][t]) or cum > Fraction(data["win_hi"][t]):
            return Failure("window", f"period {t + 1}: cumulative flow {cum} outside its window"), None
        if volumes is not None and (len(volumes) != periods or volumes[t] != cum):
            return Failure("volumes", f"period {t + 1}: reported volume differs from {cum}"), None
    return None, revenue


def check_answer(
    family: str,
    data: dict,
    reference: Optional[dict],
    status: str,
    value: Optional[Fraction],
    witness,
) -> Optional[Failure]:
    """Check one solver answer against the reference row (when there is
    one) and the independent witness walk. ``witness`` is the arc-index
    list for a DAG and the pair (schedule, volumes) for a commitment
    instance."""
    if reference is not None and status != reference["status"]:
        return Failure("status", f"status {status}, reference {reference['status']} ({reference['source']})")
    if status != "optimal":
        return None
    if reference is not None and value != Fraction(reference["value"]):
        return Failure("value", f"value {value}, reference {reference['value']} ({reference['source']})")
    if family == "dag":
        failure, recomputed = walk_dag(data, witness)
    else:
        failure, recomputed = walk_schedule(data, *witness)
    if failure is not None:
        return failure
    if recomputed != value:
        return Failure("witness_value", f"witness is worth {recomputed}, reported {value}")
    return None
