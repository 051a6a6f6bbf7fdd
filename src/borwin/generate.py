"""Seeded instance generators.

Identical configs produce byte-identical instance files: all randomness
flows through one ``random.Random(seed)`` and the JSON rendering is
canonical. DAG windows are sampled against the per-vertex envelope of
attainable prefix resources, wide enough to keep a healthy share of
feasible instances and tight enough that a good share are infeasible.
DAGs are drawn, enveloped and built on integers; their Fraction arcs
and windows are views made on first read, and the JSON writer reads the
integer arcs.
Commitment instances are drawn on integers and built around a randomly
walked legal schedule, walked on the compiles' integer moves table
(:class:`borwin.huc._Moves`) and re-checked by the legality oracle, so
at least one feasible schedule is guaranteed by construction. The
instance is built once, from ratios, so its price and window lists hold
no Fraction until one is read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .graph import WindowedDag
from .huc import HucInstance, _Moves, schedule_is_legal
from .io import dag_to_dict, huc_to_dict
from .phase1 import GraphInvariantError
from .rational import Ratio


class InvalidConfig(ValueError):
    """Generator parameters out of range."""


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    family: str  # "dag" | "huc"
    vertices: int = 10
    density: float = 0.5
    periods: int = 6
    points: int = 3
    min_updown: int = 2
    price_mode: str = "independent"  # | "near-flat"

    def check(self) -> None:
        if self.family not in ("dag", "huc"):
            raise InvalidConfig(f"unknown family {self.family!r}")
        if self.price_mode not in ("independent", "near-flat"):
            raise InvalidConfig(f"unknown price mode {self.price_mode!r}")
        # the comparison also rejects a NaN density
        if self.family == "dag" and not (self.vertices >= 2 and 0 <= self.density <= 1):
            raise InvalidConfig("dag family needs vertices >= 2 and 0 <= density <= 1")
        # flows are drawn without replacement from 1-9, so at most 9 non-idle points
        if self.family == "huc" and (self.periods < 1 or not 2 <= self.points <= 10 or self.min_updown < 1):
            raise InvalidConfig("huc family needs periods >= 1, 2 <= points <= 10, min_updown >= 1")


def generate(config: GeneratorConfig) -> dict:
    config.check()
    rng = random.Random(config.seed)
    if config.family == "dag":
        dag = random_dag(rng, config.vertices, config.density)
        return dag_to_dict(dag)
    inst = random_huc(rng, config.periods, config.points, config.min_updown, config.price_mode)
    return huc_to_dict(inst)


def random_dag(rng: random.Random, n: int, density: float = 0.5) -> WindowedDag:
    """Layered DAG with integer arc data and randomized windows.

    Every vertex lies on an s-p path. Window bounds are drawn around the
    attainable prefix-resource envelope; roughly two in five instances
    admit no feasible path, which is the mix the cross-checking sweeps
    want. Arcs, envelope and windows stay integers, and the instance is
    built with :meth:`WindowedDag.of_ratios`, so no Fraction is made
    until one is read.
    """
    labels = ("s",) + tuple(f"u{k}" for k in range(1, n - 1)) + ("p",)
    layers = max(2, min(n - 1, 2 + n // 3))
    layer_of = [0] + sorted(rng.randint(1, layers - 1) for _ in range(n - 2)) + [layers]

    src: list[int] = []
    dst: list[int] = []
    val: list[int] = []
    res: list[int] = []
    seen: set[tuple[int, int]] = set()
    has_out = [False] * n

    def add_arc(u: int, v: int) -> None:
        src.append(u)
        dst.append(v)
        val.append(rng.randint(-3, 12))
        res.append(rng.randint(0, 9))
        seen.add((u, v))
        has_out[u] = True

    for v in range(1, n):
        add_arc(rng.choice([u for u in range(v) if layer_of[u] < layer_of[v]]), v)
    # every vertex but the sink gets an arc out, so every vertex reaches it
    for u in range(n - 1):
        behind = [v for v in range(u + 1, n) if layer_of[v] > layer_of[u] and (u, v) not in seen]
        if not has_out[u]:
            add_arc(u, rng.choice(behind or [n - 1]))
        for v in behind:
            if rng.random() < density * 0.5:
                add_arc(u, v)

    # attainable prefix-resource envelope: every arc runs from a smaller
    # vertex to a larger one, so in source order each tail is final
    env_lo: list[Optional[int]] = [0] + [None] * (n - 1)
    env_hi = [0] * n
    for k in sorted(range(len(src)), key=src.__getitem__):
        u, v, r = src[k], dst[k], res[k]
        lo, hi = env_lo[u] + r, env_hi[u] + r
        if env_lo[v] is not None:
            lo, hi = min(lo, env_lo[v]), max(hi, env_hi[v])
        env_lo[v], env_hi[v] = lo, hi

    bounds: list[tuple[Optional[Ratio], Optional[Ratio]]] = [((0, 1), None)]
    for v in range(1, n):
        lo, hi = env_lo[v], env_hi[v]
        span = hi - lo
        windowed = v == n - 1 or rng.random() < 0.6
        if not windowed:
            bounds.append((None, None))
            continue
        w_lo: Optional[int] = lo + rng.randint(0, span + 3)
        w_hi: Optional[int] = w_lo + rng.randint(0, max(1, span))
        style = rng.random()
        if style < 0.2:
            w_lo = None
        elif style < 0.35:
            w_hi = None
        if w_lo is not None and w_hi is not None and w_lo > w_hi:
            w_lo, w_hi = w_hi, w_lo
        bounds.append((None if w_lo is None else (w_lo, 1), None if w_hi is None else (w_hi, 1)))
    values, resources = [(x, 1) for x in val], [(r, 1) for r in res]
    return WindowedDag.of_ratios(src, dst, values, resources, bounds, 0, n - 1, labels)


def random_huc(
    rng: random.Random,
    periods: int,
    points: int,
    min_updown: int,
    price_mode: str = "independent",
) -> HucInstance:
    """A commitment instance built around a legal schedule, drawn on
    integers: whole flows, powers and ramps, prices and water values in
    tenths (near-flat prices in thousandths, a base price times 0.95-1.05).
    It walks a random schedule from the idle state on a :class:`_Moves`
    table of the integer flows and ramps, sets each period's window 0-6
    units either side of the walk's cumulative flow (never below 0),
    builds the instance once with :meth:`HucInstance.of_ratios`, and
    re-checks the walk with the legality oracle."""
    flows = sorted(rng.sample(range(1, 10), points - 1))
    powers = sorted(rng.sample(range(1, 15), points - 1))
    base_price = rng.randint(5, 300)
    if price_mode == "near-flat":
        prices = [(base_price * rng.randint(95, 105), 1000) for _ in range(periods)]
    else:
        prices = [(rng.randint(5, 300), 10) for _ in range(periods)]
    phi1 = (rng.randint(0, 120), 10)
    phi2 = (rng.randint(0, 120), 10)
    ramp_up = rng.randint(max(flows[0], 2), sum(flows) + 2)
    ramp_down = rng.randint(max(flows[0], 2), sum(flows) + 2)

    # walk a random legal schedule on the integer moves; the flows are
    # whole, so the flow scale is 1
    moves = _Moves(list(accumulate([0, *flows])), 1, ramp_up, ramp_down, min_updown)
    state, cum = moves.code(0, 0), 0
    cums: list[int] = []
    walked: list[int] = []
    for _ in range(periods):
        state, level = rng.choice(moves[state])
        walked.append(level)
        cum += moves.flow[level]
        cums.append(cum)
    win_lo: list[Ratio] = []
    win_hi: list[Ratio] = []
    for c in cums:
        slack_lo = rng.randint(0, 6)
        slack_hi = rng.randint(0, 6)
        win_lo.append((max(0, c - slack_lo), 1))
        win_hi.append((c + slack_hi, 1))
    inst = HucInstance.of_ratios(
        periods,
        [((0, 1), (0, 1))] + [((d, 1), (p, 1)) for d, p in zip(flows, powers)],
        (ramp_up, 1),
        (ramp_down, 1),
        min_updown,
        prices,
        phi1,
        phi2,
        win_lo,
        win_hi,
    )
    if not schedule_is_legal(inst, walked):
        raise GraphInvariantError("generator walked an illegal schedule")
    return inst
