"""JSON instance schemas and loaders.

Two disjoint schemas are auto-detected: windowed-DAG instances carry
"vertices"/"arcs", commitment instances carry "T"/"points". Rationals
are accepted as integers, "num/den" strings or decimal strings, and are
always emitted as "num/den" so round-trips are exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path as FsPath
from typing import Any, Optional, Union

from .graph import Arc, Window, WindowedDag
from .huc import HucInstance, InvalidInstance, OperatingPoint
from .rational import NotDecimal, decimal_str, rat, rat_str


class InstanceFormatError(Exception):
    """Parse failure with the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _rat_at(value: Any, field: str) -> Fraction:
    if isinstance(value, float):
        raise InstanceFormatError(field, "floats are not accepted; use a decimal string")
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(field, str(exc)) from exc


def _opt_rat_at(value: Any, field: str) -> Optional[Fraction]:
    if value is None:
        return None
    return _rat_at(value, field)


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value: Any, kind: type, field: str) -> Any:
    """``value`` if it has the JSON type ``kind``; true and false are not
    integers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InstanceFormatError(field, f"must be {_JSON_TYPES[kind]}")
    return value


def _need(obj: dict, key: str, field: str, kind: Optional[type] = None) -> Any:
    path = f"{field}.{key}" if field else key
    if key not in obj:
        raise InstanceFormatError(path, "missing required field")
    return obj[key] if kind is None else _typed(obj[key], kind, path)


def detect_format(data: dict) -> str:
    if "vertices" in data and "arcs" in data:
        return "dag"
    if "T" in data and "points" in data:
        return "huc"
    raise InstanceFormatError("$", "neither a dag instance (vertices/arcs) nor a huc instance (T/points)")


def dag_from_dict(data: dict) -> WindowedDag:
    verts = _need(data, "vertices", "")
    if not isinstance(verts, list) or not verts:
        raise InstanceFormatError("vertices", "must be a non-empty list")
    ids: list[str] = []
    windows: list[Window] = []
    index: dict[str, int] = {}
    for k, v in enumerate(verts):
        field = f"vertices[{k}]"
        v = _typed(v, dict, field)
        vid = _need(v, "id", field, str)
        if vid in index:
            raise InstanceFormatError(f"{field}.id", f"duplicate vertex id {vid!r}")
        index[vid] = k
        ids.append(vid)
        windows.append(
            Window(
                lo=_opt_rat_at(v.get("lo"), f"{field}.lo"),
                hi=_opt_rat_at(v.get("hi"), f"{field}.hi"),
            )
        )
    arcs: list[Arc] = []
    for k, a in enumerate(_need(data, "arcs", "", list)):
        field = f"arcs[{k}]"
        a = _typed(a, dict, field)
        src = _need(a, "from", field, str)
        dst = _need(a, "to", field, str)
        for end, name in ((src, "from"), (dst, "to")):
            if end not in index:
                raise InstanceFormatError(f"{field}.{name}", f"unknown vertex id {end!r}")
        arcs.append(
            Arc(
                index[src],
                index[dst],
                _rat_at(_need(a, "value", field), f"{field}.value"),
                _rat_at(_need(a, "resource", field), f"{field}.resource"),
            )
        )
    source = _need(data, "source", "", str)
    sink = _need(data, "sink", "", str)
    for end, name in ((source, "source"), (sink, "sink")):
        if end not in index:
            raise InstanceFormatError(name, f"unknown vertex id {end!r}")
    return WindowedDag(windows, arcs, index[source], index[sink], labels=ids)


def dag_to_dict(dag: WindowedDag) -> dict:
    return {
        "vertices": [
            {
                "id": dag.labels[v],
                "lo": None if w.lo is None else rat_str(w.lo),
                "hi": None if w.hi is None else rat_str(w.hi),
            }
            for v, w in enumerate(dag.windows)
        ],
        "arcs": [
            {
                "from": dag.labels[a.src],
                "to": dag.labels[a.dst],
                "value": rat_str(a.value),
                "resource": rat_str(a.resource),
            }
            for a in dag.arcs
        ],
        "source": dag.labels[dag.source],
        "sink": dag.labels[dag.sink],
    }


def huc_from_dict(data: dict) -> HucInstance:
    points = []
    for k, p in enumerate(_need(data, "points", "", list)):
        field = f"points[{k}]"
        p = _typed(p, dict, field)
        points.append(
            OperatingPoint(
                flow=_rat_at(_need(p, "D", field), f"{field}.D"),
                power=_rat_at(_need(p, "P", field), f"{field}.P"),
            )
        )
    initial = data.get("initial")
    initial = {} if initial is None else _typed(initial, dict, "initial")
    fields = dict(
        periods=_need(data, "T", "", int),
        points=tuple(points),
        ramp_up=_rat_at(_need(data, "ramp_up", ""), "ramp_up"),
        ramp_down=_rat_at(_need(data, "ramp_down", ""), "ramp_down"),
        min_updown=_need(data, "min_updown", "", int),
        prices=tuple(_rat_at(x, f"prices[{k}]") for k, x in enumerate(_need(data, "prices", "", list))),
        water_value_upstream=_rat_at(_need(data, "phi1", ""), "phi1"),
        water_value_downstream=_rat_at(_need(data, "phi2", ""), "phi2"),
        win_lo=tuple(_rat_at(x, f"win_lo[{k}]") for k, x in enumerate(_need(data, "win_lo", "", list))),
        win_hi=tuple(_rat_at(x, f"win_hi[{k}]") for k, x in enumerate(_need(data, "win_hi", "", list))),
        initial_point=_typed(initial.get("i", 0), int, "initial.i"),
        initial_hold=_typed(initial.get("l", 0), int, "initial.l"),
    )
    try:
        return HucInstance(**fields)
    except InvalidInstance as exc:
        raise InstanceFormatError("$", str(exc)) from exc


def huc_to_dict(inst: HucInstance) -> dict:
    return {
        "T": inst.periods,
        "points": [{"D": rat_str(p.flow), "P": rat_str(p.power)} for p in inst.points],
        "ramp_up": rat_str(inst.ramp_up),
        "ramp_down": rat_str(inst.ramp_down),
        "min_updown": inst.min_updown,
        "prices": [rat_str(q) for q in inst.prices],
        "phi1": rat_str(inst.water_value_upstream),
        "phi2": rat_str(inst.water_value_downstream),
        "win_lo": [rat_str(q) for q in inst.win_lo],
        "win_hi": [rat_str(q) for q in inst.win_hi],
        "initial": {"i": inst.initial_point, "l": inst.initial_hold},
    }


LoadedInstance = tuple[str, Union[WindowedDag, HucInstance]]


def non_decimal_field(inst: HucInstance) -> Optional[tuple[str, str]]:
    """The first field of ``inst``'s JSON form, in document order, whose
    value has no finite decimal representation, as (path, value); None
    when every field has one."""

    def leaves(value: Any, path: str):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from leaves(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for k, item in enumerate(value):
                yield from leaves(item, f"{path}[{k}]")
        else:
            yield path, value

    for path, value in leaves(huc_to_dict(inst), ""):
        try:
            decimal_str(rat(value))
        except NotDecimal:
            return path, value
    return None


def load_instance(path: Union[str, FsPath]) -> LoadedInstance:
    """Read a UTF-8 JSON instance file; returns ("dag"|"huc", instance)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError("$", f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError("$", f"not UTF-8 text ({exc.reason})") from exc
    except RecursionError as exc:
        raise InstanceFormatError("$", "JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "top level must be an object")
    kind = detect_format(data)
    if kind == "dag":
        return kind, dag_from_dict(data)
    return kind, huc_from_dict(data)


def dump_json(data: dict) -> str:
    """Deterministic rendering used everywhere an instance is written."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
