"""JSON instance schemas and loaders.

Two disjoint schemas are auto-detected: windowed-DAG instances carry
"vertices"/"arcs", commitment instances carry "T"/"points". Rationals
are accepted as integers, "num/den" strings or decimal strings, and are
always emitted as "num/den" so round-trips are exact.

Every rational is parsed to a ``(num, den)`` pair of integers in lowest
terms. JSON integers and the ASCII ``-?digits/digits`` strings that the
writers emit take a fast path; everything else goes through
:func:`~borwin.rational.rat`, which decides what is accepted and words
every error. A DAG is built from those integers with
:meth:`WindowedDag.of_ratios <borwin.graph.WindowedDag.of_ratios>`: its
integer arcs and windows are computed at load, and a Fraction ``Arc`` or
``Window`` is made only when one is read. A commitment instance keeps
Fraction fields, made from the pairs.

A valid DAG is read column by column, each distinct ratio string parsed
once; on any fault the field-by-field loop runs instead, and it alone
decides what is accepted and words each error with its field path.
Instances are written by :func:`dump_json`, whose bytes are those of
``json.dumps(data, indent=2, sort_keys=True)`` and which renders lists
of like objects a column at a time.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path as FsPath
from typing import Any, Optional, Union

from .graph import WindowedDag
from .huc import HucInstance, InvalidInstance, OperatingPoint
from .rational import NotDecimal, Ratio, decimal_str, rat, rat_str


class InstanceFormatError(Exception):
    """Parse failure with the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)").fullmatch


def _rat_at(value: Any, field: str) -> Ratio:
    """``value`` as ``(num, den)`` in lowest terms, exactly what
    :func:`~borwin.rational.rat` makes of it; a value it rejects, or a
    float, is an :class:`InstanceFormatError` at ``field``."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        m = _RATIO(value)
        if m is not None:
            try:
                num, den = int(m[1]), int(m[2])
            except ValueError:  # past the int digit limit; rat words it
                den = 0
            if den:
                g = gcd(num, den)
                return num // g, den // g
    if isinstance(value, float):
        raise InstanceFormatError(field, "floats are not accepted; use a decimal string")
    try:
        q = rat(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(field, str(exc)) from exc
    return q.numerator, q.denominator


def _opt_rat_at(value: Any, field: str) -> Optional[Ratio]:
    if value is None:
        return None
    return _rat_at(value, field)


def _fraction_at(value: Any, field: str) -> Fraction:
    return Fraction(*_rat_at(value, field))


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


def _dag_checked(data: dict) -> WindowedDag:
    """The DAG in ``data``, checked field by field: this loop defines which
    inputs are accepted and words each fault with its field path."""
    verts = _need(data, "vertices", "")
    if not isinstance(verts, list) or not verts:
        raise InstanceFormatError("vertices", "must be a non-empty list")
    ids: list[str] = []
    bounds: list[tuple[Optional[Ratio], Optional[Ratio]]] = []
    index: dict[str, int] = {}
    for k, v in enumerate(verts):
        field = f"vertices[{k}]"
        v = _typed(v, dict, field)
        vid = _need(v, "id", field, str)
        if vid in index:
            raise InstanceFormatError(f"{field}.id", f"duplicate vertex id {vid!r}")
        index[vid] = k
        ids.append(vid)
        bounds.append((_opt_rat_at(v.get("lo"), f"{field}.lo"), _opt_rat_at(v.get("hi"), f"{field}.hi")))
    src: list[int] = []
    dst: list[int] = []
    values: list[Ratio] = []
    resources: list[Ratio] = []
    for k, a in enumerate(_need(data, "arcs", "", list)):
        field = f"arcs[{k}]"
        a = _typed(a, dict, field)
        u = _need(a, "from", field, str)
        w = _need(a, "to", field, str)
        for end, name in ((u, "from"), (w, "to")):
            if end not in index:
                raise InstanceFormatError(f"{field}.{name}", f"unknown vertex id {end!r}")
        src.append(index[u])
        dst.append(index[w])
        values.append(_rat_at(_need(a, "value", field), f"{field}.value"))
        resources.append(_rat_at(_need(a, "resource", field), f"{field}.resource"))
    source = _need(data, "source", "", str)
    sink = _need(data, "sink", "", str)
    for end, name in ((source, "source"), (sink, "sink")):
        if end not in index:
            raise InstanceFormatError(name, f"unknown vertex id {end!r}")
    return WindowedDag.of_ratios(src, dst, values, resources, bounds, index[source], index[sink], tuple(ids))


def _parse_once(values: list, optional: bool = False) -> Optional[list[Ratio]]:
    """:func:`_rat_at` of each value, each distinct string parsed once;
    None when a value is not a JSON integer, a string that ``_rat_at``
    accepts or, if ``optional``, null. Only strings are cached: ``True ==
    1`` and ``1.0 == 1``, so a cache keyed on any value would take a JSON
    true or 1.0 for the integer 1."""
    parsed: dict[str, Ratio] = {}
    out: list[Optional[Ratio]] = []
    for x in values:
        if type(x) is str:
            r = parsed.get(x)
            if r is None:
                try:
                    r = parsed[x] = _rat_at(x, "")
                except InstanceFormatError:
                    return None
        elif type(x) is int:
            r = (x, 1)
        elif x is None and optional:
            r = None
        else:
            return None
        out.append(r)
    return out


def _dag_columns(data: dict) -> Optional[WindowedDag]:
    """The DAG in ``data`` read column by column, or None on any fault."""
    verts, arcs = data.get("vertices"), data.get("arcs")
    if type(verts) is not list or not verts or type(arcs) is not list:
        return None
    if set(map(type, verts)) | set(map(type, arcs)) != {dict}:
        return None
    try:
        ids = [v["id"] for v in verts]
        index = {vid: k for k, vid in enumerate(ids)}
        src = [index[a["from"]] for a in arcs]
        dst = [index[a["to"]] for a in arcs]
        source, sink = index[data["source"]], index[data["sink"]]
        values = _parse_once([a["value"] for a in arcs])
        resources = _parse_once([a["resource"] for a in arcs])
    except (KeyError, TypeError):  # a missing field, an unknown or unhashable id
        return None
    los = _parse_once([v.get("lo") for v in verts], optional=True)
    his = _parse_once([v.get("hi") for v in verts], optional=True)
    if {str} != set(map(type, ids)) or len(index) < len(ids) or None in (values, resources, los, his):
        return None
    return WindowedDag.of_ratios(src, dst, values, resources, list(zip(los, his)), source, sink, tuple(ids))


def dag_from_dict(data: dict) -> WindowedDag:
    """The DAG in ``data``. A valid instance is read column by column, each
    distinct ratio string parsed once; on any fault :func:`_dag_checked`
    runs, so which inputs are accepted and how each fault is worded (with
    its field path) is defined in one place."""
    dag = _dag_columns(data)
    return _dag_checked(data) if dag is None else dag


def _scaled_str(x: int, scale: int) -> str:
    """``x / scale`` in the ``num/den`` form of :func:`~borwin.rational.rat_str`."""
    g = gcd(x, scale)
    return f"{x // g}/{scale // g}"


def dag_to_dict(dag: WindowedDag) -> dict:
    """The JSON form of ``dag``: arcs read from its integer arrays, windows
    one :meth:`~WindowedDag.window` at a time."""
    ints = dag.int_arcs()
    labels = dag.labels
    return {
        "vertices": [
            {
                "id": labels[v],
                "lo": None if w.lo is None else rat_str(w.lo),
                "hi": None if w.hi is None else rat_str(w.hi),
            }
            for v, w in enumerate(map(dag.window, range(dag.n)))
        ],
        "arcs": [
            {
                "from": labels[u],
                "to": labels[w],
                "value": _scaled_str(x, ints.dv),
                "resource": _scaled_str(r, ints.dr),
            }
            for u, w, x, r in zip(ints.src, ints.dst, ints.val, ints.res)
        ],
        "source": labels[dag.source],
        "sink": labels[dag.sink],
    }


def _fraction_list(data: dict, key: str) -> tuple[Fraction, ...]:
    """The list ``data[key]`` as Fractions, one per distinct value, parsed
    by :func:`_parse_once`; on a fault the checked loop words it."""
    values = _need(data, key, "", list)
    ratios = _parse_once(values)
    if ratios is None:
        return tuple(_fraction_at(x, f"{key}[{k}]") for k, x in enumerate(values))
    made = {r: Fraction(*r) for r in set(ratios)}
    return tuple(map(made.__getitem__, ratios))


def huc_from_dict(data: dict) -> HucInstance:
    points = []
    for k, p in enumerate(_need(data, "points", "", list)):
        field = f"points[{k}]"
        p = _typed(p, dict, field)
        points.append(
            OperatingPoint(
                flow=_fraction_at(_need(p, "D", field), f"{field}.D"),
                power=_fraction_at(_need(p, "P", field), f"{field}.P"),
            )
        )
    initial = data.get("initial")
    initial = {} if initial is None else _typed(initial, dict, "initial")
    fields = dict(
        periods=_need(data, "T", "", int),
        points=tuple(points),
        ramp_up=_fraction_at(_need(data, "ramp_up", ""), "ramp_up"),
        ramp_down=_fraction_at(_need(data, "ramp_down", ""), "ramp_down"),
        min_updown=_need(data, "min_updown", "", int),
        prices=_fraction_list(data, "prices"),
        water_value_upstream=_fraction_at(_need(data, "phi1", ""), "phi1"),
        water_value_downstream=_fraction_at(_need(data, "phi2", ""), "phi2"),
        win_lo=_fraction_list(data, "win_lo"),
        win_hi=_fraction_list(data, "win_hi"),
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


_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar(x: Any) -> str:
    return _SCALARS[type(x)](x)


class _Unhandled(Exception):
    """A value that the writer leaves to :func:`json.dumps`."""


def _rows(items: list, indent: str) -> Optional[list[str]]:
    """``items`` rendered at ``indent`` when they are non-empty dicts with
    one key set and scalar values: each column is encoded at once, by one
    encoder when it holds one type, and the rows fill one template. None
    for any other list."""
    first = items[0]
    if type(first) is not dict or not first or any(type(k) is not str for k in first):
        return None
    if set(map(type, items)) != {dict} or not all(map(first.keys().__eq__, map(dict.keys, items))):
        return None
    keys = sorted(first)
    columns = []
    for key in keys:
        column = [d[key] for d in items]
        kinds = set(map(type, column))
        if not kinds <= _SCALARS.keys():
            return None
        columns.append(map(_SCALARS[kinds.pop()] if len(kinds) == 1 else _scalar, column))
    inner = indent + "  "
    fields = (f"{_encode_str(key).replace('%', '%%')}: %s" for key in keys)
    template = "{\n" + inner + (",\n" + inner).join(fields) + "\n" + indent + "}"
    return list(map(template.__mod__, zip(*columns)))


def _render(x: Any, indent: str) -> str:
    """``x`` as ``json.dumps(x, indent=2, sort_keys=True)`` renders it at
    ``indent``; :class:`_Unhandled` for a float, a non-str key or any other
    type the writer leaves to ``json.dumps``."""
    encode = _SCALARS.get(type(x))
    if encode is not None:
        return encode(x)
    inner = indent + "  "
    if type(x) is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        items = [f"{_encode_str(k)}: {_render(x[k], inner)}" for k in sorted(x)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(x) is list:
        if not x:
            return "[]"
        items = _rows(x, inner)
        if items is None:
            items = [_render(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise _Unhandled


def dump_json(data: dict) -> str:
    """Deterministic rendering used everywhere an instance is written. Its
    bytes are the contract: always those of ``json.dumps(data, indent=2,
    sort_keys=True) + "\\n"``, which renders any input the writer leaves
    out (and raises what it raises). Strings, ints, null, true, false,
    dicts and lists are rendered here, a list of like dicts by column."""
    try:
        return _render(data, "") + "\n"
    except (_Unhandled, RecursionError):
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
