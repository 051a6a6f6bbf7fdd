import contextlib
import csv
import hashlib
import json
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borwin import graph as graph_module
from borwin import io as io_module
from borwin.cli import main
from borwin.generate import GeneratorConfig, generate, random_dag
from borwin.graph import Arc, Window, WindowedDag, validate
from borwin.io import (
    InstanceFormatError,
    dag_from_dict,
    dag_to_dict,
    dump_json,
    huc_from_dict,
    huc_to_dict,
    load_instance,
)
from borwin.rational import rat

F = Fraction

REPO = Path(__file__).resolve().parent.parent
WCLPP5 = REPO / "instances" / "wclpp5.json"
HUC5 = REPO / "instances" / "huc5.json"


# -- schemas -----------------------------------------------------------------


def test_load_shipped_dag(wclpp):
    kind, dag = load_instance(WCLPP5)
    assert kind == "dag"
    assert dag.labels == wclpp.labels
    assert dag.windows == wclpp.windows
    assert dag.arcs == wclpp.arcs


def test_load_shipped_huc(huc5):
    kind, inst = load_instance(HUC5)
    assert kind == "huc"
    assert inst == huc5


def test_dag_roundtrip(wclpp):
    again = dag_from_dict(dag_to_dict(wclpp))
    assert again.windows == wclpp.windows
    assert again.arcs == wclpp.arcs
    assert again.labels == wclpp.labels


def test_huc_roundtrip(huc5):
    assert huc_from_dict(huc_to_dict(huc5)) == huc5


def test_rational_encodings(tmp_path):
    data = json.loads(WCLPP5.read_text())
    data["arcs"][0]["value"] = "11/1"
    data["arcs"][1]["value"] = "15.0"
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(data))
    _, dag = load_instance(path)
    assert dag.arcs[0].value == 11
    assert dag.arcs[1].value == 15


def test_schema_detection_is_disjoint():
    with pytest.raises(InstanceFormatError):
        from borwin.io import detect_format

        detect_format({"foo": 1})


def test_error_paths_are_reported(tmp_path):
    bad = {"vertices": [{"id": "s"}, {"id": "p"}], "arcs": [{"from": "s", "to": "q", "value": 1, "resource": 1}],
           "source": "s", "sink": "p"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "arcs[0].to" in str(err.value)

    path.write_text("{not json")
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "line 1" in str(err.value)

    bad_rat = {"T": 1, "points": [{"D": 0, "P": 0}, {"D": 1.5, "P": 2}], "ramp_up": 2, "ramp_down": 2,
               "min_updown": 1, "prices": [1], "phi1": 0, "phi2": 0, "win_lo": [0], "win_hi": [2]}
    path.write_text(json.dumps(bad_rat))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "points[1].D" in str(err.value)


def _rat_reference(value, field):
    """The loader's rational rule before the integer fast path: floats
    refused, everything else through ``rat``."""
    if isinstance(value, float):
        raise InstanceFormatError(field, "floats are not accepted; use a decimal string")
    try:
        q = rat(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(field, str(exc)) from exc
    return q.numerator, q.denominator


_DIGITS = st.sampled_from(list("0123456789") + ["0", "00", "_", "٣", "５", "²", "१"])
_NUMERAL = st.lists(_DIGITS, max_size=6).map("".join)
_RATIONAL_TEXT = st.builds(
    lambda pad, sign, num, tail, end: pad + sign + num + tail + end,
    st.sampled_from(["", " ", "\t", "\n"]),
    st.sampled_from(["", "-", "+", "--"]),
    _NUMERAL,
    st.one_of(
        st.just(""),
        st.builds(lambda d: "/" + d, _NUMERAL),
        st.builds(lambda d: "." + d, _NUMERAL),
        st.builds(lambda e, d: e + d, st.sampled_from(["e", "E", "e-", "E+", ".5e"]), _NUMERAL),
        st.builds(lambda d: "/-" + d, _NUMERAL),
    ),
    st.sampled_from(["", " ", "\n", "x"]),
)


@settings(max_examples=500, deadline=None)
@example("1" * 5000 + "/3")  # past the int digit limit
@example("3/" + "1" * 5000)
@given(
    st.one_of(
        st.integers(),
        st.integers(min_value=-(10**60), max_value=10**60),
        st.booleans(),
        st.floats(),
        st.none(),
        _RATIONAL_TEXT,
        st.text(max_size=8),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-(10**30), 10**30), st.integers(0, 10**30)),
        st.lists(st.integers(), max_size=2),
    )
)
def test_rat_at_agrees_with_rat(value):
    """The loader's integer parser returns exactly ``rat``'s value, in
    lowest terms, or raises the same format error."""
    try:
        want = _rat_reference(value, "f")
    except InstanceFormatError as exc:
        with pytest.raises(InstanceFormatError) as err:
            io_module._rat_at(value, "f")
        assert str(err.value) == str(exc)
    else:
        got = io_module._rat_at(value, "f")
        assert got == want and type(got[0]) is int and type(got[1]) is int


def test_dag_loader_rejects_a_long_exponent_promptly():
    """One JSON value with a 10**8-digit power of ten is a format error at
    its field, raised before any big integer is built."""
    data = json.loads(WCLPP5.read_text())
    data["arcs"][2]["resource"] = "1e99999999"
    start = time.process_time()
    with pytest.raises(InstanceFormatError, match=r"arcs\[2\]\.resource: not a rational: '1e99999999'"):
        dag_from_dict(data)
    assert time.process_time() - start < 1.0


def _eager_dag(data):
    """The instance the Fraction constructor builds from a DAG's JSON
    data, parsed with ``rat``."""

    def opt(x):
        return None if x is None else rat(x)

    index = {v["id"]: k for k, v in enumerate(data["vertices"])}
    return WindowedDag(
        [Window(opt(v.get("lo")), opt(v.get("hi"))) for v in data["vertices"]],
        [Arc(index[a["from"]], index[a["to"]], rat(a["value"]), rat(a["resource"])) for a in data["arcs"]],
        index[data["source"]],
        index[data["sink"]],
        labels=[v["id"] for v in data["vertices"]],
    )


def _assert_same_instance(dag, ref):
    ints, want = dag.int_arcs(), ref.int_arcs()
    for name in ("src", "dst", "val", "res", "dv", "dr"):
        assert getattr(ints, name) == getattr(want, name), name
    assert dag.int_windows() == ref.int_windows()
    assert dag.out_arcs == ref.out_arcs
    assert dag.topo_order == ref.topo_order
    assert (dag.n, dag.source, dag.sink) == (ref.n, ref.source, ref.sink)
    assert dag.arcs == ref.arcs
    assert dag.windows == ref.windows
    assert dag.labels == ref.labels


def _load_without_fractions(data, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("loading made an Arc or a Window")

    with monkeypatch.context() as patched:
        patched.setattr(graph_module, "Arc", refuse)
        patched.setattr(graph_module, "Window", refuse)
        return dag_from_dict(data)


HAND_WRITTEN = {
    "vertices": [
        {"id": "s", "lo": "0", "hi": None},
        {"id": "a", "lo": "1/3", "hi": "7/6"},
        {"id": "b", "lo": None, "hi": "0.15"},
        {"id": "c", "lo": "-2/4", "hi": None},
        {"id": "p", "lo": "1/7", "hi": "9/2"},
    ],
    "arcs": [
        {"from": "s", "to": "a", "value": "2/4", "resource": "1/2"},
        {"from": "a", "to": "p", "value": -3, "resource": "0.15"},
        {"from": "s", "to": "b", "value": "0.15", "resource": "2/4"},
        {"from": "b", "to": "c", "value": "1/7", "resource": "-6/20"},
        {"from": "c", "to": "p", "value": "10/5", "resource": 3},
        {"from": "s", "to": "c", "value": " 3 ", "resource": "1_0/4"},
    ],
    "source": "s",
    "sink": "p",
}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 120), st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), st.integers(0, 2**32))
def test_integer_loader_equals_the_eager_instance_on_generated_dags(n, density, seed):
    """A generated DAG loads, with no Arc and no Window, into the
    instance the Fraction constructor builds from the same data; the
    generator's own instance is that instance too."""
    data = generate(GeneratorConfig(seed=seed, family="dag", vertices=n, density=density))
    ref = _eager_dag(data)
    with pytest.MonkeyPatch.context() as monkeypatch:
        loaded = _load_without_fractions(data, monkeypatch)
    _assert_same_instance(loaded, ref)
    _assert_same_instance(random_dag(random.Random(seed), n, density), ref)


@pytest.mark.parametrize("data", [json.loads(WCLPP5.read_text()), HAND_WRITTEN], ids=["wclpp5", "hand-written"])
def test_integer_loader_equals_the_eager_instance(data, monkeypatch):
    """Fractions in any accepted spelling, null window sides and window
    denominators that do not divide the resource scale load into the
    eager instance's integers, views and order."""
    loaded = _load_without_fractions(data, monkeypatch)
    ref = _eager_dag(data)
    _assert_same_instance(loaded, ref)
    assert dag_to_dict(loaded) == dag_to_dict(ref)


def _differs_from_the_checked_loop(data):
    """How ``dag_from_dict`` differs on ``data`` from the per-field loop,
    which defines what is accepted and words each fault; None if it gives
    the same instance or raises the same text."""
    try:
        want = io_module._dag_checked(data)
    except InstanceFormatError as exc:
        try:
            dag_from_dict(data)
        except InstanceFormatError as err:
            return None if str(err) == str(exc) else f"raised {err}, want {exc}"
        return f"accepted, want {exc}"
    _assert_same_instance(dag_from_dict(data), want)
    return None


_ODD_RATIOS = [True, False, 1.0, None, [], {}, "1e99999999", "1/0", "x", 1, "1", " 2/4 "]
_ODD_IDS = [None, 0, True, [], "nowhere", "S", "s "]


@st.composite
def mutated_dags(draw):
    """WCLPP5 or a small generated DAG with one to three mutations: a
    missing key, a vertex or arc that is not an object, a duplicate or
    unknown id, or an odd value for a ratio."""
    if draw(st.booleans()):
        doc = json.loads(WCLPP5.read_text())
    else:
        doc = generate(GeneratorConfig(seed=draw(st.integers(0, 99)), family="dag", vertices=draw(st.integers(2, 12))))
    for _ in range(draw(st.integers(1, 3))):
        verts, arcs = doc.get("vertices"), doc.get("arcs")
        lists = [items for items in (verts, arcs) if isinstance(items, list) and items]
        objects = [doc] + [obj for items in lists for obj in items if isinstance(obj, dict)]
        obj = draw(st.sampled_from(objects))
        kind = "doc" if obj is doc else "vertex" if "id" in obj or "lo" in obj else "arc"
        op = draw(st.sampled_from(["delete", "not an object", "ratio", "id"]))
        if op == "delete" and obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif op == "not an object" and lists:
            items = draw(st.sampled_from(lists))
            items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(_ODD_IDS))
        elif op == "ratio" and kind != "doc":
            obj[draw(st.sampled_from(["lo", "hi"] if kind == "vertex" else ["value", "resource"]))] = draw(
                st.sampled_from(_ODD_RATIOS)
            )
        else:
            ids = [v["id"] for v in verts if isinstance(v, dict) and "id" in v] if isinstance(verts, list) else []
            key = {"doc": ["source", "sink"], "vertex": ["id"], "arc": ["from", "to"]}[kind]
            obj[draw(st.sampled_from(key))] = draw(st.sampled_from(_ODD_IDS) | st.sampled_from(ids or ["s"]))
    return doc


def _cache_trap(kind, odd):
    """WCLPP5 with the integer 1 as arc 0's ratio and ``odd``, equal to 1
    as a dict key, as arc 1's."""
    data = json.loads(WCLPP5.read_text())
    data["arcs"][0][kind] = 1
    data["arcs"][1][kind] = odd
    return data


CACHE_TRAPS = [_cache_trap(kind, odd) for kind in ("value", "resource") for odd in (True, 1.0)]

# no arc reaches the extra vertex, so only its id's type is at fault
INTEGER_ID = json.loads(WCLPP5.read_text())
INTEGER_ID["vertices"].append({"id": 7})


@settings(max_examples=300, deadline=None)
@given(mutated_dags())
def test_dag_loader_agrees_with_the_checked_loop_on_mutated_dags(data):
    """Whatever the mutation, the column reader gives the checked loop's
    instance or raises its error text."""
    assert _differs_from_the_checked_loop(data) is None


@pytest.mark.parametrize("data", CACHE_TRAPS + [INTEGER_ID, json.loads(WCLPP5.read_text()), HAND_WRITTEN])
def test_dag_loader_agrees_with_the_checked_loop(data):
    assert _differs_from_the_checked_loop(data) is None


def test_a_cache_keyed_on_values_fails_the_differential_check(monkeypatch):
    """A parse-once cache keyed on any value takes true or 1.0 for a cached
    integer 1; the differential check sees it."""

    def value_keyed(values, optional=False):
        parsed = {}
        for x in values:
            if x not in parsed:
                try:
                    parsed[x] = None if x is None and optional else io_module._rat_at(x, "")
                except InstanceFormatError:
                    return None
        return [parsed[x] for x in values]

    monkeypatch.setattr(io_module, "_parse_once", value_keyed)
    assert all(_differs_from_the_checked_loop(data) for data in CACHE_TRAPS)


def test_a_valid_dag_is_read_by_columns():
    """The checked loop runs only on a fault."""
    for data in (json.loads(WCLPP5.read_text()), HAND_WRITTEN, generate(GeneratorConfig(seed=1, family="dag"))):
        _assert_same_instance(io_module._dag_columns(data), io_module._dag_checked(data))


@pytest.mark.parametrize("key", ["prices", "win_lo", "win_hi"])
@pytest.mark.parametrize(
    "odd,message",
    [(True, "booleans are not rationals"), (1.0, "floats are not accepted; use a decimal string"),
     (None, "cannot interpret NoneType as a rational")],
)
def test_huc_lists_refuse_what_equals_a_parsed_integer(key, odd, message):
    """A commitment list parses each string once; true, 1.0 and null next
    to the integer 1 are still the checked loop's errors."""
    data = json.loads(HUC5.read_text())
    data[key][:2] = [1, odd]
    with pytest.raises(InstanceFormatError) as err:
        huc_from_dict(data)
    assert str(err.value) == f"{key}[1]: {message}"


def test_hand_written_instance_loads_on_its_reduced_scales():
    """The reduced denominators give the scales 140 (values) and 20
    (resources); each window side rounds inwards onto the resource
    scale, and an unbounded side lies past the 139 of all absolute
    resources."""
    dag = dag_from_dict(HAND_WRITTEN)
    ints = dag.int_arcs()
    assert (ints.dv, ints.dr) == (140, 20)
    assert ints.val == [70, -420, 21, 20, 280, 420]
    assert ints.res == [10, 3, 10, -6, 60, 50]
    assert dag.int_windows() == ([0, 7, -140, -10, 3], [140, 23, 3, 140, 90])
    assert validate(dag).ok


def test_a_solve_and_validate_of_a_json_dag_make_no_arc(tmp_path, capsys, monkeypatch):
    """``borwin solve`` and ``borwin validate`` of a JSON DAG read the
    integer arcs only, for every algorithm: no ``Arc`` is constructed.
    An inverted window is still found on the exact windows: ``[1/3, 1/2]``
    on resource scale 1 reads ``[1, 0]`` as integers, but is not inverted."""
    made = []
    real_arc = graph_module.Arc

    def counting_arc(*args):
        made.append(args)
        return real_arc(*args)

    monkeypatch.setattr(graph_module, "Arc", counting_arc)
    path = tmp_path / "gen.json"
    path.write_text(dump_json(generate(GeneratorConfig(seed=4, family="dag", vertices=120))))
    for args in (["solve", str(path)], ["solve", str(WCLPP5)], ["solve", str(path), "--algo", "rcsp"]):
        assert main(args) in (0, 2)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()

    data = json.loads(WCLPP5.read_text())
    data["vertices"][1].update(lo="1/3", hi="1/2")
    dag = dag_from_dict(data)
    lo, hi = dag.int_windows()
    assert (lo[1], hi[1]) == (1, 0)
    assert validate(dag).ok
    data["vertices"][1].update(lo="1/2", hi="1/3")
    assert validate(dag_from_dict(data)).code == "InvertedWindow"
    assert made == []


# -- generator ---------------------------------------------------------------


def test_gen_deterministic_bytes():
    cfg = GeneratorConfig(seed=1, family="dag", vertices=12)
    assert dump_json(generate(cfg)) == dump_json(generate(cfg))
    cfg = GeneratorConfig(seed=1, family="huc", periods=5)
    assert dump_json(generate(cfg)) == dump_json(generate(cfg))


# sha256 of the canonical JSON of a few generated instances, as the
# generator wrote them when it still scanned every arc per vertex
PINNED_GENERATED = [
    (dict(family="dag", vertices=12, seed=1), "3223e9161058c39265d05577867a2b21e0379157451acd4a8f4170a397e1555e"),
    (
        dict(family="dag", vertices=40, seed=3, density=0.3),
        "1c044082fa36cc71a41a20b0912193bc1dc9534ec6b19db3f5f220b9acfbe043",
    ),
    (dict(family="dag", vertices=120, seed=4), "092e354891998914134ac3d4bf9c3a58cc2fd8ff6107b8aaba4cc8bae7552e5b"),
    (dict(family="huc", periods=5, seed=1), "66350004fa1d8c5be8af2beafb8d6eb600c9e755dc355ba713a13aa26aebbe3a"),
    (
        dict(family="huc", periods=24, points=4, min_updown=3, seed=2, price_mode="near-flat"),
        "6264c10ff9848a24ae23dce2415e64c70748c75d88ab3bfc7e77fc0e60a7b5c4",
    ),
    # a long walk, no hold (min_updown=1, so moves set no hold) and the
    # widest ladder, hashed before the walk moved to integer moves
    (
        dict(family="huc", periods=1200, points=4, min_updown=3, seed=1),
        "678ca9367724199267897f0400b472ffb9006ff19f5c17bcec6e6c587a595d98",
    ),
    (
        dict(family="huc", periods=24, points=3, min_updown=1, seed=3),
        "9d65d577e6ee5bbcbce5e3d677c3b03ddaebc58c0458e8e0575f51e1b816f99c",
    ),
    (
        dict(family="huc", periods=24, points=10, min_updown=2, seed=5),
        "605efef75b3df0a8588b8174f0acd700b456837da550fc6505a20cb037646471",
    ),
]


@pytest.mark.parametrize("config,digest", PINNED_GENERATED, ids=[str(c) for c, _ in PINNED_GENERATED])
def test_generated_instances_are_pinned(config, digest):
    text = dump_json(generate(GeneratorConfig(**config)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _dumps_reference(data):
    """What ``dump_json`` must produce: the bytes of the standard encoder,
    or the exception it raises."""
    try:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _dumps(data):
    try:
        return dump_json(data)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_ODD_TEXT = ["", "%", "%s", "a%%b", '"', "\\", '\\"%', "\x00\x1f\x7f", "\u2028é", "\U0001f600", "\ud800"]
_JSON_KEYS = st.one_of(st.text(max_size=5), st.sampled_from(_ODD_TEXT))
_JSON_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(_ODD_TEXT))
# past the int digit limit, where both writers raise the same ValueError
_HUGE_INTS = st.builds(pow, st.sampled_from([10, -10]), st.just(4401))
_JSON_INTS = st.one_of(st.integers(), st.integers(-(10**40), 10**40), _HUGE_INTS)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), _JSON_INTS, _JSON_TEXT)
# the columns a list of like dicts can hold: one scalar type, two mixed
# ones, a float or a nested list
_COLUMNS = [_JSON_TEXT, _JSON_INTS, st.none(), st.booleans(), st.one_of(_JSON_TEXT, st.none()),
            st.one_of(_JSON_INTS, st.booleans()), st.floats(), st.lists(_JSON_INTS, max_size=2)]


@st.composite
def _like_dicts(draw):
    """A list of dicts that share one key set, each key drawn from one
    column strategy."""
    columns = draw(st.dictionaries(_JSON_KEYS, st.sampled_from(_COLUMNS), min_size=1, max_size=4))
    return [{key: draw(column) for key, column in columns.items()} for _ in range(draw(st.integers(1, 4)))]


_JSON_TREES = st.recursive(
    st.one_of(_JSON_SCALARS, _like_dicts()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
        # the fallback's inputs: floats and keys that are not strings
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), children, max_size=3),
        st.lists(st.one_of(st.floats(), children), max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@example([{"%": "%s", '"': 1, "\\": None}] * 2)
@example([{"k": 1}, {"k": True}, {"k": None}])
@example([{"k": 1}, {"j": 1}])
@example({"a": [{}], "b": {}, "c": []})
@example({1: "x", "1": "y"})
@given(_JSON_TREES)
def test_dump_json_renders_the_standard_encoders_bytes(data):
    """The writer's bytes are ``json.dumps(indent=2, sort_keys=True)``'s on
    any JSON tree, and an input it cannot render raises what that does."""
    assert _dumps(data) == _dumps_reference(data)


@pytest.mark.parametrize("data", [10**4400, [{"a": 1, "b": "x"}, {"a": -(10**4400), "b": "y"}]], ids=["scalar", "column"])
def test_dump_json_raises_the_standard_encoders_error_past_the_digit_limit(data):
    with pytest.raises(ValueError) as want:
        json.dumps(data, indent=2, sort_keys=True)
    with pytest.raises(ValueError) as got:
        dump_json(data)
    assert str(got.value) == str(want.value)


def test_dump_json_renders_an_instance_without_the_standard_encoder(monkeypatch):
    """Every value of a generated instance is one the writer renders
    itself; the standard encoder is only the fallback."""
    texts = [dump_json(generate(GeneratorConfig(seed=2, family=family))) for family in ("dag", "huc")]

    def refuse(*args, **kwargs):
        raise AssertionError("dump_json fell back to json.dumps")

    monkeypatch.setattr(io_module.json, "dumps", refuse)
    assert [dump_json(generate(GeneratorConfig(seed=2, family=family))) for family in ("dag", "huc")] == texts


def test_gen_dag_validates():
    for seed in range(25):
        cfg = GeneratorConfig(seed=seed, family="dag", vertices=12)
        from borwin.io import dag_from_dict

        dag = dag_from_dict(generate(cfg))
        assert validate(dag).ok


def test_gen_near_flat_prices_within_band():
    cfg = GeneratorConfig(seed=9, family="huc", periods=8, price_mode="near-flat")
    inst = huc_from_dict(generate(cfg))
    # every price sits inside [0.95, 1.05] of one drawn anchor, so the
    # spread cannot exceed the band ratio
    assert max(inst.prices) / min(inst.prices) <= F(105, 95)


def test_gen_huc_admits_feasible_schedule():
    from borwin.huc import best_schedule_bruteforce

    for seed in range(10):
        cfg = GeneratorConfig(seed=seed, family="huc", periods=4, points=3, min_updown=2)
        inst = huc_from_dict(generate(cfg))
        assert best_schedule_bruteforce(inst) is not None


# -- CLI ----------------------------------------------------------------------


def test_cli_solve_dag(capsys):
    code = main(["solve", str(WCLPP5)])
    out = capsys.readouterr().out
    assert code == 0
    assert "value: 29/1" in out
    assert "path: s,1,2,p" in out


def test_cli_solve_agreement_across_algos(capsys):
    values = {}
    for algo in ("borwin", "rcsp", "oracle"):
        code = main(["solve", str(WCLPP5), "--algo", algo, "--json"])
        assert code == 0
        values[algo] = json.loads(capsys.readouterr().out)["value"]
    assert len(set(values.values())) == 1


def test_cli_solve_huc_json(capsys):
    code = main(["solve", str(HUC5), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["value"] == "-18/5"
    assert payload["schedule"] == [1, 1, 1, 0, 0]


def test_cli_solve_infeasible_exit_code(tmp_path, capsys):
    data = json.loads(WCLPP5.read_text())
    for v in data["vertices"]:
        if v["id"] == "p":
            v["lo"], v["hi"] = 41, 45
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 2


def test_cli_reports_the_arcs_the_presolve_cut(tmp_path, capsys):
    """``arcs_cut`` tells a presolve proof (every arc cut, no pop) apart
    from an infeasibility the enumeration exhausted, in ``solve --json``
    and in the bench CSV."""
    import random

    from borwin.generate import random_dag
    from borwin.io import dag_to_dict

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    proved = generate(GeneratorConfig(seed=4, family="dag", vertices=120))
    (corpus / "proved.json").write_text(json.dumps(proved))
    rng = random.Random(840)
    searched = dag_to_dict(random_dag(rng, rng.randint(5, 40), density=rng.choice([0.3, 0.6, 0.9])))
    (corpus / "searched.json").write_text(json.dumps(searched))
    stats = {}
    for name, data in (("proved", proved), ("searched", searched)):
        assert main(["solve", str(corpus / f"{name}.json"), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "infeasible"
        stats[name] = payload["stats"]
    assert stats["proved"]["arcs_cut"] == len(proved["arcs"]) and stats["proved"]["p2_iters"] == 0
    assert 0 < stats["searched"]["arcs_cut"] < len(searched["arcs"]) and stats["searched"]["p2_iters"] > 0
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--csv", str(csv_path), "--algos", "borwin"]) == 0
    with open(csv_path) as fh:
        rows = {row["instance"]: row for row in csv.DictReader(fh)}
    for name in stats:
        assert rows[f"{name}.json"]["arcs_cut"] == str(stats[name]["arcs_cut"])


def test_cli_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [], "arcs": [], "source": "s", "sink": "p"}')
    assert main(["solve", str(path)]) == 1
    assert "vertices" in capsys.readouterr().err


MALFORMED = [
    (HUC5, "min_updown", "x", "min_updown"),
    (HUC5, "min_updown", 2.7, "min_updown"),
    (HUC5, "T", True, "T"),
    (HUC5, "initial", {"i": "a"}, "initial.i"),
    (HUC5, "initial", {"i": 1.9}, "initial.i"),
    (HUC5, "initial", [1, 2], "initial"),
    (HUC5, "points", 5, "points"),
    (HUC5, "prices", None, "prices"),
    (HUC5, "prices", "75", "prices"),
    (WCLPP5, "vertices", [1, 2], "vertices[0]"),
    (WCLPP5, "arcs", 5, "arcs"),
    (WCLPP5, "vertices.0.id", None, "vertices[0].id"),
    (WCLPP5, "vertices.0.id", 1, "vertices[0].id"),
    (WCLPP5, "arcs.0.from", 1, "arcs[0].from"),
    (WCLPP5, "source", 0, "source"),
]


def _variant(tmp_path, base, key, value):
    """Write ``base`` with the field at ``key`` set to ``value`` and return
    the file. A dotted ``key`` is a path into the instance, with list
    indices as numbers."""
    data = json.loads(base.read_text())
    *parents, last = key.split(".")
    target = data
    for part in parents:
        target = target[int(part) if part.isdigit() else part]
    target[int(last) if last.isdigit() else last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("base,key,value,field", MALFORMED, ids=[f"{k}={json.dumps(v)}" for _, k, v, _ in MALFORMED])
def test_cli_rejects_mistyped_fields(tmp_path, capsys, base, key, value, field):
    """A field of the wrong JSON type is a format error naming the field,
    never a traceback or a silently coerced value."""
    assert main(["solve", str(_variant(tmp_path, base, key, value))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


INVALID_HUC = [
    ("T", 0, "need at least one period"),
    ("points.0.D", 1, "points must start with the idle point (0, 0)"),
    ("points.1.D", 0, "non-idle points need positive flow"),
    ("min_updown", 0, "minimum hold must be at least one period"),
    ("prices", [2, "0.8", "1.7", "0.2"], "one price per period required"),
    ("win_lo", [0, 0, 7, 18], "one window per period required"),
    ("win_lo.0", 12, "window at period 1 is inverted"),
    ("initial", {"i": 3, "l": 0}, "initial point out of range"),
    ("initial", {"i": 0, "l": 3}, "initial hold out of range"),
]


@pytest.mark.parametrize("key,value,message", INVALID_HUC, ids=[m for _, _, m in INVALID_HUC])
def test_cli_rejects_invalid_huc_instances(tmp_path, capsys, key, value, message):
    """Each rule that the ``HucInstance`` constructor checks turns a
    well-typed but inconsistent commitment instance into one error line."""
    assert main(["solve", str(_variant(tmp_path, HUC5, key, value))]) == 1
    assert capsys.readouterr().err == f"error: $: {message}\n"


def test_cli_trace_env(tmp_path, capsys, monkeypatch):
    # the presolved view of this instance still needs dichotomy rounds
    path = tmp_path / "pair.json"
    path.write_text(dump_json(dag_to_dict(random_dag(random.Random(117), 2 + 117 % 11))))
    monkeypatch.setenv("BORWIN_TRACE", "1")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p1 iter=1" in out
    assert "p2 pop" in out


def test_cli_gen_and_validate(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "dag", "--seed", "5", "--vertices", "9", "--out", str(out)]) == 0
    text1 = out.read_bytes()
    assert main(["gen", "--family", "dag", "--seed", "5", "--vertices", "9", "--out", str(out)]) == 0
    assert out.read_bytes() == text1
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_warns_only_on_dag_inputs(tmp_path, capsys):
    """A commitment instance is validated on the states its initial
    state reaches, each of which reaches the sink by staying put, so
    validating it prints only the verdict. A DAG input gets its
    off-path warnings."""
    assert main(["validate", str(HUC5)]) == 0
    assert capsys.readouterr().out == "ok\n"
    data = json.loads(WCLPP5.read_text())
    data["vertices"].append({"id": "island", "lo": 0, "hi": 1})
    path = tmp_path / "island.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "ok"
    assert any("island" in line for line in out[:-1])


def test_cli_validate_rejects_cycle(tmp_path, capsys):
    data = json.loads(WCLPP5.read_text())
    data["arcs"].append({"from": "p", "to": "s", "value": 1, "resource": 1})
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert "CycleDetected" in capsys.readouterr().out


def test_cli_validate_names_a_self_loop(tmp_path, capsys):
    data = {"vertices": [{"id": "s"}, {"id": "p"}], "source": "s", "sink": "p",
            "arcs": [{"from": "s", "to": "s", "value": 1, "resource": 1},
                     {"from": "s", "to": "p", "value": 1, "resource": 1}]}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "CycleDetected: arc 0 is a self-loop\n"


def test_cli_rejects_a_top_level_array(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    with pytest.raises(InstanceFormatError) as exc:
        load_instance(path)
    assert str(exc.value) == "$: top level must be an object"
    for command in ("validate", "solve"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == "error: $: top level must be an object\n"


def test_cli_solves_an_unreachable_sink_as_infeasible(tmp_path, capsys):
    data = {"vertices": [{"id": "s"}, {"id": "a"}, {"id": "p"}], "source": "s", "sink": "p",
            "arcs": [{"from": "s", "to": "a", "value": 1, "resource": 1}]}
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps(data))
    for algo in ("borwin", "rcsp", "oracle"):
        assert main(["solve", str(path), "--json", "--algo", algo]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_cli_solve_rejects_a_cyclic_instance(tmp_path, capsys):
    data = generate(GeneratorConfig(seed=1, family="dag", vertices=6))
    back = data["arcs"][-1]
    data["arcs"].append({"from": back["to"], "to": back["from"], "value": "1", "resource": "1"})
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(data))
    for algo in ("borwin", "rcsp", "oracle"):
        assert main(["solve", str(path), "--algo", algo]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CycleDetected:") and err.count("\n") == 1


def test_cli_maps_solver_errors_to_exit_codes(capsys, monkeypatch):
    from borwin import bench
    from borwin.graph import GraphError

    def fail(dag, **kwargs):
        raise GraphError("instance is not acyclic")

    monkeypatch.setattr(bench, "solve_awclpp", fail)
    assert main(["solve", str(WCLPP5)]) == 1
    assert capsys.readouterr().err == "error: GraphError: instance is not acyclic\n"


def test_cli_maps_internal_invariant_errors_to_one_error_line(capsys, monkeypatch):
    from borwin import huc
    from borwin.phase2 import SolveStats
    from borwin.solver import OPTIMAL, AwclppSolution

    monkeypatch.setattr(huc, "solve_tight", lambda dag, **kw: AwclppSolution(OPTIMAL, None, F(0), None, SolveStats()))
    assert main(["solve", str(HUC5)]) == 1
    assert capsys.readouterr().err == "error: GraphInvariantError: an optimal solve returned no path\n"


def _malformed_dags():
    bad_source = json.loads(WCLPP5.read_text())
    bad_source["vertices"][0]["lo"] = 1
    inverted = json.loads(WCLPP5.read_text())
    sink = next(v for v in inverted["vertices"] if v["id"] == "p")
    sink["lo"], sink["hi"] = 45, 41
    cyclic = json.loads(WCLPP5.read_text())
    cyclic["arcs"].append({"from": "p", "to": "s", "value": 1, "resource": 1})
    return [
        pytest.param(bad_source, "BadSourceWindow: source window does not contain resource 0", id="bad_source"),
        pytest.param(inverted, "InvertedWindow: vertex p has lo > hi", id="inverted"),
        pytest.param(cyclic, "CycleDetected: graph contains a directed cycle", id="cyclic"),
    ]


@pytest.mark.parametrize("data,message", _malformed_dags())
def test_bench_and_solve_reject_a_malformed_dag_alike(tmp_path, capsys, data, message):
    """``bench`` validates a DAG input as ``solve`` does: one error row per
    algorithm, naming the check ``solve`` prints."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "bad.json"
    path.write_text(json.dumps(data))
    for algo in ("borwin", "rcsp", "oracle"):
        assert main(["solve", str(path), "--algo", algo]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--csv", str(csv_path)]) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["algo"], r["status"], r["error"]) for r in rows] == [
        (algo, "error", f"InvalidGraph: {message}") for algo in ("borwin", "rcsp", "oracle")
    ]


def test_cli_export_lp(tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["export-lp", str(HUC5), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("x_") > 0
    assert "flow_5" in text


def test_cli_export_lp_rejects_a_dag_instance(tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["export-lp", str(WCLPP5), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: export-lp needs a commitment instance\n"
    assert not out.exists()


def test_cli_export_lp_rejects_non_decimal_data(tmp_path, capsys):
    """LP text holds decimals only; a price of 1/3 is one error line and
    leaves no partial model behind."""
    out = tmp_path / "model.lp"
    path = _variant(tmp_path, HUC5, "prices.0", "1/3")
    assert main(["export-lp", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(" has no finite decimal representation\n")
    assert err.count("\n") == 1
    assert "prices[0]" in err
    assert not out.exists()


GEN_OUT_OF_RANGE = [
    ["--family", "huc", "--min-updown", "0"],
    ["--family", "huc", "--periods", "0"],
    ["--family", "dag", "--vertices", "1"],
    ["--family", "huc", "--points", "11"],
    ["--family", "dag", "--vertices", "8", "--density=-1"],
    ["--family", "dag", "--vertices", "8", "--density=2"],
    ["--family", "dag", "--vertices", "8", "--density=nan"],
]


@pytest.mark.parametrize("args", GEN_OUT_OF_RANGE, ids=[" ".join(a) for a in GEN_OUT_OF_RANGE])
def test_cli_gen_rejects_out_of_range_parameters(tmp_path, capsys, args):
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_gen_and_solve_a_hold_longer_than_any_horizon(tmp_path, capsys):
    """Every command compiles only the states a schedule reaches, so a
    hold of 2e9 periods takes each of them well under a second, and the
    reference algorithms agree with the solve."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    out = corpus / "x.json"
    args = ["--family", "huc", "--seed", "0", "--periods", "6", "--min-updown", "2000000000"]
    assert main(["gen", *args, "--out", str(out)]) == 0
    assert huc_from_dict(json.loads(out.read_text())).min_updown == 2 * 10**9
    capsys.readouterr()
    values = {}
    for algo in ("borwin", "rcsp", "oracle"):
        start = time.perf_counter()
        assert main(["solve", str(out), "--algo", algo, "--json"]) == 0
        assert time.perf_counter() - start < 1.0, algo
        values[algo] = json.loads(capsys.readouterr().out)["value"]
    expected = values["borwin"]
    assert values == dict.fromkeys(values, expected)
    start = time.perf_counter()
    assert main(["validate", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "ok\n"
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--csv", str(csv_path), "--algos", "borwin,rcsp,oracle"]) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["algo"], r["status"], r["value"]) for r in rows] == [
        (algo, "opt", expected) for algo in ("borwin", "rcsp", "oracle")
    ]


def test_gen_accepts_ten_points():
    """Ten points use all nine flows 1-9, the most the generator can draw."""
    inst = huc_from_dict(generate(GeneratorConfig(seed=1, family="huc", points=10)))
    assert [p.flow for p in inst.points] == list(range(10))


def test_cli_bench(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2, 3):
        main(["gen", "--family", "dag", "--seed", str(seed), "--vertices", "8",
              "--out", str(corpus / f"d{seed}.json")])
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--csv", str(csv_path), "--algos", "borwin,oracle"]) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    by_instance = {}
    for row in rows:
        assert row["status"] in ("opt", "infeasible")
        by_instance.setdefault(row["instance"], set()).add((row["status"], row["value"]))
    for outcomes in by_instance.values():
        assert len(outcomes) == 1  # algorithms agree exactly
    summary = csv_path.with_suffix(".summary.csv")
    assert summary.exists()
    with open(summary) as fh:
        srows = list(csv.DictReader(fh))
    assert all(r["algo"] in ("borwin", "oracle") for r in srows)


def test_load_instance_reports_undecodable_and_deeply_nested_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(InstanceFormatError, match=r"^\$: not UTF-8 text"):
        load_instance(path)
    path.write_text("[" * 100_000)
    with pytest.raises(InstanceFormatError, match=r"^\$: JSON nested too deeply"):
        load_instance(path)
    path.write_text(json.dumps({"vertices": [{"id": "s\u00e9"}], "arcs": [], "source": "s\u00e9", "sink": "s\u00e9"},
                               ensure_ascii=False), encoding="utf-8")
    assert load_instance(path)[1].labels == ("s\u00e9",)


def test_cli_bench_skips_undecodable_and_unreadable_files(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_bytes(b"\xff\xfe\x00")
    (corpus / "c.json").mkdir()
    main(["gen", "--family", "dag", "--seed", "1", "--vertices", "8", "--out", str(corpus / "b.json")])
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--csv", str(csv_path), "--algos", "borwin"]) == 0
    err = capsys.readouterr().err
    assert "skipping a.json: $: not UTF-8 text" in err
    assert "skipping c.json: " in err
    with open(csv_path) as fh:
        assert [row["instance"] for row in csv.DictReader(fh)] == ["b.json"]


def test_cli_bench_rejects_a_path_that_is_not_a_directory(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    for target in (tmp_path / "missing", Path(WCLPP5)):
        assert main(["bench", str(target), "--csv", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {target} is not a directory\n"
    assert not csv_path.exists()


def test_cli_bench_rejects_unknown_algorithm_names(tmp_path, capsys):
    """A name outside ``bench.ALGOS``, or no name at all, is one error
    line before any file is read, and no CSV is written."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_bytes(b"\xff\xfe\x00")  # would print a "skipping" line if read
    csv_path = tmp_path / "bench.csv"
    for algos in ("borwin,foo", ","):
        assert main(["bench", str(corpus), "--csv", str(csv_path), "--algos", algos]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --algos ") and err.count("\n") == 1, algos
    assert not csv_path.exists()
    assert not csv_path.with_suffix(".summary.csv").exists()


def test_cli_bench_rejects_a_negative_or_nan_timeout(tmp_path, capsys):
    """A bad ``--timeout-ms`` is one error line before any file is read,
    and no CSV is written; 0 and inf stay valid."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_bytes(b"\xff\xfe\x00")  # would print a "skipping" line if read
    csv_path = tmp_path / "bench.csv"
    for value in ("-5", "nan"):
        assert main(["bench", str(corpus), "--csv", str(csv_path), "--timeout-ms", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --timeout-ms ") and err.count("\n") == 1, value
    assert not csv_path.exists()
    for value in ("0", "inf"):
        assert main(["bench", str(corpus), "--csv", str(csv_path), "--timeout-ms", value]) == 0


def test_cli_bench_opens_its_outputs_before_solving(tmp_path, capsys, monkeypatch):
    from borwin import bench

    def unreachable(*args, **kwargs):
        raise AssertionError("bench solved before opening its outputs")

    monkeypatch.setattr(bench, "run_one", unreachable)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    main(["gen", "--family", "dag", "--seed", "1", "--vertices", "8", "--out", str(corpus / "d1.json")])
    capsys.readouterr()
    assert main(["bench", str(corpus), "--csv", str(tmp_path / "missing" / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_maps_os_errors_to_one_error_line(tmp_path, capsys):
    """A directory where a file is read or written is one error line."""
    for argv in (
        ["solve", str(tmp_path)],
        ["gen", "--family", "dag", "--seed", "1", "--out", str(tmp_path)],
        ["export-lp", str(HUC5), "--out", str(tmp_path)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_bench_timeout_rows():
    from borwin.bench import run_bench, write_csv
    from borwin.generate import GeneratorConfig, generate
    from borwin.io import dag_from_dict
    import io as iomod

    dag = dag_from_dict(generate(GeneratorConfig(seed=2, family="dag", vertices=12)))
    records = run_bench([("slow.json", "dag", dag)], algos=("borwin", "oracle"), timeout_ms=0.0)
    assert all(r.status == "timeout" for r in records)
    buf = iomod.StringIO()
    write_csv(records, buf)
    rows = list(csv.DictReader(iomod.StringIO(buf.getvalue())))
    assert all(r["status"] == "timeout" and r["value"] == "" for r in rows)


@pytest.mark.parametrize("algo", ["rcsp", "oracle"])
def test_bench_deadline_covers_the_commitment_compile(algo):
    """The reference algorithms' rows on a commitment instance time out
    inside its reached-graph compile, not after it."""
    from random import Random

    from borwin.bench import run_one
    from borwin.generate import random_huc

    inst = random_huc(Random(1), 20000, 5, 4)
    start = time.perf_counter()
    rec = run_one("h", "huc", inst, algo, 100)
    assert rec.status == "timeout"
    assert time.perf_counter() - start < 2.0


def test_bench_error_rows_record_the_exception():
    from borwin.bench import run_one, write_csv
    import io as iomod

    rec = run_one("bad.json", "dag", None, "nope", None)
    assert rec.status == "error"
    assert rec.error == "ValueError: unknown algorithm 'nope'"
    buf = iomod.StringIO()
    write_csv([rec], buf)
    (row,) = csv.DictReader(iomod.StringIO(buf.getvalue()))
    assert row["status"] == "error" and row["error"] == rec.error


def test_worked_example_script_runs():
    """The walkthrough script runs end to end on the bundled instances and
    prints gate c01's bounding-phase weight."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "worked_example.py")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "bounding phase: delta=1/19 " in done.stdout


# -- CLI fuzz ----------------------------------------------------------------

FUZZ_LEAVES = [None, True, False, 2**70, float("inf"), "1/0", "NaN", [], {}]


def _json_nodes(doc, at=()):
    """Every node below the root of a JSON document, as (path, node)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield at + (key,), child
        yield from _json_nodes(child, at + (key,))


@st.composite
def mutated_instances(draw):
    """A shipped instance with one to three mutations: a deleted key, a
    dropped or duplicated list element, or a leaf swapped for an odd value."""
    doc = json.loads(draw(st.sampled_from([WCLPP5, HUC5])).read_text())
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_json_nodes(doc))
        if not nodes:
            break
        path, node = draw(st.sampled_from(nodes))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        ops = ["delete"] if isinstance(parent, dict) else ["drop", "duplicate"]
        if not isinstance(node, (dict, list)):
            ops.append("swap")
        op = draw(st.sampled_from(ops))
        if op in ("delete", "drop"):
            del parent[key]
        elif op == "duplicate":
            parent.insert(key, json.loads(json.dumps(node)))
        else:
            parent[key] = draw(st.sampled_from(FUZZ_LEAVES))
    return doc


def _run_cli(argv):
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@given(mutated_instances())
@settings(max_examples=200, deadline=None)
def test_cli_survives_mutated_instances(doc):
    """No mutation of a shipped instance makes a command raise or exit
    with a code other than 0, 1 or 2, and the three solve algorithms
    agree on the exit code, the status and the value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(doc))
        answers = set()
        for algo in ("borwin", "rcsp", "oracle"):
            code, out = _run_cli(["solve", str(path), "--algo", algo, "--json"])
            assert code in (0, 1, 2), algo
            payload = json.loads(out.splitlines()[-1]) if code != 1 else {}
            answers.add((code, payload.get("status"), payload.get("value")))
        assert len(answers) == 1, answers
        assert _run_cli(["validate", str(path)])[0] in (0, 1, 2)
        assert _run_cli(["export-lp", str(path), "--out", str(Path(tmp) / "model.lp")])[0] in (0, 1, 2)
