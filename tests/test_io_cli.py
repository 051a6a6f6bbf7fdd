import csv
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from borwin.cli import main
from borwin.generate import GeneratorConfig, generate
from borwin.graph import validate
from borwin.io import (
    InstanceFormatError,
    dag_from_dict,
    dag_to_dict,
    dump_json,
    huc_from_dict,
    huc_to_dict,
    load_instance,
)

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


# -- generator ---------------------------------------------------------------


def test_gen_deterministic_bytes():
    cfg = GeneratorConfig(seed=1, family="dag", vertices=12)
    assert dump_json(generate(cfg)) == dump_json(generate(cfg))
    cfg = GeneratorConfig(seed=1, family="huc", periods=5)
    assert dump_json(generate(cfg)) == dump_json(generate(cfg))


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
    """Each rule of ``HucInstance.check`` turns a well-typed but
    inconsistent commitment instance into one error line."""
    assert main(["solve", str(_variant(tmp_path, HUC5, key, value))]) == 1
    assert capsys.readouterr().err == f"error: $: {message}\n"


def test_cli_trace_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BORWIN_TRACE", "1")
    assert main(["solve", str(WCLPP5)]) == 0
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
    from borwin import cli
    from borwin.graph import GraphError

    def fail(dag, **kwargs):
        raise GraphError("instance is not acyclic")

    monkeypatch.setattr(cli, "solve_awclpp", fail)
    assert main(["solve", str(WCLPP5)]) == 1
    assert capsys.readouterr().err == "error: GraphError: instance is not acyclic\n"


def test_cli_export_lp(tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["export-lp", str(HUC5), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("x_") > 0
    assert "flow_5" in text


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
