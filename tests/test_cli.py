import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netinfer as ni
from netinfer import cli
from netinfer.cli import main
from netinfer.search import MAX_RESTARTS
from netinfer.significance import MAX_SURROGATES

from conftest import cli_env


def _chain_config(tmp_path, n=600, seed=11, eps=0.4, name="config.json"):
    doc = {
        "names": ["V1", "V2", "V3"],
        "edges": [["V1", "V2"], ["V2", "V3"]],
        "model": {"type": "coupled-logistic", "r": 4.0, "epsilon": eps},
        "process_noise_std": 1e-3,
        "obs_noise_std": 1e-3,
        "n": n,
        "burn_in": 200,
        "seed": seed,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _schema(name):
    import importlib.resources as resources
    return json.loads(
        resources.files("netinfer").joinpath(f"schemas/{name}").read_text())


# ---------------------------------------------------------------------------
# simulate

def test_simulate_shape_contract(tmp_path):
    cfg = _chain_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    ts = ni.load_csv(out / "data.csv")
    assert ts.m == 3 and ts.n == 600
    dag, names = ni.dag_from_dot((out / "truth.dot").read_text())
    assert names == ["V1", "V2", "V3"]
    assert dag.n_edges == 2
    assert (out / "run_manifest.json").exists()


def test_simulate_invalid_epsilon_names_field(tmp_path, capsys):
    cfg = _chain_config(tmp_path, eps=1.5)
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("n", "abc"),
    ("seed", "x"),
    ("obs_noise_std", "x"),
    ("edges", [["V1"]]),
    ("initial_states", ["a", 0.2, 0.3]),
    ("names", [["x"], "V2", "V3"]),
    ("model", {"type": "linear-gaussian", "self_weight": 0.5,
               "coupling": [["a", 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("model", {"type": "linear-gaussian", "self_weight": 0.5}),
    # json writes NaN, and Python's json reads it back
    ("model", {"type": "linear-gaussian", "self_weight": float("nan"),
               "coupling": [[0, 0, 0], [0.2, 0, 0], [0, 0.2, 0]]}),
])
def test_simulate_config_parse_error_exits_1(tmp_path, field, value):
    cfg = _chain_config(tmp_path)
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    doc[field] = value
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer", "simulate", "--config", str(cfg),
         "--out-dir", str(tmp_path / "x")],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and field in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("n", 2000), ("n", 2000.0), ("n", 2000.9), ("n", "2000"), ("n", True),
    ("burn_in", 10.7), ("burn_in", 10.0), ("seed", False), ("seed", 3.0),
    ("obs_noise_std", True), ("obs_noise_std", "0.001"), ("process_noise_std", 0),
    ("model", [["type", "coupled-logistic"]]),
    ("model", {"type": "coupled-logistic", "r": True, "epsilon": 0.4}),
    ("model", {"type": "linear-gaussian", "self_weight": "0.5",
               "coupling": [[0, 0, 0], [0.2, 0, 0], [0, 0.2, 0]]}),
    ("model", {"type": "linear-gaussian", "self_weight": 0.5,
               "coupling": [[0, 0, 0], [True, 0, 0], [0, 0.2, 0]]}),
    ("model", {"type": "linear-gaussian", "self_weight": 0,
               "coupling": [[0, 0, 0], [1, 0, 0], [0, 0.2, 0]]}),
    ("initial_states", ["0.5", 0.25, 0.5]), ("initial_states", [True, 0.25, 0.5]),
    ("initial_states", [1, 0, 0.5]), ("burnin", 5), ("seed", -1),
    ("manifest", "run_manifest.json"), ("manifest", 5),
    ("model", {"type": "coupled-logistic", "r": 4, "epsilon": 0.4, "x": 1}),
    ("model", {"type": "linear-gaussian", "self_weight": 0.5, "r": 4,
               "coupling": [[0, 0, 0], [0.2, 0, 0], [0, 0.2, 0]]}),
])
def test_simulate_accepts_exactly_what_the_config_schema_accepts(
        tmp_path, capsys, field, value):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema("sim_config.schema.json")
    doc = json.loads(_chain_config(tmp_path).read_text(encoding="utf-8"))
    doc[field] = value
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    valid = jsonschema.Draft7Validator(schema).is_valid(doc)
    assert code == (0 if valid else 1)
    if valid:
        jsonschema.validate(json.loads((out / "config.json").read_text()), schema)
    else:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err
        assert not out.exists()


@pytest.mark.parametrize("field, value, code, says", [
    ("n", 10**400, 1, "n is too large for a float"),
    ("burn_in", 10**400, 1, "burn_in is too large for a float"),
    ("seed", 10**400, 1, "seed is too large for a float"),
    ("model", {"type": "coupled-logistic", "r": 10**400, "epsilon": 0.4}, 1,
     "r is too large for a float"),
    ("initial_states", [0.5, 10**400, 0.5], 1,
     "each initial_states entry is too large for a float"),
    # fails in numpy's shape check, before any memory is taken
    ("n", 1e300, 2, "cannot allocate"),
    ("model", {"type": "coupled-logistic", "r": 4, "epsilon": 0.4, "x": 1}, 1,
     "has no field 'x'"),
    ("model", {"type": "linear-gaussian", "self_weight": 0.5, "r": 4,
               "coupling": [[0, 0, 0], [0.2, 0, 0], [0, 0.2, 0]]}, 1,
     "has no field 'r'"),
], ids=["n-huge", "burn_in-huge", "seed-huge", "r-huge", "initial_states-huge",
        "n-1e300", "logistic-field-x", "gaussian-field-r"])
def test_simulate_config_beyond_reach_exits_with_one_line(
        tmp_path, capsys, field, value, code, says):
    doc = json.loads(_chain_config(tmp_path).read_text(encoding="utf-8"))
    doc[field] = value
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and says in err
    assert not out.exists()


def test_simulate_echoed_config_simulates_the_same_data(tmp_path):
    # the echo carries a "manifest" field, which the config accepts
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(_chain_config(tmp_path)),
                 "--out-dir", str(a)]) == 0
    assert "manifest" in json.loads((a / "config.json").read_text())
    assert main(["simulate", "--config", str(a / "config.json"),
                 "--out-dir", str(b)]) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()


def test_simulate_same_seed_byte_identical(tmp_path):
    cfg = _chain_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(b)]) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.dot").read_bytes() == (b / "truth.dot").read_bytes()


# sha256 of data.csv for the benchmark's M=5 tree config at n=2000, seed 7.
# It pins the CSV text: the benchmark's expected outputs hash only what infer
# makes of the parsed CSV.
_TREE_M5_DATA_SHA256 = "479f25c3bbcb20879ef93f4ef4ac94d9491fcae037b4354cb8e93825908fdb6e"


def test_simulate_data_bytes_are_pinned(tmp_path):
    doc = {
        "names": ["V1", "V2", "V3", "V4", "V5"],
        "edges": [["V1", "V2"], ["V2", "V3"], ["V2", "V4"], ["V4", "V5"]],
        "model": {"type": "coupled-logistic", "r": 4.0, "epsilon": 0.4},
        "process_noise_std": 1e-3,
        "obs_noise_std": 1e-3,
        "n": 2000,
        "burn_in": 1000,
        "seed": 7,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 0
    data = (tmp_path / "run" / "data.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _TREE_M5_DATA_SHA256


def test_importing_the_cli_loads_no_scipy_module():
    # simulate, eval and discrete te/tee use neither; scipy.spatial alone
    # takes about half a second to import
    code = ("import sys, netinfer.cli; print([m for m in sys.modules "
            "if m in ('scipy.spatial', 'scipy.special')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(), check=True)
    assert proc.stdout == "[]\n"


def test_infer_reads_a_csv_with_a_byte_order_mark(tmp_path):
    doc = json.loads(_chain_config(tmp_path).read_text(encoding="utf-8"))
    doc["names"], doc["edges"] = ["V1", "V2"], [["V1", "V2"]]
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(sim)]) == 0
    data = sim / "data.csv"
    data.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())  # as Excel saves it
    out = tmp_path / "run"
    assert main(["infer", "--data", str(data), "--out-dir", str(out),
                 "--score", "tea", "--bins", "4"]) == 0
    assert main(["eval", "--inferred", str(out / "inferred.dot"),
                 "--truth", str(sim / "truth.dot")]) == 0


def test_simulate_outputs_validate_against_schemas(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    cfg = _chain_config(tmp_path)
    out = tmp_path / "run"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    jsonschema.validate(json.loads((out / "config.json").read_text()),
                        _schema("sim_config.schema.json"))
    jsonschema.validate(json.loads((out / "run_manifest.json").read_text()),
                        _schema("run_manifest.schema.json"))


# ---------------------------------------------------------------------------
# score

@pytest.fixture()
def simulated(tmp_path):
    cfg = _chain_config(tmp_path, n=2000)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return out


def _write_dot(path, m, edges, names=("V1", "V2", "V3")):
    path.write_text(ni.write_dot(ni.Dag.from_edges(m, edges), names[:m]))
    return path


def test_score_empty_graph_tee_zero(tmp_path, simulated, capsys):
    empty = _write_dot(tmp_path / "empty.dot", 3, [])
    report_path = tmp_path / "report.json"
    code = main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(empty), "--score", "tee", "--bins", "4",
                 "--surrogates", "19", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["total"] == 0.0
    assert "total = 0.000000" in capsys.readouterr().out


def test_score_chain_beats_empty(tmp_path, simulated):
    empty = _write_dot(tmp_path / "empty.dot", 3, [])
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    outs = {}
    for name, dot in (("empty", empty), ("chain", chain)):
        path = tmp_path / f"{name}.json"
        assert main(["score", "--data", str(simulated / "data.csv"),
                     "--graph", str(dot), "--score", "tee", "--bins", "4",
                     "--surrogates", "19", "--seed", "3",
                     "--out", str(path)]) == 0
        outs[name] = json.loads(path.read_text())
    assert outs["chain"]["total"] > outs["empty"]["total"]


def test_score_deterministic_json(tmp_path, simulated):
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["score", "--data", str(simulated / "data.csv"), "--graph",
            str(chain), "--score", "tee", "--bins", "4", "--surrogates", "19",
            "--seed", "5"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    a.pop("manifest"); b.pop("manifest")
    assert a == b


@pytest.mark.parametrize("argv", [
    ["score", "--score", "tea"],
    ["infer", "--search", "exhaustive", "--score", "tea"],
    ["infer", "--score", "tee", "--surrogates", "19"],
    ["simulate"],
])
def test_negative_seed_exits_1_on_every_command(tmp_path, simulated, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "simulate":
        argv = argv + ["--config", str(_chain_config(tmp_path)), "--out-dir", str(out)]
    elif argv[0] == "score":
        argv = argv + ["--data", str(simulated / "data.csv"), "--graph",
                       str(simulated / "truth.dot"), "--bins", "4", "--out", str(out)]
    else:
        argv = argv + ["--data", str(simulated / "data.csv"), "--bins", "4",
                       "--out-dir", str(out)]
    assert main(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


def test_score_vertex_name_mismatch(tmp_path, simulated, capsys):
    bad = tmp_path / "bad.dot"
    bad.write_text(ni.write_dot(ni.Dag.from_edges(2, [(0, 1)]), ["A", "B"]))
    code = main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(bad), "--score", "te", "--bins", "4"])
    assert code == 1
    assert "names do not match" in capsys.readouterr().err


def test_score_tea_box_kernel_rejected(tmp_path, simulated, capsys):
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    code = main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(chain), "--score", "tea",
                 "--estimator", "box-kernel"])
    assert code == 1
    assert "tee" in capsys.readouterr().err


def test_score_tea_linear_gaussian_allowed(tmp_path, simulated):
    # the analytic test is defined for linearly-coupled Gaussians too
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    path = tmp_path / "r.json"
    assert main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(chain), "--score", "tea",
                 "--estimator", "linear-gaussian", "--alpha", "0.9",
                 "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["estimator"] == "linear-gaussian"


def test_score_ic_requires_discrete_estimator(tmp_path, simulated, capsys):
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    code = main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(chain), "--score", "bic",
                 "--estimator", "linear-gaussian"])
    assert code == 1
    assert "discrete" in capsys.readouterr().err


def test_score_discrete_needs_bins(tmp_path, simulated, capsys):
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    code = main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(chain), "--score", "te"])
    assert code == 1
    assert "--bins" in capsys.readouterr().err


def test_score_report_schema(tmp_path, simulated):
    jsonschema = pytest.importorskip("jsonschema")
    chain = _write_dot(tmp_path / "chain.dot", 3, [(0, 1), (1, 2)])
    path = tmp_path / "r.json"
    assert main(["score", "--data", str(simulated / "data.csv"),
                 "--graph", str(chain), "--score", "tea", "--bins", "4",
                 "--out", str(path)]) == 0
    jsonschema.validate(json.loads(path.read_text()),
                        _schema("score_report.schema.json"))


# ---------------------------------------------------------------------------
# infer

def test_infer_single_vertex_returns_empty_graph(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "one.csv"
    ni.write_csv(ni.TimeSeriesSet([rng.random(200)], ["only"]), data)
    out = tmp_path / "run"
    assert main(["infer", "--data", str(data), "--out-dir", str(out),
                 "--search", "exhaustive", "--score", "tee", "--bins", "4",
                 "--surrogates", "19"]) == 0
    dag, names = ni.dag_from_dot((out / "inferred.dot").read_text())
    assert names == ["only"]
    assert dag.n_edges == 0


def test_infer_exhaustive_recovers_chain(tmp_path, simulated):
    out = tmp_path / "run"
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(out), "--search", "exhaustive",
                 "--score", "tea", "--bins", "4"]) == 0
    inferred, _ = ni.dag_from_dot((out / "inferred.dot").read_text())
    truth, _ = ni.dag_from_dot((simulated / "truth.dot").read_text())
    assert inferred.edges() == truth.edges()


def test_infer_te_without_cap_warns_and_completes(tmp_path, simulated, capsys):
    out = tmp_path / "run"
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(out), "--search", "greedy",
                 "--score", "te", "--bins", "4"]) == 0
    err = capsys.readouterr().err
    assert "complete graph" in err
    inferred, _ = ni.dag_from_dot((out / "inferred.dot").read_text())
    assert inferred.n_edges == 3  # complete DAG on three vertices


def test_infer_exhaustive_rejects_max_parents(tmp_path, simulated, capsys):
    out = tmp_path / "run"
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(out), "--search", "exhaustive",
                 "--score", "te", "--bins", "4", "--max-parents", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --max-parents") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("restarts", ["0", "3"])
def test_infer_exhaustive_rejects_restarts(tmp_path, simulated, capsys, restarts):
    # an explicit --restarts, even 0, has no meaning without greedy search
    out = tmp_path / "run"
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(out), "--search", "exhaustive",
                 "--score", "tea", "--bins", "4", "--restarts", restarts]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --restarts") and err.count("\n") == 1
    assert not out.exists()


def test_infer_refuses_restarts_past_the_bound_at_once(tmp_path, simulated):
    # a count this large once climbed until the process was killed; the
    # timeout turns a return of that into a failure rather than a hang
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer", "infer", "--data",
         str(simulated / "data.csv"), "--out-dir", str(out),
         "--score", "tea", "--bins", "4", "--restarts", "100000000000"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == (f"error: restarts must be <= {MAX_RESTARTS}, "
                           "got 100000000000\n")
    assert not out.exists()


def test_infer_exhaustive_te_warning_names_no_cap(tmp_path, simulated, capsys):
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(tmp_path / "run"), "--search", "exhaustive",
                 "--score", "te", "--bins", "4"]) == 0
    err = capsys.readouterr().err
    assert "complete graph" in err and "--max-parents" not in err


def test_infer_greedy_te_warning_names_the_cap(tmp_path, capsys):
    # five vertices: the "auto" cap of 3 parents binds below the four possible
    doc = json.loads(_chain_config(tmp_path).read_text(encoding="utf-8"))
    doc["names"] = ["V1", "V2", "V3", "V4", "V5"]
    doc["edges"] = [["V1", "V2"], ["V2", "V3"], ["V3", "V4"], ["V4", "V5"]]
    cfg = tmp_path / "chain5.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "sim")]) == 0
    out = tmp_path / "run"
    assert main(["infer", "--data", str(tmp_path / "sim" / "data.csv"),
                 "--out-dir", str(out), "--search", "greedy",
                 "--score", "te", "--bins", "4"]) == 0
    err = capsys.readouterr().err
    assert "complete graph" in err and "capped at 3 parents per vertex" in err
    inferred, _ = ni.dag_from_dot((out / "inferred.dot").read_text())
    assert max(len(ps) for ps in inferred.parents) == 3


def test_infer_low_surrogate_count_warns_in_one_line(tmp_path, simulated):
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer", "infer", "--data",
         str(simulated / "data.csv"), "--out-dir", str(tmp_path / "run"),
         "--score", "tee", "--bins", "4", "--surrogates", "5", "--alpha", "0.95"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("warning: surrogate count 5 is below the "
                                  "recommended minimum")


def test_infer_outputs_validate_against_schemas(tmp_path, simulated):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "run"
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(out), "--search", "greedy",
                 "--score", "tea", "--bins", "4"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "visited" in report
    jsonschema.validate(report, _schema("score_report.schema.json"))
    jsonschema.validate(json.loads((out / "run_manifest.json").read_text()),
                        _schema("run_manifest.schema.json"))


def test_infer_exhaustive_too_many_vertices(tmp_path, capsys):
    rng = np.random.default_rng(1)
    data = tmp_path / "wide.csv"
    ni.write_csv(ni.TimeSeriesSet(rng.random((7, 50))), data)
    code = main(["infer", "--data", str(data), "--out-dir", str(tmp_path / "x"),
                 "--search", "exhaustive", "--score", "te", "--bins", "2"])
    assert code == 1
    assert "greedy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

def test_eval_identical(tmp_path, capsys):
    dot = _write_dot(tmp_path / "g.dot", 3, [(0, 1), (1, 2)])
    out = tmp_path / "metrics.json"
    assert main(["eval", "--inferred", str(dot), "--truth", str(dot),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["f1"] == 1.0
    assert doc["shd"] == 0


def test_eval_reversed_edge(tmp_path):
    truth = _write_dot(tmp_path / "t.dot", 2, [(0, 1)], names=("V1", "V2"))
    inferred = _write_dot(tmp_path / "i.dot", 2, [(1, 0)], names=("V1", "V2"))
    out = tmp_path / "m.json"
    assert main(["eval", "--inferred", str(inferred), "--truth", str(truth),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["shd"] == 1


def test_eval_empty_inference_recall_zero(tmp_path):
    truth = _write_dot(tmp_path / "t.dot", 3, [(0, 1), (1, 2)])
    empty = _write_dot(tmp_path / "e.dot", 3, [])
    out = tmp_path / "m.json"
    assert main(["eval", "--inferred", str(empty), "--truth", str(truth),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["recall"] == 0.0
    assert doc["shd"] == 2


def test_eval_vertex_mismatch(tmp_path, capsys):
    truth = _write_dot(tmp_path / "t.dot", 2, [(0, 1)], names=("V1", "V2"))
    other = tmp_path / "o.dot"
    other.write_text(ni.write_dot(ni.Dag.from_edges(2, [(0, 1)]), ["A", "B"]))
    assert main(["eval", "--inferred", str(other), "--truth", str(truth)]) == 1


def test_eval_metrics_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    dot = _write_dot(tmp_path / "g.dot", 3, [(0, 1)])
    out = tmp_path / "m.json"
    main(["eval", "--inferred", str(dot), "--truth", str(dot), "--out", str(out)])
    jsonschema.validate(json.loads(out.read_text()),
                        _schema("metrics.schema.json"))


def test_usage_error_is_validation_exit(capsys):
    assert main(["score", "--data", "x.csv"]) == 1  # missing --graph


# ---------------------------------------------------------------------------
# malformed input files

@pytest.mark.parametrize("command, role", [
    ("infer", "data"), ("score", "graph"), ("eval", "inferred"),
    ("eval", "truth"), ("simulate", "config"),
])
def test_non_utf8_input_exits_1_with_one_line(tmp_path, simulated, capsys,
                                              command, role):
    good = {"data": str(simulated / "data.csv"),
            "graph": str(simulated / "truth.dot"),
            "inferred": str(simulated / "truth.dot"),
            "truth": str(simulated / "truth.dot"),
            "config": str(_chain_config(tmp_path))}
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff" + b"V1,V2,V3\n0.1,0.2,0.3\n")
    good[role] = str(bad)
    flags = {"infer": ["data"], "score": ["data", "graph"],
             "eval": ["inferred", "truth"], "simulate": ["config"]}[command]
    argv = [command] + [a for f in flags for a in (f"--{f}", good[f])]
    if command in ("infer", "simulate"):
        argv += ["--out-dir", str(tmp_path / "out")]
    if command in ("infer", "score"):
        argv += ["--score", "tea", "--bins", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def test_narrow_range_column_exits_1_with_one_line(tmp_path):
    # the range of V1 is one subnormal step: half of it underflows to 0
    data = tmp_path / "narrow.csv"
    rows = [f"{[0.0, 0.0, 5e-324][t % 3]!r},{t % 7 / 7}" for t in range(60)]
    data.write_text("V1,V2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer", "infer", "--data", str(data),
         "--score", "tea", "--bins", "2", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1
    assert "series 'V1': cannot split the range" in proc.stderr


def test_deeply_nested_config_exits_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command in ("infer", "simulate")
     for name in ('a"b', "a//b", "a\nb")]
    # load_csv strips header cells and reads UTF-8, so only a config can
    # carry edge spaces or a lone surrogate
    + [("simulate", " V1"), ("simulate", "V1 "), ("simulate", "\ud800")])
def test_dot_unsafe_name_exits_1_with_one_line(tmp_path, capsys, command, name):
    if command == "infer":
        data = tmp_path / "data.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # quotes the line break and the quote
            writer.writerow([name, "V2"])
            writer.writerows(np.random.default_rng(3).random((50, 2)).tolist())
        argv = ["infer", "--data", str(data), "--score", "tea", "--bins", "2"]
    else:
        doc = json.loads(_chain_config(tmp_path).read_text(encoding="utf-8"))
        doc["names"][0] = name
        doc["edges"][0][0] = name
        config = tmp_path / "named.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["simulate", "--config", str(config)]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(name) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "score", "simulate"])
def test_cyclic_graph_exits_1_with_one_line(tmp_path, simulated, capsys, command):
    if command == "simulate":
        doc = json.loads(_chain_config(tmp_path).read_text(encoding="utf-8"))
        doc["edges"] = [["V1", "V2"], ["V2", "V1"]]
        config = tmp_path / "cyclic.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), "--out-dir", str(out)]
    else:
        cyclic = tmp_path / "cyclic.dot"
        cyclic.write_text('digraph G {\n  "V1";\n  "V2";\n  "V3";\n'
                          '  "V1" -> "V2";\n  "V2" -> "V1";\n}\n', encoding="utf-8")
        out = tmp_path / "out.json"
        if command == "eval":
            argv = ["eval", "--inferred", str(cyclic),
                    "--truth", str(simulated / "truth.dot")]
        else:
            argv = ["score", "--data", str(simulated / "data.csv"),
                    "--graph", str(cyclic), "--score", "tea", "--bins", "2"]
        argv += ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "acyclic" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, code, says", [
    # rejected before any of the 10**20 bin edges is built
    (["--bins", "99999999999999999999"], 1,
     "bins for subsystem 'V1' must be at most the series length 2000"),
    # refused before any draw: drawn one after another, 10**11 surrogates
    # would run for years and 10**7 for hours
    (["--bins", "2", "--surrogates", "100000000000"], 1,
     f"surrogate count must be <= {MAX_SURROGATES}, got 100000000000"),
    (["--bins", "2", "--surrogates", "10000000"], 1,
     f"surrogate count must be <= {MAX_SURROGATES}, got 10000000"),
], ids=["bins", "surrogates", "surrogates-ten-million"])
def test_count_beyond_reach_exits_with_one_line(tmp_path, simulated, flags,
                                                code, says):
    out = tmp_path / "out"
    argv = ["infer", "--data", str(simulated / "data.csv"), "--out-dir", str(out),
            "--search", "exhaustive", "--score", "tee", *flags]
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer", *argv],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == code
    assert proc.stderr.count("\n") == 1 and says in proc.stderr, proc.stderr
    assert not out.exists()


def test_memory_error_exits_2_with_one_line(tmp_path, simulated, capsys,
                                            monkeypatch):
    # no count reaches the MemoryError handler any more, so a step of infer
    # is made to fail as an allocation past memory would
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "delay_embed", exhausted)
    out = tmp_path / "out"
    assert main(["infer", "--data", str(simulated / "data.csv"),
                 "--out-dir", str(out), "--score", "tea", "--bins", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: out of memory (a size or count is too "
                            "large to allocate)\n")
    assert captured.out == ""
    assert not out.exists()


def _assert_clean_exit(argv):
    """Run the CLI in-process: no exception may escape, the exit code must be
    documented, and stderr must be at most one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()


def _file_bytes(lines):
    """Arbitrary bytes, arbitrary text, or text of the file's own format."""
    return st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(lambda t: t.encode("utf-8")),
        lines.map(lambda ls: "\n".join(ls).encode("utf-8")),
    )


def _csv_lines(header, rows, bad):
    if bad is not None:
        rows.insert(bad[0], bad[1])
    return [header] + rows


_CSV_LINES = st.builds(
    _csv_lines,
    st.just("V1,V2") | st.sampled_from(["V1,V1", "V1", "V1,", "V1,V2,V3"]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda r: f"{r[0]},{r[1]}"), max_size=12),
    st.none() | st.tuples(st.integers(0, 12), st.sampled_from(
        ["0.5,x", "nan,1", "1_0,2", "1", "1e308,-1e308", '"1\n2",1', ""])),
)
_DOT_LINES = st.lists(st.sampled_from([
    "digraph G {", "}", '"V1";', '"V2";', '"V1" -> "V2";', '"V2" -> "V1";',
    '"V1" -> "V1";', '"V3" -> "V1";', "// note", "node", '"V1" -> ;']),
    max_size=10)
_CONFIG_LINES = st.lists(st.sampled_from(
    ['{', '}', '"names": ["V1"],', '"n": 5', ",", "[", "]"]), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(deadline=None, max_examples=60)
@given(_file_bytes(_CSV_LINES))
def test_fuzz_infer_data_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        _assert_clean_exit(["infer", "--data", path, "--out-dir",
                            os.path.join(tmp, "out"), "--score", "tea",
                            "--bins", "2", "--kappa", "1"])


@settings(deadline=None, max_examples=60)
@given(_file_bytes(_DOT_LINES), st.booleans())
def test_fuzz_eval_dot_files(data, as_truth):
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed = os.path.join(tmp, "fuzzed.dot")
        good = os.path.join(tmp, "good.dot")
        with open(fuzzed, "wb") as fh:
            fh.write(data)
        with open(good, "w", encoding="utf-8") as fh:
            fh.write(ni.write_dot(ni.Dag.from_edges(2, [(0, 1)]), ("V1", "V2")))
        truth, inferred = (fuzzed, good) if as_truth else (good, fuzzed)
        _assert_clean_exit(["eval", "--inferred", inferred, "--truth", truth])


@settings(deadline=None, max_examples=60)
@given(st.one_of(
    _file_bytes(_CONFIG_LINES),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
    st.tuples(st.sampled_from(["names", "edges", "model", "n", "burn_in", "seed",
                               "process_noise_std", "obs_noise_std",
                               "initial_states"]), _JSON_VALUES),
))
def test_fuzz_simulate_config(case):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        if isinstance(case, tuple):  # a valid config with one field replaced
            field, value = case
            doc = {"names": ["V1", "V2"], "edges": [["V1", "V2"]],
                   "model": {"type": "coupled-logistic", "r": 4.0, "epsilon": 0.4},
                   "n": 50, "burn_in": 10, "seed": 0}
            doc[field] = value
            case = json.dumps(doc).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(case)
        _assert_clean_exit(["simulate", "--config", path, "--out-dir",
                            os.path.join(tmp, "out")])
