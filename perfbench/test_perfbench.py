"""Self-tests of the benchmark, each workload at a tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from netinfer import cli, scores, search, timeseries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_N = {"exhaustive-tea-m5": 2000, "greedy-tee-m5": 2000, "box-tee-m3": 600}


def tiny(workload):
    flags = list(workload.infer_flags)
    if "--surrogates" in flags:
        flags[flags.index("--surrogates") + 1] = "19"
    return replace(workload, n=TINY_N[workload.name], infer_flags=tuple(flags))


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, workload in WORKLOADS.items():
        monkeypatch.setitem(WORKLOADS, name, tiny(workload))
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "load_expected", lambda: {})


def _result(capsys, argv):
    code = run.main(argv)
    out = capsys.readouterr().out.splitlines()
    return code, out, json.loads(out[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tiny_workloads, capsys,
                                               workload, trace):
    code, out, result = _result(capsys, ["--workload", workload, "--seconds", "0",
                                         "--trace", str(trace)])
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 1)
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in out), name


def test_traced_run_restores_every_original(tiny_workloads, capsys):
    originals = (cli.load_csv, cli.discretize, cli.delay_embed,
                 cli.exhaustive_search, cli.greedy_hill_climb, cli.simulate,
                 scores.conditional_entropy, scores.surrogate_te_samples,
                 scores.Scorer.__dict__["local"], search.enumerate_dags)
    code, _, _ = _result(capsys, ["--workload", "greedy-tee-m5",
                                  "--seconds", "0", "--trace", "1"])
    assert code == 0
    assert (cli.load_csv, cli.discretize, cli.delay_embed,
            cli.exhaustive_search, cli.greedy_hill_climb, cli.simulate,
            scores.conditional_entropy, scores.surrogate_te_samples,
            scores.Scorer.__dict__["local"], search.enumerate_dags) == originals
    assert cli.load_csv is timeseries.load_csv


def test_traced_layers_land_where_the_workload_says(tiny_workloads, tmp_path):
    ex, _ = bench.run_workload(WORKLOADS["exhaustive-tea-m5"], 7, 0, True,
                               tmp_path / "ex", None)
    gr, _ = bench.run_workload(WORKLOADS["greedy-tee-m5"], 7, 0, True,
                               tmp_path / "gr", None)
    ex, gr = ex["metrics"], gr["metrics"]
    assert ex["graph.dags_enumerated"] == 29281
    assert ex["scores.local_calls"] == 29281 * 5 + 5
    assert ex["scores.cache_hits"] + ex["scores.cache_misses"] == ex["scores.local_calls"]
    assert ex["significance.populations"] == 0
    assert gr["graph.dags_enumerated"] == 0
    assert gr["significance.surrogates"] == 19 * gr["significance.populations"] > 0


def test_missing_span_fails_the_traced_run(tiny_workloads, tmp_path):
    greedy = WORKLOADS["greedy-tee-m5"]
    wants_enumeration = replace(
        greedy, expected_spans=greedy.expected_spans + (spans.ENUM_SPAN,))
    result, lines = bench.run_workload(wants_enumeration, 7, 0, True,
                                       tmp_path / "w", None)
    assert not result["correct"]
    assert any(spans.ENUM_SPAN in line for line in lines)


def test_changed_output_bytes_count_as_failed_ops(tiny_workloads, tmp_path):
    wrong = {"digests": {"inferred.dot": "0" * 64, "report.json": "0" * 64},
             "shd": 0}
    result, _ = bench.run_workload(WORKLOADS["box-tee-m3"], 7, 0, False,
                                   tmp_path / "w", wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box-tee-m3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
