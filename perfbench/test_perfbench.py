"""Smoke tests of the benchmark itself, at toy sizes (a few seconds in all).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench_harness as harness  # noqa: E402
import bench_workloads as workloads  # noqa: E402
from bench_clock import Clock  # noqa: E402
from bench_spans import LAYER_UNITS, NullTracer  # noqa: E402

import proxsplit  # noqa: E402
from proxsplit import cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = (
    "data.nnz", "sampling.draws", "prox.loss_prox.elements", "dr.block_solve.calls",
    "model.objective.calls", "trace.records", "dr.iters_to_target",
)


def _smoke(name, trace, tmp_path, seed=0):
    result, record = harness.run_workload(name, seed, 0, trace, smoke=True, work_root=tmp_path)
    json.dumps(result)  # the result line must serialise
    return result, record


def test_declared_workloads_and_metrics_match_the_harness():
    assert sorted(WORKLOADS) == sorted(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(name, tmp_path):
    for trace, units in ((0, harness.END_TO_END_UNITS), (1, LAYER_UNITS)):
        result, record = _smoke(name, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 3
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if name == "wide-fullbatch":
        assert result["metrics"]["sampling.draws"]["value"] == 0
    else:
        assert result["metrics"]["sampling.draws"]["value"] > 0


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    first, _ = _smoke("w8a-train", 1, tmp_path, seed=3)
    second, _ = _smoke("w8a-train", 1, tmp_path, seed=3)
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_nan_in_w_counts_as_failed(tmp_path, monkeypatch):
    clean_run = proxsplit.dr.run

    def corrupted(*args, **kwargs):
        w, trace = clean_run(*args, **kwargs)
        w[0] = np.nan
        return w, trace

    monkeypatch.setattr(proxsplit.dr, "run", corrupted)
    result, record = _smoke("wide-fullbatch", 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "dr: non-finite w" in record["failures"]


def test_train_sequence_writes_the_cli_model(tmp_path):
    spec = workloads.SMOKE_SPECS["w8a-train"]
    prep = workloads.prepare(spec, 5, str(tmp_path))
    rep = workloads.run_rep(prep, NullTracer(), Clock(), str(tmp_path))
    assert rep.runs[0].ok, rep.runs[0].failures
    out = tmp_path / "cli"
    flags = [
        "train", "--data", prep.libsvm_path, "--loss", spec.loss, "--reg", "l1",
        "--lambda", repr(spec.lam), "--blocks", str(spec.blocks), "--batch", str(spec.batch),
        "--iters", str(spec.iters), "--seed", "5", "--gamma", repr(spec.gamma),
        "--tau", repr(spec.tau), "--rho", repr(spec.rho), "--trace-stride", str(spec.stride),
        "--out", str(out),
    ]
    assert cli.main(flags) == 0
    assert (out / "model.txt").read_bytes() == (tmp_path / "model.txt").read_bytes()


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-fullbatch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
