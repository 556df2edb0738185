"""Self-tests of the benchmark.  Not part of the tier-1 suite; run with

    python3 -m pytest perfbench -q

from the repository root.  They start short benchmark runs (a few seconds
of timed work each), so the file takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Counts that depend only on the program and the seed, never on timing.
DETERMINISTIC = (".calls", ".retained_mb", "tensor.tape.nodes", "models.checkpoint_bytes")


def _run(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, (json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else None)


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_b():
    return [_run("train-b", 3, 4, 1) for _ in range(2)]


def test_untraced_run_prints_every_end_to_end_metric(spec):
    proc, result = _run("train-b", 5, 2, 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(spec, traced_b):
    proc, result = traced_b[0]
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == tracing.per_layer_units()
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units


def test_traced_counts_repeat_exactly_for_one_seed(traced_b):
    (_, first), (_, second) = traced_b
    a, b = _values(first), _values(second)
    counts = [n for n in a if n.endswith(DETERMINISTIC) or n in DETERMINISTIC]
    assert len(counts) > 20
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert a["tensor.conv2d_transpose.calls"] > 0 and a["tensor.tape.nodes"] > 0


def _span_names(workload, seed):
    with open(bench.OUT / f"spans-{workload}-{seed}.jsonl") as f:
        return {json.loads(line)[0] for line in f}


def test_bilinear_upsample_runs_on_train_b(traced_b):
    assert "tensor.bilinear_upsample" in _span_names("train-b", 3)


@pytest.mark.parametrize("workload", ["train-c", "eval-c"])
def test_bilinear_upsample_does_not_run_outside_train_b(workload):
    proc, result = _run(workload, 4, 3, 1)
    assert proc.returncode == 0, proc.stderr
    values = _values(result)
    assert "tensor.bilinear_upsample" not in _span_names(workload, 4)
    assert abs(values["trace.coverage"] - 1.0) <= 0.1
    if workload == "eval-c":
        assert values["tensor.tape.nodes"] == 0 and values["tensor.backward.self_ms"] == 0


def test_gate_fails_run_on_wrong_reference(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "REFERENCE_RTOL", -1.0)
    assert bench.main(["--workload", "train-b", "--seed", "1", "--seconds", "1"]) != 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_gate_catches_a_checkpoint_that_does_not_load_back(monkeypatch):
    load = workloads.models.load_checkpoint

    def corrupting_load(*args, **kwargs):
        out = load(*args, **kwargs)
        gen = out[0] if isinstance(out, tuple) else out
        p = gen.parameters()[0]
        p.data = p.data.copy()
        p.data.flat[0] = p.data.flat[0] + 1e-12
        return out

    monkeypatch.setattr(workloads.models, "load_checkpoint", corrupting_load)
    res = workloads.run("eval-c", 1, 0.1, workloads.Result(), str(bench.OUT))
    assert res.failed >= 2  # the reference and the timed set-up


def test_span_checks_reject_a_child_outside_its_parent():
    tr = tracing.Tracer()
    tr.begin_step(1)
    outer = tr._open("training.compute_loss", "")
    inner = tr._open("tensor.add", "")
    tr._close(inner)
    tr._close(outer)
    tr.end_step()
    _, checks = tracing.per_layer(tr, 0, 1.0)
    assert checks[0][0]
    inner[5] = outer[5] + 1.0
    _, checks = tracing.per_layer(tr, 0, 1.0)
    assert not checks[0][0]


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = _run("train-c", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0 and result is None
