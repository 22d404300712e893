"""Smoke test of the benchmark at its tiny size: every workload runs, every
metric named in BENCHMARK.json and README.md comes out with its unit, no
output check fails, and tracing changes no result."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracing import MissingNameError, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Printed beside the JSON metrics, on the workloads they apply to.
PRINTED_ONLY = {
    "pretrain_text": {"error_rate": "fraction"},
    "merge_speech_text": {"error_rate": "fraction"},
    "dev_decode": {"error_rate": "fraction", "decode_tokens_per_s": "tok/s", "eval_pass_s": "s"},
}


def _run_all(trace: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    sections = {}
    for block in proc.stdout.split("# workload=")[1:]:
        name = block.split()[0]
        lines = block.strip().splitlines()
        printed = {}
        for line in lines[1:-1]:
            parts = line.split()
            if len(parts) == 3:
                printed[parts[0]] = (float(parts[1]), parts[2])
            elif len(parts) == 2 and parts[0].endswith("_digest"):
                printed[parts[0]] = parts[1]
        sections[name] = (printed, json.loads([line for line in lines if line.startswith("{")][-1]))
    return sections


@pytest.fixture(scope="module")
def runs():
    return {trace: _run_all(trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, trace, kind):
    assert sorted(runs[trace]) == sorted(WORKLOADS)
    for workload, (printed, result) in runs[trace].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert printed["error_rate"] == (0.0, "fraction")
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert printed[name][1] == unit
        if trace == 0:
            for name, unit in PRINTED_ONLY[workload].items():
                assert printed[name][1] == unit, (workload, name)


def test_tracing_changes_no_result(runs):
    for workload in WORKLOADS:
        plain, traced = runs[0][workload][0], runs[1][workload][0]
        digest = "decoded_tokens_digest" if workload == "dev_decode" else "loss_trace_digest"
        assert plain[digest] == traced[digest]


def test_missing_public_name_is_named():
    from mmadapt import trainer

    tracer = Tracer()
    with pytest.raises(MissingNameError, match=r"mmadapt\.trainer\.render_prompt_v2"):
        tracer.wrap(trainer, "render_prompt_v2", "prompting.render")
    with pytest.raises(MissingNameError, match=r"mmadapt\.trainer\.AdamW\.apply"):
        tracer.wrap(trainer.AdamW, "apply", "trainer.optimizer")
