"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import calibrate
import run
import wl_cli
import wl_exact
import wl_montecarlo
import wl_multiexp
from harness import ROOT, Op, Session
from spans import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DK = run.import_digitkit()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    report, result = run.run(DK, workload, seed=3, seconds=0.001, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    meta = report["meta"]
    for key in ("nproc", "python", "digitkit_version", "seed", "loadavg_start", "trace",
                "operations", "inputs", "failed_ratio"):
        assert key in meta


def _counted(out, check) -> int:
    """Failures a session records for an operation that returned `out`."""
    session = Session()
    session.timed("op", 1, lambda: out, check)
    return len(session.failed)


def test_montecarlo_checker_counts_wrong_outputs():
    wl = wl_montecarlo.Workload(DK, 0, tiny=True)
    seed, n = 11, 10
    for kind in wl_montecarlo.BUDGET:
        out = wl.call(kind, n, seed)
        check = lambda got, kind=kind: wl.check(kind, n, seed, got)
        assert _counted(out, check) == 0
        if kind.startswith("compare"):
            wrong = dataclasses.replace(out, violations=1)
        elif kind == "d3":
            wrong = dataclasses.replace(out, mean_zeros=out.mean_zeros + 1)
        else:
            wrong = dataclasses.replace(out, high=dataclasses.replace(out.high, mean_squarings=1.0))
        assert _counted(wrong, check) == 1


def test_montecarlo_slice_catches_a_wrong_fast_path(monkeypatch):
    wl = wl_montecarlo.Workload(DK, 0, tiny=True)
    real = DK.experiments.compare_schemes
    # Right on the full run, wrong only where the slice re-derives it.
    monkeypatch.setattr(
        DK.experiments, "compare_schemes",
        lambda length, samples, seed: dataclasses.replace(
            real(length, samples, seed), min_margin=99 if samples == wl_montecarlo.SLICE else 0
        ),
    )
    assert wl.check("compare_256", 10, 5, real(256, 10, 5))


def test_montecarlo_pinned_digest_mismatch_fails():
    wl = wl_montecarlo.Workload(DK, 0, tiny=True)
    session = Session()
    wl.pinned_round(session, {"montecarlo": {"sha256": "0" * 64}})
    assert len(session.failed) == 1


def test_multiexp_checker_counts_wrong_outputs():
    wl = wl_multiexp.Workload(DK, 4, tiny=True)
    case = wl.pool[0][0]
    result, counter = DK.multiexp.multiexp(case.bases, case.exps, case.scheme, wl.group)
    check = lambda out: wl_multiexp.check(case, out)
    assert _counted((result, counter), check) == 0
    assert _counted((result % (DK.multiexp.MERSENNE61 - 1) + 1, counter), check) == 1
    wrong = dataclasses.replace(counter, squarings=counter.squarings + 1)
    assert _counted((result, wrong), check) == 1


def test_exact_checker_counts_wrong_outputs():
    bounds = wl_exact.TINY_BOUNDS["thm2"]
    report = DK.verification.run_check("thm2", **bounds)
    check = lambda out: wl_exact.check_report("thm2", bounds, out)
    assert _counted(report, check) == 0
    assert _counted(dataclasses.replace(report, cases=report.cases - 1), check) == 1
    assert _counted(dataclasses.replace(report, passed=False), check) == 1
    record = DK.experiments.exhaustive_stats(DK.recoding.RecodingScheme.SJSF, 6)
    wrong = dataclasses.replace(record, mean_weight1=record.mean_weight1 + 1e-9)
    assert _counted(wrong, lambda r: wl_exact.check_exhaustive("sjsf", r)) == 1


def test_exact_round_counts_markov_disagreement(monkeypatch):
    wl = wl_exact.Workload(DK, 0, tiny=True)
    real = DK.transducer.zero_output_probability
    monkeypatch.setattr(
        DK.transducer, "zero_output_probability",
        lambda k, method="markov": real(k, method) + (method == "exhaustive"),
    )
    session = Session()
    wl.round(0, session)
    assert [op.kind for op in session.failed] == ["zero_output_probability.exhaustive"]


def test_cli_checker_counts_wrong_outputs():
    golden = wl_cli.GOLDEN["recode"]["stdout"]
    ok = subprocess.CompletedProcess([], 0, golden, "")
    check = lambda out: wl_cli.check("recode", out)
    assert _counted(ok, check) == 0
    assert _counted(subprocess.CompletedProcess([], 0, golden.replace("4", "5"), ""), check) == 1
    assert _counted(subprocess.CompletedProcess([], 2, golden, "error"), check) == 1


def test_tracer_attributes_self_time_and_restores_originals():
    naf = DK.recoding.naf
    expansion_init = vars(DK.expansions.Expansion)["__post_init__"]
    tracer = Tracer()
    with tracer:
        assert DK.recoding.naf is not naf
        tracer.active = True
        DK.recoding.recode_joint((13, 5), DK.recoding.RecodingScheme.NAF)
        tracer.active = False
    assert DK.recoding.naf is naf
    assert vars(DK.expansions.Expansion)["__post_init__"] is expansion_init
    layers = tracer.by_layer()
    assert layers["recoding"][1] == 3  # recode_joint and two naf calls
    assert layers["expansions"][1] > 0
    spans = {span_id: (name, parent) for span_id, name, _, _, parent in tracer.spans}
    roots = [name for name, parent in spans.values() if parent == 0]
    assert roots == ["recoding.recode_joint"]
    total = sum(end - start for _, _, start, end, parent in tracer.spans if parent == 0)
    assert sum(s for s, _ in layers.values()) == pytest.approx(total)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_calibrated_times_cancel_a_slower_host():
    """The host runs twice as slow for the second half of a run: the raw
    times show it, the calibrated ones do not."""
    cal = calibrate.Calibrator(calibrate.Kernel("fixed", lambda: 0, 0.001))
    cal.samples, cal.starts, cal.sums, cal.spent = [], [], [0.0], 0.0
    ops = []
    for i in range(40):
        slow = 2 if i >= 20 else 1
        start = i * 1.0
        ops.append(Op("op", i, 0.5 * slow, 10, start=start))
        for k in range(5):
            cal.record(start + 0.6 + 0.01 * k, 0.001 * slow)
    raw = run.end_to_end(wl_multiexp, ops, [0.3])
    calibrated = run.end_to_end(wl_multiexp, ops, [0.3], cal, cal)
    assert raw["op_p90_ms"]["value"] == pytest.approx(1000)
    assert raw["work_per_s"]["value"] == pytest.approx(400 / 30)
    mean_kernel = 0.0015
    assert calibrated["work_per_s"]["value"] == pytest.approx(400 / 30 * mean_kernel / 0.001)
    for key in ("op_p50_ms", "op_p90_ms"):
        assert calibrated[key]["value"] == pytest.approx(500)
    assert calibrated["setup_s"]["value"] == pytest.approx(0.3 * 0.001 / mean_kernel)
