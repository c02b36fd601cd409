"""Tests of the benchmark itself: span self time, every correctness check
rejecting a doctored result, and a tiny end-to-end smoke run.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from binsense import Linear, TrialConfig, sweep  # noqa: E402

TINY = {
    "sweep-paired": dict(n=32, k=2, trials=4, grid=(80, 160)),
    "m95-onebit": dict(n=32, k=2, trials=10, bracket=(5, 400)),
    "mle-oracle": dict(trials=2),
}


def _tiny(name):
    return replace(workloads.WORKLOADS[name], **TINY[name])


# --- spans ---------------------------------------------------------------


def _span(i, start, end, parent=None, name="x", work=0):
    return spans.Span(i, name, start, end, parent, None, work)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span(0, 0, 100),
        _span(1, 10, 40, parent=0),
        _span(2, 20, 30, parent=1),
        _span(3, 35, 60, parent=0),  # overlaps span 1
        _span(4, 90, 120, parent=0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 10, 10, 25, 30]


def test_layer_metrics_from_a_synthetic_trial():
    tree = [
        _span(0, 0, 1000, name="harness.run_trial"),
        _span(1, 0, 100, parent=0, name="model.random_signal"),
        _span(2, 100, 700, parent=0, name="model.gen_sensing_matrix", work=6),
        _span(3, 100, 650, parent=2, name="numerics.sample_gaussian", work=55),
        _span(4, 700, 800, parent=0, name="model.measure"),
        _span(5, 800, 990, parent=0, name="decode.topk_correlation_decode"),
    ]
    m = spans.layer_metrics(tree)
    assert m["harness.stage_share.matrix"] == pytest.approx(0.6)
    assert m["harness.stage_share.decode"] == pytest.approx(0.19)
    assert m["harness.run_trial.self_frac"] == pytest.approx(0.01)
    assert m["numerics.sample_gaussian.ns_per_sample"] == pytest.approx(10.0)
    assert m["model.gen_sensing_matrix.rows"] == 6
    assert m["model.gen_sensing_matrix.self_ms"] == pytest.approx(50e-6)
    assert m["decode.mle_decode_linear.candidates"] == 0
    assert m["harness.run_trial.count"] == 1


def test_tracer_records_the_tree_and_restores_the_originals():
    from binsense import harness, model

    original = harness.run_trial
    tracer = spans.Tracer()
    config = TrialConfig(Linear(0.25), 20, 3, 10, decoder="mle", master_seed=1)
    with tracer.patched(spans.binsense_targets()):
        harness.count_successes(config, 2)
    assert harness.run_trial is original and model.sample_gaussian.__name__ == "sample_gaussian"
    by_id = {s.id: s for s in tracer.spans}
    trials = [s for s in tracer.spans if s.name == "harness.run_trial"]
    assert [s.trial for s in trials] == [0, 1]
    for s in tracer.spans:
        if s.name == "numerics.sample_gaussian":
            assert by_id[s.parent].name in ("model.gen_sensing_matrix", "model.measure")
            assert s.trial in (0, 1)
    mle = [s for s in tracer.spans if s.name == "decode.mle_decode_linear"]
    assert [s.work for s in mle] == [1140, 1140]


# --- checks reject doctored results --------------------------------------


@pytest.fixture(scope="module")
def sweep_csv():
    config = TrialConfig(Linear(1.0), 32, 2, 20, master_seed=3)
    return sweep(config, [20, 40, 80], 5).to_csv()


SWEEP_ARGS = dict(model="linear", n=32, k=2, sigma2=1.0, decoder="topk", grid=(20, 40, 80),
                  trials=5, seed=3)


def _edit_field(text, row, col, value):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_check_passes_a_real_sweep(sweep_csv):
    assert checks.check_sweep_csv(sweep_csv, **SWEEP_ARGS) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda t: t.replace("success_rate", "rate"),
        lambda t: t.rstrip("\n"),
        lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
        lambda t: _edit_field(t, 1, 10, "0.01"),  # ci_low
        lambda t: _edit_field(t, 2, 11, "0.5"),  # ci_high
        lambda t: _edit_field(t, 1, 9, "0.123"),  # success_rate
        lambda t: _edit_field(t, 1, 8, "6"),  # successes > trials
        lambda t: _edit_field(t, 1, 12, "4"),  # seed echo
        lambda t: _edit_field(t, 1, 6, "mle"),  # decoder echo
        lambda t: _edit_field(t, 1, 8, "x"),
        lambda t: t + "1,2\n",
    ],
)
def test_sweep_check_rejects_a_doctored_sweep(sweep_csv, doctor):
    assert checks.check_sweep_csv(doctor(sweep_csv), **SWEEP_ARGS)


def test_paired_gap_and_rate_floor_reject_doctored_rates(sweep_csv):
    assert checks.check_paired_gap([sweep_csv, sweep_csv]) == []
    lowered = _edit_field(sweep_csv, 3, 9, "0.8")
    assert checks.check_paired_gap([sweep_csv, lowered])
    assert checks.check_rate_floor(sweep_csv, 80, 0.95) == []
    assert checks.check_rate_floor(lowered, 80, 0.95)
    assert checks.check_rate_floor(sweep_csv, 90, 0.95)  # m not in the sweep


@pytest.fixture(scope="module")
def m95_json():
    return replace(workloads.WORKLOADS["m95-onebit"], **TINY["m95-onebit"]).run(7, 1)


M95_ARGS = dict(m_lo=5, m_hi=400, trials=10, seed=7)


def _doctor_m95(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _probe(doc, m):
    return next(p for p in doc["probes"] if p["m"] == m)


def _set_rate(doc, m, successes):
    p = _probe(doc, m)
    p["successes"], p["rate"] = successes, successes / p["trials"]


def test_m95_check_passes_a_real_bisection(m95_json):
    doc = json.loads(m95_json)
    assert doc["m95"] > 5 and any(p["m"] == doc["m95"] - 1 for p in doc["probes"])
    assert checks.check_m95_json(m95_json, **M95_ARGS) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("ci_low"),
        lambda d: d.update(ci_low=d["ci_low"] / 2),
        lambda d: d.update(seed=8),
        lambda d: d.update(m95=d["m95"] + 1),
        lambda d: _set_rate(d, d["m95"], 9),  # rate at m95 below 0.95
        lambda d: _set_rate(d, d["m95"] - 1, 10),  # m95 - 1 already clears it
        lambda d: _set_rate(d, 400, 9),  # invalid bracket
        lambda d: d["probes"].reverse(),  # m_hi not probed first
        lambda d: _probe(d, d["m95"]).update(rate=0.5),
        lambda d: d["probes"].append(dict(d["probes"][0])),
        lambda d: d.update(successes=d["successes"] - 1),
    ],
)
def test_m95_check_rejects_a_doctored_bisection(m95_json, edit):
    assert checks.check_m95_json(_doctor_m95(m95_json, edit), **M95_ARGS)
    assert checks.check_m95_json("{not json", **M95_ARGS)


def test_workload_check_rejects_a_missing_arm(sweep_csv):
    paired = _tiny("sweep-paired")
    output = paired.run(11, 1)
    assert paired.check(output, 11) == []
    assert paired.check(output, 12)  # another seed's echo
    half = "".join(output.splitlines(keepends=True)[: len(paired.grid) + 1])
    assert paired.check(half, 11)


class _Fake:
    """A workload whose output is ``output(call number, workers)``."""

    name, trials = "fake", 1

    def __init__(self, output):
        self.output = output
        self.calls = 0

    def master_seed(self, seed, index):
        return index

    def run(self, master_seed, workers):
        self.calls += 1
        return self.output(self.calls, workers)

    def check(self, output, master_seed):
        return []

    def trials_run(self, output):
        return 1


def test_repeated_inputs_must_give_identical_bytes(monkeypatch):
    monkeypatch.setattr(run, "cold_starts", lambda workload, count: [(1.0, 0.5, 0.4)])
    result = run.timed_run(_Fake(lambda calls, workers: f"{calls}\n"), seed=0, seconds=0)
    assert [bool(u["problems"]) for u in result["units"]] == [False, True]


def test_output_must_not_depend_on_workers_or_tracing(monkeypatch):
    monkeypatch.setattr(run, "cold_starts", lambda workload, count: [(1.0, 0.5, 0.4)])
    monkeypatch.setattr(run, "POOL_STARTS", 1)
    monkeypatch.setattr(run, "SPAN_COST_CALLS", 10)
    result = run.traced_run(_Fake(lambda calls, workers: f"{workers}\n"), seed=0, seconds=0)
    assert [bool(u["problems"]) for u in result["units"]] == [False, True, True]
    result = run.traced_run(_Fake(lambda calls, workers: f"{calls}\n"), seed=0, seconds=0)
    assert [bool(u["problems"]) for u in result["units"]] == [False, True, True]


# --- smoke ---------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(monkeypatch, tmp_path, capsys, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setattr(run, "POOL_STARTS", 1)
    monkeypatch.setattr(run, "SPAN_COST_CALLS", 1000)
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 2
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {k: u for k, (u, *_) in table.items()}
    for metric, (unit, *_) in table.items():
        assert any(f" {metric} " in line and f" {unit} " in line for line in lines[:-1]), metric
    report = json.loads((tmp_path / f"{name}-seed5-trace{trace}.json").read_text())
    assert report["host"]["seed"] == 5 and report["host"]["default_seed"] == run.DEFAULT_SEED
    if trace:
        assert summary["metrics"]["trace.overhead_frac"]["value"] > 0
    else:
        assert all(summary["metrics"][m]["value"] > 0 for m in run.END_TO_END)


def test_exits_nonzero_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "mle-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def test_manifest_keeps_to_the_benchmark_format():
    manifest = run.manifest()
    assert list(manifest) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200 for w in manifest["workloads"])
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {k: u for k, (u, *_) in run.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"], setup["bound"]) == ("s", "lower", 0.25)
