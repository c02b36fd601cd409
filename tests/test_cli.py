"""CLI contract: flags, output files, exit codes, determinism."""

import json
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from binsense.bounds import BoundQuery, bound_report, curve_to_csv, mle_bound_curve
from binsense.cli import main
from binsense.harness import TrialConfig, sweep
from binsense.model import Linear, Logistic, OneBit


def test_simulate_matches_library(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--model", "onebit", "--n", "64", "--k", "4", "--m", "80",
            "--sigma2", "1", "--decoder", "topk", "--trials", "25", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    config = TrialConfig(OneBit(1.0), 64, 4, 80, decoder="topk", master_seed=7)
    assert out.read_text() == sweep(config, [80], 25).to_csv()


def test_sweep_grid_and_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--model", "onebit", "--n", "64", "--k", "4", "--sigma2", "0",
            "--m-grid", "20:100:40", "--trials", "10", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + m in {20, 60, 100}
    assert lines[0].startswith("model,n,k,m,")


# every channel with its noise flag, the model it builds, and the
# sigma2/beta columns the JSON outputs must carry for it
CHANNEL_CASES = [
    pytest.param(["--model", "linear", "--sigma2", "1"], Linear(1.0), (1.0, None), id="linear"),
    pytest.param(["--model", "onebit", "--sigma2", "0"], OneBit(0.0), (0.0, None), id="onebit"),
    pytest.param(["--model", "logistic", "--beta", "4"], Logistic(4.0), (None, 4.0), id="logistic"),
]


@pytest.mark.parametrize("model_args, model, noise", CHANNEL_CASES)
def test_m95_json(tmp_path, model_args, model, noise):
    out = tmp_path / "m95.json"
    code = main(
        [
            "m95", *model_args, "--n", "64", "--k", "4",
            "--m-lo", "10", "--m-hi", "300", "--trials-per-probe", "40",
            "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["model"] == model.tag
    assert (payload["config"]["sigma2"], payload["config"]["beta"]) == noise
    assert 10 <= payload["m95"] <= 300
    assert payload["success_rate"] >= payload["threshold"] == 0.95
    assert all({"m", "successes", "trials", "rate"} <= set(p) for p in payload["probes"])


@pytest.mark.parametrize("model_args, model, noise", CHANNEL_CASES)
def test_bounds_matches_library(tmp_path, model_args, model, noise):
    out = tmp_path / "bounds.json"
    code = main(
        [
            "bounds", *model_args, "--n", "1024", "--k", "16",
            "--delta", "0.05", "--c-const", "2.0", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    expected = bound_report(BoundQuery(1024, 16, model, delta=0.05, c=2.0))
    assert payload == expected.to_dict()
    assert payload["query"]["model"] == model.tag
    assert (payload["query"]["sigma2"], payload["query"]["beta"]) == noise


def test_plot1_csv_and_svg(tmp_path):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    code = main(
        [
            "plot1", "--n", "50000", "--sigma2", "1", "--k-min", "1000",
            "--k-max", "4000", "--k-step", "1000", "--out", str(csv_path),
            "--svg", str(svg_path),
        ]
    )
    assert code == 0
    assert csv_path.read_text() == curve_to_csv(mle_bound_curve(50_000, 1.0, range(1000, 4001, 1000)))
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_check_moments_json(tmp_path):
    out = tmp_path / "mc.json"
    code = main(
        [
            "check-moments", "--model", "logistic", "--k", "4", "--beta", "1",
            "--samples", "20000", "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["model"] == "logistic"
    assert abs(payload["z_score"]) <= 4.0
    assert payload["samples"] == 20000


def test_check_moments_beta_inf_rejected(tmp_path):
    # the logistic moment check needs finite beta
    code = main(
        ["check-moments", "--model", "logistic", "--k", "4", "--beta", "inf", "--samples", "100"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "model_args,message",
    [
        (["--model", "onebit", "--beta", "2"], "--beta does not apply to the onebit model"),
        (["--model", "logistic", "--sigma2", "1"], "--sigma2 does not apply to the logistic model"),
    ],
)
def test_check_moments_wrong_noise_flag(capsys, model_args, message):
    code = main(["check-moments", *model_args, "--k", "4", "--samples", "100"])
    assert code == 2
    assert message in capsys.readouterr().err


class TestExitCodes:
    def test_invalid_decoder_model_pair(self):
        code = main(
            ["simulate", "--model", "onebit", "--n", "16", "--k", "2", "--m", "8",
             "--decoder", "mle", "--trials", "2"]
        )
        assert code == 2

    def test_wrong_noise_flag(self):
        code = main(
            ["simulate", "--model", "linear", "--n", "16", "--k", "2", "--m", "8",
             "--beta", "1.0", "--trials", "2"]
        )
        assert code == 2

    def test_bad_grid_syntax(self):
        code = main(
            ["sweep", "--model", "onebit", "--n", "16", "--k", "2",
             "--m-grid", "10-50-10", "--trials", "2"]
        )
        assert code == 2

    def test_budget_exceeded_is_three(self):
        code = main(
            ["simulate", "--model", "linear", "--n", "40", "--k", "10", "--m", "5",
             "--sigma2", "0", "--decoder", "mle", "--trials", "1"]
        )
        assert code == 3

    def test_matrix_too_large_refused(self, capsys):
        # a 10^6 x 10^9 matrix is refused before anything is drawn
        tracemalloc.start()
        try:
            code = main(
                ["simulate", "--model", "onebit", "--n", "1000000000", "--k", "1",
                 "--m", "1000000", "--trials", "2", "--workers", "2"]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "memory" in capsys.readouterr().err
        assert peak < 2**20

    def test_seed_beyond_64_bits_refused(self, capsys, monkeypatch):
        # the trial config rejects the seed before any trial is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr("binsense.cli.sweep", no_draw)
        code = main(
            ["simulate", "--model", "onebit", "--n", "16", "--k", "2", "--m", "8",
             "--trials", "2", "--seed", "18446744073709551616"]
        )
        assert code == 2
        assert "18446744073709551616" in capsys.readouterr().err

    def test_bounds_k_too_large(self):
        code = main(["bounds", "--model", "linear", "--n", "100", "--k", "51", "--sigma2", "1"])
        assert code == 2


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        argv = [
            "simulate", "--model", "logistic", "--n", "32", "--k", "3", "--m", "60",
            "--beta", "2", "--trials", "20", "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        base = [
            "sweep", "--model", "onebit", "--n", "32", "--k", "2", "--sigma2", "1",
            "--m-grid", "10:50:20", "--trials", "12", "--seed", "4",
        ]
        a, b = tmp_path / "w1.csv", tmp_path / "w3.csv"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
