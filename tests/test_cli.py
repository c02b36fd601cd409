"""CLI contract: flags, output files, exit codes, determinism."""

import hashlib
import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from binsense import harness
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
    for k_max in (4000, 1000):  # a one-point curve has a flat k axis
        code = main(
            [
                "plot1", "--n", "50000", "--sigma2", "1", "--k-min", "1000",
                "--k-max", str(k_max), "--k-step", "1000", "--out", str(csv_path),
                "--svg", str(svg_path),
            ]
        )
        assert code == 0
        ks = range(1000, k_max + 1, 1000)
        assert csv_path.read_text() == curve_to_csv(mle_bound_curve(50_000, 1.0, ks))
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

    def test_budget_exceeded_is_three(self, capsys):
        code = main(
            ["simulate", "--model", "linear", "--n", "40", "--k", "10", "--m", "5",
             "--sigma2", "0", "--decoder", "mle", "--trials", "1"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "max_candidates" in err and "--mle-budget" in err

    @pytest.mark.parametrize("m", ["50", "10000000"])
    def test_budget_is_refused_before_any_draw_or_memory_check(self, m, monkeypatch):
        # C(1024, 4) supports exceed the default budget, at any m: the query
        # exits 3 before a matrix is drawn, even where it would not fit in memory
        drawn = []
        monkeypatch.setattr(harness, "gen_sensing_matrix", lambda *args: drawn.append(args))
        code = main(
            ["simulate", "--model", "linear", "--sigma2", "1", "--n", "1024", "--k", "4",
             "--m", m, "--decoder", "mle", "--trials", "1"]
        )
        assert code == 3 and drawn == []

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

    def test_bounds_beta_past_its_square_is_the_noiseless_limit(self, capsys):
        # beta^2 overflows at beta = 1e200; every bound is finite and the
        # same as at beta = inf
        argv = ["bounds", "--model", "logistic", "--n", "100", "--k", "3", "--beta"]
        assert main(argv + ["1e200"]) == 0
        huge = json.loads(capsys.readouterr().out)
        assert main(argv + ["inf"]) == 0
        limit = json.loads(capsys.readouterr().out)
        for name in ("alg_upper", "alg_upper_closed_form", "logistic_lower"):
            assert math.isfinite(huge[name]) and huge[name] == limit[name]

    @pytest.mark.parametrize(
        "command",
        [
            "bounds --model logistic --beta inf --n 1000 --k 10",
            "m95 --model logistic --beta inf --n 32 --k 2 --m-lo 5 --m-hi 200 --trials-per-probe 8",
        ],
    )
    def test_beta_inf_is_echoed_as_valid_json(self, capsys, command):
        # RFC 8259 has no Infinity: the noiseless limit is echoed as "inf",
        # its spelling on the command line and in the CSV
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(command.split()) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc.get("query", doc.get("config"))["beta"] == "inf"

    @pytest.mark.parametrize(
        "command,message",
        [
            ("bounds --model linear --sigma2 1e17 --n 1000 --k 10", "at sigma2=1e+17: 1 + 10/sigma2"),
            ("bounds --model linear --sigma2 1e16 --n 1000 --k 10", "at sigma2=1e+16: 1 + 0.5/sigma2"),
            ("plot1 --sigma2 inf", "sigma2 must be finite and >= 0, got inf"),
            ("plot1 --sigma2 1e300", "at sigma2=1e+300: 1 + 0.5/sigma2"),
            ("plot1 --sigma2 nan", "sigma2 must be finite and >= 0, got nan"),
            ("plot1 --sigma2 -1", "sigma2 must be finite and >= 0, got -1.0"),
            ("bounds --model onebit --sigma2 1 --n 1000 --k 10 --c-const nan",
             "c must be finite and positive, got nan"),
            ("bounds --model onebit --sigma2 1 --n 1000 --k 10 --c-const inf",
             "c must be finite and positive, got inf"),
            ("bounds --model onebit --sigma2 1 --n 1000 --k 10 --mutual-info-cap nan",
             "mutual_info_cap must be finite and positive, got nan"),
            ("bounds --model onebit --sigma2 1 --n 1000 --k 10 --mutual-info-cap inf",
             "mutual_info_cap must be finite and positive, got inf"),
            # bounds that overflow to inf, which JSON cannot write
            ("bounds --model onebit --sigma2 1.7e308 --n 1000 --k 10", "a bound overflows a float"),
            ("bounds --model logistic --beta 3e-154 --n 1000 --k 10", "a bound overflows a float"),
        ],
    )
    def test_bound_parameters_outside_their_formulas_refused(self, capsys, command, message):
        # a sigma2 the channel refuses or whose capacity term rounds to 0, and a
        # constant that is not finite, exit 2 with one line and print nothing
        code = main(command.split())
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_bounds_beta_whose_slope_vanishes_refused(self, capsys):
        # beta^2 underflows at beta = 1e-200: the link slope is 0 and no
        # sample count is finite
        code = main(["bounds", "--model", "logistic", "--n", "100", "--k", "3", "--beta", "1e-200"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


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


# exit code and sha256 of stdout of small commands, recorded at a commit
# whose output is the reference: any change to a printed byte shows here
PINNED_OUTPUTS = [
    ("bounds --model linear --sigma2 1 --n 1000 --k 10", 0,
     "fe735952badc170aea16424bedbd7f217733f40cb381f732633f53e117ef3964"),
    ("bounds --model linear --sigma2 0 --n 200 --k 5", 0,
     "9506257694f9a84319a2b7a39bdc5fb10813811a666de41b0ef4e903ba8dd817"),
    ("bounds --model onebit --sigma2 0 --n 500 --k 5 --mutual-info-cap 1", 0,
     "f72986f91f8ae85ee02d7ac301e547b648479771e0032f2974d5ded2d4dd7eca"),
    ("bounds --model onebit --sigma2 4 --n 1000 --k 10 --delta 0.05", 0,
     "6d6f4e3919c0fe37e0282e719a3d6384bbce088131f9a1003ec15471b0015715"),
    ("bounds --model logistic --beta inf --n 200 --k 4", 0,
     "d10cae6e6c7afeb4074f2e9ef31ff7a5545748113456b617ba12f73ee361d209"),
    ("bounds --model logistic --beta 0.3 --n 1000 --k 10 --delta 0.05", 0,
     "668bc7e84bbfb0cf2e635995dacdf3525d59a126640be41786029221f1b3ccae"),
    ("sweep --model onebit --sigma2 1 --n 64 --k 3 --m-grid 20:80:20 --trials 20 --seed 3", 0,
     "ed3929af9f920ee3d43583bbad7a0c4345c742bbba8f038e5409dc8cc000e201"),
    ("sweep --model logistic --beta 2 --n 64 --k 3 --m-grid 30:90:30 --trials 20 --seed 4", 0,
     "ccfefa9aa2640a555da4ca27f537c9abfef319ee16174073fb534f3e5b040cdf"),
    ("sweep --model linear --sigma2 1 --n 64 --k 3 --decoder quantize --m-grid 20:80:20 --trials 20 --seed 5", 0,
     "a25b6ffedb3bd17c5e4a7a1dc5b37065de13ff00dc285055b182c467f808854b"),
    ("sweep --model linear --sigma2 0.5 --n 12 --k 2 --decoder mle --m-grid 4:12:4 --trials 10 --seed 6", 0,
     "d7612cdae0775abc5e87e0dd856c2664706ab88b68484b5f12b52aef9e4ff6d8"),
    ("m95 --model onebit --sigma2 0 --n 64 --k 3 --m-lo 10 --m-hi 300 --trials-per-probe 20 --seed 7", 0,
     "4e363c28e88f17c5ae0aab8e0b8502ab4fa15f90aa8606bb0496217a92145b79"),
    ("check-moments --model onebit --sigma2 1 --k 3 --samples 2000 --seed 8", 0,
     "79e6f7234e3da4f369a87b129a6cd2aa5da07a5eefd1daee4ec52959fb10fea1"),
    ("check-moments --model logistic --beta 2 --k 3 --samples 2000 --seed 9", 0,
     "68ace43d970bbb26649ce99e7cd0348b9fcf476d278a96fb92220339c11f4b22"),
    ("plot1 --n 5000 --k-min 100 --k-max 1000 --k-step 300", 0,
     "49eabb5bc766af7c816bd9b574f62ff51792bb905b89323da85d519e02d4e12a"),
    ("simulate --model onebit --sigma2 1 --n 64 --k 3 --m 40 --trials 30 --seed 11", 0,
     "f8549ff52bd53456139168c17437c66b01f2fa076f65c3f5a47a0d8ca56d6784"),
    ("sweep --model linear --sigma2 0.25 --n 20 --k 3 --decoder mle --m-grid 10:400:10 --trials 5 --seed 12", 0,
     "dfb3db1710f1fa32878953d090168540c4c58b89a18820d5924fff2099cc500a"),
    ("m95 --model linear --sigma2 1 --n 12 --k 2 --decoder mle --m-lo 2 --m-hi 60 --trials-per-probe 40 --seed 13", 0,
     "163d42110b106a5c16f25d87cea45eb3e31c18a4e0cc5bfd3e078f031d3e64df"),
]


def test_cli_output_bytes_are_pinned(capsys):
    changed = []
    for command, code, digest in PINNED_OUTPUTS:
        got = main(command.split())
        out = capsys.readouterr().out.encode()
        if (got, hashlib.sha256(out).hexdigest()) != (code, digest):
            changed.append(command)
    assert changed == []
