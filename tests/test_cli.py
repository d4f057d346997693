import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from imgflib import apps, cli, incomplete, mixture, oracles
from imgflib.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, PRESETS, _fmt, main,
                         run_sweep, selfcheck)

RAY_LOWER = 0.5179132265677134
PRESET_DATA = Path(__file__).parent / "data" / "presets"  # each preset's sweep CSV
BOB = json.dumps({"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2, "m": 2,
                  "mean_snr_db": 20})
EVE = json.dumps({"kind": "rayleigh", "mean_snr_db": 15})
RAY10 = json.dumps({"kind": "rayleigh", "mean_snr_db": 10})
NAKAGAMI = json.dumps({"kind": "nakagami-m", "m": 2, "mean_snr_db": 15})
KMS_0DB = {"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2, "m": 2, "mean_snr_db": 0}
NAKAGAMI_2_5 = {"kind": "nakagami-m", "m": 2.5, "mean_snr_db": 15}

# (argv of a single-point subcommand, the equivalent sweep metric and 'fixed'
# block, and the field a one-point sweep puts its axis on)
POINT_COMMANDS = [
    (["imgf", "--model", "kappa-mu-shadowed", "--kappa", "1.5", "--mu", "2", "--m", "2",
      "--mean-snr-db", "3", "--s", "-0.5", "--zeta", "4", "--tail", "upper",
      "--deriv-order", "1"],
     "imgf", {"model": {"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2, "m": 2,
                        "mean_snr_db": 3},
              "s": -0.5, "zeta": 4, "tail": "upper", "deriv_order": 1}, "s"),
    (["opsc", "--bob", BOB, "--eve", EVE, "--rate", "0.3", "--eve-antennas", "2"],
     "opsc", {"bob": json.loads(BOB), "eve": json.loads(EVE), "rate_rs": 0.3,
              "n_eve_antennas": 2}, "rate_rs"),
    (["spsc", "--bob", BOB, "--eve", EVE],
     "spsc", {"bob": json.loads(BOB), "eve": json.loads(EVE)}, "bob.mean_snr_db"),
    (["eps-capacity", "--bob", BOB, "--eve", EVE, "--epsilon", "0.5", "--normalize"],
     "eps-capacity", {"bob": json.loads(BOB), "eve": json.loads(EVE), "epsilon": 0.5,
                      "normalize": True}, "epsilon"),
    (["op-interference", "--desired", BOB, "--interference", EVE, "--gamma-th", "0.25"],
     "op-interference", {"desired": json.loads(BOB), "interference": json.loads(EVE),
                         "gamma_th": 0.25}, "gamma_th"),
    (["capacity", "--channel", RAY10, "--cutoff", "0.5"],
     "capacity", {"channel": json.loads(RAY10), "cutoff_snr": 0.5}, "cutoff_snr"),
    (["aber", "--channel", NAKAGAMI, "--thresholds", "10.6,53.0,222.5,900.7",
      "--bits", "2,4,6,8"],
     "aber", {"channel": json.loads(NAKAGAMI), "thresholds": [10.6, 53.0, 222.5, 900.7],
              "bits_per_region": [2, 4, 6, 8]}, "channel.mean_snr_db"),
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_spec(spec: dict, tmp_path, capsys) -> tuple[int, str]:
    """Run a sweep spec file writing tmp_path/x.csv; (exit code, stderr)."""
    spec = {**spec, "output": {"path": str(tmp_path / "x.csv")}}
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    code = main(["sweep", "--spec", str(p)])
    return code, capsys.readouterr().err


def record_evaluations(monkeypatch) -> list:
    """Record the name of every metric and Monte Carlo evaluation."""
    calls = []
    for module, name in ((apps, "opsc"), (apps, "eps_outage_capacity"),
                         (apps, "outage_interference"), (apps, "_interference_outage"),
                         (apps, "capacity_side_info"),
                         (apps, "aber_adaptive"), (incomplete, "imgf_deriv_s"),
                         (oracles, "mc_opsc"), (oracles, "mc_aber")):
        def recording(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, recording)
    return calls


class TestSinglePoint:
    def test_imgf_point(self, capsys):
        code, out, _ = run(["imgf", "--model", "rayleigh", "--mean-snr-db", "0",
                            "--s", "-0.5", "--zeta", "1", "--tail", "lower"], capsys)
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(RAY_LOWER, abs=1e-9)

    def test_imgf_upper_deriv(self, capsys):
        code, out, _ = run(["imgf", "--model", "rayleigh", "--mean-snr-db", "0",
                            "--s", "-0.5", "--zeta", "1", "--tail", "upper",
                            "--deriv-order", "1"], capsys)
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(0.24792240016492203, abs=1e-9)

    def test_opsc(self, capsys):
        code, out, _ = run(["opsc", "--bob", BOB, "--eve", EVE, "--rate", "0.1"], capsys)
        assert code == EXIT_OK
        assert 0.0 < float(out.strip()) < 1.0

    def test_opsc_with_validation(self, capsys):
        code, out, _ = run(["opsc", "--bob", BOB, "--eve", EVE, "--rate", "0.1",
                            "--validate", "100000", "--seed", "4"], capsys)
        assert code == EXIT_OK
        assert "mc=" in out and "mc_std_error=" in out

    def test_capacity(self, capsys):
        code, out, _ = run(["capacity", "--channel",
                            json.dumps({"kind": "rayleigh", "mean_snr_db": 10})], capsys)
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(2.9794218653801097, rel=1e-6)

    def test_aber(self, capsys):
        code, out, _ = run(["aber", "--channel",
                            json.dumps({"kind": "rayleigh", "mean_snr_db": 9.0309}),
                            "--thresholds", "0", "--bits", "4"], capsys)
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(0.2 / (1 + 1.5 * 8.0 / 15.0), rel=1e-4)

    def test_bad_model_kind_exits_2(self, capsys):
        code, _, err = run(["imgf", "--model", "warp", "--mean-snr-db", "0",
                            "--s", "0", "--zeta", "1"], capsys)
        assert code == EXIT_CONFIG
        assert "warp" in err

    @pytest.mark.parametrize("argv", [
        ["capacity", "--channel", json.dumps({"kind": "rayleigh", "mean_snr_db": "abc"})],
        ["opsc", "--bob", BOB, "--eve", json.dumps({"kind": "nakagami-m", "m": "abc",
                                                     "mean_snr_db": 15}), "--rate", "0.1"],
        ["aber", "--channel", NAKAGAMI, "--thresholds", "1,abc", "--bits", "2,4"],
    ], ids=["capacity-mean-snr", "opsc-eve-m", "aber-thresholds"])
    def test_non_numeric_field_exits_2(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == EXIT_CONFIG
        assert "abc" in err

    @pytest.mark.parametrize("metric, fixed, field", [
        ("eps-capacity", {"bob": json.loads(BOB), "eve": json.loads(EVE), "epsilon": "abc"},
         "epsilon"),
        ("capacity", {"channel": json.loads(RAY10), "cutoff_snr": "abc"}, "cutoff_snr"),
    ], ids=["eps-capacity-epsilon", "capacity-cutoff"])
    def test_non_numeric_sweep_field_exits_2(self, metric, fixed, field, tmp_path, capsys):
        spec = {"metric": metric, "fixed": fixed,
                "axis": {"field": "bob.mean_snr_db" if "bob" in fixed else "channel.mean_snr_db",
                         "start": 10, "stop": 10, "step": 1},
                "output": {"path": str(tmp_path / "x.csv")}}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code = main(["sweep", "--spec", str(p)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert field in err and "abc" in err

    def test_cutoff_parsed_as_number(self):
        # "0.5" parses like every other numeric field
        axis = {"field": "channel.mean_snr_db", "start": 10, "stop": 10, "step": 1}
        rows = [run_sweep({"metric": "capacity", "axis": axis,
                           "fixed": {"channel": json.loads(RAY10), "cutoff_snr": cutoff}})
                for cutoff in (0.5, "0.5")]
        assert rows[0] == rows[1]

    def test_bad_json_exits_2(self, capsys):
        code, _, _ = run(["opsc", "--bob", "{not json", "--eve", EVE,
                          "--rate", "0.1"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv, metric, fixed, field", POINT_COMMANDS,
                             ids=[c[0][0] for c in POINT_COMMANDS])
    def test_matches_one_point_sweep(self, argv, metric, fixed, field, capsys):
        node = fixed
        for part in field.split("."):
            node = node[part]
        rows = run_sweep({"metric": metric, "fixed": fixed,
                          "axis": {"field": field, "start": node, "stop": node, "step": 1.0}})
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert out == _fmt(rows[0]["value"]) + "\n"

    def test_numerical_failure_exits_3(self, capsys):
        # s at the MGF pole is a numerical-domain failure at evaluation time
        code, _, err = run(["imgf", "--model", "rayleigh", "--mean-snr-db", "0",
                            "--s", "5.0", "--zeta", "2", "--tail", "upper"], capsys)
        assert code == EXIT_CONFIG or code == EXIT_NUMERICAL
        assert err


class TestSweep:
    SPEC = {
        "metric": "opsc",
        "axis": {"field": "bob.mean_snr_db", "start": 0, "stop": 10, "step": 5,
                 "unit": "db"},
        "fixed": {
            "bob": {"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2, "m": 2,
                    "mean_snr_db": 0},
            "eve": {"kind": "rayleigh", "mean_snr_db": 15},
            "rate_rs": 0.1,
        },
        "output": {"path": "", "format": "csv"},
        # validate keys other than n_samples and seed are ignored
        "validate": {"n_samples": 50_000, "seed": 12, "confidence_sigmas": 2.0},
    }

    def test_rows_sorted_and_complete(self):
        spec = json.loads(json.dumps(self.SPEC))
        rows = run_sweep(spec)
        assert [r["axis"] for r in rows] == [0.0, 5.0, 10.0]
        assert all(0.0 <= r["value"] <= 1.0 for r in rows)
        assert all("mc_estimate" in r for r in rows)

    def test_interference_point_builds_one_mixture(self, monkeypatch):
        # the parse builds the interferer's mixture, which checks it, and the
        # evaluation sums with that mixture
        calls = []
        real = mixture.mixture_from_model

        def counting(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(mixture, "mixture_from_model", counting)
        monkeypatch.setattr(apps, "mixture_from_model", counting)
        fixed = {"desired": KMS_0DB, "interference": json.loads(NAKAGAMI), "gamma_th": 0.25}
        rows = run_sweep({"metric": "op-interference", "fixed": fixed,
                          "axis": {"field": "gamma_th", "start": 0.25, "stop": 0.25,
                                   "step": 1.0}})
        assert len(calls) == 1
        desired, interference = (cli.model_from_json(fixed[key])
                                 for key in ("desired", "interference"))
        assert rows[0]["value"] == apps.outage_interference(desired, interference, 0.25)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spec = json.loads(json.dumps(self.SPEC))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        spec["output"]["path"] = str(out1)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path)]) == EXIT_OK
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_output(self, tmp_path, capsys):
        spec = json.loads(json.dumps(self.SPEC))
        del spec["validate"]
        out = tmp_path / "rows.json"
        spec["output"] = {"path": str(out), "format": "json"}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path)]) == EXIT_OK
        capsys.readouterr()
        rows = json.loads(out.read_text())
        assert len(rows) == 3 and {"axis", "curve", "value"} <= set(rows[0])

    def test_worker_pool_matches_serial(self, monkeypatch):
        spec = json.loads(json.dumps(self.SPEC))
        del spec["validate"]
        serial = run_sweep(json.loads(json.dumps(spec)))
        monkeypatch.setenv("IMGFLIB_WORKERS", "2")
        pooled = run_sweep(json.loads(json.dumps(spec)))
        assert pooled == serial

    def test_monte_carlo_defaults_are_mc_config_defaults(self, monkeypatch):
        # an empty validate block, and --seed left out of a point command or
        # a sweep, take McConfig's defaults
        configs = []
        monkeypatch.setattr(oracles, "mc_opsc",
                            lambda sc, cfg: configs.append(cfg) or (0.0, 0.0))
        spec = json.loads(json.dumps(self.SPEC))
        spec["validate"] = {}
        run_sweep(spec)
        assert set(configs) == {oracles.McConfig()}
        parser = cli._build_parser()
        for argv in (["sweep", "--preset", "fig1"],
                     ["opsc", "--bob", "{}", "--eve", "{}", "--rate", "0.1"]):
            assert parser.parse_args(argv).seed == oracles.McConfig().seed

    @pytest.mark.parametrize("workers", ["abc", "0", "-3", "1.5", ""])
    def test_malformed_worker_count_exits_2(self, workers, tmp_path, capsys, monkeypatch):
        spec = json.loads(json.dumps(self.SPEC))
        del spec["validate"]
        monkeypatch.setenv("IMGFLIB_WORKERS", workers)
        calls = record_evaluations(monkeypatch)
        code, err = run_spec(spec, tmp_path, capsys)
        assert code == EXIT_CONFIG
        assert "IMGFLIB_WORKERS" in err
        assert calls == []

    # fig1-fig5 are outages, pinned byte for byte; fig6-fig8 are rates from
    # a root solve, pinned to its tolerance of 2e-9 absolute
    PRESETS_SOLVED = ("fig6", "fig7", "fig8")

    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_runs(self, preset, tmp_path, capsys):
        # the preset's pinned CSV: the same file, or the same rows with each
        # solved rate within the solve's tolerance
        out = tmp_path / f"{preset}.csv"
        assert main(["sweep", "--preset", preset, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        pinned = (PRESET_DATA / f"{preset}.csv").read_text()
        if preset not in self.PRESETS_SOLVED:
            assert out.read_text() == pinned
            return
        got = list(csv.reader(out.read_text().splitlines()))
        want = list(csv.reader(pinned.splitlines()))
        assert got[0] == want[0] and got[0][0] == "curve"
        assert [row[:-1] for row in got] == [row[:-1] for row in want]
        for row, value in zip(got[1:], want[1:]):
            assert float(row[-1]) == pytest.approx(float(value[-1]), rel=0.0, abs=2e-9), row

    # SHA-256 of each preset's specs (json.dumps with sorted keys), first 16
    # hex digits, frozen when the presets became tables of curves
    PRESET_DIGESTS = {"fig1": "6bdef7618d718e52", "fig2": "8cf4100a383f0438",
                      "fig3": "43a786ef07ae08f8", "fig4": "238bc9e07a2222c0",
                      "fig5": "2e5c712afb709c3a", "fig6": "12ed9d3bcadcd9c6",
                      "fig7": "fa20d5e01044920b", "fig8": "990003e7b75b4af5"}

    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_specs_pinned(self, preset):
        text = json.dumps(cli._preset_specs(preset), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.PRESET_DIGESTS[preset]

    def test_fig8_nondecreasing_in_epsilon(self, tmp_path, capsys):
        out = tmp_path / "fig8.json"
        assert main(["sweep", "--preset", "fig8", "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        capsys.readouterr()
        curves = {}
        for row in json.loads(out.read_text()):
            curves.setdefault(row["curve"], []).append((row["axis"], row["value"]))
        assert len(curves) == 3
        for curve, points in curves.items():
            values = [v for _, v in sorted(points)]
            assert len(values) == 19, curve
            assert all(b >= a for a, b in zip(values, values[1:])), curve

    def test_bad_metric_exits_2(self, tmp_path, capsys):
        spec = json.loads(json.dumps(self.SPEC))
        spec["metric"] = "teleport"
        spec["output"]["path"] = str(tmp_path / "x.csv")
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code = main(["sweep", "--spec", str(p)])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    # each is wrong at every point: exit 2 before any point is evaluated
    BAD_SPECS = {
        "unknown-eve-kind": ("opsc", {"bob": KMS_0DB, "eve": {"kind": "warp",
                                                              "mean_snr_db": 15}}, None),
        "non-integer-nakagami-eve": ("opsc", {"bob": KMS_0DB, "eve": NAKAGAMI_2_5}, None),
        "non-integer-nakagami-interferer": (
            "op-interference",
            {"desired": KMS_0DB, "interference": NAKAGAMI_2_5, "gamma_th": 1.0}, None),
        "capacity-validate": ("capacity", {"channel": KMS_0DB}, {"n_samples": 1000}),
        "zero-mc-samples": ("opsc", {"bob": KMS_0DB, "eve": json.loads(EVE)},
                            {"n_samples": 0}),
        "epsilon-above-1": ("eps-capacity", {"bob": KMS_0DB, "eve": json.loads(EVE),
                                             "epsilon": 1.5}, None),
        "negative-threshold": ("op-interference", {"desired": KMS_0DB,
                                                   "interference": json.loads(EVE),
                                                   "gamma_th": -0.5}, None),
        "unknown-tail": ("imgf", {"model": KMS_0DB, "s": -0.5, "zeta": 1.0,
                                  "tail": "sideways"}, None),
        "deriv-order-13": ("imgf", {"model": KMS_0DB, "s": -0.5, "zeta": 1.0,
                                    "tail": "upper", "deriv_order": 13}, None),
    }

    @pytest.mark.parametrize("case", BAD_SPECS)
    def test_bad_spec_exits_2_before_any_evaluation(self, case, tmp_path, capsys,
                                                    monkeypatch):
        metric, fixed, validate = self.BAD_SPECS[case]
        spec = {"metric": metric, "fixed": fixed,
                "axis": {"field": f"{next(iter(fixed))}.mean_snr_db",
                         "start": 0, "stop": 10, "step": 5}}
        if validate is not None:
            spec["validate"] = validate
        calls = record_evaluations(monkeypatch)
        code, err = run_spec(spec, tmp_path, capsys)
        assert code == EXIT_CONFIG, err
        assert calls == []

    def test_bad_axis_point_is_named_before_any_evaluation(self, tmp_path, capsys,
                                                          monkeypatch):
        # eve.m = 1 is a valid Nakagami eavesdropper, 1.5 is not
        spec = {"metric": "opsc",
                "fixed": {"bob": KMS_0DB, "eve": {**NAKAGAMI_2_5, "m": 1}},
                "axis": {"field": "eve.m", "start": 1.0, "stop": 1.5, "step": 0.5}}
        calls = record_evaluations(monkeypatch)
        code, err = run_spec(spec, tmp_path, capsys)
        assert code == EXIT_CONFIG
        assert "eve.m=1.5" in err
        assert calls == []

    def test_spec_left_unchanged(self):
        spec = json.loads(json.dumps(self.SPEC))
        run_sweep(spec)
        assert spec == self.SPEC

    @pytest.mark.parametrize("label", ["two\nlines", 'a comma, and "quotes"'],
                             ids=["newline", "comma-quotes"])
    def test_curve_label_round_trips_through_csv(self, label, tmp_path, capsys):
        spec = json.loads(json.dumps(self.SPEC))
        del spec["validate"]
        spec["curve"] = label
        assert run_spec(spec, tmp_path, capsys)[0] == EXIT_OK
        with open(tmp_path / "x.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == [label] * 3

    def test_numerical_failure_names_grid_point(self, tmp_path, capsys):
        spec = {
            "metric": "imgf",
            "axis": {"field": "s", "start": 0.0, "stop": 2.0, "step": 1.0,
                     "unit": "linear"},
            "fixed": {"model": {"kind": "rayleigh", "mean_snr_db": 0},
                      "s": 0.0, "zeta": 1.0, "tail": "upper"},
            "output": {"path": str(tmp_path / "x.csv"), "format": "csv"},
        }
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code = main(["sweep", "--spec", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "s=" in captured.err


class TestSelfcheck:
    def test_passes_and_counts(self):
        buf = io.StringIO()
        assert selfcheck(out=buf) == EXIT_OK
        lines = [l for l in buf.getvalue().splitlines() if l]
        assert len(lines) >= 10  # at least one check per acceptance criterion
        assert all(l.startswith("PASS") for l in lines)

    def test_text_stable_under_rounding_changes(self, monkeypatch):
        # a passing check prints its bound, not its defect, so a kernel change
        # at the rounding level leaves the output byte-identical
        buf = io.StringIO()
        assert selfcheck(out=buf) == EXIT_OK
        real = incomplete.imgf_lower
        monkeypatch.setattr(incomplete, "imgf_lower",
                            lambda *args: real(*args) * (1.0 + 1e-14))
        perturbed = io.StringIO()
        assert selfcheck(out=perturbed) == EXIT_OK
        assert perturbed.getvalue() == buf.getvalue()

    def test_fault_injection_names_failure(self, monkeypatch):
        # corrupt one mixture coefficient and expect the named check to fail
        real = mixture.mixture_params

        def corrupt(kappa, mu, m, mean_snr):
            mix = real(kappa, mu, m, mean_snr)
            terms = list(mix.terms)
            c, omega, mi = terms[0]
            terms[0] = (c, omega * 1.01, mi)
            object.__setattr__(mix, "terms", tuple(terms))
            return mix

        monkeypatch.setattr(mixture, "mixture_params", corrupt)
        # mixtures are memoised per model: build them afresh through the
        # corrupt table, and drop them again afterwards
        mixture.mixture_from_model.cache_clear()
        buf = io.StringIO()
        try:
            code = selfcheck(out=buf)
        finally:
            mixture.mixture_from_model.cache_clear()
        text = buf.getvalue()
        assert code != EXIT_OK
        assert any(l.startswith("FAIL mixture-vs-cdf") for l in text.splitlines())

    def test_cli_entry(self, capsys):
        assert main(["selfcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 10
