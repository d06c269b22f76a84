import json

import pytest

from bsclab import cli, compressor


def run_cli(args):
    return cli.main(args)


def load_without_clock(path):
    doc = json.loads(path.read_text())
    doc.pop("wall_clock_seconds")
    return doc


class TestChunkVerify:
    def test_report_and_exit_code(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "chunk-verify",
                "--gamma", "8",
                "--epsilon", "0.1",
                "--samples", "1500",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["exact_max_abs_diff"] <= 1e-10
        assert doc["metrics"]["chi2_p_value"] >= 0.001
        assert all(t["passed"] for t in doc["tests"])

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                ["chunk-verify", "--gamma", "6", "--epsilon", "0.1",
                 "--samples", "400", "--seed", "3", "--out", str(path)]
            )
        assert load_without_clock(a) == load_without_clock(b)

    def test_csv_row_per_trial(self, tmp_path):
        csv_path = tmp_path / "trials.csv"
        run_cli(
            ["chunk-verify", "--gamma", "6", "--epsilon", "0.1",
             "--samples", "250", "--seed", "3", "--csv", str(csv_path)]
        )
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 251  # header + one row per trial

    def test_default_theta_clamped_at_zero(self, tmp_path):
        # gamma * (1/2 - 3 eps) is negative at eps 0.2; the default clamps it.
        out = tmp_path / "clamped.json"
        code = run_cli(
            ["chunk-verify", "--epsilon", "0.2", "--gamma", "20", "--samples", "2000",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["parameters"]["theta"] == 0.0

    def test_explicit_theta_and_default_t(self, tmp_path):
        out = tmp_path / "explicit.json"
        code = run_cli(
            ["chunk-verify", "--theta", "4", "--t", "default", "--samples", "0",
             "--out", str(out)]
        )
        assert code == 0
        parameters = json.loads(out.read_text())["parameters"]
        assert parameters["theta"] == 4
        assert parameters["t"] == compressor.default_t(0.1)

    def test_advantage_of_a_quarter_exits_2(self, capsys):
        # The low branch proposes at advantage 2 eps, which must stay < 1/2.
        code = run_cli(["chunk-verify", "--epsilon", "0.3", "--gamma", "20", "--samples", "10"])
        assert code == 2
        assert (
            "eps=0.3, gamma=20, theta=0, t=109.951: nested advantage 2*eps=0.6 outside (0, 1/2)"
            in capsys.readouterr().err
        )

    def test_above_class_dp_depth_checks_channel_law(self, tmp_path):
        # The class DP has no depth limit: at canonical gamma 100 it runs
        # before the sampled classes are tested against it.
        out = tmp_path / "deep.json"
        code = run_cli(
            ["chunk-verify", "--gamma", "100", "--epsilon", "0.1", "--samples", "300",
             "--seed", "7", "--out", str(out)]
        )
        assert code != 2
        doc = json.loads(out.read_text())
        names = [t["name"] for t in doc["tests"]]
        assert "chi-square fit at 0.001" in names
        assert "exact law matches product binomial (1e-10)" in names
        assert doc["metrics"]["exact_max_abs_diff"] <= 1e-10
        assert doc["metrics"]["trials"] == 300

    def test_invalid_params_exit_nonzero(self, capsys):
        # Building the chunk checks its parameters before any trial runs, at
        # any depth.
        for gamma in ("7", "101"):
            code = run_cli(
                ["chunk-verify", "--gamma", gamma, "--epsilon", "0.1", "--samples", "10"]
            )
            assert code == 2
            assert "gamma must be even" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--gamma", "21", "--samples", "0"], "gamma must be even"),
            (["--t", "0.001"], "t=0.001 below the high-branch acceptance supremum 28.9255"),
            (["--gamma", "6000", "--t", "1e300"], "below the high-branch acceptance supremum inf"),
        ],
        ids=["odd-gamma", "t-below-supremum", "supremum-beyond-floats"],
    )
    def test_invalid_params_above_beta_exit_2(self, capsys, args, message):
        # eps 0.2 is above beta, where a chunk is checked like any other.
        code = run_cli(["chunk-verify", "--epsilon", "0.2", *args])
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err
        assert "[PASS]" not in out and "[FAIL]" not in out


class TestCompress:
    def test_direct_regime_bits(self, tmp_path):
        out = tmp_path / "c.json"
        code = run_cli(
            ["compress", "--epsilon", "0.3", "--rounds", "9", "--trials", "50",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["mean_bits"] == 10.0  # padded to even length

    def test_each_chunk_law_checked(self, tmp_path):
        # 150 rounds at eps 0.1: a canonical 100-round chunk, then a 50-round one
        out = tmp_path / "c.json"
        code = run_cli(
            ["compress", "--epsilon", "0.1", "--rounds", "150", "--trials", "100",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["chunks"] == 2
        assert [t["name"] for t in doc["tests"]] == [
            "chunk 0 (100 rounds) class law chi-square at 0.001",
            "chunk 1 (50 rounds) class law chi-square at 0.001",
            "mean bits within alpha ceiling",
        ]
        assert all(t["passed"] for t in doc["tests"])

    def test_alpha_ceiling_reads_t_from_the_plan(self, tmp_path):
        # At eps 0.1175 the 74-round chunks run at their acceptance supremum,
        # above default_t; the ceiling takes the larger t.
        out = tmp_path / "c.json"
        code = run_cli(
            ["compress", "--epsilon", "0.1175", "--rounds", "148", "--trials", "3",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        sup = compressor.minimal_t(74, 0.1175, compressor.default_theta(74, 0.1175))
        assert sup > compressor.default_t(0.1175)
        ceiling = json.loads(out.read_text())["metrics"]["alpha_ceiling"]
        assert ceiling == pytest.approx((50.0 * sup**2 + 10.0) * 5)  # ceil(eps^2 * 296) = 5

    def test_chunked_regime_runs(self, tmp_path):
        code = run_cli(
            ["compress", "--epsilon", "0.1", "--rounds", "4", "--trials", "40",
             "--seed", "2"]
        )
        assert code == 0


class TestWalk:
    def test_brw_battery(self, tmp_path):
        out = tmp_path / "walk.json"
        code = run_cli(
            ["walk", "--mode", "brw", "--a", "13", "--b", "13",
             "--trials", "200", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["top_fraction"] == 1.0
        assert doc["metrics"]["mean_energy"] <= 48.0

    def test_ubrw_battery(self):
        code = run_cli(
            ["walk", "--mode", "ubrw", "--a", "3", "--b", "1",
             "--trials", "4000", "--seed", "1"]
        )
        assert code == 0

    def test_ubrw_empty_interval_exits_2(self, capsys):
        code = run_cli(["walk", "--mode", "ubrw", "--a", "0", "--b", "0"])
        assert code == 2
        assert "a + b must be >= 1, got a=0, b=0" in capsys.readouterr().err


class TestSamplePrior:
    def test_single_pair(self, tmp_path):
        out = tmp_path / "sp.json"
        code = run_cli(
            ["sample-prior", "--p", "0.25", "--q", "0.25", "--grid-n", "64",
             "--samples", "2000", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["max_energy_ratio"] == 0.0
        assert [t["name"] for t in doc["tests"]] == [
            "mean within 3 sigma at p=0.25, q=0.25",
            "energy ratio <= 200 at p=0.25, q=0.25",
        ]

    def test_certain_prior_named_as_given(self, capsys):
        code = run_cli(["sample-prior", "--p", "0.5", "--q", "1.0", "--samples", "10"])
        assert code == 2
        assert "prior q=1.0 forces the parameter to 1.0, got p=0.5" in capsys.readouterr().err

    def test_pair_list(self):
        code = run_cli(
            ["sample-prior", "--pairs", "0.3:0.2,0.01:0.002", "--grid-n", "128",
             "--samples", "2000", "--seed", "4"]
        )
        assert code == 0


class TestIcost:
    def test_noisy_relay_value(self, tmp_path):
        spec_path = tmp_path / "xor_noise.json"
        spec_path.write_text(
            json.dumps(
                {
                    "rounds": 1,
                    "alice_inputs": [0, 1],
                    "bob_inputs": [0],
                    "kind": "xor",
                    "noise": 0.25,
                }
            )
        )
        out = tmp_path / "icost.json"
        code = run_cli(["icost", "--spec", str(spec_path), "--mu", "uniform",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["external_info_cost_bits"] == pytest.approx(
            0.188722, abs=1e-6
        )

    def test_explicit_mu_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"rounds": 2, "alice_inputs": [0, 1], "bob_inputs": [0, 1], "kind": "xor"}
            )
        )
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(
            json.dumps(
                {"pairs": [{"x": x, "y": y, "w": 0.25} for x in (0, 1) for y in (0, 1)]}
            )
        )
        code = run_cli(["icost", "--spec", str(spec_path), "--mu", str(mu_path)])
        assert code == 0

    @pytest.mark.parametrize(
        "mu_doc, message",
        [
            ({"rows": []}, "missing field 'pairs'"),
            ([{"x": 0, "y": 0, "w": 1.0}], 'is not {"pairs"'),
            ({"pairs": [{"x": 0, "y": 0, "w": 0.5}, {"x": 2, "y": 0, "w": 0.5}]},
             "input pair (2, 0) outside the declared domains"),
            ({"pairs": [{"x": 0, "y": y, "w": 0.45} for y in (0, 1)]},
             "input distribution sums to 0.9"),
            ({"pairs": [{"x": 0, "y": 0, "w": 0.5}, {"x": 1, "y": 1, "w": 0.5},
                        {"x": 0, "y": 0, "w": 0.5}]},
             "lists input pair (0, 0) twice"),
        ],
        ids=["no pairs", "not an object", "pair outside the domains", "total 0.9",
             "repeated pair"],
    )
    def test_bad_mu_file_exits_2(self, tmp_path, capsys, mu_doc, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"rounds": 2, "alice_inputs": [0, 1], "bob_inputs": [0, 1], "kind": "xor"}
            )
        )
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps(mu_doc))
        assert run_cli(["icost", "--spec", str(spec_path), "--mu", str(mu_path)]) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize(
        "field, entry",
        [("table", None), ("table", "abc"), ("crossover_table", None), ("crossover_table", "x")],
    )
    def test_non_numeric_table_entry_exits_2(self, tmp_path, capsys, field, entry):
        doc = {
            "rounds": 1,
            "alice_inputs": [0],
            "bob_inputs": [0],
            "kind": "table",
            "table": {"alice": {"0": {"": 1}}},
            "crossover_table": {"alice": {"0": {"": 0.1}}},
        }
        doc[field]["alice"]["0"][""] = entry
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert run_cli(["icost", "--spec", str(spec_path), "--mu", "uniform"]) == 2
        named = f"{field} entry {entry!r} at (alice, '0', '') is not a number"
        assert named in capsys.readouterr().err


class TestEquiv:
    def test_eclb_quick(self, tmp_path):
        out = tmp_path / "eq.json"
        code = run_cli(
            ["equiv", "--mode", "eclb", "--instances", "10", "--seed", "9",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["eclb_worst_slack_bits"] <= 1e-9

    def test_ecub_quick(self, tmp_path):
        out = tmp_path / "eq.json"
        code = run_cli(
            ["equiv", "--mode", "ecub", "--samples", "1200", "--grid-n", "32",
             "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        ratio_checks = [t for t in doc["tests"] if "energy ratio <= 1e4" in t["name"]]
        assert len(ratio_checks) == 3 and doc["metrics"]["ecub_max_energy_ratio"] <= 1e4


class TestSuiteCommand:
    def test_subset_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = run_cli(["suite", "--criteria", "1,5", "--seed", "1", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "criterion_01_name = chunk exactness (analytic)" in captured
        assert "[PASS] criterion_05: closed-form masses match class sums (1e-12)" in captured
        doc = json.loads(out.read_text())
        assert doc["metrics"]["criterion_05_name"] == "per-round acceptance masses"
        assert {t["name"].split(":")[0] for t in doc["tests"]} == {"criterion_01", "criterion_05"}
        assert all(t["passed"] for t in doc["tests"])

    @pytest.mark.parametrize(
        "criteria,unknown",
        [("13", "[13]"), ("5,99", "[99]"), ("0,12,14", "[0, 14]")],
        ids=["13", "5,99", "0,12,14"],
    )
    def test_unknown_criteria_exit_2(self, capsys, criteria, unknown):
        code = run_cli(["suite", "--criteria", criteria])
        assert code == 2
        captured = capsys.readouterr()
        assert f"unknown criteria {unknown}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "criteria,repeated", [("5,5", "[5]"), ("1,4,1,4,1", "[1, 4]")], ids=["5,5", "1,4,1,4,1"]
    )
    def test_repeated_criteria_exit_2(self, capsys, criteria, repeated):
        code = run_cli(["suite", "--criteria", criteria])
        assert code == 2
        captured = capsys.readouterr()
        assert f"--criteria repeats {repeated}" in captured.err
        assert captured.out == ""

    def test_suite_reports_byte_identical_modulo_clock(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(["suite", "--criteria", "4,5,12", "--seed", "6", "--out", str(path)])
        text_a = "\n".join(l for l in a.read_text().splitlines() if "wall_clock" not in l)
        text_b = "\n".join(l for l in b.read_text().splitlines() if "wall_clock" not in l)
        assert text_a == text_b


class TestCounts:
    @pytest.mark.parametrize(
        "args,message",
        [
            ("walk --mode brw --a 3 --b 1 --trials 0".split(), "trials must be >= 1, got 0"),
            ("walk --mode ubrw --a 3 --b 1 --trials 0".split(), "trials must be >= 1, got 0"),
            (["compress", "--trials", "0"], "trials must be >= 1, got 0"),
            (["sample-prior", "--samples", "0"], "samples must be >= 1, got 0"),
            (["equiv", "--mode", "ecub", "--samples", "0"], "samples must be >= 1, got 0"),
            (["equiv", "--mode", "eclb", "--instances", "-3"], "instances must be >= 1, got -3"),
            (["chunk-verify", "--samples", "-5"], "samples must be >= 0, got -5"),
            (["sample-prior", "--grid-n", "0"], "grid_n must be >= 1, got 0"),
        ],
        ids=[
            "walk-brw", "walk-ubrw", "compress", "sample-prior", "ecub", "eclb", "chunk-verify",
            "grid-n",
        ],
    )
    def test_non_positive_count_exits_2(self, capsys, args, message):
        code = run_cli(args)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["suite", "--criteria", "4"], ["equiv", "--mode", "ecub"]],
        ids=["suite", "equiv-ecub"],
    )
    def test_negative_seed_named(self, capsys, args):
        code = run_cli([*args, "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--seed must be a non-negative integer, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args,message",
        [
            (["sample-prior", "--pairs", "0.3"], "--pairs entry '0.3' is not p:q"),
            (["sample-prior", "--pairs", "0.3:0.2,x:0.1"], "--pairs entry 'x:0.1' is not p:q"),
            (["suite", "--criteria", "1,,2"], "--criteria entry '' is not an integer"),
        ],
        ids=["pairs-arity", "pairs-number", "criteria"],
    )
    def test_bad_list_entry_named(self, capsys, args, message):
        code = run_cli(args)
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_bad_t_named(self, capsys, value):
        code = run_cli(["chunk-verify", "--t", value, "--samples", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"--t is {value!r}, not \"minimal\", \"default\" or a finite number" in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308", "-0.5"])
    def test_bad_theta_named(self, capsys, value):
        code = run_cli(["chunk-verify", "--theta", value, "--samples", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"--theta is {float(value)!r}, not a finite number in [0, gamma=20]" in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--samples", "0", "samples must be >= 1, got 0"),
         ("--grid-n", "0", "grid_n must be >= 1, got 0")],
        ids=["samples", "grid-n"],
    )
    def test_equiv_both_checks_ecub_counts_before_eclb_runs(
        self, capsys, monkeypatch, flag, value, message
    ):
        def no_run(*args):
            raise AssertionError("eclb ran before the ecub counts were checked")

        monkeypatch.setattr(cli.suite, "eclb_experiment", no_run)
        assert run_cli(["equiv", "--mode", "both", flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_zero_chunk_samples_check_exact_law_only(self, tmp_path):
        out = tmp_path / "exact.json"
        assert run_cli(["chunk-verify", "--samples", "0", "--out", str(out)]) == 0
        names = [t["name"] for t in json.loads(out.read_text())["tests"]]
        assert names == ["exact law matches product binomial (1e-10)"]


class TestEmitReport:
    def test_serialize_twice_identical(self, tmp_path):
        doc = {
            "experiment": "demo",
            "parameters": {"b": 2, "a": 1},
            "metrics": {"zeta": 1.0, "alpha": 2.0},
        }
        other = {
            "metrics": {"alpha": 2.0, "zeta": 1.0},
            "parameters": {"a": 1, "b": 2},
            "experiment": "demo",
        }
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        cli.write_json(doc, str(p1))
        cli.write_json(other, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["experiment"] == "demo"


def _seeded_spec_file(tmp_path, rounds=6):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {"rounds": rounds, "alice_inputs": [0, 1], "bob_inputs": [0, 1],
             "kind": "seeded", "seed": 5}
        )
    )
    return path


# Every subcommand at a small size, with the CSV shape its report implies:
# one row per trial where the experiment has trials, else one
# `metric,value` row per scalar metric.
SUBCOMMANDS = {
    "chunk-verify": (["chunk-verify", "--gamma", "6", "--samples", "200"], 200),
    "compress": (["compress", "--rounds", "8", "--trials", "20"], 20),
    "walk-brw": (["walk", "--mode", "brw", "--a", "13", "--b", "13", "--trials", "30"], 30),
    "walk-ubrw": (["walk", "--mode", "ubrw", "--a", "3", "--b", "1", "--trials", "40"], 40),
    "sample-prior": (["sample-prior", "--pairs", "0.3:0.2,0.25:0.25", "--grid-n", "32",
                      "--samples", "2000"], 2),
    "icost": (["icost", "--spec", "SPEC"], None),
    "equiv": (["equiv", "--instances", "5", "--samples", "600", "--grid-n", "16"], None),
    "suite": (["suite", "--criteria", "1"], None),
}


class TestOneReportPath:
    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_json_keys_csv_shape_and_exit(self, tmp_path, name):
        args, trial_rows = SUBCOMMANDS[name]
        args = [str(_seeded_spec_file(tmp_path)) if a == "SPEC" else a for a in args]
        out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        code = run_cli([*args, "--seed", "3", "--out", str(out), "--csv", str(csv_path)])
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "experiment", "parameters", "seeds", "metrics", "tests", "wall_clock_seconds"
        }
        assert code == 0 and all(t["passed"] for t in doc["tests"])
        lines = csv_path.read_text().splitlines()
        if trial_rows is not None:
            assert len(lines) == 1 + trial_rows
            return
        scalars = [
            k for k, v in doc["metrics"].items() if isinstance(v, (int, float, str, bool))
        ]
        assert scalars and lines[0] == "metric,value"
        assert sorted(lines[1:]) == sorted(f"{k},{doc['metrics'][k]}" for k in scalars)


class TestSpecFile:
    def test_spec_file_named_in_parameters(self, tmp_path):
        spec = _seeded_spec_file(tmp_path, rounds=8)
        out = tmp_path / "r.json"
        code = run_cli(["chunk-verify", "--gamma", "8", "--samples", "200",
                        "--spec", str(spec), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["spec"] == str(spec)
        assert doc["seeds"] == {"base": 7}

    def test_compress_spec_file_named_in_parameters(self, tmp_path):
        out = tmp_path / "r.json"
        for seed in (5, 9):
            spec = tmp_path / f"spec{seed}.json"
            spec.write_text(
                json.dumps({"rounds": 12, "alice_inputs": [0, 1], "bob_inputs": [0, 1],
                            "kind": "seeded", "seed": seed})
            )
            code = run_cli(["compress", "--trials", "5", "--spec", str(spec), "--out", str(out)])
            assert code == 0
            doc = json.loads(out.read_text())
            assert doc["parameters"] == {
                "epsilon": 0.1, "rounds": 12, "trials": 5, "spec": str(spec)
            }

    def test_seeded_default_spec_records_its_seed(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["chunk-verify", "--gamma", "8", "--samples", "200",
                        "--spec-seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "spec" not in doc["parameters"]
        assert doc["seeds"] == {"base": 7, "spec": 5}


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["walk", "--a", "3"])
