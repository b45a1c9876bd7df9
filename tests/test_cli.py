import json
import shlex
import subprocess
import sys

import pytest

from revcurve import curves
from revcurve.cli import main
from revcurve.curves import LearningCurve


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCurveCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "curve",
                "--learner", "erm",
                "--dist", "uniform01",
                "--grid", "100,1000",
                "--trials", "50",
                "--seed", "7",
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        for name in ("curve.csv", "curve.json", "curve.svg"):
            assert (tmp_path / name).exists(), name
        summary = json.loads(out)
        assert "curve" in summary

    def test_byte_identical_rerun(self, tmp_path, capsys):
        args = [
            "curve", "--learner", "erm", "--dist", "uniform01",
            "--grid", "50,200", "--trials", "40", "--seed", "3",
        ]
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert run_cli(args + ["--out", str(d)], capsys)[0] == 0
            outs.append({name: (d / name).read_bytes() for name in ("curve.csv", "curve.json", "curve.svg")})
        assert outs[0] == outs[1]

    def test_csv_roundtrip_exact(self, tmp_path, capsys):
        run_cli(
            ["curve", "--learner", "erm", "--dist", "uniform01", "--grid", "50,150",
             "--trials", "60", "--seed", "5", "--out", str(tmp_path)],
            capsys,
        )
        curve = LearningCurve.from_csv(tmp_path / "curve.csv")
        doc = json.loads((tmp_path / "curve.json").read_text())
        for pt, rec in zip(curve.points, doc["points"]):
            assert pt.mean_gap == rec["mean_gap"]  # exact float round-trip
            assert pt.std_err == rec["std_err"]

    def test_no_decay_flagged_on_plateau(self, tmp_path, capsys):
        # a learner stuck at price 1 keeps a constant gap of 1 on this law,
        # so the fit summary must flag the missing decay
        code, out, _ = run_cli(
            ["curve", "--learner", "const:1", "--dist", "discrete_no_opt:truncation_depth=200",
             "--grid", "10,40,160,640", "--trials", "60", "--seed", "11", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert json.loads(out).get("flag") == "no positive decay detected"

    def test_erm_climbs_no_opt_support_without_flag(self, tmp_path, capsys):
        # ERM keeps outputting ever-larger support points here, so its gap
        # genuinely decays even though the sup is attained by no price
        code, out, _ = run_cli(
            ["curve", "--learner", "erm", "--dist", "discrete_no_opt:truncation_depth=200",
             "--grid", "10,40,160,640", "--trials", "60", "--seed", "11", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "flag" not in json.loads(out)

    def test_missing_flags_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["curve", "--learner", "erm", "--out", str(tmp_path)], capsys)
        assert code == 2 and "config error" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "learner": "erm", "dist": "uniform01", "grid": "50,100",
            "trials": 30, "out": str(tmp_path / "from_config"),
        }))
        code, _, _ = run_cli(["curve", "--config", str(cfg), "--trials", "25", "--seed", "2"], capsys)
        assert code == 0
        curve = LearningCurve.from_csv(tmp_path / "from_config" / "curve.csv")
        assert curve.points[0].trials == 25  # the flag beat the config file

    @pytest.mark.parametrize("doc,named", [
        ({"learner": "erm", "dist": "uniform01", "grid": "50,100", "trails": 5}, "trails"),
        (["learner", "erm"], "JSON object"),
    ])
    def test_config_file_unknown_key_exit_2(self, tmp_path, capsys, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "from_config"
        code, _, err = run_cli(["curve", "--config", str(cfg), "--trials", "25", "--out", str(out)], capsys)
        assert code == 2 and "config error" in err and named in err
        assert not out.exists()

    def test_config_values_take_flag_types(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = curves.learning_curve

        def recording(*args, workers):
            seen.append(workers)
            return real(*args, workers=1)

        monkeypatch.setattr(curves, "learning_curve", recording)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "learner": "erm", "dist": "uniform01", "grid": "50,100", "trials": "30",
            "workers": "2", "seed": "5", "out": str(tmp_path / "from_config"),
        }))
        code, _, err = run_cli(["curve", "--config", str(cfg)], capsys)
        assert code == 0, err
        assert seen == [2]
        doc = json.loads((tmp_path / "from_config" / "curve.json").read_text())
        assert doc["base_seed"] == 5
        assert [(p["n"], p["trials"]) for p in doc["points"]] == [(50, 30), (100, 30)]

    def test_config_list_grid_matches_flag(self, tmp_path, capsys):
        args = ["curve", "--learner", "erm", "--dist", "uniform01", "--trials", "20", "--seed", "4"]
        assert run_cli(args + ["--grid", "30,60", "--out", str(tmp_path / "flag")], capsys)[0] == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": [30, 60], "out": str(tmp_path / "config")}))
        assert run_cli(args + ["--config", str(cfg)], capsys)[0] == 0
        for name in ("curve.csv", "curve.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()

    @pytest.mark.parametrize("key,value", [("workers", "two"), ("trials", 2.5), ("seed", True), ("grid", [50, "x"])])
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        doc = {"learner": "erm", "dist": "uniform01", "grid": "50,100", "trials": 20}
        cfg.write_text(json.dumps(doc | {key: value}))
        out = tmp_path / "from_config"
        code, _, err = run_cli(["curve", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2 and "config error" in err and key in err
        assert not out.exists()

    def test_curve_json_point_keys(self, tmp_path, capsys):
        args = ["curve", "--learner", "erm", "--dist", "uniform01", "--grid", "20,40", "--trials", "10"]
        assert run_cli(args + ["--out", str(tmp_path)], capsys)[0] == 0
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert set(doc) == {"learner", "distribution", "base_seed", "points"}
        for point in doc["points"]:
            assert set(point) == {"n", "trials", "mean_gap", "std_err"}

    def test_infeasible_dist_exit_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", "two_point:p=1,p_prime=3,c=4",
             "--grid", "10,20", "--trials", "10", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3 and "infeasible" in err

    def test_cmd_learner_keeps_quoted_arguments(self, tmp_path, capsys):
        # the command line is split as a shell would, so "print(1.5)" stays one argument
        spec = f'cmd:{shlex.quote(sys.executable)} -c "print(1.5)"'
        code, _, _ = run_cli(
            ["curve", "--learner", spec, "--dist", "two_point:p=1,p_prime=3,c=2", "--grid", "2,3",
             "--trials", "2", "--workers", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert doc["learner"] == f"cmd[{shlex.quote(sys.executable)} -c 'print(1.5)']"
        # price 1.5 sells with probability 2/3 against opt 2
        assert [p["mean_gap"] for p in doc["points"]] == [1.0, 1.0]

    @pytest.mark.parametrize("spec", ["finite:nan@1", "finite:1@0.5,inf@0.5"])
    def test_non_finite_atom_exit_3(self, tmp_path, capsys, spec):
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", spec, "--grid", "10,20", "--trials", "10", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3 and "atom values and masses must be finite" in err
        assert not (tmp_path / "curve.json").exists()


class TestSeedPrecedence:
    def test_env_var_overrides_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REVCURVE_SEED", "12345")
        run_cli(["curve", "--learner", "erm", "--dist", "uniform01", "--grid", "20,40",
                 "--trials", "20", "--out", str(tmp_path)], capsys)
        assert LearningCurve.from_csv(tmp_path / "curve.csv").base_seed == 12345

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REVCURVE_SEED", "12345")
        run_cli(["curve", "--learner", "erm", "--dist", "uniform01", "--grid", "20,40",
                 "--trials", "20", "--seed", "9", "--out", str(tmp_path)], capsys)
        assert LearningCurve.from_csv(tmp_path / "curve.csv").base_seed == 9


class TestAdversaryCommand:
    def test_depth_one_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["adversary", "--learner", "erm", "--depth", "1", "--out", str(tmp_path)], capsys)
        assert code == 2

    def test_transcript_and_validation(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["adversary", "--learner", "erm", "--phi", "inv", "--depth", "4",
             "--trials", "400", "--seed", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        con = json.loads((tmp_path / "construction.json").read_text())
        assert con["depth"] == 4 and len(con["i"]) == 4
        for j in range(2, 5):
            assert con["i"][j - 1] * con["P"][j - 1] == pytest.approx(2.0 - con["R"][j - 2], abs=1e-9)
        val = json.loads((tmp_path / "validation.json").read_text())
        assert len(val["levels"]) == 3
        assert "level" in out

    def test_constant_learner_meets_quarter_target_every_level(self, tmp_path, capsys):
        # a learner pinned at price 1 earns exactly 1/2, so its gap clears the
        # R(j)/4 target at every level of the depth-5 construction
        code, _, _ = run_cli(
            ["adversary", "--learner", "const:1", "--phi", "inv", "--depth", "5",
             "--trials", "300", "--seed", "13", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        val = json.loads((tmp_path / "validation.json").read_text())
        assert len(val["levels"]) == 4
        assert all(row["meets_target"] for row in val["levels"])

    def test_budget_exhaustion_exit_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["adversary", "--learner", "erm", "--depth", "7", "--max-datasets", "50",
             "--trials", "100", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3 and "budget" in err.lower()

    def test_subprocess_learner_transcript_invariants(self, tmp_path):
        # black-box adversary run: a deterministic external learner (prints the
        # max sample value) driven through the subprocess protocol
        from revcurve.adversary import build_slow_rate_distribution
        from revcurve.learners import make_subprocess

        prog = "import sys; d=sys.stdin.read().split(); n=int(d[0]); print(max(map(float, d[1:n+1])))"
        lr = make_subprocess([sys.executable, "-c", prog], deterministic=True)
        dist, con = build_slow_rate_distribution(lr, lambda j: 1.0 / j, depth=4)
        con.check_invariants(atol=1e-9)


class TestGadgetCommand:
    def test_both_sides_pass(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gadget", "--x", "1.0", "--q", "0.5", "--p", "0.05", "--trials", "2000",
             "--seed", "6", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "gadget.json").read_text())
        assert json.loads(out)["all_pass"] is True
        assert doc["midpoint"] == pytest.approx((doc["x_pq"] + 1.0) / 2.0, abs=1e-15)
        assert [row["c"] for row in doc["coin_game"]] == [1.0, 4.0, 16.0]
        for sigma in ("-1", "1"):
            assert doc["members"][sigma]["passed"] is True
            assert doc["members"][sigma]["wrong_side_passed"] is False

    def test_gadget_json_top_level_keys(self, tmp_path, capsys):
        args = ["gadget", "--x", "0.9", "--q", "0.6", "--p", "0.2", "--trials", "100", "--out", str(tmp_path)]
        assert run_cli(args, capsys)[0] == 0
        doc = json.loads((tmp_path / "gadget.json").read_text())
        assert set(doc) == {"x", "q", "p", "gamma", "x_pq", "midpoint", "members", "coin_game"}

    def test_infeasible_p_exit_3(self, capsys):
        code, _, err = run_cli(["gadget", "--x", "0.6", "--q", "0.5", "--p", "0.5"], capsys)
        assert code == 3 and "x_pq" in err


class TestCoinAndFit:
    def test_coin_prints_result(self, capsys):
        code, out, _ = run_cli(
            ["coin", "--p", "0.01", "--gamma", "0.001", "--c", "1", "--trials", "2000", "--seed", "8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 10_000 and 0.05 < doc["error_rate"] < 0.3

    def test_coin_stdout_keys(self, capsys):
        code, out, _ = run_cli(["coin", "--p", "0.3", "--gamma", "0.05", "--c", "4", "--trials", "100"], capsys)
        assert code == 0
        assert set(json.loads(out)) == {"p", "gamma", "c", "n", "trials", "error_rate", "std_err"}

    def test_fit_stdout_keys(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write("n,trials,mean_gap,std_err,seed\n")
            for n in (10, 100, 1000):
                fh.write(f"{n},100,{n**-0.5!r},{n**-0.5 * 1e-6!r},0\n")
        code, out, _ = run_cli(["fit", "--csv", str(path), "--model", "both"], capsys)
        assert code == 0
        fits = [json.loads(line) for line in out.splitlines()]
        assert [fit["model"] for fit in fits] == ["power", "exponential"]
        for fit in fits:
            assert set(fit) == {"model", "slope_or_rate", "intercept", "r_squared", "points_used"}

    def test_fit_on_written_csv(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write("n,trials,mean_gap,std_err,seed\n")
            for n in (10, 100, 1000):
                fh.write(f"{n},100,{n**-0.5!r},{n**-0.5 * 1e-6!r},0\n")
        code, out, _ = run_cli(["fit", "--csv", str(path), "--model", "power"], capsys)
        assert code == 0
        fit = json.loads(out)
        assert fit["slope_or_rate"] == pytest.approx(-0.5, abs=1e-9)

    def test_fit_insufficient_data_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write("n,trials,mean_gap,std_err,seed\n")
            fh.write("10,100,0.0,0.0,0\n")
        code, _, _ = run_cli(["fit", "--csv", str(path), "--model", "power"], capsys)
        assert code == 2


class TestZooCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(["zoo", "list"], capsys)
        assert code == 0
        names = out.strip().splitlines()
        assert "erm_hard" in names and "uniform01" in names


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "revcurve", "zoo", "list"], capture_output=True, text=True
        )
        assert proc.returncode == 0 and "erm_hard" in proc.stdout


class TestNonFiniteGrowthSpec:
    @pytest.mark.parametrize("spec", ["structural:f=n^nan", "structural:f=const:inf", "capped:g=const:inf"])
    def test_exit_2(self, tmp_path, capsys, spec):
        code, _, err = run_cli(
            ["curve", "--learner", spec, "--dist", "uniform01", "--grid", "50,100",
             "--trials", "10", "--seed", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "finite" in err
