import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from revcurve import curves
from revcurve.cli import main
from revcurve.curves import LearningCurve
from revcurve.dist import parse_dist, zoo_names


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

    def test_two_point_solved_to_one_atom_exit_3(self, tmp_path, capsys):
        # c = 0 solves q = 1, which leaves no mass on p_prime
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", "two_point:p=1,p_prime=3,c=0",
             "--grid", "10,20", "--trials", "10", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3 and "q = 1.0" in err
        assert not (tmp_path / "curve.json").exists()

    @pytest.mark.parametrize("spec,named", [("capped:f=sqrt", "f=sqrt"), ("capped:g=cube", "cube"), ("cmd:", "command")])
    def test_bad_learner_spec_exit_2(self, tmp_path, capsys, spec, named):
        code, _, err = run_cli(
            ["curve", "--learner", spec, "--dist", "uniform01", "--grid", "10,20", "--trials", "10",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2 and named in err
        assert not (tmp_path / "curve.json").exists()

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


    @pytest.mark.parametrize("doc,key", [({"variant": "tail_rule"}, "'rule_name'"), ({"label": "x"}, "'variant'")])
    def test_dist_document_missing_key_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", str(path), "--grid", "10,20", "--trials", "10", "--out", str(out)],
            capsys,
        )
        assert code == 2 and f"no {key} key" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc,message", [
        ({"variant": "finite_pmf", "atoms": 5}, "key 'atoms' must be a list of [value, mass] pairs, got 5"),
        ({"variant": "continuous", "rule_name": "uniform01", "params": 3}, "key 'params' must be an object, got 3"),
        ({"variant": "tail_rule", "rule_name": "erm_hard", "truncation_depth": "x"},
         "truncation_depth must be an integer, got 'x'"),
        ({"variant": "continuous", "rule_name": "two_point", "params": {"p": "x", "p_prime": 3, "c": 2}},
         "zoo law 'two_point': key 'p' must be a real number, got 'x'"),
        ({"variant": "finite_pmf", "atoms": [[1.0, 0.5], [3.0, 0.5]], "label": 5}, "key 'label' must be a string, got 5"),
    ])
    def test_dist_document_mistyped_key_exit_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", str(path), "--grid", "10,20", "--trials", "10", "--out", str(out)],
            capsys,
        )
        assert code == 2 and message in err
        assert not out.exists()

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(["curve", "--config", str(tmp_path / "absent.json"), "--out", str(out)], capsys)
        assert code == 2 and "cannot read config" in err and "absent.json" in err
        assert not out.exists()

    def test_unreadable_dist_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "absent" / "d.json"
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", str(path), "--grid", "10,20", "--trials", "10", "--out", str(out)],
            capsys,
        )
        assert code == 2 and f"cannot read --dist file {str(path)!r}" in err
        assert not out.exists()


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


    SEEDED = {
        "adversary": ["adversary", "--learner", "erm", "--depth", "3", "--trials", "10"],
        "gadget": ["gadget", "--x", "1.0", "--q", "0.5", "--p", "0.05", "--trials", "10"],
        "coin": ["coin", "--p", "0.3", "--gamma", "0.05", "--c", "4", "--trials", "10"],
    }

    @pytest.mark.parametrize("command", SEEDED)
    @pytest.mark.parametrize("flag,env,source", [
        ("-1", None, "--seed"), (None, "-4", "REVCURVE_SEED"), (None, "abc", "REVCURVE_SEED"),
    ])
    def test_bad_seed_named_exit_2(self, command, flag, env, source, tmp_path, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("REVCURVE_SEED", env)
        args = self.SEEDED[command] + (["--seed", flag] if flag is not None else [])
        if command != "coin":
            args += ["--out", str(tmp_path / "out")]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert f"seed {flag or env!r} from {source}" in err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("phi,fn", [("pow:-1", lambda j: j**-1.0), ("const:0.5", lambda j: 0.5)])
    def test_phi_spec_sets_the_envelope(self, tmp_path, capsys, phi, fn):
        code, _, _ = run_cli(
            ["adversary", "--learner", "erm", "--phi", phi, "--depth", "4", "--trials", "20", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        con = json.loads((tmp_path / "construction.json").read_text())
        assert con["R"] == [min(fn(i) for i in range(1, j + 1)) for j in range(1, 5)]

    def test_unknown_phi_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["adversary", "--learner", "erm", "--phi", "bogus", "--depth", "4",
                                "--out", str(tmp_path)], capsys)
        assert code == 2 and "bogus" in err
        assert list(tmp_path.iterdir()) == []

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

    def test_depth_8_fits_default_budget(self, tmp_path, capsys):
        # ERM has a count form, so level 8 probes C(13, 7) = 1716 multisets
        # where ordered probing would need 7^7 = 823,543 tuples
        code, _, _ = run_cli(
            ["adversary", "--learner", "erm", "--phi", "inv", "--depth", "8",
             "--trials", "200", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        con = json.loads((tmp_path / "construction.json").read_text())
        assert con["i"][-3:] == [130.0, 265.0, 537.0]
        assert con["probe_stats"]["levels"][-1]["datasets_probed"] == 1716

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

    def test_fit_on_a_csv_with_a_wrong_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("n,gap\n10,0.5\n")
        code, _, err = run_cli(["fit", "--csv", str(path)], capsys)
        assert code == 2 and "header" in err

    def test_fit_insufficient_data_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write("n,trials,mean_gap,std_err,seed\n")
            fh.write("10,100,0.0,0.0,0\n")
        code, _, _ = run_cli(["fit", "--csv", str(path), "--model", "power"], capsys)
        assert code == 2

    def test_fit_on_an_unreadable_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "absent" / "c.csv"
        code, _, err = run_cli(["fit", "--csv", str(path)], capsys)
        assert code == 2 and f"cannot read --csv file {str(path)!r}" in err


class TestDeclaredFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ["coin", "--p", "0.3", "--gamma", "0.05", "--c", "4", "--trials", "0"],
            ["gadget", "--x", "1.0", "--q", "0.5", "--p", "0.05", "--trials", "0"],
            ["adversary", "--learner", f"cmd:{shlex.quote(sys.executable)} -c print(1.0)", "--depth", "3",
             "--probe-trials", "0"],
            ["adversary", "--learner", "erm", "--depth", "3", "--max-datasets", "0", "--allow-sampling"],
        ],
    )
    def test_non_positive_count_exit_2(self, args, tmp_path, capsys):
        out = [] if args[0] == "coin" else ["--out", str(tmp_path)]
        code, _, err = run_cli(args + out, capsys)
        assert code == 2 and "must be >= 1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exit_2(self, workers, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", "uniform01", "--grid", "10,20", "--trials", "5",
             "--workers", workers, "--out", str(out)],
            capsys,
        )
        assert code == 2 and "workers must be >= 1" in err
        assert not out.exists()

    def test_config_workers_below_one_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learner": "erm", "dist": "uniform01", "grid": "10,20", "trials": 5, "workers": 0}))
        out = tmp_path / "out"
        code, _, err = run_cli(["curve", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2 and "workers must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid,trials,msg", [("0,10", "5", "sample size 0"), ("1,10", "1", "2 trials")])
    def test_bad_curve_input_exit_2_before_out(self, grid, trials, msg, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, err = run_cli(
            ["curve", "--learner", "erm", "--dist", "uniform01", "--grid", grid, "--trials", trials,
             "--out", str(out)],
            capsys,
        )
        assert code == 2 and msg in err
        assert not out.exists()

    @pytest.mark.parametrize("learner", ["erm", "structural", "const:1"])
    def test_grid_size_zero_exit_2(self, learner, tmp_path, capsys):
        code, _, err = run_cli(
            ["curve", "--learner", learner, "--dist", "two_point:p=1,p_prime=3,c=2", "--grid", "0,10",
             "--trials", "5", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2 and "sample size 0" in err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["adversary", "--learner", "erm", "--depth", "3", "--workers", "2"],
            ["zoo", "list", "--seed", "1"],
            ["coin", "--p", "0.3", "--gamma", "0.05", "--c", "4", "--out", "unused"],
            ["fit", "--csv", "curve.csv", "--seed", "1"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestZooCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(["zoo", "list"], capsys)
        assert code == 0
        names = out.strip().splitlines()
        assert "erm_hard" in names and "uniform01" in names

    def test_unknown_action_exit_2(self, capsys):
        code, out, err = run_cli(["zoo", "show"], capsys)
        assert code == 2 and out == "" and "'show'" in err


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "revcurve", "zoo", "list"], capture_output=True, text=True
        )
        assert proc.returncode == 0 and "erm_hard" in proc.stdout

    def test_pooled_curve_prints_one_summary_line(self, tmp_path):
        # stdout is a pipe, so it is block-buffered: pool workers must not replay it
        proc = subprocess.run(
            [sys.executable, "-m", "revcurve", "curve", "--learner", "erm", "--dist", "two_point:p=1,p_prime=3,c=2",
             "--grid", "10,20,40", "--trials", "40", "--seed", "3", "--workers", "2", "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["curve"] == str(tmp_path / "curve.csv")

    # In-process tests share sys.modules, so they cannot see a command that
    # misses an import of its own; each command runs once in a fresh interpreter.
    @pytest.mark.parametrize(
        "args,expect",
        [
            (["adversary", "--learner", "erm", "--depth", "3", "--trials", "20", "--out", "{out}"], "level 3: gap="),
            (["gadget", "--x", "1.0", "--q", "0.5", "--p", "0.05", "--trials", "200"], '"all_pass": true'),
            (["coin", "--p", "0.3", "--gamma", "0.05", "--c", "4", "--trials", "100"], '"error_rate"'),
        ],
    )
    def test_command_in_a_fresh_interpreter(self, args, expect, tmp_path):
        args = [arg.format(out=tmp_path) for arg in args]
        proc = subprocess.run([sys.executable, "-m", "revcurve", *args], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and expect in proc.stdout, proc.stderr

    def test_fit_in_a_fresh_interpreter(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("n,trials,mean_gap,std_err,seed\n" + "".join(f"{n},100,{n**-0.5!r},1e-9,0\n" for n in (10, 100, 1000)))
        proc = subprocess.run([sys.executable, "-m", "revcurve", "fit", "--csv", str(path), "--model", "power"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["slope_or_rate"] == pytest.approx(-0.5, abs=1e-9)

    def test_budget_exhaustion_exit_3_in_a_fresh_interpreter(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "revcurve", "adversary", "--learner", "erm", "--depth", "7", "--max-datasets", "50",
             "--trials", "100", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3 and "budget" in proc.stderr.lower()

    def test_adversary_help_keeps_its_bytes(self):
        proc = subprocess.run([sys.executable, "-m", "revcurve", "adversary", "--help"], capture_output=True,
                              text=True, env={**os.environ, "COLUMNS": "80"}, timeout=120)
        assert proc.returncode == 0 and proc.stdout == ADVERSARY_HELP


ADVERSARY_HELP = """\
usage: revcurve adversary [-h] [--seed SEED] [--out OUT] --learner LEARNER
                          [--phi PHI] --depth DEPTH [--trials TRIALS]
                          [--probe-trials PROBE_TRIALS]
                          [--max-datasets MAX_DATASETS] [--allow-sampling]

options:
  -h, --help            show this help message and exit
  --seed SEED           base seed (default: REVCURVE_SEED or builtin)
  --out OUT             output directory
  --learner LEARNER
  --phi PHI             target rate: inv, pow:<a>, const:<v>
  --depth DEPTH
  --trials TRIALS       Monte Carlo trials per level
  --probe-trials PROBE_TRIALS
                        probes per dataset for randomized learners
  --max-datasets MAX_DATASETS
  --allow-sampling
"""


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


def run_curve(learner, dist, tmp_path, capsys):
    return run_cli(
        ["curve", "--learner", learner, "--dist", dist, "--grid", "10,20", "--trials", "5",
         "--workers", "1", "--seed", "1", "--out", str(tmp_path)],
        capsys,
    )


# a spec that builds each law, for the laws that require keys
BASE_SPECS = {"two_point": "two_point:p=1,p_prime=3,c=2", "finite": "finite:1@0.5,2@0.5"}


def with_item(spec, item):
    return f"{spec},{item}" if ":" in spec else f"{spec}:{item}"


class TestBadSpecsFailLoudly:
    @pytest.mark.parametrize("name", zoo_names())
    def test_unknown_key_exit_2(self, name, tmp_path, capsys):
        code, _, err = run_curve("erm", with_item(BASE_SPECS.get(name, name), "bogus=1"), tmp_path, capsys)
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize("spec,key", [
        ("two_point:p=1,p_prime=3", "'c'"),
        ("two_point:p_prime=3,c=2", "'p'"),
        ("two_point:pp=3,p=1", "'c'"),
        ("finite", "'points'"),
    ])
    def test_missing_key_exit_2(self, spec, key, tmp_path, capsys):
        code, _, err = run_curve("erm", spec, tmp_path, capsys)
        assert code == 2 and "missing" in err and key in err

    @pytest.mark.parametrize("name", zoo_names())
    def test_depth_below_zero(self, name, tmp_path, capsys):
        code, _, err = run_curve("erm", with_item(BASE_SPECS.get(name, name), "truncation_depth=-1"), tmp_path, capsys)
        # a tail rule refuses the value, any other law the key
        assert code == (3 if name in ("erm_hard", "discrete_no_opt") else 2)
        assert "truncation_depth" in err or name == "finite"
        assert not (tmp_path / "curve.json").exists()

    @pytest.mark.parametrize("spec", ["uniform01:foo=1", "uniform01:truncation_depth=5"])
    def test_key_a_continuous_law_does_not_take_exit_2(self, spec, tmp_path, capsys):
        code, _, err = run_curve("erm", spec, tmp_path, capsys)
        assert code == 2 and "'uniform01' takes no keys" in err

    @pytest.mark.parametrize("spec", ["erm_hard:truncation_depth=5,truncation_depth=9", "two_point:p=1,p=2,p_prime=3,c=2"])
    def test_repeated_key_exit_2(self, spec, tmp_path, capsys):
        code, _, err = run_curve("erm", spec, tmp_path, capsys)
        assert code == 2 and "given twice" in err
        assert not (tmp_path / "curve.json").exists()

    def test_depth_past_the_float_range_exit_3(self, tmp_path, capsys):
        code, _, err = run_curve("erm", "erm_hard:truncation_depth=600", tmp_path, capsys)
        assert code == 3 and "truncation_depth 600" in err
        assert not (tmp_path / "curve.json").exists()

    def test_depth_zero_is_honoured(self, tmp_path, capsys):
        assert run_curve("erm", "erm_hard:truncation_depth=0", tmp_path, capsys)[0] == 0
        assert json.loads((tmp_path / "curve.json").read_text())["distribution"] == "erm_hard(trunc=0)"

    @pytest.mark.parametrize("learner", ["erm:junk", "truncated:g=sqrt"])
    def test_learner_argument_it_does_not_take_exit_2(self, learner, tmp_path, capsys):
        code, _, err = run_curve(learner, "uniform01", tmp_path, capsys)
        assert code == 2 and learner in err

    def test_price_past_the_float_range_of_a_tail_rule(self, tmp_path, capsys):
        code, _, _ = run_curve("const:1e300", "discrete_no_opt:truncation_depth=20", tmp_path, capsys)
        assert code == 0
        # revenue 2 - 2e-300 rounds to the limit 2, so the gap is 0
        assert [p["mean_gap"] for p in json.loads((tmp_path / "curve.json").read_text())["points"]] == [0.0, 0.0]


class TestReadme:
    def test_dist_spec_lines_name_exactly_the_zoo(self):
        """The README's `# dists:` lines list every zoo law once and nothing
        else; each spec there (optional parts included) parses."""
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("# dists:"))
        block = [lines[start].removeprefix("# dists:")]
        for line in lines[start + 1 :]:
            if not re.match(r"#\s+\|", line):
                break
            block.append(line.lstrip("# "))
        specs = [s.strip() for s in " ".join(block).split("|") if s.strip() and not s.strip().endswith(".json")]
        assert sorted(s.partition(":")[0].partition("[")[0] for s in specs) == sorted(zoo_names())
        for spec in specs:
            parse_dist(re.sub(r"[\[\]]", "", spec))
