import inspect
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anosovcheck
from anosovcheck.cli import (
    CHECKER_ORDER,
    OPTION_KINDS,
    ConfigError,
    ExperimentConfig,
    bundled_config_path,
    emit_plot,
    load_config,
    main,
    run_config,
)
from anosovcheck import rules, subgroup
from anosovcheck.reports import dumps
from anosovcheck.subgroup import anosov_check, limit_report, morse_check, uru_check
from conftest import SL2_G, SL2_H


ROTATIONS = [[[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]] for th in (0.5, 1.1)]


def minimal_config(**overrides):
    raw = {
        "name": "tiny",
        "n": 2,
        "generators": [[[4.0, 0.0], [0.0, 0.25]],
                       [[2.125, 1.875], [1.875, 2.125]]],
        "face": [1],
        "depth": 5,
        "ray_count": 6,
        "ray_depth": 8,
        "seed": 3,
        "checkers": ["uru"],
        "out_dir": "reports/tiny",
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_bundled_configs_parse(self):
        for name in ("sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"):
            cfg = load_config(bundled_config_path(name))
            assert cfg.seed is not None

    def test_bad_determinant_rejected(self, tmp_path):
        raw = minimal_config(generators=[[[2.0, 0.0], [0.0, 1.0]]])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        assert run_config(p) == 2

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run_config(p) == 2

    def test_seed_required_for_randomized(self):
        raw = minimal_config(checkers=["limit"], seed=None)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_checker(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(minimal_config(checkers=["frobnicate"]))

    def test_bad_face_indices(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(minimal_config(face=[5]))

    @pytest.mark.parametrize("extra", [{"thetagap": 0.1}, {"theta_gap": 0.1}, {"N": 12}])
    def test_unknown_key_rejected(self, tmp_path, capsys, extra):
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(minimal_config(**extra)))
        assert run_config(p) == 2
        assert repr(next(iter(extra))) in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        ({"checkers": ["morse"], "options": {"morse_depth": 1}}, "'options.morse_depth'"),
        ({"checkers": ["limit"], "ray_count": 1}, "'ray_count'"),
        ({"checkers": ["limit"], "ray_depth": 0}, "'ray_depth'"),
        ({"checkers": ["limit"], "n": 3, "face": [1],
          "generators": [np.diag([16.0, 1.0, 0.0625]).tolist(), np.eye(3).tolist()]}, "'face'"),
        # rank 2: 4 * 3**(N - 1) reduced words of length N, which name both checkers' rays
        ({"checkers": ["limit"], "ray_depth": 2, "ray_count": 13}, "'ray_count'"),
        ({"checkers": ["anosov"], "ray_depth": 3, "ray_count": 4 * 3**2 + 1}, "'ray_count'"),
        ({"checkers": ["anosov"], "ray_depth": 2}, "'ray_depth'"),
        ({"checkers": ["uru"], "generators": []}, "'generators'"),
        # a NaN determinant passes a tolerance test on |det - 1|
        ({"generators": [[[float("nan"), 0.0], [0.0, 1.0]], np.eye(2).tolist()]}, "generator 0"),
        # integer fields and morse_depth take JSON integers, rho_cap a number
        ({"depth": 5.9}, "'depth'"),
        ({"depth": "5"}, "'depth'"),
        ({"seed": "7"}, "'seed'"),
        ({"seed": -1}, "'seed'"),
        ({"name": ["a"]}, "'name'"),
        ({"face": [True]}, "'face'"),
        ({"options": [["rho_cap", 1.0]]}, "'options'"),
        ({"options": None}, "'options'"),
        ({"options": {"rho_cap": "big"}}, "'options.rho_cap'"),
        ({"options": {"rho_cap": None}}, "'options.rho_cap'"),
        ({"options": {"rho_cap": True}}, "'options.rho_cap'"),
        ({"checkers": ["morse"], "options": {"morse_depth": "4"}}, "'options.morse_depth'"),
        ({"options": {"morse_depth": 8.0}}, "'options.morse_depth'"),
        ({"generators": 5}, "'generators'"),
        ({"generators": [[["1", 0.0], [0.0, 1.0]]]}, "'generators'"),
        # options are finite and positive; the determinant tolerance is the library's
        ({"options": {"rho_cap": float("nan")}}, "'options.rho_cap'"),
        ({"checkers": ["morse"], "options": {"rho_cap": float("inf")}}, "'options.rho_cap'"),
        ({"options": {"morse_depth": 0}}, "'options.morse_depth'"),
        ({"checkers": ["morse"], "options": {"rho_cap": -1.0}}, "'options.rho_cap'"),
        ({"generators": [[[1.0 + 1e-7, 0.0], [0.0, 1.0]], np.eye(2).tolist()]}, "generator 0"),
        # a ragged matrix passes the type check; the presentation names it
        ({"generators": [np.eye(2).tolist(), [[1.0, 0.0], [0.0]]]}, "generator 1"),
        ({"generators": [np.eye(3).tolist(), np.eye(3).tolist()]}, "'n'"),
    ], ids=["morse_depth", "ray_count", "ray_depth", "face", "limit_distinct_rays",
            "anosov_distinct_rays", "anosov_ray_depth", "generators", "nan_generator",
            "float_depth", "string_depth", "string_seed", "negative_seed", "list_name", "bool_face",
            "list_options", "null_options", "string_knob", "null_knob", "bool_knob",
            "string_morse_depth", "float_morse_depth", "number_generators",
            "string_generator_entry", "nan_knob", "infinite_knob", "zero_morse_depth",
            "negative_knob", "loose_determinant", "ragged_generator", "generator_size"])
    def test_out_of_range_rejected(self, tmp_path, capsys, overrides, key):
        p = tmp_path / "range.json"
        p.write_text(json.dumps(minimal_config(**overrides)))
        assert run_config(p) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["c_floor", "ratio_floor", "power_depth", "theta_floor",
                                     "antipodal_floor", "conical_rho", "uniform_dev",
                                     "expansion_floor"])
    def test_removed_option_rejected(self, tmp_path, capsys, key):
        # the verdict thresholds are constants of rules: a config that sets one exits 2
        p = tmp_path / "old.json"
        p.write_text(json.dumps(minimal_config(options={key: 0.05})))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 2
        assert f"'options.{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(checkers=["limit"])))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out), "--seed", "-1"]) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_option_table_lists_the_accepted_options(self):
        # the README's option table, the one whose header starts "| option", names exactly
        # the options a config may set
        lines = iter((Path(__file__).parents[1] / "README.md").read_text().splitlines())
        next(line for line in lines if line.startswith("| option "))
        next(lines)  # the header's rule
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
        assert {row.split("`")[1] for row in rows} == set(OPTION_KINDS)

    def test_every_distinct_ray_sampled(self, tmp_path):
        # 12 rays of length 2 are all the reduced words of that length
        p = tmp_path / "all.json"
        p.write_text(json.dumps(minimal_config(checkers=["limit"], ray_depth=2, ray_count=12)))
        assert run_config(p, out_dir=str(tmp_path / "out")) == 0
        rays = json.loads((tmp_path / "out" / "limit.json").read_text())["details"]["rays"]
        assert len({tuple(r["letters"]) for r in rays}) == 12

    def test_unknown_option_rejected(self, tmp_path, capsys):
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(minimal_config(options={"rho-cap": 2.0, "rho_cap": 2.0})))
        assert run_config(p) == 2
        assert "'options.rho-cap'" in capsys.readouterr().err

    @pytest.mark.parametrize("checkers, overrides, key", [
        (["uru"], {"depth": 14}, "'depth'"),
        (["uru", "morse"], {"options": {"morse_depth": 14}}, "'options.morse_depth'"),
    ], ids=["uru_depth", "morse_depth"])
    def test_over_budget_depth_rejected(self, tmp_path, capsys, checkers, overrides, key):
        # rank 2 has 9,565,936 reduced words of length 1..14, over the word walk's
        # budget: the config is refused before uru runs, so no report is written
        raw = json.loads(bundled_config_path("sl2-schottky").read_text())
        raw["options"].update(overrides.pop("options", {}))
        raw.update(overrides, checkers=checkers)
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("checkers, overrides, key", [
        (["uru"], {"depth": 10 ** 6}, "'depth'"),
        (["morse"], {"options": {"morse_depth": 10 ** 6}}, "'options.morse_depth'"),
    ], ids=["uru_depth", "morse_depth"])
    def test_huge_depth_rejected_at_once(self, tmp_path, checkers, overrides, key):
        # the word count stops once it passes the budget; summing all 10^6 lengths'
        # growing counts took about a minute
        raw = json.loads(bundled_config_path("sl2-schottky").read_text())
        raw["options"].update(overrides.pop("options", {}))
        raw.update(overrides, checkers=checkers)
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(raw))
        src = Path(anosovcheck.__file__).resolve().parents[1]
        run = ("import sys; sys.path.insert(0, sys.argv[1]); from anosovcheck.cli import main; "
               "sys.exit(main(sys.argv[2:]))")
        out = subprocess.run([sys.executable, "-c", run, str(src), "run", str(p), "--out-dir",
                              str(tmp_path / "out")], capture_output=True, text=True, timeout=5)
        assert out.returncode == 2
        assert key in out.stderr

    def test_ray_depth_past_double_range_is_a_hard_failure(self, tmp_path, capsys):
        # sl2-schottky's products leave double range near 500 letters; at ray_depth 10^4
        # validation formats no ray count of over 4,300 digits, past int's string
        # conversion limit, and the ray sample refuses the overflowed products
        raw = json.loads(bundled_config_path("sl2-schottky").read_text())
        raw["ray_depth"] = 10_000
        p = tmp_path / "rays.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 1
        assert "double range" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"] == "IllConditioned"

    @pytest.mark.parametrize("checker", ["uru", "morse"])
    def test_word_products_past_double_range_are_a_hard_failure(self, tmp_path, capsys, checker):
        # letters of norm 2^100 leave double range within 12: the word walk refuses the
        # overflowed products before any report is written, rather than publish inf and NaN
        big = [[[2.0 ** 100, 0.0], [0.0, 2.0 ** -100]], [[2.0 ** -100, 0.0], [1.0, 2.0 ** 100]]]
        raw = minimal_config(generators=big, depth=12, checkers=[checker],
                             options={"morse_depth": 12})
        p = tmp_path / "big.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 1
        assert "double range" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"] == "IllConditioned"
        assert not (out / "uru.json").exists() and not (out / "morse.json").exists()

    def test_frames_past_the_root_of_double_range_are_a_hard_failure(self, tmp_path, capsys):
        # at n = 3 morse squares entries of factors formed of its words' products: the
        # symmetric squares of letters of norm 2^60 pass 2^511 within 5 letters, and the
        # walk refuses them before morse reads them, rather than publish NaN or warn
        big = [[[2.0 ** 60, 0.0], [0.0, 2.0 ** -60]], [[2.0 ** -60, 0.0], [1.0, 2.0 ** 60]]]
        raw = minimal_config(n=3, face=[1, 2], depth=8, checkers=["morse"],
                             generators=[subgroup.symmetric_square(np.array(g)).tolist()
                                         for g in big], options={"morse_depth": 8})
        p = tmp_path / "big3.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 1
        assert "square root of double range" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"] == "IllConditioned"
        assert not (out / "morse.json").exists()

    def test_products_past_double_range_reach_no_lapack(self, tmp_path):
        # at n = 4 the logs are LAPACK's: the walk refuses products that left double range
        # before any SVD reads them, so LAPACK prints no argument error
        d = np.diag([2.0 ** 200, 2.0 ** 60, 2.0 ** -60, 2.0 ** -200])
        lower = np.eye(4) + np.diag(np.ones(3), -1)
        raw = minimal_config(n=4, face=[1], depth=8, generators=[d.tolist(), (lower @ d).tolist()])
        p = tmp_path / "big4.json"
        p.write_text(json.dumps(raw))
        src = Path(anosovcheck.__file__).resolve().parents[1]
        run = ("import sys; sys.path.insert(0, sys.argv[1]); from anosovcheck.cli import main; "
               "sys.exit(main(sys.argv[2:]))")
        out = subprocess.run([sys.executable, "-c", run, str(src), "run", str(p), "--out-dir",
                              str(tmp_path / "out")], capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert json.loads((tmp_path / "out" / "error.json").read_text())["error"] == "IllConditioned"
        assert "double range" in out.stderr
        for text in (out.stdout, out.stderr):
            assert "DLASCL" not in text and "Traceback" not in text and "Warning" not in text

    @pytest.mark.parametrize("ray_depth, code", [(250, 0), (300, 1)])
    def test_differentials_past_double_range_are_a_hard_failure(self, tmp_path, capsys,
                                                                ray_depth, code):
        # sl2-schottky's chain of differentials leaves double range between 250 and 300
        # letters, well before its prefix products do
        raw = json.loads(bundled_config_path("sl2-schottky").read_text())
        raw.update(checkers=["anosov"], ray_depth=ray_depth)
        p = tmp_path / "rays.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == code
        if code:
            assert "double range" in capsys.readouterr().err
            assert json.loads((out / "error.json").read_text())["error"] == "IllConditioned"
        else:
            assert json.loads((out / "anosov.json").read_text())["verdict"] is True


class TestRun:
    def test_exit_codes_and_reports(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config()))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"]["uru"] is True
        uru = json.loads((out / "uru.json").read_text())
        assert "thresholds" in uru and uru["thresholds"]["c_floor"] == 0.05

    def test_defaults_are_the_checkers_own(self, tmp_path):
        # a config that sets no option runs morse on its keyword default rho_cap, the one
        # keyword a checker has, and every verdict on the threshold constants of rules
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(checkers=list(CHECKER_ORDER))))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 0
        expected = {
            "uru": {"c_floor": rules.C_FLOOR, "ratio_floor": rules.RATIO_FLOOR,
                    "power_depth": subgroup.POWER_DEPTH},
            "morse": {"rho_cap": rules.RHO_CAP, "theta_floor": rules.THETA_FLOOR},
            "limit": {"antipodal_floor": rules.ANTIPODAL_FLOOR,
                      "conical_rho": rules.CONICAL_RHO},
            "anosov": {"uniform_dev": rules.UNIFORM_DEV,
                       "expansion_floor": rules.EXPANSION_FLOOR},
        }
        checkers = zip(CHECKER_ORDER, (uru_check, morse_check, limit_report, anosov_check))
        for name, checker in checkers:
            defaults = {k: par.default for k, par in inspect.signature(checker).parameters.items()
                        if par.default is not inspect.Parameter.empty}
            assert defaults == ({"rho_cap": 1.0} if name == "morse" else {}), name
            thresholds = json.loads((out / f"{name}.json").read_text())["thresholds"]
            assert {k: thresholds[k] for k in expected[name]} == expected[name], name

    def test_integer_knob_value_reported_as_float(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(checkers=["morse"], options={"rho_cap": 2})))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 0
        assert '"rho_cap": 2.0,' in (out / "morse.json").read_text()

    def test_hard_failure_exit_one(self, tmp_path):
        # rotation generators are never regular: the limit checker cannot
        # even estimate terminal flags
        raw = minimal_config(generators=ROTATIONS, checkers=["morse", "limit"])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = run_config(p, out_dir=str(out))
        assert code == 1
        assert (out / "error.json").exists()

    def test_refused_config_leaves_no_report(self, tmp_path, monkeypatch, capsys):
        # a refused config writes nothing and removes the reports of an earlier run from
        # the directory it would have written: the out_dir argument, else the config's own
        out = tmp_path / "out"
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(minimal_config(out_dir=str(out))))
        bad.write_text(json.dumps(minimal_config(out_dir=str(out), depth=3)))
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        listing = lambda: sorted(p.name for p in out.iterdir())
        for args in ({"out_dir": str(out)}, {}):
            assert run_config(good) == 0
            assert listing() == ["notes.txt", "summary.json", "uru.json"]
            assert run_config(bad, **args) == 2
            assert "depth must be >= 4" in capsys.readouterr().err
            assert listing() == ["notes.txt"]
        # a file that does not parse names no directory: the default one is left alone
        monkeypatch.chdir(tmp_path)
        (tmp_path / "reports").mkdir()
        (tmp_path / "reports" / "uru.json").write_text("{}")
        (tmp_path / "broken.json").write_text("{not json")
        assert run_config(tmp_path / "broken.json") == 2
        assert (tmp_path / "reports" / "uru.json").exists()

    def test_rotation_morse_report_is_strict_json(self, tmp_path):
        # every word of the rotation pair has a vanishing gap, so no type gap exists
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(generators=ROTATIONS, checkers=["morse"])))
        out = tmp_path / "out"
        assert run_config(p, out_dir=str(out)) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((out / "morse.json").read_text(), parse_constant=reject)
        assert report["constants"]["theta_gap"] is None
        assert report["verdict"] is False

    def test_no_report_of_an_earlier_run_outlives_it(self, tmp_path):
        # good, failing (morse false, then limit raises), good again, all into one directory
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(minimal_config(checkers=["morse", "limit"])))
        bad.write_text(json.dumps(minimal_config(generators=ROTATIONS, checkers=["morse", "limit"])))
        out = tmp_path / "out"
        out.mkdir()
        (out / "uru.json").write_text("{}")  # a checker this config does not run
        (out / "notes.txt").write_text("kept")
        listing = lambda: sorted(p.name for p in out.iterdir())
        kept = ["limit.json", "morse.json", "notes.txt", "summary.json"]
        assert run_config(good, out_dir=str(out)) == 0
        assert listing() == kept
        assert run_config(bad, out_dir=str(out)) == 1
        assert listing() == ["error.json", "morse.json", "notes.txt"]
        assert json.loads((out / "morse.json").read_text())["verdict"] is False
        assert run_config(good, out_dir=str(out)) == 0
        assert listing() == kept
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"] == {"morse": True, "limit": True}
        assert (out / "notes.txt").read_text() == "kept"

    def test_cli_main(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config()))
        code = main(["run", str(p), "--out-dir", str(tmp_path / "o"), "--seed", "3"])
        assert code == 0


class TestOneWordWalk:
    # run_config takes uru's and morse's reports from one walk of the word
    # tree; each must equal, byte for byte, the report that uru_check or
    # morse_check writes from a walk of its own
    @pytest.mark.parametrize("name, changes, morse_depth, block", [
        ("sl2-schottky", {}, None, None),
        ("sl3-symsq-schottky", {}, None, None),
        ("sanov-unipotent", {}, None, None),
        ("sl2-schottky", {"depth": 5}, None, None),  # uru's is the shorter walk
        # morse's width-2 frame path; limit needs an iota-invariant face
        ("sl3-symsq-schottky", {"face": [1], "checkers": ["uru", "morse"]}, None, None),
        ("sl2-schottky", {"depth": 6}, 5, 7),
    ], ids=["sl2", "sl3", "sanov", "sl2-uru-shorter", "sl3-face1", "sl2-block7"])
    def test_reports_equal_separate_checkers(self, tmp_path, monkeypatch, name, changes,
                                             morse_depth, block):
        raw = {**json.loads(bundled_config_path(name).read_text()), **changes}
        if morse_depth is not None:
            raw["options"]["morse_depth"] = morse_depth
        if block is not None:
            monkeypatch.setattr(subgroup, "WORD_BLOCK", block)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert run_config(p, out_dir=str(tmp_path / "out")) == 0
        cfg = load_config(p)
        pres, face = cfg.presentation(), cfg.face_type()
        alone = {"uru": uru_check(pres, face, cfg.depth),
                 "morse": morse_check(pres, face, cfg.morse_depth, rho_cap=cfg.options["rho_cap"])}
        for checker, rep in alone.items():
            written = (tmp_path / "out" / f"{checker}.json").read_text()
            payload = {**rep.as_dict(), "config": json.loads(written)["config"]}
            assert dumps(payload) == written, checker

    def test_one_walk_for_uru_and_morse(self, tmp_path, monkeypatch):
        walks = []
        walk = subgroup.word_levels
        monkeypatch.setattr(subgroup, "word_levels",
                            lambda pres, length, inverse_length=None, letter_length=None:
                            walks.append((length, inverse_length, letter_length))
                            or walk(pres, length, inverse_length, letter_length))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(checkers=["uru", "morse"], depth=6,
                                               options={"morse_depth": 7})))
        assert run_config(p, out_dir=str(tmp_path / "out")) == 0
        # at n = 2 only morse's prefixes, of length <= 7 // 2, take inverses, and only
        # morse reads letters, at every length of its walk to 7
        assert walks == [(7, 3, 7)]


class TestOneRaySample:
    # run_config draws one ray sample whenever limit or anosov runs, and both read it
    @pytest.mark.parametrize("checkers, draws", [
        (["limit", "anosov"], 1), (["limit"], 1), (["anosov"], 1), (["uru"], 0), (["morse"], 0),
        (list(CHECKER_ORDER), 1)])
    def test_sample_drawn_once(self, tmp_path, monkeypatch, checkers, draws):
        calls = []
        draw = anosovcheck.cli.sample_rays
        monkeypatch.setattr(anosovcheck.cli, "sample_rays",
                            lambda *args: calls.append(args) or draw(*args))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(checkers=checkers)))
        assert run_config(p, out_dir=str(tmp_path / "out")) == 0
        assert len(calls) == draws

    @pytest.mark.parametrize("name", ["sl2-schottky", "sl3-symsq-schottky", "sanov-unipotent"])
    def test_checkers_read_the_same_rays(self, pipeline_runs, name):
        # limit publishes each ray's name, its first ray_depth letters, and anosov the whole
        # ray: the rays both keep come in the same order, with the same scheme
        reports = pipeline_runs[name]["reports"]
        depth = reports["limit"]["config"]["ray_depth"]
        limit = [(r["letters"], r["scheme"]) for r in reports["limit"]["details"]["rays"]]
        anosov = [(r["letters"][:depth], r["scheme"]) for r in reports["anosov"]["details"]["rays"]]
        names = {tuple(w) for w, _ in limit} & {tuple(w) for w, _ in anosov}
        shared = [ray for ray in limit if tuple(ray[0]) in names]
        assert shared == [ray for ray in anosov if tuple(ray[0]) in names]
        assert len(shared) == reports["limit"]["config"]["ray_count"]  # no bundled ray is dropped


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        raw = minimal_config(checkers=["uru", "limit", "anosov"], depth=5)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        outs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert run_config(p, out_dir=str(out)) == 0
            outs.append(out)
        for rp in sorted(outs[0].glob("*.json")):
            other = outs[1] / rp.name
            assert rp.read_bytes() == other.read_bytes(), rp.name


# Imports the package, runs a config and builds a Schottky pair in a fresh
# interpreter; prints the scipy modules loaded after each step.
SCIPY_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import anosovcheck
from anosovcheck.chamber import FaceType
from anosovcheck.cli import run_config
from anosovcheck.subgroup import schottky_build
loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
after_import = loaded()
code = run_config(sys.argv[2], out_dir=sys.argv[3])
after_run = loaded()
pres, rep = schottky_build([np.array(m) for m in json.loads(sys.argv[4])], FaceType.make(2, [1]))
print(json.dumps([code, rep.verdict, after_import, after_run, loaded()]))
"""


def test_package_exports():
    # the package's names change only on purpose: a name added or removed here is added to
    # the README, or to its "Removed public names"
    assert set(anosovcheck.__all__) == {
        "BudgetExceeded", "DiamondRef", "FaceType", "Flag", "FreeGroupPresentation",
        "IllConditioned", "PingPongFailed", "PropertyReport", "ThetaSpec",
        "TransversalityTooSmall", "VanishingGap", "WeylConeRef", "act_on_flag", "anosov_check",
        "antipodality_margin", "attractive_flag", "cartan_vector", "chamber", "cone_query",
        "conical_check", "diamond_query", "dynamics", "errors", "expansion_factor",
        "face_boundary_distance", "flag_distance", "flags", "iota_face", "limit_report",
        "make_diamond", "make_parallel_set", "morse_check", "relative_flag", "reports", "rules",
        "schottky_build", "subgroup", "symmetric_square", "symmspace", "theta_membership",
        "transversality_margin", "uru_check"}


def test_checkers_load_no_scipy(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config(checkers=["uru", "morse", "limit", "anosov"])))
    src = Path(anosovcheck.__file__).resolve().parents[1]
    pair = json.dumps([SL2_G.tolist(), SL2_H.tolist()])
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(src), str(p), str(tmp_path / "o"), pair],
                         check=True, capture_output=True, text=True).stdout
    code, certified, after_import, after_run, after_build = json.loads(out.splitlines()[-1])
    assert code == 0 and certified
    assert after_import == [] and after_run == [] and after_build == []


class TestPlots:
    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            emit_plot(p, "no-such-kind")

    @pytest.mark.parametrize("text, kind", [
        ("[1, 2]", "limit-set-rp2"),
        ('{"details": [1, 2]}', "limit-set-rp2"),
        ('{"details": {"rays": [1]}}', "limit-set-rp2"),
        ('{"details": {"rays": [1]}}', "expansion-growth"),
        ('{"details": {"rays": "abc"}}', "limit-set-rp2"),
        ('{"details": {"probe_points": [1]}}', "margin-histogram"),
        ('{"details": {"deltas": [1, 2]}}', "delta-projection"),
        ('{"details": {"probe_points": [[1]]}}', "margin-histogram"),
        ('{"details": {"rays": [{"log_eps": [1], "slope": "x"}]}}', "expansion-growth"),
        ('{"details": {"rays": [{"limit_flag_frame": [[{}]]}]}}', "limit-set-rp2"),
        ('{"details": {"deltas": {"0": [[{}]]}}}', "delta-projection"),
    ], ids=["list", "list_details", "int_rays", "int_rays_growth", "string_rays",
            "int_probe_points", "list_deltas", "short_probe_point", "string_slope",
            "object_in_frame", "object_in_delta"])
    def test_non_object_report_rejected(self, tmp_path, capsys, text, kind):
        p = tmp_path / "r.json"
        p.write_text(text)
        assert main(["plot", str(p), "--kind", kind]) == 2
        assert "plot error:" in capsys.readouterr().err

    def test_empty_report_gives_empty_csv(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text("{}")
        csv_path, svg_path = emit_plot(p, "limit-set-rp2", out_dir=str(tmp_path))
        assert csv_path.read_text().startswith("ray,x,y,status")
        assert svg_path.exists()

    def test_pipeline_plots(self, pipeline_runs):
        run = pipeline_runs["sl3-symsq-schottky"]
        out = run["dir"]
        csv_path, svg_path = emit_plot(out / "limit.json", "limit-set-rp2")
        rows = csv_path.read_text().strip().splitlines()
        ok_rows = [r for r in rows[1:] if r.endswith(",ok")]
        # distinct limit flags project to visibly distinct chart points
        pts = {tuple(round(float(x), 4) for x in r.split(",")[1:3]) for r in ok_rows}
        assert len(pts) >= 10
        csv_e, _ = emit_plot(out / "anosov.json", "expansion-growth")
        header = csv_e.read_text().splitlines()[0]
        assert header == "ray,n,log_expansion,fit"
        emit_plot(out / "limit.json", "delta-projection")
        emit_plot(out / "uru.json", "margin-histogram")

    def test_expansion_growth_straight_line(self, tmp_path):
        # a diagonal power ray gives a straight line with the closed-form slope
        report = {
            "details": {"rays": [{
                "log_eps": [2.772588722239781 * n for n in range(1, 9)],
                "slope": 2.772588722239781,
                "intercept": 0.0,
            }]}
        }
        p = tmp_path / "anosov.json"
        p.write_text(json.dumps(report))
        csv_path, _ = emit_plot(p, "expansion-growth")
        rows = [r.split(",") for r in csv_path.read_text().strip().splitlines()[1:]]
        slope = (float(rows[-1][2]) - float(rows[0][2])) / (len(rows) - 1)
        assert slope == pytest.approx(2 * np.log(4.0), rel=1e-2)
