import json

import numpy as np
import pytest

from wml.cli import main
from wml.io import load_tree, read_sweep_csv


def run(args):
    return main(list(args))


def test_gen_dyadic_depth4(tmp_path, capsys):
    rc = run(["gen", "--depth", "4", "--out", str(tmp_path)])
    assert rc == 0
    sp = load_tree(tmp_path / "tree.json")
    assert sp.n_leaves == 16
    assert sp.depth == 4


def test_gen_with_weight_and_function(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "dyadic", "depth": 3,
        "weight": {"family": "power", "alpha": 0.5, "eps": 0.125},
        "function": {"kind": "gaussian", "d": 2}}))
    rc = run(["gen", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "weight.csv").exists()
    assert (tmp_path / "function.csv").exists()


@pytest.mark.parametrize("weight", [{"family": "power"},
                                    {"family": "rotating", "eps": 0.25},
                                    {}], ids=["power", "rotating", "default"])
def test_gen_random_tree_refuses_dyadic_weights(tmp_path, capsys, weight):
    # the power and rotating weights live on the dyadic tree of the same
    # depth, whose leaf count a random tree does not share
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "random", "weight": weight}))
    out = tmp_path / "out"
    assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'weight.family'" in err and "'kind' 'random'" in err
    assert not out.exists()


def test_gen_empty_specs_take_every_default(tmp_path):
    spelled = {"weight": {"family": "power", "alpha": 0.5, "eps": 0.125},
               "function": {"kind": "gaussian", "d": 1}}
    for name, specs in (("empty", {"weight": {}, "function": {}}),
                        ("spelled", spelled)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"depth": 3, **specs}))
        assert run(["gen", "--config", str(cfg), "--seed", "3",
                    "--out", str(tmp_path / name)]) == 0
    for file in ("tree.json", "weight.csv", "function.csv"):
        assert (tmp_path / "empty" / file).read_bytes() == \
            (tmp_path / "spelled" / file).read_bytes()


def test_gen_random_tree_files_check(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"kind": "random", "depth": 5,
                               "weight": {"family": "lognormal"},
                               "function": {}}))
    gen = tmp_path / "gen"
    assert run(["gen", "--config", str(cfg), "--out", str(gen)]) == 0
    files = tmp_path / "files.json"
    files.write_text(json.dumps({name: str(gen / f"{name}.{ext}") for name, ext
                                 in (("tree", "json"), ("weight", "csv"),
                                     ("function", "csv"))}))
    assert run(["check", "--config", str(files),
                "--out", str(tmp_path / "check")]) == 0


def test_check_default_suite_passes(tmp_path):
    rc = run(["check", "--instances", "6", "--seed", "7",
              "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["instances"] == 6
    assert all(v["passed"] for v in report["summary"].values())
    names = set(report["summary"])
    assert {"pointwise_domination", "principal_properties",
            "dual_exponent_identity", "tail_iteration"} <= names
    # every reported line carries the measured quantity and the bound
    for agg in report["summary"].values():
        assert "worst" in agg and "bound" in agg


def test_check_low_threshold_fails(tmp_path):
    rc = run(["check", "--instances", "4", "--seed", "7", "--cgamma", "0.1",
              "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not all(v["passed"] for v in report["summary"].values())


def test_check_with_infinite_bound_exits_2(tmp_path, capsys):
    # at p = 200 the sparse operator T_p overflows and the interpolation
    # check's bound is inf; the check fails instead of passing vacuously
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = run(["check", "--d", "2", "--p", "200", "--instances", "2",
                  "--out", str(tmp_path)])
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["summary"]["sparse_interpolation"]["passed"] is False
    failed = [r for d in report["details"] for r in d["results"]
              if not r["passed"]]
    assert len(failed) == 2
    for r in failed:
        assert r["name"] == "sparse_interpolation"
        assert r["bound"] == float("inf")
        assert "bound inf is not finite" in r["info"]


def test_check_failed_fit_is_reported(tmp_path, capsys):
    # at p = 1.001 the dual exponent is 1001, where the damped Lewis map
    # contracts by 999/1003 a round, and the seed-7 suite's first d = 2
    # instance is still far from its stop after the 1000-round budget:
    # the fit raises EllipsoidError, which is a reported check, the report
    # is written and the exit code is 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1.001, "d": 2, "instances": 1,
                               "seed": 7}))
    assert run(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["summary"]["reducer_certificate"]["passed"] is False
    failed = [r for d in report["details"] for r in d["results"]
              if not r["passed"]]
    assert failed and all(r["name"] == "reducer_certificate" for r in failed)
    for r in failed:
        assert "certification failed" in r["info"]
        # the achieved ratio lies beyond its bound: below a low bound (< 1)
        # or above a high bound (> 1)
        assert (r["measured"] - r["bound"]) * (r["bound"] - 1.0) > 0.0


def test_check_unsupported_dimension_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["check", "--d", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "d = 4" in err and "[1, 2, 3]" in err
    assert not out.exists()


def test_check_zero_instances_is_usage_error(tmp_path, capsys):
    assert run(["check", "--instances", "0", "--out", str(tmp_path)]) == 1
    assert "--instances" in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


@pytest.mark.parametrize("args, message", [
    (["check", "--depth", "0", "--instances", "1"], "depths must be at least 1"),
    (["check", "--p", "0", "--instances", "1"], "p must lie in (1, inf)"),
    (["check", "--d", "0", "--instances", "1"], "not d = 0"),
    (["sweep", "--parallel", "0"], "--parallel must be at least 1, got 0"),
    (["sweep", "--parallel", "-1"], "--parallel must be at least 1, got -1"),
    (["check", "--cgamma", "nan", "--instances", "1"],
     "cgamma must be a finite positive number, got nan"),
    (["check", "--cgamma", "0", "--instances", "1"],
     "cgamma must be a finite positive number, got 0.0"),
    (["check", "--cgamma", "-1", "--instances", "1"],
     "cgamma must be a finite positive number, got -1.0"),
    (["check", "--cgamma", "inf", "--instances", "1"],
     "cgamma must be a finite positive number, got inf"),
    (["check", "--p", "1.0", "--instances", "1"],
     "p must lie in (1, inf), got 1.0"),
    (["sweep", "--p", "1.0"], "p must lie in (1, inf), got 1.0"),
    (["sweep", "--d", "2"], "power family is scalar (d = 1)"),
], ids=["depth", "p", "d", "sweep-parallel-0", "sweep-parallel-negative",
        "cgamma-nan", "cgamma-zero", "cgamma-negative", "cgamma-inf",
        "p-one", "sweep-p-one", "sweep-power-d"])
def test_check_zero_flag_reaches_validation(tmp_path, capsys, args, message):
    # a zero or negative value is not the default: it is checked and
    # rejected before anything is written, the output directory included
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_check_config_square_mode_reaches_validation(tmp_path, capsys,
                                                    monkeypatch):
    # check reports the square function in its one default mode: the
    # former config key, even at that mode, is an unknown key, refused
    # before any instance runs and before anything is written
    from wml import cli

    def never(job):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(cli, "_check_suite_instance", never)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"square_mode": "increments", "instances": 2}))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown check config key 'square_mode'" in \
        capsys.readouterr().err
    assert not out.exists()


def _file_config(tmp_path, **csvs):
    """A check config on the dyadic depth-3 tree (8 leaves) whose other
    keys, ``weight`` or ``function``, name CSV files of the given rows of
    cells."""
    from wml.filtration import build_dyadic
    from wml.io import save_tree
    save_tree(tmp_path / "tree.json", build_dyadic(3))
    config = {"tree": str(tmp_path / "tree.json")}
    for name, rows in csvs.items():
        config[name] = str(tmp_path / f"{name}.csv")
        (tmp_path / f"{name}.csv").write_text(
            "".join(",".join(map(str, row)) + "\n" for row in rows))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return cfg


@pytest.mark.parametrize("name", ["weight", "function"])
def test_check_non_numeric_csv_cell_is_usage_error(tmp_path, capsys, name):
    cells = [["1.0"]] * 8
    cells[5] = ["abc"]
    cfg = _file_config(tmp_path, **{name: cells})
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{name}.csv: row 6, column 1: 'abc' is not a number" in \
        capsys.readouterr().err
    # the files are loaded before the output directory is made
    assert not out.exists()


def test_check_tree_json_given_as_function_is_usage_error(tmp_path, capsys):
    cfg = _file_config(tmp_path, function=[["1.0"]] * 8)
    config = json.loads(cfg.read_text())
    config["function"] = config["tree"]
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    assert "tree.json: row 1, column 1: '{' is not a number" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["weight-directory", "config-directory",
                                  "weight-binary", "tree-binary"])
def test_check_unreadable_file_is_usage_error(tmp_path, capsys, case):
    # a directory where a file is expected, and files that are not text,
    # are usage errors naming the path, raised before anything is written
    cfg = _file_config(tmp_path, weight=[["1.0"]] * 8)
    bad = {"weight-directory": tmp_path / "dir",
           "config-directory": tmp_path / "dir",
           "weight-binary": tmp_path / "weight.csv",
           "tree-binary": tmp_path / "tree.json"}[case]
    if case.endswith("directory"):
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff" + bad.read_bytes())
    if case == "weight-directory":
        config = json.loads(cfg.read_text())
        config["weight"] = str(bad)
        cfg.write_text(json.dumps(config))
    if case == "config-directory":
        cfg = bad
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(bad) in err[0]
    assert not out.exists()


def test_check_function_of_the_wrong_shape_is_usage_error(tmp_path, capsys):
    # a d = 1 weight file: an 8 x 3 function file does not fit it
    cfg = _file_config(tmp_path, weight=np.ones((8, 1)),
                       function=np.ones((8, 3)))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "(L, d) = (8, 1)" in err and "(8, 3)" in err
    assert not out.exists()


@pytest.mark.parametrize("csvs, message", [
    ({"weight": np.ones((5, 1))},
     "weight.csv: 5 leaf weights, but the tree {tree} has 8 leaves"),
    ({"weight": np.ones((5, 1)), "function": np.ones((8, 1))},
     "weight.csv: 5 leaf weights, but the tree {tree} has 8 leaves"),
    ({"weight": np.tile([1.0, 0.0, 0.0, 1.0], (8, 1)),
      "function": np.ones((8, 1))},
     "function.csv: function of shape (8, 1), but the instance needs "
     "(L, d) = (8, 2)"),
    ({"function": np.ones((5, 2))},
     "function.csv: function of shape (5, 2), but the instance needs "
     "(L, d) = (8, 2)"),
], ids=["weight-leaves", "weight-leaves-with-function", "function-d",
        "function-leaves"])
def test_check_files_that_do_not_fit_together_are_usage_errors(
        tmp_path, capsys, csvs, message):
    # refused with one error line naming the file, before anything is
    # written
    cfg = _file_config(tmp_path, **csvs)
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message.format(tree=tmp_path / "tree.json") in err[0]
    assert not out.exists()


def test_check_function_without_weight_takes_its_dimension(tmp_path, capsys):
    # no weight file: the weight is the identity of the function's d = 2
    cfg = _file_config(tmp_path, function=np.random.default_rng(
        3).standard_normal((8, 2)))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "check_report.json").read_text())
    assert report["details"][0]["meta"]["d"] == 2


def test_parallel_check_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    args = ["check", "--instances", "4", "--depth", "6", "--seed", "7"]
    assert run(args + ["--out", str(serial)]) == 0
    assert run(args + ["--parallel", "2", "--out", str(parallel)]) == 0
    assert (serial / "check_report.json").read_bytes() == \
        (parallel / "check_report.json").read_bytes()


def test_check_missing_file_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": str(tmp_path / "missing.json")}))
    assert run(["check", "--config", str(cfg)]) == 1


def test_check_on_generated_files(tmp_path):
    gen_dir = tmp_path / "gen"
    rc = run(["gen", "--depth", "3", "--out", str(gen_dir), "--seed", "1"])
    assert rc == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": str(gen_dir / "tree.json"), "p": 2.0}))
    assert run(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_sweep_deterministic_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run(["sweep", "--seed", "11", "--out", str(out)])
        assert rc == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "fit.json").read_bytes() == (b / "fit.json").read_bytes()


def test_sweep_empty_grid_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": []}))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: sweep grid is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"family": "rotating", "d": 4}, "rotating weights support d in {2, 3}"),
    ({"epss": [0.0]}, "eps must be positive"),
    ({"alphas": [-1.5]}, "alpha must exceed -1"),
    ({"depths": [0]}, "depth must be >= 1"),
], ids=["rotating-d", "eps", "alpha", "depth"])
def test_sweep_point_no_family_builds_is_usage_error(tmp_path, capsys, config,
                                                     message):
    # the config refuses it before any point runs and before anything is
    # written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}"]
    assert not out.exists()


def test_sweep_unknown_estimator_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": "bogus"}))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown sweep config key 'estimator'" in err
    assert not (out / "sweep.csv").exists()


def test_check_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 1, "instnaces": 5}))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown check config key 'instnaces'" in err
    assert not (out / "check_report.json").exists()


@pytest.mark.parametrize("config, message", [
    # nested weight / function spec keys are checked as well
    ({"depth": 3, "kindd": "random",
      "weight": {"family": "power", "alpah": 0.2}},
     "unknown gen config key 'kindd', 'weight.alpah'"),
    ({"depth": 3, "weight": "weight.csv"},
     "gen config key 'weight' must be a JSON object"),
])
def test_gen_unknown_config_key_is_usage_error(tmp_path, capsys, config,
                                               message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["gen", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_check_summary_shows_smallest_low_ratio(tmp_path):
    # the held-out ratio of reducer_certificate is bounded from below, so
    # the summary shows the instance with the smaller one; p = 3, because
    # p = 2 reducers are exact and carry no certificate
    rc = run(["check", "--instances", "2", "--d", "2", "--p", "3",
              "--depth", "4", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    lows = [r["measured"] for d in report["details"] for r in d["results"]
            if r["name"] == "reducer_certificate"]
    assert len(lows) == 2 and lows[0] != lows[1]
    assert report["summary"]["reducer_certificate"]["worst"] == min(lows)


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WML_SEED", "13")
    out1 = tmp_path / "env"
    rc = run(["sweep", "--out", str(out1)])
    assert rc == 0
    out2 = tmp_path / "flag"
    rc = run(["sweep", "--seed", "13", "--out", str(out2)])
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command", ["sweep", "check", "gen"])
def test_non_integer_seed_env_is_usage_error(tmp_path, monkeypatch, capsys,
                                             command):
    monkeypatch.setenv("WML_SEED", "abc")
    out = tmp_path / "out"
    assert run([command, "--out", str(out)]) == 1
    assert "WML_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()
    # a --seed flag is read first, so the variable is not consulted
    assert run(["gen", "--seed", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("command", ["gen", "check", "sweep"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                      source):
    # numpy's generators refuse a negative seed with a traceback; the
    # command refuses it first, naming it, and writes nothing
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if source == "flag":
        args += ["--seed", "-1"]
    elif source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("WML_SEED", "-3")
    assert run(args) == 1
    err = capsys.readouterr().err.splitlines()
    named = "environment variable WML_SEED" if source == "env" else "seed"
    got = -3 if source == "env" else -1
    assert err == [f"error: {named} must be a non-negative integer, got {got}"]
    assert not out.exists()


@pytest.mark.parametrize("keys, named", [
    ({"weight": "nonexistent.csv", "function": "nope.csv"},
     "'weight', 'function'"),
    ({"function": "nope.csv"}, "'function'"),
], ids=["both", "function"])
def test_check_without_tree_rejects_file_keys(tmp_path, capsys, keys, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 1, **keys}))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"check takes {named} only with 'tree'" in capsys.readouterr().err
    assert not out.exists()


def test_fit_on_synthetic_slope_one(tmp_path):
    csv = tmp_path / "sweep.csv"
    lines = ["instance_id,family,p,d,depth,alpha,eps,ap_char,ratio,"
             "iterations,restarts,converged"]
    for i, ap in enumerate((1.0, 2.0, 4.0, 8.0)):
        lines.append(f"x{i},power,2.0,1,4,0.5,0.1,{ap!r},{3.0 * ap!r},"
                     f"0,1,true")
    csv.write_text("\n".join(lines) + "\n")
    rc = run(["fit", "--csv", str(csv), "--out", str(tmp_path)])
    assert rc == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["slope"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("column, cell, kind", [
    ("ap_char", "abc", "a number"), ("depth", "4.5", "an integer")])
def test_fit_non_numeric_sweep_cell_is_usage_error(tmp_path, capsys, column,
                                                   cell, kind):
    header = ("instance_id,family,p,d,depth,alpha,eps,ap_char,ratio,"
              "iterations,restarts,converged")
    row = dict(zip(header.split(","), "x0,power,2.0,1,4,0.5,0.1,1.0,3.0,"
                   "0,1,true".split(",")))
    row[column] = cell
    csv = tmp_path / "sweep.csv"
    csv.write_text(f"{header}\n{','.join(row.values())}\n")
    out = tmp_path / "out"
    assert run(["fit", "--csv", str(csv), "--out", str(out)]) == 1
    assert f"sweep.csv: row 2, column '{column}': '{cell}' is not {kind}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, header, missing", [
    ("fit", "p,ratio", "'ap_char'"),
    ("fit", "family,p,d", "'ap_char', 'ratio'"),
    ("report", "p,d,ap_char,ratio", "'family'"),
], ids=["fit-ap_char", "fit-both", "report-family"])
def test_sweep_csv_without_a_read_column_is_usage_error(tmp_path, capsys,
                                                        command, header,
                                                        missing):
    csv = tmp_path / "sweep.csv"
    values = {"family": "power", "p": "2.0", "d": "1", "ap_char": "1.0",
              "ratio": "3.0"}
    csv.write_text(header + "\n" + ",".join(
        values[c] for c in header.split(",")) + "\n")
    out = tmp_path / "out"
    assert run([command, "--csv", str(csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"sweep.csv: the sweep CSV header has no column {missing}\n" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_library_key_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # a KeyError from the library is a bug: it must surface, not pass as
    # an input error
    def broken(*args, **kwargs):
        raise KeyError("ap_char")
    monkeypatch.setattr("wml.cli.sweep_fit", broken)
    csv = tmp_path / "sweep.csv"
    csv.write_text("ap_char,ratio\n1.0,3.0\n")
    with pytest.raises(KeyError):
        run(["fit", "--csv", str(csv), "--out", str(tmp_path / "out")])


def test_fit_reproduces_flat_sweep_fit(tmp_path):
    # a flat family gets slope 0 from the sweep, and the refit of its CSV
    # applies the same convention
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.0]}))
    sweep, refit = tmp_path / "s", tmp_path / "f"
    assert run(["sweep", "--config", str(cfg), "--out", str(sweep)]) == 0
    assert json.loads((sweep / "fit.json").read_text())["slope"] == 0.0
    csv = str(sweep / "sweep.csv")
    assert run(["fit", "--csv", csv, "--out", str(refit)]) == 0
    assert (refit / "fit.json").read_bytes() == \
        (sweep / "fit.json").read_bytes()
    assert run(["report", "--csv", csv, "--out", str(refit)]) == 0


def test_report_names_target_exponent(tmp_path, capsys):
    out = tmp_path / "s"
    assert run(["sweep", "--seed", "4", "--p", "2.0", "--out", str(out)]) == 0
    rc = run(["report", "--csv", str(out / "sweep.csv"),
              "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "report.txt").read_text()
    assert "scalar target exponent" in text
    assert "slope" in text
    points = (tmp_path / "points.csv").read_text().splitlines()
    assert points[0] == "log_ap_char,log_ratio"
    rows = read_sweep_csv(out / "sweep.csv")
    assert len(points) == len(rows) + 1


def test_parallel_sweep_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert run(["sweep", "--seed", "6", "--out", str(serial)]) == 0
    assert run(["sweep", "--seed", "6", "--parallel", "2",
                "--out", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == \
        (parallel / "sweep.csv").read_bytes()


def test_parallel_ascent_sweep_matches_serial(tmp_path, capsys):
    # p = 1.5 runs the power-method estimator on every point
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1.5, "depths": [4, 5], "alphas": [0.5],
                               "epss": [0.25, 0.0625], "restarts": 2}))
    serial, parallel = tmp_path / "s", tmp_path / "p"
    args = ["sweep", "--config", str(cfg), "--seed", "6"]
    assert run(args + ["--out", str(serial)]) == 0
    assert "converged 4/4 points" in capsys.readouterr().out
    assert run(args + ["--parallel", "2", "--out", str(parallel)]) == 0
    assert (serial / "sweep.csv").read_bytes() == \
        (parallel / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command, config, value", [
    ("check", {"d": 2, "p": 3.0, "instances": 1, "depth": 4}, 0.0),
    ("check", {"d": 2, "p": 3.0, "instances": 1, "depth": 4}, -0.5),
    ("sweep", {"family": "rotating", "d": 2, "p": 1.5, "depths": [4],
               "alphas": [0.8], "epss": [0.25]}, 0.0),
    ("sweep", {"family": "rotating", "d": 2, "p": 1.5, "depths": [4],
               "alphas": [0.8], "epss": [0.25]}, float("nan")),
], ids=["check-zero", "check-negative", "sweep-zero", "sweep-nan"])
def test_bad_fit_tol_is_usage_error_before_any_fit(tmp_path, capsys, command,
                                                   config, value):
    # the fit tolerance is the constant weights.FIT_TOL: a fit_tol key, of
    # any value, is an unknown key (exit 1), and nothing is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "fit_tol": value}))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown {command} config key 'fit_tol'" in err
    assert "Traceback" not in err and not out.exists()



def test_sweep_rejects_no_restarts_before_any_point(tmp_path, capsys):
    # the config is refused up front: no reducer fit runs, nothing is
    # written, and the message names the key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "rotating", "d": 2, "p": 1.5,
                               "depths": [4], "alphas": [0.8],
                               "epss": [0.25], "restarts": 0}))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "restarts must be >= 1, got 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_sweep_failed_fit_is_reported(tmp_path, capsys, parallel):
    # a fit that runs out of rounds fails the point: near-rank-one blocks
    # (rotating, alpha 2, eps 1e-3) at p = 1.001, whose dual exponent 1001
    # the damped Lewis map approaches by 999/1003 a round. The inputs
    # themselves fail, so the spawned workers of --parallel 2 fail the
    # same way: a FAIL line naming the point and exit code 2, no traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "rotating", "d": 2, "p": 1.001,
                               "depths": [4], "alphas": [2.0],
                               "epss": [0.001]}))
    assert run(["sweep", "--config", str(cfg), "--parallel", parallel,
                "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL rotating-p1.001-d2-D4-a2-e0.001: ")
    assert "reducer certification failed" in captured.out
    assert "Traceback" not in captured.err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_unconverged_power_iteration_is_reported(tmp_path, capsys,
                                                      monkeypatch):
    # the default p = 2, d = 1 sweep with its estimator capped at two
    # iterations (one Lanczos step, one power iteration): no point is a
    # failure, and every record says it did not converge
    from wml import experiments
    ascent = experiments.opnorm_ascent
    monkeypatch.setattr(experiments, "opnorm_ascent",
                        lambda *a, **kw: ascent(*a, **kw, max_iter=2))
    assert run(["sweep", "--seed", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "converged 0/24 points" in out
    rows = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(rows) == 24
    assert all(not r["converged"] and r["iterations"] == 2
               and r["restarts"] == 1 for r in rows)


def test_check_square_mode_flag(tmp_path, capsys):
    # check reports the square function in its one default mode, and has
    # no flag to choose another: --square-mode is a usage error
    with pytest.raises(SystemExit) as exc:
        run(["check", "--instances", "2", "--square-mode", "with_mean",
             "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --square-mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_exit_code():
    assert run(["fit"]) == 1


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("args", [
    ["gen", "--depth", "3", "--p", "5"],
    ["fit", "--seed", "3", "--csv", "sweep.csv"],
    ["report", "--seed", "3", "--csv", "sweep.csv"],
], ids=["gen-p", "fit-seed", "report-seed"])
def test_flag_that_no_command_reads_is_usage_error(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_and_report_reject_unknown_config_key(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"csv": "sweep.csv", "seed": 3}))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"unknown {command} config key 'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("gen", {"depth": "abc"}, "gen config key 'depth' must be int, got 'abc'"),
    ("gen", {"weight": {"alpha": [1]}},
     "gen config key 'weight.alpha' must be float, got [1]"),
    ("sweep", {"restarts": "x"}, "sweep config key 'restarts' must be int"),
    ("sweep", {"epss": None},
     "sweep config key 'epss' must be a list of float, got None"),
    ("check", {"instances": [3]}, "check config key 'instances' must be int"),
    ("check", {"instances": 2.7},
     "check config key 'instances' must be int, got 2.7"),
    ("sweep", {"depths": [4, True]},
     "sweep config key 'depths' must be int, got True"),
    ("check", {"acceptance": 2},
     "check config key 'acceptance' must be bool, got 2"),
    ("sweep", {"p": False}, "sweep config key 'p' must be float, got False"),
], ids=["gen-depth", "gen-weight-alpha", "sweep-restarts", "sweep-epss-null",
        "check-instances", "check-instances-float", "sweep-depths-bool",
        "check-acceptance-int", "sweep-p-bool"])
def test_wrongly_typed_config_value_is_usage_error(tmp_path, capsys, command,
                                                   config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("sweep", {"alphas": [float("nan")], "depths": [4],
               "epss": [0.25, 0.125, 0.0625]},
     "sweep config key 'alphas' must be a finite float, got nan"),
    ("check", {"p": float("inf")},
     "check config key 'p' must be a finite float, got inf"),
], ids=["sweep-alphas-nan", "check-p-inf"])
def test_nonfinite_config_value_is_usage_error(tmp_path, capsys, command,
                                               config, message):
    # JSON's NaN and Infinity are refused like any other ill-typed value,
    # before the output directory is made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_integer_config_value_of_a_float_key_is_valid(tmp_path):
    # a float key takes any JSON number: "p": 2 is p = 2.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "depths": [4], "alphas": [0.5],
                               "epss": [0.25, 0.125, 0.0625]}))
    out = tmp_path / "out"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_sweep_csv(out / "sweep.csv")
    assert [(r["p"], r["depth"]) for r in rows] == [(2.0, 4)] * 3


@pytest.mark.parametrize("flags, keys, named", [
    (["--instances", "5", "--d", "3", "--depth", "9", "--parallel", "2"], {},
     "instances, d, depth, parallel"),
    ([], {"instances": 5}, "instances"),
    (["--depth", "9"], {"parallel": 2}, "depth, parallel"),
], ids=["flags", "key", "flag-and-key"])
def test_check_on_files_rejects_suite_options(tmp_path, capsys, flags, keys,
                                              named):
    from wml.filtration import build_dyadic
    from wml.io import save_tree
    save_tree(tmp_path / "tree.json", build_dyadic(3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": str(tmp_path / "tree.json"), **keys}))
    out = tmp_path / "out"
    assert run(["check", "--config", str(cfg), "--out", str(out)]
               + flags) == 1
    assert f"takes no {named}" in capsys.readouterr().err
    assert not out.exists()


def test_check_summary_shows_result_nearest_its_bound(tmp_path, monkeypatch):
    # instance 0 has the larger upper-bounded and the smaller lower-bounded
    # measured value, but instance 1 comes nearer its bound on both sides
    from wml import cli
    from wml.suite import CheckResult
    synthetic = {0: [CheckResult("up", True, 3.4, 98.5),
                     CheckResult("low", True, 0.2, 0.1, side="lower")],
                 1: [CheckResult("up", True, 1.0, 1.0 + 1e-12),
                     CheckResult("low", True, 0.9, 0.5, side="lower")]}
    monkeypatch.setattr(cli, "instance_checks",
                        lambda inst, **kw: (synthetic[inst.index], {}))
    assert run(["check", "--instances", "2", "--depth", "4",
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "check_report.json").read_text())[
        "summary"]
    assert summary["up"] == {"passed": True, "worst": 1.0,
                             "bound": 1.0 + 1e-12}
    assert summary["low"] == {"passed": True, "worst": 0.9, "bound": 0.5}
