import csv
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from topocsp import studies
from topocsp.cli import main
from topocsp.curvature import all_edge_curvatures, node_step_scales
from topocsp.graphs import build_graph
from topocsp.problems import generate_instance
from topocsp.solver import PRESETS, solve, variant
from topocsp.studies import TRACE_HEADER, StudySpec


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_generated_instance(capsys):
    code, out, _ = run_main(["solve", "--n", "3", "--seed", "1",
                             "--variant", "baseline", "--budget", "20"],
                            capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["variant"] == "baseline"
    assert payload["steps"] >= 1
    assert payload["e_final"] >= 0.0
    assert "violations" in payload
    assert set(payload["violations"]) == {"phi_mean", "phi_max", "psi_mean",
                                          "psi_max", "combined"}


def test_solve_writes_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, out, _ = run_main(["solve", "--n", "3", "--seed", "1",
                             "--variant", "v1", "--budget", "20",
                             "--trace", str(trace)], capsys)
    assert code == 0
    payload = json.loads(out)
    with open(trace, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == TRACE_HEADER
    assert len(rows) - 1 == payload["steps"]


def test_solve_trace_goes_through_the_study_writer(tmp_path, capsys):
    # the study CSV writer also makes the missing parent directory
    trace = tmp_path / "traces" / "v2.csv"
    code, out, _ = run_main(["solve", "--n", "4", "--seed", "3",
                             "--variant", "v2", "--budget", "40",
                             "--trace", str(trace)], capsys)
    assert code == 0
    payload = json.loads(out)
    with open(trace, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == TRACE_HEADER
    assert len(rows) - 1 == payload["steps"]


def test_solve_dump_curvature(capsys):
    code, out, _ = run_main(["solve", "--n", "5", "--seed", "1",
                             "--variant", "v2", "--budget", "20",
                             "--dump-curvature"], capsys)
    assert code == 0
    dump = json.loads(out)["curvature"]
    assert len(dump["edges"]) == 10  # complete graph on 5
    assert len(dump["nodes"]) == 5
    # the dump is the curvature of the same solve's final states, bit for bit
    res = solve(generate_instance(5, 1), variant("v2"), budget=20, seed=1)
    g = build_graph(res.final_states)
    scale, mean = node_step_scales(g)
    assert [[e["u"], e["v"]] for e in dump["edges"]] == g.edges.tolist()
    for got, want in (([e["curvature"] for e in dump["edges"]],
                       all_edge_curvatures(g)),
                      ([v["mean_curvature"] for v in dump["nodes"]], mean),
                      ([v["scale"] for v in dump["nodes"]], scale)):
        assert np.array(got).tobytes() == want.tobytes()


def test_solve_from_instance_file(tmp_path, capsys):
    inst = generate_instance(3, seed=5)
    path = tmp_path / "inst.json"
    inst.save(path)
    code, out, _ = run_main(["solve", "--instance", str(path),
                             "--variant", "baseline", "--budget", "10"],
                            capsys)
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_two_keys_for_one_anchor_rejected(tmp_path, capsys):
    d = generate_instance(4, seed=0).to_json_dict()
    d["anchors"]["01"] = [0.5] * 64  # names node 1, as "1" does
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(d))
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--variant", "baseline", "--budget", "5"],
                              capsys)
    assert code == 1
    assert out == ""
    assert "node 1 has two anchors" in err


@pytest.mark.parametrize("key,where,value", [
    ("1", '"anchors": {', json.dumps([0.5] * 64)), ("n", "{", "4")],
    ids=["anchor key", "top-level key"])
def test_repeated_key_rejected(tmp_path, capsys, key, where, value):
    # json keeps a repeated key's last value, so the first would be dropped
    # without a word
    text = json.dumps(generate_instance(4, seed=0).to_json_dict())
    text = text.replace(where, f'{where}"{key}": {value}, ', 1)
    assert text.count(f'"{key}":') == 2
    path = tmp_path / "inst.json"
    path.write_text(text)
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--variant", "baseline", "--budget", "5"],
                              capsys)
    assert code == 1
    assert out == ""
    assert f"key '{key}' appears twice" in err


def test_solve_requires_input(capsys):
    code, _, err = run_main(["solve"], capsys)
    assert code == 1
    assert "--n or --instance" in err


def test_solve_missing_instance_file(capsys):
    code, _, err = run_main(["solve", "--instance", "/nonexistent.json"],
                            capsys)
    assert code == 1


@pytest.mark.parametrize("variant", sorted(PRESETS))
def test_negative_seed_rejected_by_every_variant(tmp_path, capsys, variant):
    path = tmp_path / "inst.json"
    generate_instance(4, seed=1).save(path)
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--seed", "-1", "--variant", variant,
                               "--budget", "5"], capsys)
    assert code == 1
    assert out == ""
    assert "argument --seed: must be a non-negative integer" in err


@pytest.mark.parametrize("shape", [
    "instance is a directory", "trace is a directory", "out under a file"])
def test_file_errors_are_usage_errors(tmp_path, capsys, shape):
    inst = tmp_path / "inst.json"
    generate_instance(3, seed=5).save(inst)
    argv = {
        "instance is a directory": ["solve", "--instance", str(tmp_path)],
        "trace is a directory": ["solve", "--instance", str(inst),
                                 "--trace", str(tmp_path)],
        "out under a file": ["bench", "seeds", "--out", str(inst / "out"),
                             "--n", "3", "--seeds", "1"],
    }[shape]
    code, out, err = run_main(argv + ["--budget", "5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("topocsp: error:")
    assert "Traceback" not in err


def test_unknown_variant_usage_error(capsys):
    code, _, err = run_main(["solve", "--n", "3", "--variant", "v9"], capsys)
    assert code == 1


def test_unknown_subcommand(capsys):
    code, _, err = run_main(["frobnicate"], capsys)
    assert code == 1


def test_no_arguments(capsys):
    code, _, err = run_main([], capsys)
    assert code == 1


def test_bench_seeds(tmp_path, capsys):
    code, out, _ = run_main(["bench", "seeds", "--out", str(tmp_path),
                             "--n", "3", "--seeds", "2", "--budget", "20"],
                            capsys)
    assert code == 0
    assert (tmp_path / "seeds.csv").exists()
    assert (tmp_path / "seeds_summary.json").exists()
    assert (tmp_path / "spec.json").exists()
    assert "seeds.csv" in out


def test_bench_scaling(tmp_path, capsys):
    code, out, _ = run_main(["bench", "scaling", "--out", str(tmp_path),
                             "--sizes", "2,3", "--seeds", "2",
                             "--budget", "20"], capsys)
    assert code == 0
    assert (tmp_path / "scaling.csv").exists()
    assert (tmp_path / "scaling_summary.json").exists()


def test_bench_ablation(tmp_path, capsys):
    code, out, _ = run_main(["bench", "ablation", "--out", str(tmp_path),
                             "--n", "3", "--seeds", "1", "--budget", "15"],
                            capsys)
    assert code == 0
    with open(tmp_path / "ablation.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) - 1 == 10
    # the ablation runs its own configurations, so its spec names no variants
    with open(tmp_path / "spec.json") as f:
        spec = json.load(f)
    assert "variants" not in spec
    assert StudySpec.from_json_dict(spec).study == "ablation"


def size_option(study):
    """The size option a study reads, with a small value."""
    return ["--sizes", "2,3"] if study == "scaling" else ["--n", "3"]


@pytest.mark.parametrize("study,budget", [("seeds", "0"), ("scaling", "-5"),
                                          ("ablation", "0")])
def test_bench_rejects_budget_below_one(tmp_path, capsys, study, budget):
    out = tmp_path / "out"
    code, _, err = run_main(["bench", study, "--out", str(out),
                             *size_option(study), "--seeds", "2",
                             "--budget", budget], capsys)
    assert code == 1
    assert "budget must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("study,option", [
    ("seeds", ["--sizes", "2,4"]), ("ablation", ["--sizes", "2,4"]),
    ("scaling", ["--n", "10"]),
    ("scaling", ["--n", "10", "--sizes", "2,3"])])
def test_bench_rejects_a_size_option_the_study_does_not_read(
        tmp_path, capsys, study, option):
    # the seeds and ablation studies run one size, --n; scaling runs --sizes
    out = tmp_path / "out"
    code, stdout, err = run_main(["bench", study, "--out", str(out), *option,
                                  "--seeds", "1", "--budget", "5"], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("topocsp: error:") and err.count("\n") == 1
    assert f"{option[0]} does not apply to the {study} study" in err
    assert not out.exists()


def test_bench_rejects_a_repeated_size(tmp_path, capsys):
    # 3,3 used to write two rows for one size and fit a time exponent to it
    out = tmp_path / "out"
    code, stdout, err = run_main(["bench", "scaling", "--out", str(out),
                                  "--sizes", "3,3", "--seeds", "1",
                                  "--budget", "5"], capsys)
    assert code == 1
    assert stdout == ""
    assert "size 3 is listed twice" in err
    assert not out.exists()


@pytest.mark.parametrize("study", ["seeds", "scaling", "ablation"])
def test_bench_leaves_every_default_to_the_spec(tmp_path, capsys,
                                                monkeypatch, study):
    # a bare bench run writes the spec StudySpec builds from the study
    # alone; every run fails at once, so no solve is paid for
    def fail(*args, **kwargs):
        raise RuntimeError("not solved")
    monkeypatch.setattr(studies, "solve", fail)
    out = str(tmp_path / study)
    code, _, _ = run_main(["bench", study, "--out", out], capsys)
    assert code == 2
    with open(tmp_path / study / "spec.json") as f:
        written = json.load(f)
    assert written == StudySpec(study=study, out_dir=out).to_json_dict()


def test_bench_requires_out(capsys):
    code, _, err = run_main(["bench", "seeds"], capsys)
    assert code == 1


def test_module_entry_point(tmp_path):
    # the package runs as python -m, same interface
    proc = subprocess.run(
        [sys.executable, "-m", "topocsp.cli", "solve", "--n", "2",
         "--seed", "0", "--variant", "baseline", "--budget", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2


def readme_keys(intro):
    """Backticked names that open the list items after a README paragraph."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text[text.index(intro):].split("\n\n")[1]
    items = re.findall(r"^- ((?:`\w+`(?:, )?)+)", block, flags=re.M)
    return {k for item in items for k in re.findall(r"`(\w+)`", item)}


def test_solve_payload_matches_readme(capsys):
    documented = readme_keys("`solve` JSON payload")
    for variant, extra in (("v2", []), ("baseline", ["--dump-curvature"])):
        code, out, _ = run_main(["solve", "--n", "4", "--seed", "2",
                                 "--variant", variant, "--budget", "20"]
                                + extra, capsys)
        assert code == 0
        payload = json.loads(out)
        want = documented if extra else documented - {"curvature"}
        assert set(payload) == want
        assert set(payload["violations"]) == readme_keys(
            "`violations` are raw residual magnitudes")
        assert payload["sweeps_evaluated"] >= payload["steps"] >= 1
        assert payload["guard_triggers"] >= 0


@pytest.mark.parametrize("variant", ["baseline", "v1", "v2"])
def test_non_finite_state_rejected_by_every_variant(tmp_path, capsys, variant):
    d = generate_instance(6, 0).to_json_dict()
    d["states"][2][5] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(d))
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--variant", variant, "--budget", "20"],
                              capsys)
    assert code == 1
    assert out == ""
    assert "finite" in err


def _malformed(d, shape):
    """The instance dict d bent into one malformed shape."""
    if shape == "top-level list":
        return [d]
    if shape == "anchors list":
        d["anchors"] = list(d["anchors"].values())
    elif shape == "anchors null":
        d["anchors"] = None
    elif shape == "null ordering row":
        d["orderings"][1] = None
    elif shape == "fractional n":
        d["n"] += 0.5  # truncating would fit the states
    elif shape == "fractional node id":
        d["separations"][0] = [0, 1.7, 0.1]
    elif shape == "string n":
        d["n"] = str(d["n"])
    elif shape == "string separation row":
        d["separations"][0] = ["0", "1", "0.1"]
    elif shape == "boolean n":
        d["n"] = True
    elif shape in ("fractional anchor key", "word anchor key"):
        d["anchors"]["0.5" if "fractional" in shape else "x"] = (
            d["anchors"].pop("0"))
    elif shape == "non-ASCII digit anchor key":
        # ARABIC-INDIC DIGIT ONE: a Unicode decimal that float() reads as 1
        d["anchors"] = {"\u0661": d["anchors"]["1"]}
    elif shape == "null anchor vector":
        d["anchors"]["0"] = None
    elif shape == "short anchor vector":
        d["anchors"]["0"] = [0.1, 0.2, 0.3]
    elif shape in ("missing n", "missing states"):
        del d[shape.split()[1]]
    elif shape == "huge anchor key":  # too large for an int
        d["anchors"]["99999999999999999999"] = d["anchors"].pop("0")
    elif shape == "huge separation id":
        d["separations"][0][0] = 1e20
    elif shape in ("huge ordering id", "huge ordering axis"):
        d["orderings"][0][0 if "id" in shape else 2] = 1e20
    return d


# the field a shape's message names, for the shapes that used to run or to
# fail with a message that named no field
_NAMED = {"string n": "n must be", "boolean n": "n must be",
          "string separation row": "separations must be",
          "missing n": "n must be", "missing states": "states must be",
          **dict.fromkeys(("fractional anchor key", "word anchor key",
                           "non-ASCII digit anchor key", "null anchor vector",
                           "short anchor vector"), "anchors must be")}


@pytest.mark.parametrize("shape", [
    "top-level list", "anchors list", "anchors null", "null ordering row",
    "fractional n", "fractional node id", "huge anchor key",
    "huge separation id", "huge ordering id", "huge ordering axis", *_NAMED])
def test_malformed_instance_is_a_usage_error(tmp_path, capsys, shape):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        _malformed(generate_instance(4, 0).to_json_dict(), shape)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(["solve", "--instance", str(path),
                                   "--variant", "baseline", "--budget", "5"],
                                  capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("topocsp: error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert caught == []  # such as numpy's warning on an int cast
    assert _NAMED.get(shape, "") in err


def test_infinite_min_dist_rejected_as_non_finite(tmp_path, capsys):
    d = generate_instance(4, 0).to_json_dict()
    d["separations"][0][2] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(d))
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--variant", "v2"], capsys)
    assert code == 1
    assert out == ""
    assert "min_dist must be finite" in err
    assert "grid pitch" not in err


@pytest.mark.parametrize("n,sep", [(3, 0.6), (20, 0.35)])
def test_v2_solves_where_the_grid_cannot_honour_min_sep(tmp_path, capsys,
                                                         n, sep):
    # the grid pitch 1/ceil(n^(1/3)) is below the separation, so v2 starts
    # from the instance's own positions, as baseline and v1 do
    d = generate_instance(n, 1).to_json_dict()
    d["separations"] = [[a, b, sep] for a, b, _ in d["separations"]]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(d))
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--variant", "v2", "--seed", "1"], capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["n"] == n and payload["variant"] == "v2"
    assert payload["steps"] >= 1 and not payload["diverged"]
