import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topocsp.cli import main
from topocsp.curvature import all_edge_curvatures, node_step_scales
from topocsp.graphs import build_graph
from topocsp.problems import generate_instance
from topocsp.solver import solve, variant
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


def test_solve_requires_input(capsys):
    code, _, err = run_main(["solve"], capsys)
    assert code == 1
    assert "--n or --instance" in err


def test_solve_missing_instance_file(capsys):
    code, _, err = run_main(["solve", "--instance", "/nonexistent.json"],
                            capsys)
    assert code == 1


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


@pytest.mark.parametrize("study,budget", [("seeds", "0"), ("scaling", "-5"),
                                          ("ablation", "0")])
def test_bench_rejects_budget_below_one(tmp_path, capsys, study, budget):
    out = tmp_path / "out"
    code, _, err = run_main(["bench", study, "--out", str(out), "--n", "3",
                             "--sizes", "2,3", "--seeds", "2",
                             "--budget", budget], capsys)
    assert code == 1
    assert "budget must be >= 1" in err
    assert not out.exists()


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
    elif shape == "null anchor vector":
        d["anchors"]["0"] = None
    elif shape == "short anchor vector":
        d["anchors"]["0"] = [0.1, 0.2, 0.3]
    elif shape in ("missing n", "missing states"):
        del d[shape.split()[1]]
    return d


# the field a shape's message names, for the shapes that used to run or to
# fail with a message that named no field
_NAMED = {"string n": "n must be", "boolean n": "n must be",
          "string separation row": "separations must be",
          "missing n": "n must be", "missing states": "states must be",
          **dict.fromkeys(("fractional anchor key", "word anchor key",
                           "null anchor vector", "short anchor vector"),
                          "anchors must be")}


@pytest.mark.parametrize("shape", [
    "top-level list", "anchors list", "anchors null", "null ordering row",
    "fractional n", "fractional node id", *_NAMED])
def test_malformed_instance_is_a_usage_error(tmp_path, capsys, shape):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        _malformed(generate_instance(4, 0).to_json_dict(), shape)))
    code, out, err = run_main(["solve", "--instance", str(path),
                               "--variant", "baseline", "--budget", "5"],
                              capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("topocsp: error:")
    assert "Traceback" not in err
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
