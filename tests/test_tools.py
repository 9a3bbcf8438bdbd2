import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"tool_{name}", ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Timed(Exception):
    """Raised in place of the A/B run."""


def test_ab_solve_keeps_an_existing_default_record(tmp_path, monkeypatch):
    ab = load_tool("ab_solve")

    def no_run(*args):
        raise Timed
    monkeypatch.setattr(ab, "run", no_run)
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "BENCH_fixed-n20.json"
    record.write_text('{"kept": true}\n')
    argv = [str(ROOT), str(ROOT), "--workload", "fixed-n20"]
    with pytest.raises(SystemExit) as exited:
        ab.main(argv)
    # sys.exit with a message exits with status 1
    assert "BENCH_fixed-n20.json exists" in exited.value.code
    assert record.read_text() == '{"kept": true}\n'
    # a file named by --out is written, even when it exists
    for out in ("other.json", str(record)):
        with pytest.raises(Timed):
            ab.main(argv + ["--out", out])
    # and so is the default file when there is none yet
    record.unlink()
    with pytest.raises(Timed):
        ab.main(argv)


def test_ab_solve_names_a_reported_field_that_differs():
    # two solves with the same arrays that differ in one reported field do
    # not pass as the same solve, and the field is named
    from dataclasses import replace

    from topocsp.problems import generate_instance
    from topocsp.solver import solve, variant
    ab = load_tool("ab_solve")
    res = solve(generate_instance(4, seed=0), variant("baseline"), budget=5)
    assert res.stopped_by == "budget"
    same, names = ab.differing(ab.columns(res), ab.columns(res))
    assert same == []
    assert {"final_energy", "adopted_params", "final_states",
            *ab.REPORTED} <= set(names)
    other = replace(res, stopped_by="fixed_point")
    assert ab.differing(ab.columns(res), ab.columns(other))[0] == [
        "stopped_by"]


def test_study_digest_records_every_column_ab_solve_compares():
    # the two A/B tools compare one set of names: a digest record holds
    # each of ab_solve's columns, arrays as digests and the rest as they are
    from topocsp.problems import generate_instance
    from topocsp.solver import solve, variant
    ab, digest = load_tool("ab_solve"), load_tool("study_digest")
    res = solve(generate_instance(4, seed=0), variant("v2"), budget=20,
                record_states=True)
    cols = ab.columns(res)
    record = digest._solve_record(res)
    assert set(cols) <= set(record)
    assert {"violations", "start_states", "adopted_params"} <= set(cols)
    for k, v in cols.items():
        if isinstance(v, np.ndarray) and v.ndim:
            assert record[k] == digest._sha(v)
        else:
            assert record[k] == v


def test_sweep_cost_prints_both_checkouts(capsys, monkeypatch):
    # one timed call per case: the tool runs, checks the bits and prints
    # the per-sweep table and the step-scale timings of each checkout
    sweep_cost = load_tool("sweep_cost")
    monkeypatch.setattr(sweep_cost, "CALLS", 1)
    monkeypatch.setattr(sweep_cost, "RUNS", 1)
    assert sweep_cost.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert out.count("| variant | n=3 | n=6 | n=20 | n=40 |") == 2
    assert out.count("| `v1` |") == 2
    assert out.count("(8, 20, 64):") == 2
    assert "results bitwise equal on every case" in out
