import csv
import json
from pathlib import Path

import numpy as np
import pytest

from topocsp import studies
from topocsp.solver import variant, solve
from topocsp.problems import generate_instance
from topocsp.studies import (ABLATION_HEADER, DEFAULT_SIZES, SCALING_HEADER,
                             SEED_STUDY_VARIANTS, SEEDS_HEADER, TRACE_HEADER,
                             StudySpec, ablation_configs,
                             derive_seed, fit_time_exponent, run_ablation,
                             run_scaling_study, run_seed_study,
                             run_stability_study, trace_rows)

FAST = dict(n_seeds=2, budget=30, master_seed=42)


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def test_derive_seed_pinned_values():
    # frozen reference outputs of the documented rule: sha-256 of
    # "master:variant:n:index", first 8 bytes big-endian, shifted right once
    assert derive_seed(42, "v2", 6, 0) == 2531117350739469187
    assert derive_seed(42, "v2", 6, 1) == 2344507869281812269
    assert derive_seed(42, "baseline", 6, 0) == 4060361921040580224
    assert derive_seed(7, "v2", 6, 0) == 1138650267666215518


def test_derive_seed_properties():
    seeds = {derive_seed(42, v, n, i)
             for v in ("baseline", "v2") for n in (2, 6) for i in range(5)}
    assert len(seeds) == 20  # no collisions across the grid
    assert all(0 <= s < 2 ** 63 for s in seeds)


def test_spec_validation():
    with pytest.raises(ValueError):
        StudySpec(study="nope")
    with pytest.raises(ValueError):
        StudySpec(study="seeds", n_seeds=0)
    with pytest.raises(ValueError):
        StudySpec(study="seeds", sizes=())
    with pytest.raises(ValueError):
        StudySpec(study="seeds", sizes=(1,))
    with pytest.raises(ValueError):
        StudySpec(study="trace")
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            StudySpec(study="seeds", budget=budget)
    # seeds and scaling run the listed variants; ablation runs its own ten
    for study in ("seeds", "scaling"):
        with pytest.raises(ValueError, match="needs a variant"):
            StudySpec(study=study, variants=())
    assert StudySpec(study="ablation", variants=()).variants == ()
    # seeds and ablation run one size; scaling runs every listed size
    for study in ("seeds", "ablation"):
        with pytest.raises(ValueError, match="runs one size"):
            StudySpec(study=study, sizes=(4, 6))
    assert StudySpec(study="scaling", sizes=(4, 6)).sizes == (4, 6)


def test_spec_rejects_unknown_variant():
    # an unknown name must not run as an all-off configuration
    for study in ("seeds", "scaling"):
        with pytest.raises(ValueError, match="unknown variant 'v3'"):
            StudySpec(study=study, variants=("v2", "v3"))


def test_spec_json_round_trip(tmp_path):
    spec = StudySpec(study="scaling", sizes=(2, 4), n_seeds=3,
                     out_dir=str(tmp_path), budget=50, master_seed=9)
    spec.save(tmp_path / "spec.json")
    loaded = StudySpec.load(tmp_path / "spec.json")
    assert loaded == spec


def test_seed_study_rows_and_files(tmp_path):
    spec = StudySpec(study="seeds", sizes=(3,), out_dir=str(tmp_path),
                     variants=("baseline", "v2"), **FAST)
    report = run_seed_study(spec)
    assert len(report.rows) == 2 * FAST["n_seeds"]
    header, rows = read_csv(tmp_path / "seeds.csv")
    assert tuple(header) == SEEDS_HEADER
    assert len(rows) == len(report.rows)
    variants_seen = {r[0] for r in rows}
    assert variants_seen == {"baseline", "v2"}
    for r in rows:
        assert int(r[1]) >= 0
        assert float(r[2]) >= 0.0
        assert r[4] in ("0", "1")
    assert (tmp_path / "spec.json").exists()
    assert set(report.summary) == {"baseline", "v2"}
    for stats in report.summary.values():
        assert {"mean_energy", "std_energy", "success_rate"} <= set(stats)
    assert report.n_failed == 0


def test_seed_study_seeds_differ_per_variant(tmp_path):
    spec = StudySpec(study="seeds", sizes=(3,), out_dir=str(tmp_path),
                     variants=("baseline", "v2"), **FAST)
    run_seed_study(spec)
    _, rows = read_csv(tmp_path / "seeds.csv")
    by_variant = {}
    for r in rows:
        by_variant.setdefault(r[0], []).append(int(r[1]))
    assert by_variant["baseline"] != by_variant["v2"]
    assert by_variant["v2"][0] == derive_seed(42, "v2", 3, 0)


def test_scaling_study_rows(tmp_path):
    spec = StudySpec(study="scaling", sizes=(2, 3), out_dir=str(tmp_path),
                     variants=("baseline",), **FAST)
    report = run_scaling_study(spec)
    header, rows = read_csv(tmp_path / "scaling.csv")
    assert tuple(header) == SCALING_HEADER
    assert [int(r[0]) for r in rows] == [2, 3]
    summary = json.loads((tmp_path / "scaling_summary.json").read_text())
    assert "time_exponent" in summary
    assert report.summary["time_exponent"] == summary["time_exponent"]


def test_scaling_spec_records_the_variant_that_ran(tmp_path):
    spec = StudySpec(study="scaling", sizes=(2,), out_dir=str(tmp_path),
                     variants=("v1",), **FAST)
    report = run_scaling_study(spec)
    written = json.loads((tmp_path / "spec.json").read_text())
    assert written["variants"] == ["v1"]
    assert report.summary["variant"] == "v1"
    assert StudySpec.load(tmp_path / "spec.json") == spec
    # a spec built without variants runs v2
    assert StudySpec(study="scaling").variants == ("v2",)


def test_scaling_spec_rejects_a_second_variant(tmp_path):
    # a scaling study runs one variant, so a second one is an error, not
    # dropped; so is a spec.json that lists two
    with pytest.raises(ValueError, match="runs one variant"):
        StudySpec(study="scaling", variants=("v2", "baseline"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"study": "scaling", "sizes": [2],
                                "variants": ["v1", "v2"]}))
    with pytest.raises(ValueError, match="runs one variant"):
        StudySpec.load(path)


def test_ablation_spec_takes_no_variants(tmp_path):
    # the ablation study runs its own ten configurations, so a variant list
    # would be read by nothing; an empty one names nothing
    for variants in (("v2",), ("v1",), ("baseline", "v2")):
        with pytest.raises(ValueError, match="ablation study takes no"):
            StudySpec(study="ablation", variants=variants)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"study": "ablation", "variants": ["v2"]}))
    with pytest.raises(ValueError, match="ablation study takes no"):
        StudySpec.load(path)
    assert StudySpec(study="ablation").variants == ()


def test_spec_defaults_per_study():
    assert StudySpec(study="scaling").sizes == DEFAULT_SIZES
    for study in ("seeds", "ablation"):
        assert StudySpec(study=study).sizes == (6,)
    assert StudySpec(study="seeds").variants == SEED_STUDY_VARIANTS
    spec = StudySpec(study="seeds")
    assert (spec.n_seeds, spec.budget, spec.master_seed) == (20, 500, 42)


def test_bare_scaling_spec_runs_v2_over_default_sizes(tmp_path, monkeypatch):
    ran = []

    def record(inst, vc, budget, seed):
        ran.append((vc.name, inst.n))
        raise RuntimeError("not solved")
    monkeypatch.setattr(studies, "solve", record)
    rep = run_scaling_study(StudySpec(study="scaling", n_seeds=1,
                                      out_dir=str(tmp_path)))
    assert ran == [("v2", n) for n in DEFAULT_SIZES]
    assert rep.summary["variant"] == "v2"


@pytest.mark.parametrize("field,value", [
    ("sizes", (3.7,)), ("sizes", (True,)), ("sizes", ("3.5",)),
    ("n_seeds", 2.5), ("n_seeds", True), ("n_seeds", float("nan")),
    ("budget", 2.5), ("budget", True), ("budget", float("inf"))])
def test_spec_rejects_a_number_that_is_not_whole(tmp_path, field, value):
    # 3.7 used to run n=3, and a fractional budget failed every run
    with pytest.raises(ValueError, match="must be a whole number"):
        StudySpec(study="seeds", **{field: value})
    d = StudySpec(study="seeds").to_json_dict()
    d[field] = list(value) if field == "sizes" else value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="must be a whole number"):
        StudySpec.load(path)


def test_spec_takes_a_float_with_a_whole_value():
    spec = StudySpec(study="scaling", sizes=(2.0, np.int64(3)), n_seeds=2.0,
                     budget=np.float64(30))
    assert (spec.sizes, spec.n_seeds, spec.budget) == ((2, 3), 2, 30)
    assert all(type(v) is int
               for v in (*spec.sizes, spec.n_seeds, spec.budget))


@pytest.mark.parametrize("value", [True, 42.5, float("nan")])
def test_spec_rejects_a_master_seed_that_is_not_whole(tmp_path, value):
    # derive_seed formats the master seed into its key, so 42.0 and True
    # used to run other seeds than 42 and 1, and were written to spec.json
    with pytest.raises(ValueError, match="master_seed must be a whole"):
        StudySpec(study="seeds", master_seed=value)
    d = StudySpec(study="seeds").to_json_dict()
    d["master_seed"] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="master_seed must be a whole"):
        StudySpec.load(path)


def test_spec_takes_a_master_seed_with_a_whole_value(tmp_path):
    for value in (42.0, np.int64(42), np.float64(42)):
        spec = StudySpec(study="seeds", master_seed=value)
        assert spec.master_seed == 42 and type(spec.master_seed) is int
        spec.save(tmp_path / "spec.json")
        # written as 42, not 42.0
        assert '"master_seed": 42\n' in (tmp_path / "spec.json").read_text()


def stability_seeds(monkeypatch, master_seed):
    """The instance seeds a stability study at master_seed draws."""
    seeds = []

    def no_instance(n, seed):
        seeds.append(seed)
        raise RuntimeError("not generated")
    monkeypatch.setattr(studies, "generate_instance", no_instance)
    run_stability_study(n=3, n_seeds=2, budget=20, master_seed=master_seed)
    return seeds


def test_stability_study_takes_a_master_seed_with_a_whole_value(
        monkeypatch):
    assert stability_seeds(monkeypatch, 42.0) == \
        stability_seeds(monkeypatch, 42)
    for bad in (True, 42.5):
        with pytest.raises(ValueError, match="master_seed must be a whole"):
            stability_seeds(monkeypatch, bad)


def test_fit_time_exponent_recovers_powers():
    sizes = np.array([2, 4, 8, 16])
    for p in (1.0, 1.7, 2.0):
        times = 0.01 * sizes.astype(float) ** p
        assert fit_time_exponent(sizes, times) == pytest.approx(p, abs=1e-9)


def test_ablation_configs_layout():
    configs = ablation_configs()
    assert len(configs) == 10
    labels = [c[0] for c in configs]
    assert labels == ["baseline", "+mse", "+grad_clip", "+physics_init",
                      "+delta", "+curvature", "full", "full-delta",
                      "full-curvature", "full-mse"]
    # cumulative row 7 is exactly the full preset
    assert configs[6][1].canonical_name == "v2"
    # each cumulative row turns on exactly one more toggle
    for (_, a), (_, b) in zip(configs[:6], configs[1:7]):
        assert sum(b.flags()) == sum(a.flags()) + 1
    # each removal row turns off exactly one toggle from full
    for _, vc in configs[7:]:
        assert sum(vc.flags()) == 5


def test_ablation_rows_and_telescoping(tmp_path):
    spec = StudySpec(study="ablation", sizes=(3,), out_dir=str(tmp_path),
                     **FAST)
    report = run_ablation(spec)
    header, rows = read_csv(tmp_path / "ablation.csv")
    assert tuple(header) == ABLATION_HEADER
    assert len(rows) == 10
    means = [float(r[2]) for r in rows]
    deltas = [float(r[5]) for r in rows]
    # cumulative deltas telescope to baseline - full
    assert sum(deltas[1:7]) == pytest.approx(means[0] - means[6], abs=1e-9)
    assert report.summary["incremental_delta_sum"] == \
        pytest.approx(means[0] - means[6], abs=1e-9)
    # the full row is keyed by the canonical preset name
    assert rows[6][1] == "v2"
    # removal deltas are full mean minus row mean
    for i in (7, 8, 9):
        assert deltas[i] == pytest.approx(means[6] - means[i], abs=1e-12)


def test_ablation_full_row_equals_seed_study_v2(tmp_path):
    # same master seed, size, seed count and budget: the ablation full row
    # reruns exactly the seed study's v2 runs
    common = dict(sizes=(3,), n_seeds=2, budget=30, master_seed=42)
    a_dir = tmp_path / "a"
    s_dir = tmp_path / "s"
    a_dir.mkdir()
    s_dir.mkdir()
    ab = run_ablation(StudySpec(study="ablation", out_dir=str(a_dir),
                                **common))
    sd = run_seed_study(StudySpec(study="seeds", out_dir=str(s_dir),
                                  variants=("v2",), **common))
    v2_energies = [r[2] for r in sd.rows]
    full_mean = ab.summary["rows"]["full"]["mean_energy"]
    assert full_mean == pytest.approx(float(np.mean(v2_energies)), abs=1e-12)


def test_trace_rows_match_steps():
    inst = generate_instance(3, seed=1)
    res = solve(inst, variant("v1"), budget=30, seed=1)
    rows = trace_rows(res)
    assert len(rows) == res.steps
    assert rows[0][0] == 1
    assert rows[-1][0] == res.steps
    assert all(len(r) == len(TRACE_HEADER) for r in rows)


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    with open(path) as f:
        return json.loads(f.read(), parse_constant=reject)


def test_summary_files_write_non_finite_as_null(tmp_path, monkeypatch):
    # one size leaves the time exponent undefined
    spec = StudySpec(study="scaling", sizes=(3,), variants=("v2",),
                     out_dir=str(tmp_path / "scaling"), **FAST)
    rep = run_scaling_study(spec)
    assert np.isnan(rep.summary["time_exponent"])
    summary = _strict_json(tmp_path / "scaling" / "scaling_summary.json")
    assert summary["time_exponent"] is None
    assert summary["per_size"]["3"]["mean_energy"] == rep.rows[0][1]

    # a group whose runs all fail has no mean energy
    def fail(*args, **kwargs):
        raise RuntimeError("run failed")
    monkeypatch.setattr(studies, "solve", fail)
    spec = StudySpec(study="seeds", sizes=(3,), variants=("v2",),
                     out_dir=str(tmp_path / "seeds"), **FAST)
    rep = run_seed_study(spec)
    assert rep.n_failed == 2
    assert np.isnan(rep.summary["v2"]["mean_energy"])
    summary = _strict_json(tmp_path / "seeds" / "seeds_summary.json")
    assert summary["v2"] == {"mean_energy": None, "std_energy": None,
                             "success_rate": 0.0}


def test_summary_lists_each_failed_run(tmp_path, monkeypatch):
    real = studies.solve
    bad_seed = derive_seed(42, "v2", 3, 1)

    def fail_one(inst, vc, budget, seed):
        if seed == bad_seed:
            raise RuntimeError("no luck for this seed")
        return real(inst, vc, budget=budget, seed=seed)
    monkeypatch.setattr(studies, "solve", fail_one)
    for study, runner, variants in (("seeds", run_seed_study, ("v2",)),
                                    ("scaling", run_scaling_study, ("v2",)),
                                    ("ablation", run_ablation, None)):
        out = tmp_path / study
        spec = StudySpec(study=study, sizes=(3,), variants=variants,
                         out_dir=str(out), **FAST)
        rep = runner(spec)
        want = [{"variant": "full" if study == "ablation" else "v2", "n": 3,
                 "seed": bad_seed,
                 "error": "RuntimeError: no luck for this seed"}]
        assert rep.failures == want
        assert rep.n_failed == 1
        summary = _strict_json(out / f"{study}_summary.json")
        assert summary["failures"] == want
        assert "failures" not in rep.summary

    # a study where nothing failed writes an empty list
    monkeypatch.setattr(studies, "solve", real)
    spec = StudySpec(study="seeds", sizes=(3,), variants=("baseline",),
                     out_dir=str(tmp_path / "clean"), **FAST)
    assert run_seed_study(spec).failures == []
    assert _strict_json(tmp_path / "clean" / "seeds_summary.json")[
        "failures"] == []


def test_stability_no_delta_arm_is_ablation_full_delta(monkeypatch):
    arms = []
    real = studies.solve

    def record(inst, vc, **kwargs):
        arms.append(vc)
        return real(inst, vc, **kwargs)
    monkeypatch.setattr(studies, "solve", record)
    run_stability_study(n=3, n_seeds=1, budget=2, master_seed=42)
    assert arms == [variant("v2"), dict(ablation_configs())["full-delta"]]


def test_stability_study_values():
    # every figure pinned exactly: a change to the solve path, the recorded
    # states or the update-map probes shows here
    out = run_stability_study(n=3, n_seeds=2, budget=20, master_seed=42)
    assert out == {
        "full": {"grad_mean": 0.18274692830645806,
                 "grad_max": 0.8940983963729158,
                 "divergences": 0, "energy_increase_events": 0,
                 "lambda_max": 4.001094540942322,
                 "cond": 21.45733549063378,
                 "mean_energy": 2.2859634278777022e-07},
        "no-delta": {"grad_mean": 0.35288924074912836,
                     "grad_max": 0.8940983963729158,
                     "divergences": 0, "energy_increase_events": 0,
                     "lambda_max": 1.0009022242698606,
                     "cond": 1.0289380404289683,
                     "mean_energy": 0.2403244206002287},
    }


def test_stability_study_records_a_raise(monkeypatch):
    # a raise in one run becomes a failure of that arm, and the arm's
    # figures come from the runs that finished
    seeds = [derive_seed(42, "v2", 3, i) for i in range(2)]
    real = studies.solve

    def fail_first_full_seed(inst, vc, **kwargs):
        if vc.name == "v2" and kwargs["seed"] == seeds[0]:
            raise RuntimeError("boom")
        return real(inst, vc, **kwargs)
    monkeypatch.setattr(studies, "solve", fail_first_full_seed)
    out = run_stability_study(n=3, n_seeds=2, budget=20, master_seed=42)
    assert out["full"]["failures"] == [
        {"variant": "v2", "n": 3, "seed": seeds[0],
         "error": "RuntimeError: boom"}]
    assert "failures" not in out["no-delta"]
    alone = real(generate_instance(3, seeds[1]), variant("v2"), budget=20,
                 seed=seeds[1])
    assert out["full"]["mean_energy"] == alone.final_energy
    assert out["no-delta"]["mean_energy"] == 0.2403244206002287


def test_stability_arm_with_no_finished_run_reports_nan(monkeypatch):
    def no_spectrum(res, cs, vc):
        raise FloatingPointError("no spectrum")
    monkeypatch.setattr(studies, "update_map_spectrum", no_spectrum)
    out = run_stability_study(n=3, n_seeds=2, budget=20, master_seed=42)
    for label, stats in out.items():
        assert [f["error"] for f in stats["failures"]] == [
            "FloatingPointError: no spectrum"] * 2
        for key in ("grad_mean", "grad_max", "lambda_max", "cond",
                    "mean_energy"):
            assert np.isnan(stats[key])
        assert stats["divergences"] == stats["energy_increase_events"] == 0


@pytest.mark.parametrize("kwargs,message", [
    (dict(budget=0), "budget must be >= 1"),
    (dict(budget=2.5), "budget must be a whole number"),
    (dict(budget=True), "budget must be a whole number"),
    (dict(n=1), "size must be >= 2"),
    (dict(n=3.7), "size must be a whole number"),
    (dict(n_seeds=0), "n_seeds must be >= 1"),
    (dict(n_seeds=2.5), "n_seeds must be a whole number")])
def test_stability_study_rejects_bad_settings_before_any_run(
        monkeypatch, kwargs, message):
    # these used to become failed runs, NaN figures or a TypeError
    def no_run(*args, **kw):
        raise AssertionError("a run started")
    monkeypatch.setattr(studies, "solve", no_run)
    with pytest.raises(ValueError, match=message):
        run_stability_study(**{"n": 3, "n_seeds": 2, "budget": 20, **kwargs})


def test_stability_study_structure():
    out = run_stability_study(n=3, n_seeds=2, budget=20, master_seed=42)
    assert set(out) == {"full", "no-delta"}
    for label, stats in out.items():
        assert stats["divergences"] >= 0
        assert stats["grad_mean"] >= 0.0
        assert np.isfinite(stats["lambda_max"])
        assert stats["mean_energy"] >= 0.0
