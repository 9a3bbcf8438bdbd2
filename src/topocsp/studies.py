"""Benchmark studies: seed robustness, scaling, ablation, stability.

Every study is deterministic given its spec: per-run seeds derive from
sha256(master_seed, variant, n, index), and results land as CSV plus a JSON
copy of the spec so the study can be rerun from its output directory. The
seeds, scaling and ablation studies share one run loop and one writer; each
of their runs is isolated (a failing run becomes a failed row), and their
summary files are strict JSON, with null for a non-finite value, listing
each failed run with its reason. The stability study records a run that
raises the same way, in its arm's failures, and leaves it out of the arm's
figures.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .constraints import whole
from .problems import generate_instance
from .solver import (DEFAULT_BUDGET, VARIANT_FLAGS, SolveResult,
                     VariantConfig, solve, update_map_spectrum, variant)

SEED_STUDY_VARIANTS = ("baseline", "v1", "v2")
DEFAULT_SIZES = (2, 4, 6, 8, 10, 12, 15, 20)
DEFAULT_N = 6
DEFAULT_N_SEEDS = 20
DEFAULT_MASTER_SEED = 42

SEEDS_HEADER = ("variant", "seed", "e_final", "steps", "success", "wall_time")
SCALING_HEADER = ("n", "mean_energy", "std_energy", "mean_steps", "mean_time",
                  "mean_grad_norm", "success_rate", "mean_violations")
ABLATION_HEADER = ("label", "variant", "mean_energy", "std_energy",
                   "success_rate", "delta_energy")
TRACE_HEADER = ("step", "L_total", "L_data", "L_phys", "L_logic",
                "grad_max", "grad_mean")


def derive_seed(master_seed, variant_name, n, index):
    """Stable per-run seed from (master seed, variant, size, run index).

    Uses sha256 so the value is identical across processes and platforms.
    """
    key = f"{master_seed}:{variant_name}:{n}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def _run_settings(sizes, n_seeds, budget, master_seed):
    """(sizes, n_seeds, budget, master_seed) as ints, or ValueError for a
    bad value; 42.0 derives the seeds of 42, and True is no seed."""
    n_seeds = whole(n_seeds, "n_seeds", least=1)
    budget = whole(budget, "budget", least=1)
    sizes = tuple(whole(n, "size", least=2) for n in sizes)
    if not sizes:
        raise ValueError("sizes must be non-empty")
    return sizes, n_seeds, budget, whole(master_seed, "master_seed")


@dataclass
class StudySpec:
    study: str
    sizes: tuple | None = None  # None: the study's default
    n_seeds: int = DEFAULT_N_SEEDS
    variants: tuple | None = None  # None: the study's default
    out_dir: str = "."
    budget: int = DEFAULT_BUDGET
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; "
                             f"choose from {sorted(STUDIES)}")
        scaling = self.study == "scaling"
        if self.sizes is None:
            self.sizes = DEFAULT_SIZES if scaling else (DEFAULT_N,)
        self.sizes, self.n_seeds, self.budget, self.master_seed = \
            _run_settings(self.sizes, self.n_seeds, self.budget,
                          self.master_seed)
        if self.variants is None:
            self.variants = {"seeds": SEED_STUDY_VARIANTS,
                             "scaling": ("v2",)}.get(self.study, ())
        self.variants = tuple(self.variants)
        if self.study == "ablation" and self.variants:
            raise ValueError("an ablation study takes no variants")
        for name in self.variants:
            variant(name)  # raises ValueError for an unknown name
        if self.study != "ablation" and not self.variants:
            raise ValueError(f"a {self.study} study needs a variant")
        if not scaling and len(self.sizes) > 1:
            raise ValueError(f"a {self.study} study runs one size")
        if scaling and len(self.variants) > 1:
            raise ValueError(f"a scaling study runs one variant, got "
                             f"{list(self.variants)}")

    def to_json_dict(self):
        d = asdict(self)
        d["sizes"] = list(self.sizes)
        d["variants"] = list(self.variants)
        if self.study == "ablation":
            del d["variants"]
        return d

    @classmethod
    def from_json_dict(cls, d):
        return cls(**d)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


@dataclass
class StudyReport:
    """Rows written, per-group summary, and the runs that failed, each as
    {variant, n, seed, error}."""

    rows: list
    summary: dict
    failures: list
    out_files: list = field(default_factory=list)

    @property
    def n_failed(self):
        return len(self.failures)


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def _json_safe(value):
    """A summary with every non-finite number replaced by None."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write(spec, name, header, rows, summary, failures):
    """Write <name>.csv, <name>_summary.json (the summary plus a failures
    list) and spec.json to the out dir."""
    out = Path(spec.out_dir)
    csv_path = _write_csv(out / f"{name}.csv", header, rows)
    summary_path = out / f"{name}_summary.json"
    with open(summary_path, "w") as f:
        json.dump(_json_safe({**summary, "failures": failures}), f, indent=2,
                  allow_nan=False)
    spec.save(out / "spec.json")
    return StudyReport(rows=rows, summary=summary, failures=failures,
                       out_files=[csv_path, str(summary_path),
                                  str(out / "spec.json")])


def _failed_run(vc, n, seed, error):
    """A failed run's record; error is its exception or its reason."""
    reason = (error if isinstance(error, str)
              else f"{type(error).__name__}: {error}")
    return {"variant": vc.name, "n": n, "seed": seed, "error": reason}


def _runs(spec, vc, n, failures):
    """The spec's isolated runs of vc at size n, as (run seed, SolveResult
    or None when the run raised). Appends each raised or diverged run to
    failures, with the exception's type and message or the divergence."""
    runs = []
    for i in range(spec.n_seeds):
        run_seed = derive_seed(spec.master_seed, vc.canonical_name, n, i)
        try:
            res = solve(generate_instance(n, run_seed), vc,
                        budget=spec.budget, seed=run_seed)
            error = f"diverged: {res.failure}" if res.diverged else None
        except Exception as err:
            res, error = None, err
        if error is not None:
            failures.append(_failed_run(vc, n, run_seed, error))
        runs.append((run_seed, res))
    return runs


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


def _max(values):
    return float(np.max(values)) if values else float("nan")


def _mean_std(values):
    vals = np.array([v for v in values if np.isfinite(v)])
    if vals.size == 0:
        return float("nan"), float("nan")
    return float(vals.mean()), float(vals.std())


def _mean_grad_norm(res):
    """Mean over a run's adopted sweeps of the mean node gradient norm."""
    return float(res.trace.grad_mean.mean()) if res.steps else 0.0


def _summary(runs):
    """Mean and std of the finite final energies, and the success rate over
    all runs, a raised run counting as a failure."""
    mean, std = _mean_std([res.final_energy for _, res in runs
                           if res is not None])
    return {"mean_energy": mean, "std_energy": std,
            "success_rate": float(np.mean([res is not None and res.success
                                           for _, res in runs]))}


def run_seed_study(spec):
    """Per-(variant, seed) rows at a single size, plus per-variant summary."""
    n = spec.sizes[0]
    rows = []
    summary = {}
    failures = []
    for name in spec.variants:
        runs = _runs(spec, variant(name), n, failures)
        for run_seed, res in runs:
            rows.append((name, run_seed, float("nan"), 0, 0, 0.0)
                        if res is None else
                        (name, run_seed, res.final_energy, res.steps,
                         int(res.success), res.wall_time))
        summary[name] = _summary(runs)
    return _write(spec, "seeds", SEEDS_HEADER, rows, summary, failures)


def fit_time_exponent(sizes, times):
    """Least-squares slope of log(time) against log(n)."""
    sizes = np.asarray(sizes, dtype=float)
    times = np.asarray(times, dtype=float)
    keep = (times > 0) & np.isfinite(times)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(sizes[keep]), np.log(times[keep]), 1)[0])


def run_scaling_study(spec):
    """Per-size aggregates for the spec's one variant."""
    name = spec.variants[0]
    vc = variant(name)
    rows = []
    failures = []
    mean_times = []
    for n in spec.sizes:
        runs = _runs(spec, vc, n, failures)
        done = [res for _, res in runs if res is not None]
        grads = [_mean_grad_norm(res) for res in done]
        summ = _summary(runs)
        mean_t = _mean([res.wall_time for res in done])
        mean_times.append(mean_t)
        rows.append((n, summ["mean_energy"], summ["std_energy"],
                     _mean([res.steps for res in done]), mean_t, _mean(grads),
                     summ["success_rate"],
                     _mean([res.violations.combined for res in done])))
    exponent = fit_time_exponent(spec.sizes, mean_times)
    summary = {"variant": name, "time_exponent": exponent,
               "per_size": {str(r[0]): {"mean_energy": r[1],
                                        "success_rate": r[6]} for r in rows}}
    return _write(spec, "scaling", SCALING_HEADER, rows, summary, failures)


def ablation_configs():
    """The 7 cumulative configurations plus 3 single-removal ones.

    Toggles accumulate in the order: mse, grad clip, grid init, rank-one
    step, curvature, search. The 7th cumulative config is the full system
    (identical to the v2 preset); the removals each switch one toggle off
    from full.
    """
    labels = ("+mse", "+grad_clip", "+physics_init", "+delta", "+curvature",
              "full")
    configs = [("baseline", VariantConfig(name="baseline"))]
    on = {}
    for flag, label in zip(VARIANT_FLAGS, labels):
        on[flag] = True
        configs.append((label, VariantConfig(name=label, **on)))
    full = dict(on)
    for flag, label in (("use_delta", "full-delta"),
                        ("use_curvature", "full-curvature"),
                        ("use_mse", "full-mse")):
        off = dict(full)
        off[flag] = False
        configs.append((label, VariantConfig(name=label, **off)))
    return configs


def run_ablation(spec):
    """10-row component study at a single size.

    delta_energy is previous-row mean minus this row's mean for the
    cumulative rows (positive = the added component helped; the column
    telescopes to baseline mean - full mean) and full-row mean minus this
    row's mean for the removal rows (negative = removing it hurt).
    """
    n = spec.sizes[0]
    rows = []
    failures = []
    means = []
    for label, vc in ablation_configs():
        runs = _runs(spec, vc, n, failures)
        summ = _summary(runs)
        means.append(summ["mean_energy"])
        rows.append([label, vc.canonical_name, summ["mean_energy"],
                     summ["std_energy"], summ["success_rate"], 0.0])
    full_mean = means[6]
    for i in range(1, 7):
        rows[i][5] = means[i - 1] - means[i]
    for i in range(7, 10):
        rows[i][5] = full_mean - means[i]
    summary = {
        "baseline_mean": means[0],
        "full_mean": full_mean,
        "incremental_delta_sum": float(sum(r[5] for r in rows[1:7])),
        "rows": {r[0]: {"mean_energy": r[2], "delta_energy": r[5]}
                 for r in rows},
    }
    return _write(spec, "ablation", ABLATION_HEADER,
                  [tuple(r) for r in rows], summary, failures)


def trace_rows(result: SolveResult):
    """Per-step rows matching TRACE_HEADER, steps numbered from 1."""
    t = result.trace
    return [
        (i + 1, t.l_total[i], t.l_data[i], t.l_phys[i], t.l_logic[i],
         t.grad_max[i], t.grad_mean[i])
        for i in range(t.iterations_run)
    ]


def run_stability_study(n=DEFAULT_N, n_seeds=DEFAULT_N_SEEDS,
                        budget=DEFAULT_BUDGET,
                        master_seed=DEFAULT_MASTER_SEED):
    """Gradient-stability comparison: full system vs full without the
    rank-one step, on one shared list of instance seeds.

    Returns {label: {grad_mean, grad_max, divergences,
    energy_increase_events, lambda_max, cond, mean_energy}}; lambda_max and
    cond come from update_map_spectrum, maximized over the runs. A run whose
    solve or update_map_spectrum raises is left out of its arm's figures
    and listed, as {variant, n, seed, error}, in the arm's failures, a key
    present only when a run failed; an arm with no finished run reports NaN
    for its float figures. Raises ValueError, before any run, for the
    values a StudySpec rejects.
    """
    (n,), n_seeds, budget, master_seed = _run_settings(
        (n,), n_seeds, budget, master_seed)
    full = variant("v2")
    no_delta = dict(ablation_configs())["full-delta"]
    seeds = [derive_seed(master_seed, "v2", n, i) for i in range(n_seeds)]
    out = {}
    for label, vc in (("full", full), ("no-delta", no_delta)):
        runs, failures = [], []
        for s in seeds:
            try:
                inst = generate_instance(n, s)
                res = solve(inst, vc, budget=budget, seed=s,
                            record_states=True)
                runs.append((_mean_grad_norm(res),
                             float(res.trace.grad_max.max())
                             if res.steps else 0.0,
                             res.diverged, res.energy_increase_events,
                             *update_map_spectrum(res, inst.constraints, vc),
                             res.final_energy))
            except Exception as err:
                failures.append(_failed_run(vc, n, s, err))
        g_mean, g_max, diverged, events, lam, cond, energy = (
            zip(*runs) if runs else [()] * 7)
        out[label] = {
            "grad_mean": _mean(g_mean),
            "grad_max": _max(g_max),
            "divergences": int(sum(diverged)),
            "energy_increase_events": int(sum(events)),
            "lambda_max": _max(lam),
            "cond": _max(cond),
            "mean_energy": _mean(energy),
        }
        if failures:
            out[label]["failures"] = failures
    return out


# the runner of each study that StudySpec.study can name
STUDIES = {"seeds": run_seed_study, "scaling": run_scaling_study,
           "ablation": run_ablation}
