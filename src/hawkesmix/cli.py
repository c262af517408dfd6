"""Config-driven experiment runner.

Subcommands: ``simulate``, ``fit-mcmc``, ``fit-svi``, ``evaluate``,
``ingest``. Each reads a JSON config (a previously written manifest is also
accepted — its embedded config is reused, which reproduces outputs
bit-for-bit), runs its tasks with replication-level parallelism, and writes
a manifest recording the resolved config, seeds, package version, task
statuses, and wall time. Exit status is 0 only if every task succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .events import load_events, save_events
from .likelihood import save_branching
from .lobster import IngestConfig, build_event_sequence, parse_messages, read_orderbook_quotes
from .mcmc import McmcConfig, run_chain, save_samples
from .metrics import (
    CurveSamples,
    GridSpec,
    append_metric_rows,
    coverage_acr,
    curve_samples_from_draws,
    evaluate_truth,
    interval_score,
    rmise,
    save_bands,
    save_spectral_histogram,
    spectral_histogram,
)
from .params import Hyperparams, load_params, save_params
from .simulate import (
    SimScenario,
    benchmark_beta_params,
    benchmark_exponential_params,
    simulate_branching,
)
from .svi import SviConfig, run_svi, sample_from_variational, save_state, save_trace


def _task_seed(base_seed: int, *key: int) -> int:
    """Deterministic per-task seed independent of scheduling order."""
    return int(np.random.SeedSequence([base_seed, *key]).generate_state(1)[0])


def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    # a manifest embeds the config it ran with
    if "config" in doc and "command" in doc:
        return doc["config"]
    return doc


def _write_manifest(out_dir: Path, command: str, config: dict, tasks: list[dict],
                    t_start: float) -> bool:
    ok = all(t["status"] == "ok" for t in tasks)
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "wall_time_s": time.time() - t_start,
        "tasks": tasks,
        "ok": ok,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return ok


def _run_tasks(tasks: list[tuple[str, callable, tuple]], threads: int) -> list[dict]:
    """Run (name, fn, args) tasks, isolating failures per task."""
    results = []
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [(name, pool.submit(fn, *args)) for name, fn, args in tasks]
            for name, fut in futures:
                try:
                    fut.result()
                    results.append({"name": name, "status": "ok"})
                except Exception as exc:
                    results.append({"name": name, "status": "failed", "error": repr(exc)})
    else:
        for name, fn, args in tasks:
            try:
                fn(*args)
                results.append({"name": name, "status": "ok"})
            except Exception as exc:
                traceback.print_exc()
                results.append({"name": name, "status": "failed", "error": repr(exc)})
    return results


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_one(kind: str, eps_true: float, T: float, seed: int, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "beta":
        params = benchmark_beta_params(eps_true)
    elif kind == "exponential":
        params = benchmark_exponential_params(eps_true)
    else:
        raise ValueError(f"unknown truth kind {kind!r}")
    seq, latent = simulate_branching(SimScenario(params, T, seed))
    save_events(seq, out / "events.csv")
    save_branching(latent, out / "branching.csv")
    if kind == "beta":
        save_params(params, out / "truth.json")
    else:
        with open(out / "truth.json", "w") as fh:
            json.dump({"kind": "exponential", "eps": eps_true}, fh)
            fh.write("\n")


def cmd_simulate(config: dict, out_dir: Path, seed: int, threads: int) -> list[dict]:
    sc = config["scenario"]
    kind = sc.get("kind", "beta")
    eps_grid = sc.get("eps_grid", [0.0, 0.2, 0.5, 0.8, 1.0])
    replications = int(config.get("replications", 1))
    T = float(sc.get("T", 3000.0))
    tasks = []
    for ei, eps in enumerate(eps_grid):
        for rep in range(replications):
            dest = out_dir / f"eps{eps:g}" / f"rep{rep}"
            tasks.append((f"simulate eps={eps:g} rep={rep}", _simulate_one,
                          (kind, float(eps), T, _task_seed(seed, 0, ei, rep), str(dest))))
    return _run_tasks(tasks, threads)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _fit_mcmc_one(events_csv: str, cfg_doc: dict, seed: int, out_dir: str) -> float:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seq = load_events(events_csv)
    cfg = _mcmc_config(cfg_doc, seed)
    t0 = time.time()
    samples = run_chain(cfg, seq)
    save_samples(samples, out / "samples.csv")
    score = samples.mean_loglik()
    with open(out / "run.json", "w") as fh:
        json.dump({"seed": seed, "mean_loglik": score,
                   "accept_rates": samples.accept_rates,
                   "wall_time_s": time.time() - t0}, fh, indent=2)
        fh.write("\n")
    return score


def _fit_svi_one(events_csv: str, cfg_doc: dict, seed: int, out_dir: str) -> float:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seq = load_events(events_csv)
    cfg = _svi_config(cfg_doc, seed)
    t0 = time.time()
    state, trace = run_svi(cfg, seq)
    save_state(state, out / "state.json")
    save_trace(trace, out / "elbo_trace.csv")
    score = float(trace[-1, 1])
    with open(out / "run.json", "w") as fh:
        json.dump({"seed": seed, "final_elbo": score,
                   "wall_time_s": time.time() - t0}, fh, indent=2)
        fh.write("\n")
    return score


def _mcmc_config(doc: dict, seed: int) -> McmcConfig:
    hyper = Hyperparams(**doc.get("hyper", {}))
    return McmcConfig(
        iterations=int(doc.get("iterations", 4000)),
        burn_in=int(doc.get("burn_in", doc.get("iterations", 4000) // 2)),
        variant=doc.get("variant", "RANDOM"),
        h0=int(doc.get("h0", 10)), h=int(doc.get("h", 10)),
        t0=float(doc.get("t0", 1.0)),
        mh_step=float(doc.get("mh_step", 0.3)),
        adapt_mh=bool(doc.get("adapt_mh", True)),
        compensator=doc.get("compensator", "approx"),
        hyper=hyper, seed=seed)


def _svi_config(doc: dict, seed: int) -> SviConfig:
    hyper = Hyperparams(**doc.get("hyper", {}))
    return SviConfig(
        iterations=int(doc.get("iterations", 2000)),
        kappa=float(doc.get("kappa", 0.2)),
        rho0=float(doc.get("rho0", 1.0)),
        tau1=float(doc.get("tau1", 1.0)),
        tau2=float(doc.get("tau2", 0.7)),
        h0=int(doc.get("h0", 10)), h=int(doc.get("h", 10)),
        t0=float(doc.get("t0", 1.0)),
        variant=doc.get("variant", "RANDOM"),
        hyper=hyper, seed=seed,
        elbo_every=int(doc.get("elbo_every", 25)))


def _dataset_paths(data: Path) -> list[tuple[str, Path]]:
    """(label, events.csv path) pairs for a single file or a corpus tree.

    A label is the dataset's directory relative to ``data``; a single file
    is labelled ``"."``, like the ``events.csv`` at the top of a tree.
    """
    if data.is_file():
        return [(".", data)]
    found = sorted(data.glob("**/events.csv"))
    if not found:
        raise FileNotFoundError(f"no events.csv under {data}")
    return [(str(p.parent.relative_to(data)), p) for p in found]


def cmd_fit(config: dict, out_dir: Path, seed: int, threads: int, engine: str) -> list[dict]:
    restarts = int(config.get("restarts", 1))
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    fit_doc = config.get("mcmc" if engine == "mcmc" else "svi", {})
    runner = _fit_mcmc_one if engine == "mcmc" else _fit_svi_one
    tasks = []
    for di, (label, events_csv) in enumerate(_dataset_paths(Path(config["data"]))):
        for r in range(restarts):
            dest = out_dir / label / f"restart{r}"
            tasks.append((f"fit {label} restart={r}", runner,
                          (str(events_csv), fit_doc, _task_seed(seed, 1, di, r), str(dest))))
    results = _run_tasks(tasks, threads)
    # restart selection per dataset: highest mean log-likelihood for the
    # sampler, highest final bound for the variational engine
    for label, _ in _dataset_paths(Path(config["data"])):
        scores = []
        for r in range(restarts):
            run_json = out_dir / label / f"restart{r}" / "run.json"
            if run_json.exists():
                with open(run_json) as fh:
                    doc = json.load(fh)
                scores.append((r, doc.get("mean_loglik", doc.get("final_elbo"))))
        if scores:
            best = max(scores, key=lambda t: (t[1], -t[0]))[0]
            with open(out_dir / label / "selected.json", "w") as fh:
                json.dump({"selected_restart": best, "engine": engine,
                           "scores": dict((str(r), s) for r, s in scores)}, fh, indent=2)
                fh.write("\n")
    return results


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _truth_evaluator(truth_path: Path):
    with open(truth_path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("kind") == "exponential":
        params = benchmark_exponential_params(float(doc["eps"]))
        return lambda i, j, x: params.excitation.density(i, j, x)
    params = load_params(truth_path)
    return lambda i, j, x: params.excitation.density(i, j, x)


def _mcmc_curves(run_dir: Path, fit_doc: dict, grid: GridSpec, max_draws: int) -> tuple[CurveSamples, np.ndarray]:
    from .mcmc import load_samples

    cfg = _mcmc_config(fit_doc, seed=0)
    samples = load_samples(run_dir / "samples.csv", cfg)
    step = max(1, samples.n_draws // max_draws)
    sel = slice(0, None, step)
    draws = {k: v[sel] for k, v in samples.kernel_draws().items()}
    return curve_samples_from_draws(draws, cfg.t0, grid), samples.alpha[sel]


def _svi_curves(run_dir: Path, grid: GridSpec, n_draws: int, seed: int) -> tuple[CurveSamples, np.ndarray]:
    from .svi import load_state

    state = load_state(run_dir / "state.json")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = sample_from_variational(state, n_draws, rng)
    return curve_samples_from_draws(draws, state.t0, grid), draws["alpha"]


def cmd_evaluate(config: dict, out_dir: Path, seed: int, threads: int) -> list[dict]:
    corpus = Path(config["corpus"])
    fits = Path(config["fits"])
    engine = config.get("engine", "mcmc")
    variant = config.get("variant", "RANDOM")
    grid = GridSpec(int(config.get("grid_points", 512)), float(config.get("t0", 1.0)))
    level = float(config.get("level", 0.95))
    n_draws = int(config.get("eval_draws", 500))
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_csv = out_dir / "metrics.csv"
    if metrics_csv.exists():
        metrics_csv.unlink()
    tasks: list[dict] = []
    rows_by_metric: dict[str, list[float]] = {"rmise": [], "acr": [], "interval_score": []}
    first_alpha: np.ndarray | None = None
    first_curves: CurveSamples | None = None
    for label, ds in _dataset_paths(corpus):
        name = f"evaluate {label}"
        try:
            parts = label.replace("\\", "/").split("/")
            eps_true = parts[0].removeprefix("eps") if parts[0].startswith("eps") else ""
            sel_path = fits / label / "selected.json"
            with open(sel_path) as fh:
                best = json.load(fh)["selected_restart"]
            run_dir = fits / label / f"restart{best}"
            if engine == "mcmc":
                curves, alpha_draws = _mcmc_curves(run_dir, config.get("mcmc", {}), grid, n_draws)
            else:
                curves, alpha_draws = _svi_curves(run_dir, grid, n_draws, _task_seed(seed, 2, len(tasks)))
            truth = evaluate_truth(_truth_evaluator(ds.parent / "truth.json"), curves.K, grid)
            vals = {
                "rmise": rmise(truth, curves),
                "acr": coverage_acr(curves, truth, level),
                "interval_score": interval_score(curves, truth, level),
            }
            append_metric_rows(metrics_csv, [
                {"method": engine, "variant": variant, "eps_true": eps_true,
                 "seed": label, "metric": m, "value": v} for m, v in vals.items()])
            for m, v in vals.items():
                rows_by_metric[m].append(v)
            if first_curves is None:
                first_curves, first_alpha = curves, alpha_draws
            tasks.append({"name": name, "status": "ok"})
        except Exception as exc:
            traceback.print_exc()
            tasks.append({"name": name, "status": "failed", "error": repr(exc)})
    # aggregate table: mean (sd) per metric; sd empty for one replication
    with open(out_dir / "summary.csv", "w") as fh:
        fh.write("method,variant,metric,mean,sd,n\n")
        for m, vals in rows_by_metric.items():
            if not vals:
                continue
            mean = float(np.mean(vals))
            sd = "" if len(vals) < 2 else repr(float(np.std(vals, ddof=1)))
            fh.write(f"{engine},{variant},{m},{mean!r},{sd},{len(vals)}\n")
    if first_curves is not None:
        save_bands(out_dir / "bands.csv", first_curves, level)
        save_spectral_histogram(out_dir / "spectral_histogram.csv",
                                spectral_histogram(first_alpha))
    return tasks


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def cmd_ingest(config: dict, out_dir: Path, seed: int, threads: int) -> list[dict]:
    doc = config.get("ingest", config)
    cfg = IngestConfig(
        session_start=float(doc.get("session_start", 9.5 * 3600)),
        session_end=float(doc.get("session_end", 16.0 * 3600)),
        min_volume=int(doc.get("min_volume", 100)),
        level=int(doc.get("level", 1)),
        include_hidden=bool(doc.get("include_hidden", True)))
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"ingest {doc['messages']}"
    try:
        report = parse_messages(doc["messages"])
        quotes = read_orderbook_quotes(doc["orderbook"]) if doc.get("orderbook") else None
        seq = build_event_sequence(report.messages, cfg, quotes)
        save_events(seq, out_dir / "events.csv")
        with open(out_dir / "ingest_report.json", "w") as fh:
            json.dump({"messages": len(report.messages),
                       "malformed": report.malformed,
                       "events": seq.n,
                       "per_dimension": seq.counts().tolist()}, fh, indent=2)
            fh.write("\n")
        return [{"name": name, "status": "ok"}]
    except Exception as exc:
        traceback.print_exc()
        return [{"name": name, "status": "failed", "error": repr(exc)}]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hawkesmix",
                                     description="config-driven experiment runner")
    parser.add_argument("command", choices=["simulate", "fit-mcmc", "fit-svi", "evaluate", "ingest"])
    parser.add_argument("--config", required=True, help="JSON config (or a previous manifest)")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes (default: available cores)")
    args = parser.parse_args(argv)

    config = _load_config(args.config)
    out_dir = Path(args.output or config.get("output_dir", "out"))
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    config = dict(config)
    config["output_dir"] = str(out_dir)
    config["seed"] = seed

    t_start = time.time()
    if args.command == "simulate":
        tasks = cmd_simulate(config, out_dir, seed, threads)
    elif args.command == "fit-mcmc":
        tasks = cmd_fit(config, out_dir, seed, threads, "mcmc")
    elif args.command == "fit-svi":
        tasks = cmd_fit(config, out_dir, seed, threads, "svi")
    elif args.command == "evaluate":
        tasks = cmd_evaluate(config, out_dir, seed, threads)
    else:
        tasks = cmd_ingest(config, out_dir, seed, threads)
    ok = _write_manifest(out_dir, args.command, config, tasks, t_start)
    for t in tasks:
        status = t["status"]
        print(f"[{status}] {t['name']}" + (f": {t.get('error')}" if status != "ok" else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
