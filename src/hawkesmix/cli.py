"""Config-driven experiment runner.

Subcommands: ``simulate``, ``fit-mcmc``, ``fit-svi``, ``evaluate``,
``ingest``. Each reads a JSON config (a previously written manifest is also
accepted — its embedded config is reused, which reproduces outputs
bit-for-bit), runs its tasks with replication-level parallelism, and writes
a manifest recording the resolved config, seeds, package version, task
statuses, and wall time. Exit status is 0 only if every task succeeded.

Config sections (``mcmc``, ``svi``, ``ingest``) take the fields of the
matching config dataclass, whose defaults apply to absent keys; an unknown
key fails the task, and an unknown top-level or ``scenario`` key fails the
command. Each fit records its resolved config in ``run.json``, from which
``evaluate`` takes the engine, variant and kernel support. A command that
fails before its tasks run still writes a manifest, with the traceback as
its one failed entry.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .events import load_events, save_events
from .files import write_json, write_table
from .likelihood import save_branching
from .lobster import IngestConfig, build_event_sequence, parse_messages, read_orderbook_quotes
from .mcmc import McmcConfig, run_chain, save_samples
from .metrics import (
    CurveSamples,
    GridSpec,
    coverage_acr,
    curve_samples_from_draws,
    evaluate_truth,
    interval_score,
    rmise,
    save_bands,
    save_spectral_histogram,
    spectral_histogram,
)
from .params import Hyperparams, params_from_dict, save_params
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
    doc = json.loads(Path(path).read_text())
    # a manifest embeds the config it ran with
    if "config" in doc and "command" in doc:
        return doc["config"]
    return doc


def _write_manifest(out_dir: Path, command: str, config: dict, tasks: list[dict],
                    t_start: float) -> bool:
    ok = all(t["status"] == "ok" for t in tasks)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json", {
        "command": command,
        "config": config,
        "version": __version__,
        "wall_time_s": time.time() - t_start,
        "tasks": tasks,
        "ok": ok,
    })
    return ok


def _check_keys(section: dict, allowed: set[str], what: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValueError(f"{what} does not take key(s) {', '.join(unknown)}")


def _checked(key: str, value, kind: type, nullable: bool = False):
    """``value`` as a ``kind``, or a ValueError naming ``key``: an int takes
    an integral number, a float any number (a bool is neither), any other
    kind a value of that type, and None passes where ``nullable``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if (value is None and nullable
            or kind is int and number and (isinstance(value, int) or value.is_integer())
            or kind is float and number
            or kind not in (int, float) and isinstance(value, kind)):
        return value if value is None else kind(value)
    raise ValueError(f"{key} must be {'null or ' if nullable else ''}{kind.__name__}, not {value!r}")


def _setting(section: dict, key: str, default):
    """``section[key]``, checked against the type of ``default``, or ``default``.

    The value used is written back, so the manifest records it.
    """
    section[key] = _checked(key, section.get(key, default), type(default))
    return section[key]


def _config(cls, section: dict, **fixed):
    """A ``cls`` config from a JSON section plus the values the command fixes.

    Absent keys take the dataclass defaults; a value is used only if it has
    its field's type (see :func:`_checked`), and a ``hyper`` sub-section
    becomes :class:`Hyperparams`. A key that is not a field, or that the
    command fixes, is a ValueError.
    """
    hints = typing.get_type_hints(cls)
    _check_keys(section, set(hints) - set(fixed), cls.__name__)
    kw = dict(section, **fixed)
    for name, value in kw.items():
        kind, *rest = typing.get_args(hints[name]) or (hints[name],)
        if kind in (bool, int, float, str):
            kw[name] = _checked(name, value, kind, nullable=type(None) in rest)
    if "hyper" in kw:
        kw["hyper"] = _config(Hyperparams, kw["hyper"])
    return cls(**kw)


def _run_task(name: str, fn, *args) -> tuple[dict, object]:
    """``fn(*args)`` as a task: its status entry and its return value (None
    on failure, where the entry records the traceback)."""
    try:
        value = fn(*args)
    except Exception:
        return {"name": name, "status": "failed", "error": traceback.format_exc()}, None
    return {"name": name, "status": "ok"}, value


def _run_tasks(tasks: list[tuple[str, callable, tuple]], threads: int) -> list[tuple[dict, object]]:
    """Run (name, fn, args) tasks, isolating failures per task; results in task order."""
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [(name, pool.submit(fn, *args)) for name, fn, args in tasks]
            # result() re-raises a task's exception with the worker's
            # traceback attached, or BrokenProcessPool if its worker died
            return [_run_task(name, fut.result) for name, fut in futures]
    return [_run_task(name, fn, *args) for name, fn, args in tasks]


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
        write_json(out / "truth.json", {"kind": "exponential", "eps": eps_true})


def cmd_simulate(config: dict, out_dir: Path, seed: int, threads: int) -> list[dict]:
    sc = config["scenario"]
    _check_keys(sc, {"kind", "eps_grid", "T"}, "scenario")
    kind = _setting(sc, "kind", "beta")
    eps_grid = _setting(sc, "eps_grid", [0.0, 0.2, 0.5, 0.8, 1.0])
    T = _setting(sc, "T", 3000.0)
    replications = _setting(config, "replications", 1)
    tasks = []
    for ei, eps in enumerate(eps_grid):
        for rep in range(replications):
            dest = out_dir / f"eps{eps:g}" / f"rep{rep}"
            tasks.append((f"simulate eps={eps:g} rep={rep}", _simulate_one,
                          (kind, float(eps), T, _task_seed(seed, 0, ei, rep), str(dest))))
    return [entry for entry, _ in _run_tasks(tasks, threads)]


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _fit_one(engine: str, events_csv: str, section: dict, seed: int, out_dir: str) -> float:
    """One restart of a fit; returns its selection score."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seq = load_events(events_csv)
    t0 = time.time()
    if engine == "mcmc":
        cfg = _config(McmcConfig, section, seed=seed)
        samples = run_chain(cfg, seq)
        save_samples(samples, out / "samples.csv")
        score = samples.mean_loglik()
        run = {"seed": seed, "mean_loglik": score, "accept_rates": samples.accept_rates}
    else:
        cfg = _config(SviConfig, section, seed=seed)
        state, trace = run_svi(cfg, seq)
        save_state(state, out / "state.json")
        save_trace(trace, out / "elbo_trace.csv")
        score = float(trace[-1, 1])
        run = {"seed": seed, "final_elbo": score}
    write_json(out / "run.json", dict(run, wall_time_s=time.time() - t0, config=dataclasses.asdict(cfg)))
    return score


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
    restarts = _setting(config, "restarts", 1)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    section = _setting(config, engine, {})
    datasets = _dataset_paths(Path(config["data"]))
    tasks = [(f"fit {label} restart={r}", _fit_one,
              (engine, str(events_csv), section, _task_seed(seed, 1, di, r), str(out_dir / label / f"restart{r}")))
             for di, (label, events_csv) in enumerate(datasets) for r in range(restarts)]
    results = _run_tasks(tasks, threads)
    # restart selection per dataset over the restarts that succeeded: highest
    # mean log-likelihood for the sampler, highest final bound for the
    # variational engine, the lowest restart on ties
    for di, (label, _) in enumerate(datasets):
        runs = results[di * restarts:(di + 1) * restarts]
        scores = {r: score for r, (entry, score) in enumerate(runs) if entry["status"] == "ok"}
        if scores:
            best = max(scores, key=lambda r: (scores[r], -r))
            write_json(out_dir / label / "selected.json", {
                "selected_restart": best, "engine": engine,
                "scores": {str(r): s for r, s in scores.items()}})
    return [entry for entry, _ in results]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _truth_evaluator(truth_path: Path):
    doc = json.loads(truth_path.read_text())
    if doc.get("kind") == "exponential":
        return benchmark_exponential_params(float(doc["eps"])).excitation.density
    return params_from_dict(doc).excitation.density


def _mcmc_curves(run_dir: Path, cfg: McmcConfig, grid: GridSpec, max_draws: int) -> tuple[CurveSamples, np.ndarray]:
    from .mcmc import load_samples

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
    grid_points = _setting(config, "grid_points", 512)
    level = _setting(config, "level", 0.95)
    n_draws = _setting(config, "eval_draws", 500)
    out_dir.mkdir(parents=True, exist_ok=True)

    def evaluate(index: int, label: str, truth_json: Path):
        """Metrics of the dataset's selected fit, on that fit's kernel support."""
        parts = label.replace("\\", "/").split("/")
        eps_true = parts[0].removeprefix("eps") if parts[0].startswith("eps") else ""
        selected = json.loads((fits / label / "selected.json").read_text())
        run_dir = fits / label / f"restart{selected['selected_restart']}"
        fit_config = json.loads((run_dir / "run.json").read_text())["config"]
        engine, variant = selected["engine"], fit_config["variant"]
        grid = GridSpec(grid_points, float(fit_config["t0"]))
        if engine == "mcmc":
            curves, alpha_draws = _mcmc_curves(run_dir, _config(McmcConfig, fit_config), grid, n_draws)
        else:
            curves, alpha_draws = _svi_curves(run_dir, grid, n_draws, _task_seed(seed, 2, index))
        truth = evaluate_truth(_truth_evaluator(truth_json), curves.K, grid)
        vals = {
            "rmise": rmise(truth, curves),
            "acr": coverage_acr(curves, truth, level),
            "interval_score": interval_score(curves, truth, level),
        }
        return [(engine, variant, eps_true, label, m, v) for m, v in vals.items()], curves, alpha_draws

    # one task per dataset, run here in turn: only the first fit's curves are kept
    tasks: list[dict] = []
    rows: list[tuple] = []
    first: tuple[CurveSamples, np.ndarray] | None = None
    for index, (label, ds) in enumerate(_dataset_paths(corpus)):
        entry, result = _run_task(f"evaluate {label}", evaluate, index, label, ds.parent / "truth.json")
        tasks.append(entry)
        if result is not None:
            rows += result[0]
            first = first or result[1:]
    write_table(out_dir / "metrics.csv", ["method", "variant", "eps_true", "seed", "metric", "value"],
                list(zip(*rows)))
    # aggregate table: mean (sd) per fit method, variant and metric; sd empty
    # for one replication
    values: dict[tuple[str, str, str], list[float]] = {}
    for engine, variant, _, _, m, v in rows:
        values.setdefault((engine, variant, m), []).append(v)
    summary = [(engine, variant, m, float(np.mean(v)), float(np.std(v, ddof=1)) if len(v) > 1 else "", len(v))
               for (engine, variant, m), v in values.items()]
    write_table(out_dir / "summary.csv", ["method", "variant", "metric", "mean", "sd", "n"], list(zip(*summary)))
    if first is not None:
        save_bands(out_dir / "bands.csv", first[0], level)
        save_spectral_histogram(out_dir / "spectral_histogram.csv", spectral_histogram(first[1]))
    return tasks


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _ingest_one(section: dict, out_dir: Path) -> None:
    section = dict(section)
    messages, orderbook = section.pop("messages"), section.pop("orderbook", None)
    cfg = _config(IngestConfig, section)
    report = parse_messages(messages)
    quotes = read_orderbook_quotes(orderbook) if orderbook else None
    seq = build_event_sequence(report.messages, cfg, quotes)
    save_events(seq, out_dir / "events.csv")
    write_json(out_dir / "ingest_report.json", {"messages": len(report.messages),
                                                "malformed": report.malformed,
                                                "events": seq.n,
                                                "per_dimension": seq.counts().tolist()})


def cmd_ingest(config: dict, out_dir: Path, seed: int, threads: int) -> list[dict]:
    section = config["ingest"]
    out_dir.mkdir(parents=True, exist_ok=True)
    return [_run_task(f"ingest {section['messages']}", _ingest_one, section, out_dir)[0]]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "simulate": cmd_simulate,
    "fit-mcmc": functools.partial(cmd_fit, engine="mcmc"),
    "fit-svi": functools.partial(cmd_fit, engine="svi"),
    "evaluate": cmd_evaluate,
    "ingest": cmd_ingest,
}
# the top-level keys each command takes besides seed and output_dir;
# evaluate ignores engine, variant, t0 and mcmc, which the fits now record
_KEYS = {
    "simulate": {"scenario", "replications"},
    "fit-mcmc": {"data", "restarts", "mcmc"},
    "fit-svi": {"data", "restarts", "svi"},
    "evaluate": {"corpus", "fits", "grid_points", "level", "eval_draws", "engine", "variant", "t0", "mcmc"},
    "ingest": {"ingest"},
}


def _command_tasks(command: str, config: dict, out_dir: Path, threads: int) -> list[dict]:
    seed = _setting(config, "seed", 0)
    _check_keys(config, _KEYS[command] | {"seed", "output_dir"}, f"{command} config")
    return COMMANDS[command](config, out_dir, seed, threads)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hawkesmix",
                                     description="config-driven experiment runner")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config (or a previous manifest)")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes (default: available cores)")
    args = parser.parse_args(argv)

    config = dict(_load_config(args.config))
    out_dir = Path(args.output or config.get("output_dir", "out"))
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    config["output_dir"] = str(out_dir)
    if args.seed is not None:
        config["seed"] = args.seed

    t_start = time.time()
    # a failure while the command sets up its tasks is recorded as one failed task
    entry, tasks = _run_task(args.command, _command_tasks, args.command, config, out_dir, threads)
    tasks = [entry] if tasks is None else tasks
    ok = _write_manifest(out_dir, args.command, config, tasks, t_start)
    for t in tasks:
        status = t["status"]
        print(f"[{status}] {t['name']}" + (f": {t.get('error')}" if status != "ok" else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
