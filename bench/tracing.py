"""Traced run: the pipeline in this process with one worker, spans per layer.

The CLI entry function ``hawkesmix.cli.main`` runs each stage in turn. Before
the traced pipeline, every public function listed in ``TRACED`` is replaced by
a timing wrapper in every ``hawkesmix`` module that binds it (so the names
``cli`` imports are wrapped too), and the ``McmcSampler`` blocks are wrapped
on the class, so spans nest exactly as the program calls them. Spans (name,
start, end, parent) are kept in memory, written to ``trace<k>.json`` when the
round ends, and reduced to the per-layer metrics.

A span's layer time is its duration minus the time spent in spans of other
layers below it; time in nested spans of its own layer stays in. So
``svi.update_global`` includes ``svi.window_stats``, and ``mcmc.init`` or
``svi.make_local`` exclude the ``pairs.build_pairs`` call they make. Every
``*_ms`` metric is the mean layer time per call, except
``pairs.build_pairs_ms``, the total over the pipeline next to
``pairs.pairs_built``; ``svi.elbo_ms`` and ``svi.iter_ms`` are inclusive.
Layers the workload does not use report 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pipeline as pl

# (module, function, span name); sample_from_variational is timed with the
# metrics layer because only evaluate calls it.
TRACED = [
    ("events", "load_events", "events.load_events"),
    ("events", "save_events", "events.save_events"),
    ("simulate", "simulate_branching", "simulate.simulate_branching"),
    ("lobster", "parse_messages", "lobster.parse_messages"),
    ("lobster", "read_orderbook_quotes", "lobster.read_orderbook_quotes"),
    ("lobster", "build_event_sequence", "lobster.build_event_sequence"),
    ("pairs", "build_pairs", "pairs.build_pairs"),
    ("mcmc", "run_chain", "mcmc.run_chain"),
    ("mcmc", "save_samples", "mcmc.save_samples"),
    ("mcmc", "load_samples", "mcmc.load_samples"),
    ("svi", "run_svi", "svi.run_svi"),
    ("svi", "make_local", "svi.make_local"),
    ("svi", "update_local", "svi.update_local"),
    ("svi", "window_stats", "svi.window_stats"),
    ("svi", "update_global", "svi.update_global"),
    ("svi", "elbo", "svi.elbo"),
    ("svi", "sample_from_variational", "metrics.sample_from_variational"),
    ("metrics", "curve_samples_from_draws", "metrics.curve_samples_from_draws"),
    ("metrics", "coverage_acr", "metrics.coverage_acr"),
    ("metrics", "interval_score", "metrics.interval_score"),
    ("metrics", "save_bands", "metrics.save_bands"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_ingest", "cli.cmd_ingest"),
    ("cli", "cmd_fit", "cli.cmd_fit"),
    ("cli", "cmd_evaluate", "cli.cmd_evaluate"),
]
SAMPLER_METHODS = ["__init__", "sweep", "sample_branching", "sample_allocations", "sample_rates",
                   "sample_shapes", "sample_weights", "observed_loglik"]
MODULES = ["events", "pairs", "kernels", "params", "likelihood", "simulate", "lobster",
           "mcmc", "svi", "metrics", "cli"]

PER_CALL = {
    "events.load_events_ms": "events.load_events",
    "events.save_events_ms": "events.save_events",
    "simulate.simulate_branching_ms": "simulate.simulate_branching",
    "lobster.parse_messages_ms": "lobster.parse_messages",
    "lobster.read_orderbook_quotes_ms": "lobster.read_orderbook_quotes",
    "lobster.build_event_sequence_ms": "lobster.build_event_sequence",
    "mcmc.init_ms": "mcmc.init",
    "mcmc.sweep_ms": "mcmc.sweep",
    "mcmc.sample_branching_ms": "mcmc.sample_branching",
    "mcmc.sample_allocations_ms": "mcmc.sample_allocations",
    "mcmc.sample_rates_ms": "mcmc.sample_rates",
    "mcmc.sample_shapes_ms": "mcmc.sample_shapes",
    "mcmc.sample_weights_ms": "mcmc.sample_weights",
    "mcmc.observed_loglik_ms": "mcmc.observed_loglik",
    "mcmc.save_samples_ms": "mcmc.save_samples",
    "mcmc.load_samples_ms": "mcmc.load_samples",
    "svi.update_global_ms": "svi.update_global",
    "svi.window_stats_ms": "svi.window_stats",
    "metrics.curve_samples_from_draws_ms": "metrics.curve_samples_from_draws",
    "metrics.sample_from_variational_ms": "metrics.sample_from_variational",
    "metrics.coverage_acr_ms": "metrics.coverage_acr",
    "metrics.interval_score_ms": "metrics.interval_score",
    "metrics.save_bands_ms": "metrics.save_bands",
}


class Tracer:
    """Spans as [name, start, end, parent index, count] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[idx][4] = count(result)
                return result
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hawkesmix.{m}") for m in MODULES}
        for mod_name, fn_name, span in TRACED:
            original = getattr(mods[mod_name], fn_name)
            count = (lambda pairs: pairs.m) if span == "pairs.build_pairs" else None
            wrapper = self.wrap(span, original, count)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        sampler = mods["mcmc"].McmcSampler
        for method in SAMPLER_METHODS:
            original = vars(sampler)[method]
            self._restore.append((sampler, method, original))
            setattr(sampler, method, self.wrap("mcmc.init" if method == "__init__" else f"mcmc.{method}",
                                               original))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([{"name": n, "start": s, "end": e, "parent": p, "count": c}
                                    for n, s, e, p, c in self.spans]) + "\n")


def layer_times(spans: list[list]) -> list[float]:
    """Duration minus the time of nearest descendant spans of other layers."""
    foreign = [0.0] * len(spans)
    for idx in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[idx]
        if parent >= 0:
            same = spans[parent][0].split(".")[0] == name.split(".")[0]
            foreign[parent] += foreign[idx] if same else end - start
    return [(s[2] - s[1]) - f for s, f in zip(spans, foreign)]


def span_metrics(spans: list[list]) -> dict[str, float]:
    own = layer_times(spans)
    by_name: dict[str, list[float]] = {}
    for span, t in zip(spans, own):
        by_name.setdefault(span[0], []).append(t)

    def mean_ms(name: str) -> float:
        vals = by_name.get(name, [])
        return 1e3 * sum(vals) / len(vals) if vals else 0.0

    out = {metric: mean_ms(name) for metric, name in PER_CALL.items()}
    out["pairs.build_pairs_ms"] = 1e3 * sum(by_name.get("pairs.build_pairs", []))
    out["pairs.pairs_built"] = float(sum(s[4] for s in spans if s[0] == "pairs.build_pairs"))
    # the stochastic step's local passes, apart from the full-data ones in elbo()
    inside_elbo = set()
    for idx, span in enumerate(spans):
        if span[3] >= 0 and (spans[span[3]][0] == "svi.elbo" or span[3] in inside_elbo):
            inside_elbo.add(idx)
    for metric, name in (("svi.make_local_ms", "svi.make_local"), ("svi.update_local_ms", "svi.update_local")):
        vals = [t for idx, (s, t) in enumerate(zip(spans, own)) if s[0] == name and idx not in inside_elbo]
        out[metric] = 1e3 * sum(vals) / len(vals) if vals else 0.0
    wall = {name: sum(s[2] - s[1] for s in spans if s[0] == name) for name in ("svi.run_svi", "svi.elbo")}
    n_elbo = sum(s[0] == "svi.elbo" for s in spans)
    n_iter = sum(s[0] == "svi.update_global" for s in spans)
    out["svi.elbo_ms"] = 1e3 * wall["svi.elbo"] / n_elbo if n_elbo else 0.0
    out["svi.iter_ms"] = 1e3 * (wall["svi.run_svi"] - wall["svi.elbo"]) / n_iter if n_iter else 0.0
    out["svi.elbo_share"] = wall["svi.elbo"] / wall["svi.run_svi"] if wall["svi.run_svi"] else 0.0
    return out


def run_inprocess(workload, seed: int, rdir: Path, input_config: Path) -> tuple[float, list[int]]:
    """The pipeline through ``cli.main`` with one worker; wall time and exit codes."""
    from hawkesmix import cli

    codes = []
    with open(rdir.parent / f"{rdir.name}.log", "w") as log, contextlib.redirect_stdout(log):
        commands = pl.pipeline(workload, seed, rdir, input_config)
        t0 = time.perf_counter()
        for cmd in commands:
            codes.append(cli.main([cmd.stage, "--config", str(cmd.config), "--output", str(cmd.output),
                                   "--threads", "1"]))
            if codes[-1] != 0:
                break
        return time.perf_counter() - t0, codes


def pool_busy_ratio(rdir: Path, workers: int) -> float:
    """Summed fit-task wall time (from run.json) over workers x command wall time."""
    busy = sum(json.loads(p.read_text())["wall_time_s"]
               for stage in ("fits", "sfits") for p in (rdir / stage).glob("**/run.json"))
    wall = sum(json.loads((rdir / stage / "manifest.json").read_text())["wall_time_s"]
               for stage in ("fits", "sfits"))
    return busy / (workers * wall)


def cold_import_ms(repeats: int = 3) -> float:
    probe = "import time; t = time.perf_counter(); import hawkesmix.cli; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", probe], env=pl.cli_env(), cwd=pl.ROOT, check=True,
                                  capture_output=True, text=True).stdout) for _ in range(repeats)]
    return 1e3 * statistics.median(times)


def largest_dataset(corpus: Path) -> Path:
    return max(corpus.glob("**/events.csv"), key=lambda p: p.stat().st_size)


def memory_and_likelihood(workload, seed: int, corpus: Path) -> dict[str, float]:
    """Sampler memory from tracemalloc and one log-likelihood timing, largest dataset."""
    from hawkesmix.events import load_events
    from hawkesmix.likelihood import log_likelihood
    from hawkesmix.mcmc import McmcConfig, McmcSampler
    from hawkesmix.params import load_params

    events_csv = largest_dataset(corpus)
    seq = load_events(events_csv)
    cfg = McmcConfig(iterations=workload.mcmc["iterations"], burn_in=workload.mcmc["burn_in"], seed=seed)
    mib = float(2 ** 20)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sampler = McmcSampler(cfg, seq)
        held = tracemalloc.get_traced_memory()[0] - base
        sampler.sweep()
        sampler.sweep()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sampler.sweep()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    truth = load_params(events_csv.parent / "truth.json")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        log_likelihood(truth, seq, "approx")
        times.append(time.perf_counter() - t0)
    return {
        "mcmc.sampler_alloc_mb": held / mib,
        "mcmc.sweep_peak_alloc_mb": peak / mib,
        # computed, not measured: one (m, h0 + h) float64 table
        "mcmc.density_table_mb": sampler.pairs.m * (cfg.h0 + cfg.h) * 8 / mib,
        "likelihood.log_likelihood_ms": 1e3 * statistics.median(times),
    }


def run(workload, seed: int, seconds: float, work: Path, planted, input_config: Path) -> dict:
    """Traced rounds (see ``pl.another_round``); per-layer metrics as medians."""
    sys.path.insert(0, str(pl.SRC))
    import hawkesmix.cli  # noqa: F401  (imported before timing, like the warm-up import)

    per_round: list[dict[str, float]] = []
    attempted = failed = 0
    correct = True
    t_start = time.perf_counter()
    while pl.another_round(len(per_round), time.perf_counter() - t_start, seconds):
        k = len(per_round)
        ref_dir, traced_dir = work / f"untraced{k}", work / f"traced{k}"
        wall_ref, codes_ref = run_inprocess(workload, seed, ref_dir, input_config)
        tracer = Tracer()
        tracer.install()
        try:
            wall_traced, codes_traced = run_inprocess(workload, seed, traced_dir, input_config)
        finally:
            tracer.uninstall()
        tracer.dump(work / f"trace{k}.json")
        codes = codes_ref + codes_traced
        if workload.threads > 1 and all(c == 0 for c in codes):
            # the pool only runs in fresh CLI processes with several workers
            pool_dir = work / f"pool{k}"
            for stage, out in (("fit-mcmc", "fits"), ("fit-svi", "sfits")):
                cmd = pl.Command(stage, ref_dir / "configs" / f"{stage}.json", pool_dir / out, workload.threads)
                codes.append(pl.run_cli(cmd, work / f"pool{k}.log").returncode)
            ratio = (pool_dir, workload.threads)
        else:
            ratio = (ref_dir, 1)
        attempted += len(codes)
        failed += sum(c != 0 for c in codes)
        if failed:
            correct = False
            break
        correct = pl.verify(workload, seed, planted, [traced_dir, ref_dir]) and correct
        metrics = span_metrics(tracer.spans)
        metrics["cli.pool_busy_ratio"] = pool_busy_ratio(*ratio)
        metrics["trace.overhead_pct"] = 100.0 * (wall_traced - wall_ref) / wall_ref
        metrics.update(memory_and_likelihood(workload, seed, traced_dir / "corpus"))
        per_round.append(metrics)
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]} if per_round else {}
    if values:
        values["cli.import_ms"] = cold_import_ms()
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
            if values else {}}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return {"pairs.pairs_built": "count", "svi.elbo_share": "ratio", "cli.pool_busy_ratio": "ratio",
            "trace.overhead_pct": "%"}[name]


NAMES = (["cli.import_ms", "cli.pool_busy_ratio"] + [m for m in PER_CALL if m.startswith("events.")]
         + ["simulate.simulate_branching_ms"] + [m for m in PER_CALL if m.startswith("lobster.")]
         + ["pairs.build_pairs_ms", "pairs.pairs_built"]
         + [m for m in PER_CALL if m.startswith("mcmc.")]
         + ["mcmc.sampler_alloc_mb", "mcmc.sweep_peak_alloc_mb", "mcmc.density_table_mb",
            "svi.make_local_ms", "svi.update_local_ms", "svi.window_stats_ms", "svi.update_global_ms",
            "svi.elbo_ms", "svi.iter_ms", "svi.elbo_share"]
         + [m for m in PER_CALL if m.startswith("metrics.")]
         + ["likelihood.log_likelihood_ms", "trace.overhead_pct"])
UNITS = {name: _unit(name) for name in NAMES}
