"""One pipeline round: the CLI commands, their metrics and output checks.

Shared by the untraced run (``run.py``) and the traced run (``tracing.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread in this process and in every CLI process it starts, set
# before NumPy loads, so that a single-worker command runs one thread, as the
# workloads say. With OpenBLAS's default of one thread per core, a K=2 fit at
# 190k pairs split its matrix-vector products over both cores of the
# reference machine: no faster, and 45% more CPU time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
from workloads import (PAIR_TOLERANCE, PlantedDay, Workload, count_pairs, prepare_corpus,  # noqa: E402
                       simulate_seed_candidates, stage_configs)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Outputs that must repeat byte for byte between rounds of one run.
REPRODUCIBLE = ("corpus/**/events.csv", "fits/**/samples.csv", "sfits/**/state.json",
                "results/metrics.csv", "sresults/metrics.csv")


@dataclass
class Command:
    stage: str  # CLI subcommand
    config: Path
    output: Path
    threads: int
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    returncode: int | None = None


@dataclass
class Round:
    directory: Path
    commands: list[Command] = field(default_factory=list)

    def by_stage(self, stage: str) -> list[Command]:
        return [c for c in self.commands if c.stage == stage]


def another_round(done: int, elapsed: float, seconds: float) -> bool:
    """One round at least; then one more only when a round as long as the
    average so far would end within ``seconds``, so that a run on a slow
    machine does not overrun its time."""
    return done == 0 or elapsed * (done + 1) / done <= seconds


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(cmd: Command, log: Path) -> Command:
    """Run one CLI command in a fresh process; wall time and peak RSS from wait4."""
    argv = [sys.executable, "-m", "hawkesmix.cli", cmd.stage, "--config", str(cmd.config),
            "--output", str(cmd.output), "--threads", str(cmd.threads)]
    with open(log, "a") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=cli_env(), stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        cmd.wall_s = time.perf_counter() - t0
    proc.returncode = cmd.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss covers the command and the pool workers it waited for (KiB)
    cmd.peak_rss_mb = usage.ru_maxrss / 1024.0
    return cmd


def choose_simulate_seed(workload: Workload, seed: int, probe_dir: Path) -> int:
    """First candidate seed whose ``simulate`` corpus is within PAIR_TOLERANCE of
    the workload's target pair count (the closest one if none is).

    The probes call the CLI entry function in this process, which is not
    measured, to spare an interpreter start per candidate.
    """
    sys.path.insert(0, str(SRC))
    from hawkesmix import cli

    probe_dir.mkdir(parents=True, exist_ok=True)
    config, out = probe_dir / "simulate.json", probe_dir / "corpus"
    best = (float("inf"), 0)
    with open(probe_dir / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        for candidate in simulate_seed_candidates(seed):
            config.write_text(json.dumps(dict(workload.simulate, seed=candidate)) + "\n")
            if cli.main(["simulate", "--config", str(config), "--output", str(out), "--threads", "1"]):
                return candidate  # the measured rounds report the failure
            pairs = sum(count_pairs(p) for p in out.glob("**/events.csv"))
            shutil.rmtree(out)
            gap = abs(pairs / workload.target_pairs - 1.0)
            if gap <= PAIR_TOLERANCE:
                return candidate
            best = min(best, (gap, candidate))
    return best[1]


def pipeline(workload, seed: int, rdir: Path, input_config: Path) -> list[Command]:
    """The round's commands with their configs written out, not yet run."""
    corpus, fits, sfits = rdir / "corpus", rdir / "fits", rdir / "sfits"
    prepare_corpus(workload, corpus)
    configs = stage_configs(workload, seed, corpus, fits, sfits)
    cdir = rdir / "configs"
    cdir.mkdir(parents=True, exist_ok=True)
    for name, doc in configs.items():
        (cdir / f"{name}.json").write_text(json.dumps(doc) + "\n")
    return [
        Command(workload.input_stage, input_config, corpus, workload.threads),
        Command("fit-mcmc", cdir / "fit-mcmc.json", fits, workload.threads),
        Command("fit-svi", cdir / "fit-svi.json", sfits, workload.threads),
        Command("evaluate", cdir / "evaluate-mcmc.json", rdir / "results", 1),
        Command("evaluate", cdir / "evaluate-svi.json", rdir / "sresults", 1),
    ]


def round_metrics(workload, rnd: Round) -> dict[str, float]:
    setup, mcmc, svi = rnd.commands[0], rnd.by_stage("fit-mcmc")[0], rnd.by_stage("fit-svi")[0]
    tasks = len(list((rnd.directory / "corpus").glob("**/events.csv"))) * workload.restarts
    return {
        "setup_s": setup.wall_s,
        "wall_s": sum(c.wall_s for c in rnd.commands),
        "mcmc_sweeps_per_s": tasks * workload.mcmc["iterations"] / mcmc.wall_s,
        "svi_iters_per_s": tasks * workload.svi["iterations"] / svi.wall_s,
        "evaluate_s": sum(c.wall_s for c in rnd.by_stage("evaluate")),
        "peak_rss_mb": max(c.peak_rss_mb for c in rnd.commands),
    }


UNITS = {"setup_s": "s", "wall_s": "s", "mcmc_sweeps_per_s": "sweeps/s",
         "svi_iters_per_s": "iterations/s", "evaluate_s": "s", "peak_rss_mb": "MB"}


def digest(rdir: Path) -> dict[str, str]:
    out = {}
    for pattern in REPRODUCIBLE:
        for path in sorted(rdir.glob(pattern)):
            out[str(path.relative_to(rdir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def verify(workload, seed: int, planted: PlantedDay | None, dirs: list[Path]) -> bool:
    """Check the first directory's outputs; the others must repeat them byte for byte."""
    try:
        check_outputs(workload, dirs[0], seed, planted)
        first = digest(dirs[0])
        for other in dirs[1:]:
            checks.require(digest(other) == first, f"{other}: outputs differ from those in {dirs[0]}")
    except checks.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return False
    return True


def check_outputs(workload, rdir: Path, seed: int, planted: PlantedDay | None) -> None:
    """Independent checks of one round's outputs; raises CheckFailed."""
    corpus = rdir / "corpus"
    if planted is not None:
        checks.check_ingest(corpus, planted.rebased_times(), planted.dims, planted.report(), planted.T)
    checks.check_mcmc(corpus, rdir / "fits", rdir / "results", workload.mcmc["iterations"],
                      workload.mcmc["burn_in"], workload.alpha_tol)
    checks.check_svi(corpus, rdir / "sfits", rdir / "sresults", workload.svi["iterations"],
                     workload.alpha_tol, seed)
