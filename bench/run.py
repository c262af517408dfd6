"""End-to-end benchmark of the hawkesmix CLI pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload study|orderflow --seed N --seconds S --trace 0|1

With ``--trace 0`` the run drives the CLI as a user does, one fresh process
per command (input stage, fit-mcmc, fit-svi, evaluate for each engine), and
repeats that pipeline in whole rounds until ``--seconds`` have passed. It
prints the end-to-end metrics as medians over the rounds. With ``--trace 1``
it runs the same pipeline in this process with one worker, once untraced and
once with spans around each layer's public functions, and prints the
per-layer metrics (see ``tracing.py``).

Every run checks the program's outputs with ``checks.py`` and requires every
later round to reproduce the first round's outputs byte for byte. The last
line of standard output is one JSON object with ``correct``, ``attempted``
(CLI commands run), ``failed`` (commands that exited nonzero) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pipeline as pl
from workloads import WORKLOADS, write_inputs

OUT = pl.BENCH_DIR / "out"


def run_untraced(workload, seed: int, seconds: float, work: Path, planted, input_config: Path) -> dict:
    """CLI pipelines in fresh processes, in whole rounds (see ``pl.another_round``)."""
    # an unmeasured import first, so the first round does not pay for cold caches
    subprocess.run([sys.executable, "-c", "import hawkesmix.cli"], env=pl.cli_env(), cwd=pl.ROOT,
                   check=True)
    commands: list[pl.Command] = []
    rounds: list[pl.Round] = []
    t_start = time.perf_counter()
    while pl.another_round(len(rounds), time.perf_counter() - t_start, seconds):
        rnd = pl.Round(work / f"round{len(rounds)}")
        for cmd in pl.pipeline(workload, seed, rnd.directory, input_config):
            rnd.commands.append(pl.run_cli(cmd, rnd.directory / "cli.log"))
            commands.append(cmd)
            if cmd.returncode != 0:
                break
        rounds.append(rnd)
        if commands[-1].returncode != 0:
            break
    failed = sum(c.returncode != 0 for c in commands)
    complete = [r for r in rounds if len(r.commands) == 5 and all(c.returncode == 0 for c in r.commands)]
    correct = bool(complete) and pl.verify(workload, seed, planted, [r.directory for r in complete])
    per_round = [pl.round_metrics(workload, r) for r in complete]
    for k, m in enumerate(per_round):
        print(f"bench: round {k}: " + ", ".join(f"{n} {v:.4g}" for n, v in m.items()), file=sys.stderr)
    print(f"bench: {workload.name} seed {seed}: {len(rounds)} rounds, {len(commands)} commands, "
          f"{failed} failed", file=sys.stderr)
    return {"correct": correct, "attempted": len(commands), "failed": failed,
            "metrics": {name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
                        for name, unit in pl.UNITS.items()} if per_round else {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (pl.SRC / "hawkesmix" / "cli.py").is_file():
        print(f"bench: program source not found at {pl.SRC / 'hawkesmix'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sim_seed = pl.choose_simulate_seed(workload, args.seed, work / "probe") if workload.target_pairs else None
    planted = write_inputs(workload, args.seed, work / "input", sim_seed)
    input_config = work / "input" / "input.json"
    if args.trace:
        import tracing

        result = tracing.run(workload, args.seed, args.seconds, work, planted, input_config)
    else:
        result = run_untraced(workload, args.seed, args.seconds, work, planted, input_config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
