"""Workload definitions and seeded input generation for the benchmark.

Every input is a pure function of the workload name and ``--seed``. The
``study`` workload feeds the program a simulate config; the
``orderflow`` workload writes a synthetic LOBSTER day (message file plus an
aligned level-1 orderbook file) whose kept rows are planted from a K=4
Hawkes process simulated here, independently of the program's simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import GRID_POINTS, LEVEL

SESSION_START = 34200  # 09:30:00, seconds after midnight
SESSION_END = 57600  # 16:00:00
NS = 10 ** 9


@dataclass(frozen=True)
class Workload:
    """One pipeline: its input stage, fit sizes and worker count."""

    name: str
    input_stage: str  # "simulate" or "ingest"
    restarts: int
    threads: int
    mcmc: dict
    svi: dict
    # largest admissible |posterior-mean alpha - truth| per entry: 1.4 to 2.4 times
    # the largest error seen over 8-20 seeds (variational fits: 0.14 on study,
    # 0.03 on orderflow), and below the error of the starting alpha
    alpha_tol: float
    simulate: dict = field(default_factory=dict)
    # admissible pairs (lag < T0) of the simulated corpus, see choose_simulate_seed
    target_pairs: int = 0


WORKLOADS = {
    "study": Workload(
        name="study",
        input_stage="simulate",
        restarts=2,
        threads=2,
        simulate={"scenario": {"kind": "beta", "eps_grid": [0.0, 0.5], "T": 3000.0}, "replications": 2},
        target_pairs=70_000,
        alpha_tol=0.2,
        mcmc={"iterations": 60, "burn_in": 30},
        svi={"iterations": 60, "kappa": 0.2, "elbo_every": 25},
    ),
    "orderflow": Workload(
        name="orderflow",
        input_stage="ingest",
        restarts=1,
        threads=1,
        alpha_tol=0.08,
        mcmc={"iterations": 40, "burn_in": 20},
        svi={"iterations": 60, "kappa": 0.2, "elbo_every": 25},
    ),
}

# Planted K=4 order-flow process: dimensions are buy submissions, buy market
# orders/cancellations, sell submissions, sell market orders/cancellations.
# Stationary rates give about 30.6k events over the 23400 s session, split
# roughly 8.2k/7.1k/8.5k/6.8k like the real AMZN day; spectral radius 0.45.
PLANTED_T0 = 1.0
PLANTED_MU = np.array([0.20, 0.16, 0.21, 0.15])
PLANTED_ALPHA = np.array([[0.25, 0.10, 0.05, 0.05],
                          [0.10, 0.20, 0.05, 0.10],
                          [0.05, 0.05, 0.25, 0.10],
                          [0.05, 0.10, 0.10, 0.20]])
PLANTED_EPS = 0.5
PLANTED_COMMON = (1.0, 4.0)  # shared Beta(a, b) on (0, T0)
PLANTED_IDIO_A = np.array([[2.0, 1.0, 3.0, 1.5],
                           [1.0, 2.0, 1.5, 3.0],
                           [3.0, 1.5, 2.0, 1.0],
                           [1.5, 3.0, 1.0, 2.0]])
PLANTED_IDIO_B = np.array([[6.0, 2.0, 3.0, 8.0],
                           [3.0, 5.0, 8.0, 2.0],
                           [2.0, 8.0, 6.0, 3.0],
                           [8.0, 3.0, 2.0, 5.0]])

# The simulated corpus size varies a lot between seeds (the benchmark kernels
# have spectral radius 0.81), which alone moved the rates by 20% between
# seeds. So a simulate workload runs on the first seed derived from --seed
# whose corpus has its target pair count within PAIR_TOLERANCE.
PAIR_TOLERANCE = 0.02
MAX_SEED_PROBES = 40

N_MESSAGE_ROWS = 400_000
N_MALFORMED = 40
MALFORMED_KINDS = ("columns", "field", "direction", "type", "time")


def planted_params_doc() -> dict:
    """The planted process in the program's parameter JSON format."""
    K = PLANTED_MU.size
    return {
        "mu": PLANTED_MU.tolist(),
        "alpha": PLANTED_ALPHA.tolist(),
        "excitation": {
            "eps": PLANTED_EPS,
            "T0": PLANTED_T0,
            "common": {"p": [1.0], "a": [PLANTED_COMMON[0]], "b": [PLANTED_COMMON[1]]},
            "idio": [[{"p": [1.0], "a": [float(PLANTED_IDIO_A[i, j])], "b": [float(PLANTED_IDIO_B[i, j])]}
                      for j in range(K)] for i in range(K)],
        },
    }


def simulate_planted(rng: np.random.Generator, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster simulation of the planted process: sorted times and 0-based dims."""
    K = PLANTED_MU.size
    counts = rng.poisson(PLANTED_MU * T)
    gen_t = rng.uniform(0.0, T, size=int(counts.sum()))
    gen_d = np.repeat(np.arange(K), counts)
    all_t, all_d = [gen_t], [gen_d]
    while gen_t.size:
        kids = rng.poisson(PLANTED_ALPHA[gen_d]).ravel()  # offspring per (event, child dim)
        par = np.repeat(np.repeat(np.arange(gen_t.size), K), kids)
        child_d = np.repeat(np.tile(np.arange(K), gen_t.size), kids)
        parent_d = gen_d[par]
        common = rng.random(par.size) < PLANTED_EPS
        a = np.where(common, PLANTED_COMMON[0], PLANTED_IDIO_A[parent_d, child_d])
        b = np.where(common, PLANTED_COMMON[1], PLANTED_IDIO_B[parent_d, child_d])
        t = gen_t[par] + PLANTED_T0 * rng.beta(a, b)
        keep = t < T
        gen_t, gen_d = t[keep], child_d[keep]
        all_t.append(gen_t)
        all_d.append(gen_d)
    t = np.concatenate(all_t)
    d = np.concatenate(all_d).astype(np.int64)
    order = np.argsort(t, kind="stable")
    return t[order], d[order]


@dataclass(frozen=True)
class PlantedDay:
    """What ingestion of the generated day must report."""

    times_ns: np.ndarray  # kept event times, ns after midnight, strictly increasing
    dims: np.ndarray  # 0-based
    n_valid: int
    n_malformed: int

    T = float(SESSION_END - SESSION_START)

    def rebased_times(self) -> np.ndarray:
        return (self.times_ns - SESSION_START * NS) / NS

    def report(self) -> dict:
        return {"messages": self.n_valid, "malformed": self.n_malformed,
                "events": int(self.dims.size),
                "per_dimension": np.bincount(self.dims, minlength=4).tolist()}


def write_lobster_day(seed: int, messages_path: Path, orderbook_path: Path) -> PlantedDay:
    """Write a LOBSTER message/orderbook pair; returns what ingestion must find.

    Kept rows are the planted events: inside the session, size >= 100,
    mapped types, priced at their side's best quote (a fifth of the
    market/cancel rows at the preceding row's best, as when a cancel removes
    the top). The other rows are dropped by exactly one filter: outside the
    session, size below 100, priced at least three ticks off the best quote,
    or of an unmapped type (6, 7). Malformed rows get a blank orderbook line
    so the orderbook stays aligned with the parsed messages.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 4])))
    t, d = simulate_planted(rng, PlantedDay.T)
    ns = np.round(t * NS).astype(np.int64) + SESSION_START * NS
    # strictly increasing on the nanosecond grid, strictly before 16:00:00
    ar = np.arange(ns.size, dtype=np.int64)
    ns = np.maximum.accumulate(ns - ar) + ar
    keep = ns < SESSION_END * NS
    ns, d = ns[keep], d[keep]
    n_keep = ns.size

    n_valid = N_MESSAGE_ROWS - N_MALFORMED
    n_noise = n_valid - n_keep
    # noise: 0 pre-market, 1 post-market, 2 small size, 3 deep level, 4 unmapped type
    kind = rng.choice(5, size=n_noise, p=[0.05, 0.05, 0.40, 0.42, 0.08])
    noise_ns = rng.integers(SESSION_START * NS, SESSION_END * NS + 1, size=n_noise)
    noise_ns[kind == 0] = rng.integers(30600 * NS, SESSION_START * NS, size=int(np.sum(kind == 0)))
    noise_ns[kind == 1] = rng.integers(SESSION_END * NS + 1, 59400 * NS, size=int(np.sum(kind == 1)))

    # valid rows sorted by time; kept rows carry kind -1
    row_ns = np.concatenate([ns, noise_ns])
    row_kind = np.concatenate([np.full(n_keep, -1), kind])
    row_dim = np.concatenate([d, np.full(n_noise, -1)])
    order = np.argsort(row_ns, kind="stable")
    row_ns, row_kind, row_dim = row_ns[order], row_kind[order], row_dim[order]
    kept = row_kind == -1

    # direction and event type
    direction = np.where(rng.random(n_valid) < 0.5, 1, -1)
    direction[kept] = np.where(row_dim[kept] < 2, 1, -1)
    etype = rng.choice([1, 2, 3, 4, 5], size=n_valid, p=[0.5, 0.05, 0.35, 0.08, 0.02])
    market = kept & (row_dim % 2 == 1)
    etype[kept] = 1
    etype[market] = rng.choice([2, 3, 4, 5], size=int(market.sum()), p=[0.1, 0.6, 0.25, 0.05])
    unmapped = row_kind == 4
    etype[unmapped] = rng.choice([6, 7], size=int(unmapped.sum()), p=[0.9, 0.1])
    size = 100 * rng.integers(1, 6, size=n_valid)
    small = row_kind == 2
    size[small] = rng.integers(1, 100, size=int(small.sum()))

    # level-1 quote path: both sides move together by at most one tick a row
    step = rng.choice([-100, 0, 100], size=n_valid, p=[0.03, 0.94, 0.03])
    from_prev = market & (rng.random(n_valid) < 0.2)
    step[from_prev] = np.where(direction[from_prev] == 1, -100, 100)  # the top leaves
    step[0] = 0
    ask = 2_238_200 + np.cumsum(step)
    bid = ask - 100
    best = np.where(direction == 1, bid, ask)
    prev_best = np.concatenate([best[:1], np.where(direction[1:] == 1, bid[:-1], ask[:-1])])
    price = np.where(from_prev, prev_best, best)
    deep = row_kind == 3
    offset = 100 * rng.integers(3, 8, size=int(deep.sum()))
    price[deep] = best[deep] - direction[deep] * offset

    ask_size = 100 * rng.integers(1, 20, size=n_valid)
    bid_size = 100 * rng.integers(1, 20, size=n_valid)

    # malformed rows go between valid rows, never two in a row
    slots = np.sort(rng.choice(np.arange(1, n_valid // 2), size=N_MALFORMED, replace=False)) * 2
    malformed_at = dict(zip(slots.tolist(), (MALFORMED_KINDS * N_MALFORMED)[:N_MALFORMED]))
    with open(messages_path, "w") as msg, open(orderbook_path, "w") as book:
        oid = 10_000_000
        for i in range(n_valid):
            if i in malformed_at:
                msg.write(_malformed_row(malformed_at[i], int(row_ns[i - 1])) + "\n")
                book.write("\n")
            s, r = divmod(int(row_ns[i]), NS)
            oid += 1
            msg.write(f"{s}.{r:09d},{etype[i]},{oid},{size[i]},{price[i]},{direction[i]}\n")
            book.write(f"{ask[i]},{ask_size[i]},{bid[i]},{bid_size[i]}\n")
    return PlantedDay(times_ns=ns, dims=d, n_valid=n_valid, n_malformed=N_MALFORMED)


def _malformed_row(kind: str, prev_ns: int) -> str:
    s, r = divmod(prev_ns, NS)
    stamp = f"{s}.{r:09d}"
    if kind == "columns":
        return f"{stamp},1,1,100,2238100"
    if kind == "field":
        return f"{stamp},1,x1,100,2238100,1"
    if kind == "direction":
        return f"{stamp},1,1,100,2238100,0"
    if kind == "type":
        return f"{stamp},9,1,100,2238100,1"
    s, r = divmod(prev_ns - NS // 2, NS)  # half a second before the previous row
    return f"{s}.{r:09d},1,1,100,2238100,1"


def count_pairs(events_csv: Path, T0: float = 1.0) -> int:
    """Admissible parent-child pairs (lag below T0) of an events file."""
    t = np.loadtxt(events_csv, delimiter=",", skiprows=1, usecols=0, ndmin=1)
    return int(np.sum(np.arange(t.size) - np.searchsorted(t, t - T0, side="right")))


def simulate_seed_candidates(seed: int):
    for k in range(MAX_SEED_PROBES):
        yield int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def write_inputs(workload: Workload, seed: int, input_dir: Path,
                 simulate_seed: int | None = None) -> PlantedDay | None:
    """Write the input-stage config, and for ingest the LOBSTER day it reads.

    Returns what ingestion must find in the day, or None for ``simulate``.
    """
    input_dir.mkdir(parents=True, exist_ok=True)
    planted = None
    if workload.input_stage == "simulate":
        config = dict(workload.simulate, seed=seed if simulate_seed is None else simulate_seed)
    else:
        planted = write_lobster_day(seed, input_dir / "messages.csv", input_dir / "orderbook.csv")
        config = {"ingest": {"messages": str(input_dir / "messages.csv"),
                             "orderbook": str(input_dir / "orderbook.csv"), "min_volume": 100}}
    (input_dir / "input.json").write_text(json.dumps(config) + "\n")
    return planted


def prepare_corpus(workload: Workload, corpus_dir: Path) -> None:
    """Before the input stage: the ingest directory gets the planted truth."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    if workload.input_stage == "ingest":
        (corpus_dir / "truth.json").write_text(json.dumps(planted_params_doc(), indent=2) + "\n")


def stage_configs(workload: Workload, seed: int, corpus: Path, fits: Path, sfits: Path) -> dict[str, dict]:
    """Configs of the fit and evaluate stages, keyed by stage."""
    # the grid and level the output checks recompute the metrics on
    evaluation = {"corpus": str(corpus), "grid_points": GRID_POINTS, "level": LEVEL, "seed": seed}
    return {
        "fit-mcmc": {"data": str(corpus), "restarts": workload.restarts, "mcmc": workload.mcmc, "seed": seed},
        "fit-svi": {"data": str(corpus), "restarts": workload.restarts, "svi": workload.svi, "seed": seed},
        "evaluate-mcmc": dict(evaluation, fits=str(fits), engine="mcmc", mcmc=workload.mcmc),
        "evaluate-svi": dict(evaluation, fits=str(sfits), engine="svi"),
    }
