"""Each output check passes on real program outputs and fails on a corrupted copy.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q
The fixtures run a small pipeline through the CLI (one T=3000 dataset) and
ingest one generated LOBSTER day, about half a minute in all.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import pipeline as pl  # noqa: E402
from workloads import Workload, write_inputs, write_lobster_day  # noqa: E402

SMALL = Workload(
    name="small", input_stage="simulate", restarts=1, threads=1,
    simulate={"scenario": {"kind": "beta", "eps_grid": [0.5], "T": 3000.0}, "replications": 1},
    mcmc={"iterations": 100, "burn_in": 50},
    svi={"iterations": 100, "kappa": 0.2, "elbo_every": 25},
    alpha_tol=0.2,
)
SEED = 3


@pytest.fixture(scope="module")
def fitted(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("small")
    write_inputs(SMALL, SEED, work / "input")
    for cmd in pl.pipeline(SMALL, SEED, work / "round", work / "input" / "input.json"):
        assert pl.run_cli(cmd, work / "cli.log").returncode == 0, (work / "cli.log").read_text()
    return work / "round"


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    work = tmp_path_factory.mktemp("day")
    planted = write_lobster_day(SEED, work / "messages.csv", work / "orderbook.csv")
    config = work / "ingest.json"
    config.write_text(json.dumps({"ingest": {"messages": str(work / "messages.csv"),
                                             "orderbook": str(work / "orderbook.csv")}}))
    cmd = pl.run_cli(pl.Command("ingest", config, work / "corpus", 1), work / "cli.log")
    assert cmd.returncode == 0, (work / "cli.log").read_text()
    return work / "corpus", planted


@pytest.fixture
def copy(fitted, tmp_path) -> Path:
    dest = tmp_path / "round"
    shutil.copytree(fitted, dest)
    return dest


def check_mcmc(rdir: Path) -> None:
    checks.check_mcmc(rdir / "corpus", rdir / "fits", rdir / "results",
                      SMALL.mcmc["iterations"], SMALL.mcmc["burn_in"], SMALL.alpha_tol)


def check_svi(rdir: Path) -> None:
    checks.check_svi(rdir / "corpus", rdir / "sfits", rdir / "sresults",
                     SMALL.svi["iterations"], SMALL.alpha_tol, SEED)


def check_ingest(corpus: Path, planted) -> None:
    checks.check_ingest(corpus, planted.rebased_times(), planted.dims, planted.report(), planted.T)


def rewrite_csv(path: Path, edit) -> None:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_columns(path: Path, prefixes: tuple[str, ...], fn) -> None:
    def edit(rows):
        cols = [i for i, name in enumerate(rows[0]) if name.startswith(prefixes)]
        for row in rows[1:]:
            for i in cols:
                row[i] = repr(fn(float(row[i])))
        return rows
    rewrite_csv(path, edit)


def samples_csv(rdir: Path) -> Path:
    return next((rdir / "fits").glob("**/restart0/samples.csv"))


def state_json(rdir: Path) -> Path:
    return next((rdir / "sfits").glob("**/restart0/state.json"))


def test_clean_outputs_pass(fitted, ingested):
    check_mcmc(fitted)
    check_svi(fitted)
    check_ingest(*ingested)


def test_sampler_metric_mismatch(copy):
    def edit(rows):
        rows[1][-1] = repr(float(rows[1][-1]) * 1.001)
        return rows
    rewrite_csv(copy / "results" / "metrics.csv", edit)
    with pytest.raises(checks.CheckFailed, match="metrics.csv"):
        check_mcmc(copy)


def test_variational_metric_mismatch(copy):
    def edit(rows):
        for row in rows[1:]:
            if row[4] == "rmise":
                row[5] = repr(float(row[5]) * 1.5)
        return rows
    rewrite_csv(copy / "sresults" / "metrics.csv", edit)
    with pytest.raises(checks.CheckFailed, match="rmise"):
        check_svi(copy)


def test_missing_draw(copy):
    rewrite_csv(samples_csv(copy), lambda rows: rows[:-1])
    with pytest.raises(checks.CheckFailed, match="draws, expected"):
        check_mcmc(copy)


def test_sampler_curves_worse_than_flat(copy):
    edit_columns(samples_csv(copy), ("a0.", "b0.", "a.", "b."), lambda v: 50.0)
    with pytest.raises(checks.CheckFailed, match="flat kernel"):
        check_mcmc(copy)


def test_sampler_alpha_off(copy):
    edit_columns(samples_csv(copy), ("alpha.",), lambda v: v + 0.5)
    with pytest.raises(checks.CheckFailed, match="alpha off"):
        check_mcmc(copy)


def test_retained_loglik_wrong(copy):
    def edit(rows):
        rows[1][0] = repr(float(rows[1][0]) + 1e-3)
        return rows
    rewrite_csv(samples_csv(copy), edit)
    with pytest.raises(checks.CheckFailed, match="loglik of draw 0"):
        check_mcmc(copy)


def test_elbo_decreased(copy):
    path = next((copy / "sfits").glob("**/restart0/elbo_trace.csv"))
    def edit(rows):
        rows[-1][1] = repr(float(rows[1][1]) - 1.0)
        return rows
    rewrite_csv(path, edit)
    with pytest.raises(checks.CheckFailed, match="does not exceed"):
        check_svi(copy)


def test_variational_curves_worse_than_flat(copy):
    path = state_json(copy)
    state = json.loads(path.read_text())
    for key in ("eta_a0", "eta_b0", "eta_akl", "eta_bkl"):
        # Gamma(5000, rate 50): every shape near 100, a spike at half the support
        state[key] = np.broadcast_to([5000.0, 50.0], np.shape(state[key])).tolist()
    path.write_text(json.dumps(state))
    with pytest.raises(checks.CheckFailed, match="flat kernel"):
        check_svi(copy)


def test_variational_alpha_off(copy):
    path = state_json(copy)
    state = json.loads(path.read_text())
    state["eta_alpha"] = (np.asarray(state["eta_alpha"]) * [2.0, 1.0]).tolist()
    path.write_text(json.dumps(state))
    with pytest.raises(checks.CheckFailed, match="alpha off"):
        check_svi(copy)


def test_ingested_time_off(ingested, tmp_path):
    corpus, planted = ingested
    dest = tmp_path / "corpus"
    shutil.copytree(corpus, dest)
    def edit(rows):
        rows[5][0] = repr(float(rows[5][0]) + 2e-9)
        return rows
    rewrite_csv(dest / "events.csv", edit)
    with pytest.raises(checks.CheckFailed, match="times differ"):
        check_ingest(dest, planted)


def test_ingested_dimension_off(ingested, tmp_path):
    corpus, planted = ingested
    dest = tmp_path / "corpus"
    shutil.copytree(corpus, dest)
    def edit(rows):
        rows[5][1] = str(int(rows[5][1]) % 4 + 1)
        return rows
    rewrite_csv(dest / "events.csv", edit)
    with pytest.raises(checks.CheckFailed, match="dimensions differ"):
        check_ingest(dest, planted)


def test_ingest_report_count_off(ingested, tmp_path):
    corpus, planted = ingested
    dest = tmp_path / "corpus"
    shutil.copytree(corpus, dest)
    report = json.loads((dest / "ingest_report.json").read_text())
    report["malformed"] = report["malformed"][1:]
    (dest / "ingest_report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="malformed"):
        check_ingest(dest, planted)


def test_rounds_must_repeat(fitted, copy):
    assert pl.verify(SMALL, SEED, None, [fitted, fitted])
    edit_columns(samples_csv(copy), ("mu.",), lambda v: v * (1 + 1e-12))
    assert not pl.verify(SMALL, SEED, None, [fitted, copy])
