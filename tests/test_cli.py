import json
from pathlib import Path

import numpy as np
import pytest

from hawkesmix.cli import main

DATA = Path(__file__).parent / "data"


def _write_config(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def sim_corpus(tmp_path):
    """Small simulated corpus: 2 blend values x 2 replications."""
    cfg = _write_config(tmp_path / "sim.json", {
        "scenario": {"kind": "beta", "eps_grid": [0.0, 0.5], "T": 150.0},
        "replications": 2,
        "seed": 5,
    })
    out = tmp_path / "corpus"
    assert main(["simulate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 0
    return out


class TestSimulate:
    def test_writes_one_dataset_per_cell(self, sim_corpus):
        datasets = sorted(sim_corpus.glob("eps*/rep*/events.csv"))
        assert len(datasets) == 4
        for d in datasets:
            assert (d.parent / "branching.csv").exists()
            assert (d.parent / "truth.json").exists()
        manifest = json.loads((sim_corpus / "manifest.json").read_text())
        assert manifest["ok"] is True
        assert len(manifest["tasks"]) == 4

    def test_rerun_is_bit_identical(self, sim_corpus, tmp_path):
        out2 = tmp_path / "corpus2"
        # rerun straight from the manifest
        rc = main(["simulate", "--config", str(sim_corpus / "manifest.json"),
                   "--output", str(out2), "--threads", "1"])
        assert rc == 0
        for a in sorted(sim_corpus.glob("eps*/rep*/events.csv")):
            b = out2 / a.relative_to(sim_corpus)
            assert a.read_bytes() == b.read_bytes()

    def test_shared_curve_when_blend_is_total(self, tmp_path):
        cfg = _write_config(tmp_path / "sim.json", {
            "scenario": {"kind": "beta", "eps_grid": [1.0], "T": 50.0},
            "replications": 1, "seed": 1,
        })
        out = tmp_path / "one"
        assert main(["simulate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 0
        from hawkesmix import load_params

        params = load_params(next(out.glob("eps*/rep*/truth.json")))
        t = np.linspace(0.05, 0.95, 9)
        base = params.excitation.density(0, 0, t)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(params.excitation.density(i, j, t), base)


class TestFitAndEvaluate:
    def test_mcmc_pipeline(self, sim_corpus, tmp_path):
        fits = tmp_path / "fits"
        fit_cfg = _write_config(tmp_path / "fit.json", {
            "data": str(sim_corpus),
            "restarts": 2,
            "mcmc": {"iterations": 30, "burn_in": 10, "h0": 2, "h": 2},
            "seed": 9,
        })
        assert main(["fit-mcmc", "--config", fit_cfg, "--output", str(fits),
                     "--threads", "2"]) == 0
        selections = sorted(fits.glob("eps*/rep*/selected.json"))
        assert len(selections) == 4
        sel = json.loads(selections[0].read_text())
        scores = sel["scores"]
        assert str(sel["selected_restart"]) == max(scores, key=lambda k: (scores[k], -int(k)))

        ev_cfg = _write_config(tmp_path / "eval.json", {
            "corpus": str(sim_corpus),
            "fits": str(fits),
            "engine": "mcmc",
            "variant": "RANDOM",
            "grid_points": 64,
            "eval_draws": 40,
            "seed": 3,
        })
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", ev_cfg, "--output", str(out), "--threads", "1"]) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "method,variant,eps_true,seed,metric,value"
        assert len(metrics) == 1 + 4 * 3  # three metrics per dataset
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,variant,metric,mean,sd,n"
        assert (out / "bands.csv").exists()
        assert (out / "spectral_histogram.csv").exists()

    def test_svi_pipeline(self, sim_corpus, tmp_path):
        fits = tmp_path / "sfits"
        fit_cfg = _write_config(tmp_path / "sfit.json", {
            "data": str(next(sim_corpus.glob("eps0.5/rep0/events.csv"))),
            "restarts": 2,
            "svi": {"iterations": 20, "kappa": 0.5, "h0": 2, "h": 2, "elbo_every": 10},
            "seed": 13,
        })
        assert main(["fit-svi", "--config", fit_cfg, "--output", str(fits),
                     "--threads", "1"]) == 0
        sel = json.loads((fits / "selected.json").read_text())
        assert sel["engine"] == "svi"
        trace = (fits / "restart0" / "elbo_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,elbo"

    def test_single_file_fit_can_be_evaluated(self, tmp_path):
        sim_cfg = _write_config(tmp_path / "sim.json", {
            "scenario": {"kind": "beta", "eps_grid": [0.5], "T": 300.0},
            "replications": 1, "seed": 4,
        })
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--config", sim_cfg, "--output", str(corpus), "--threads", "1"]) == 0
        events = next(corpus.glob("eps0.5/rep0/events.csv"))
        fits = tmp_path / "fits"
        fit_cfg = _write_config(tmp_path / "fit.json", {
            "data": str(events),
            "mcmc": {"iterations": 20, "burn_in": 10, "h0": 2, "h": 2},
            "seed": 6,
        })
        assert main(["fit-mcmc", "--config", fit_cfg, "--output", str(fits), "--threads", "1"]) == 0
        ev_cfg = _write_config(tmp_path / "eval.json", {
            "corpus": str(events.parent), "fits": str(fits), "engine": "mcmc",
            "grid_points": 32, "eval_draws": 10, "seed": 3,
        })
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", ev_cfg, "--output", str(out), "--threads", "1"]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 3

    def test_failed_task_isolated_and_reported(self, sim_corpus, tmp_path):
        # corrupt one dataset: its fits fail, the others still complete
        bad = next(sim_corpus.glob("eps0/rep1/events.json"))
        bad.write_text("{not json")
        fits = tmp_path / "fits"
        fit_cfg = _write_config(tmp_path / "fit.json", {
            "data": str(sim_corpus),
            "restarts": 1,
            "mcmc": {"iterations": 10, "burn_in": 5, "h0": 2, "h": 2},
            "seed": 2,
        })
        rc = main(["fit-mcmc", "--config", fit_cfg, "--output", str(fits), "--threads", "1"])
        assert rc == 1  # nonzero because one replication failed
        manifest = json.loads((fits / "manifest.json").read_text())
        statuses = {t["name"]: t["status"] for t in manifest["tasks"]}
        assert sum(1 for s in statuses.values() if s == "failed") == 1
        assert sum(1 for s in statuses.values() if s == "ok") == 3
        # the healthy replications produced selections regardless
        assert len(sorted(fits.glob("eps*/rep*/selected.json"))) == 3


class TestIngestCommand:
    def test_end_to_end(self, tmp_path):
        cfg = _write_config(tmp_path / "ingest.json", {
            "ingest": {"messages": str(DATA / "lobster_messages_50.csv")},
        })
        out = tmp_path / "ingested"
        assert main(["ingest", "--config", cfg, "--output", str(out)]) == 0
        from hawkesmix import load_events

        seq = load_events(out / "events.csv")
        np.testing.assert_array_equal(seq.counts(), [13, 10, 8, 9])
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["events"] == 40
