import json
import os
from pathlib import Path

import numpy as np
import pytest

from hawkesmix.cli import _run_tasks, _task_seed, main

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

    def test_failed_task_traceback_recorded_in_pool(self, sim_corpus, tmp_path):
        bad = next(sim_corpus.glob("eps0/rep1/events.json"))
        bad.write_text("{not json")
        fits = tmp_path / "fits"
        fit_cfg = _write_config(tmp_path / "fit.json", {
            "data": str(sim_corpus),
            "mcmc": {"iterations": 10, "burn_in": 5, "h0": 2, "h": 2},
            "seed": 2,
        })
        assert main(["fit-mcmc", "--config", fit_cfg, "--output", str(fits), "--threads", "2"]) == 1
        manifest = json.loads((fits / "manifest.json").read_text())
        failed = [t for t in manifest["tasks"] if t["status"] == "failed"]
        assert [t["name"] for t in failed] == ["fit eps0/rep1 restart=0"]
        # the worker's own traceback, not only the exception's repr
        assert "Traceback (most recent call last):" in failed[0]["error"]
        assert "load_events" in failed[0]["error"]

    def test_dead_worker_fails_its_task(self):
        results = _run_tasks([("exits", os._exit, (3,)), ("exits too", os._exit, (3,))], threads=2)
        assert [entry["name"] for entry, _ in results] == ["exits", "exits too"]
        for entry, value in results:
            assert entry["status"] == "failed" and value is None
            assert "BrokenProcessPool" in entry["error"]

    @pytest.mark.parametrize("command,section", [("fit-mcmc", "mcmc"), ("fit-svi", "svi")])
    def test_unknown_section_key_fails_fit(self, sim_corpus, tmp_path, command, section):
        fits = tmp_path / "fits"
        fit_cfg = _write_config(tmp_path / "fit.json", {
            "data": str(sim_corpus),
            section: {"iterations": 10, "h0": 2, "h": 2, "mh_stpe": 0.2},
            "seed": 2,
        })
        assert main([command, "--config", fit_cfg, "--output", str(fits), "--threads", "1"]) == 1
        tasks = json.loads((fits / "manifest.json").read_text())["tasks"]
        assert len(tasks) == 4
        for t in tasks:
            assert t["status"] == "failed"
            assert "ValueError" in t["error"] and "mh_stpe" in t["error"]
        assert not list(fits.glob("**/run.json"))

    @pytest.mark.parametrize("engine", ["mcmc", "svi"])
    def test_evaluate_uses_fit_support_and_variant(self, tmp_path, engine):
        """A fit on (0, 0.5) is scored on (0, 0.5), with the fit's variant,
        by an evaluate config that names neither."""
        sim_cfg = _write_config(tmp_path / "sim.json", {
            "scenario": {"kind": "beta", "eps_grid": [0.5], "T": 300.0},
            "replications": 1, "seed": 4,
        })
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--config", sim_cfg, "--output", str(corpus), "--threads", "1"]) == 0
        fits = tmp_path / "fits"
        section = {"iterations": 20, "h0": 2, "h": 2, "t0": 0.5, "variant": "COMMON"}
        if engine == "mcmc":
            section["burn_in"] = 10
        fit_cfg = _write_config(tmp_path / "fit.json", {"data": str(corpus), engine: section, "seed": 6})
        assert main([f"fit-{engine}", "--config", fit_cfg, "--output", str(fits), "--threads", "1"]) == 0
        ev_cfg = _write_config(tmp_path / "eval.json", {
            "corpus": str(corpus), "fits": str(fits), "grid_points": 32, "eval_draws": 10, "seed": 3,
        })
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", ev_cfg, "--output", str(out), "--threads", "1"]) == 0

        from hawkesmix import load_params
        from hawkesmix.metrics import (GridSpec, coverage_acr, curve_samples_from_draws, evaluate_truth,
                                       interval_score, rmise)

        grid = GridSpec(32, 0.5)
        run_dir = fits / "eps0.5" / "rep0" / "restart0"
        if engine == "mcmc":
            from hawkesmix.mcmc import McmcConfig, load_samples

            cfg = McmcConfig(iterations=20, burn_in=10, h0=2, h=2, t0=0.5, variant="COMMON")
            draws = load_samples(run_dir / "samples.csv", cfg).kernel_draws()
        else:
            from hawkesmix.svi import load_state, sample_from_variational

            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_task_seed(3, 2, 0))))
            draws = sample_from_variational(load_state(run_dir / "state.json"), 10, rng)
        curves = curve_samples_from_draws(draws, 0.5, grid)
        truth_params = load_params(corpus / "eps0.5" / "rep0" / "truth.json")
        truth = evaluate_truth(truth_params.excitation.density, curves.K, grid)
        expected = {"rmise": rmise(truth, curves), "acr": coverage_acr(curves, truth, 0.95),
                    "interval_score": interval_score(curves, truth, 0.95)}
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[4]) for r in rows] == [(engine, "COMMON", m) for m in expected]
        for r in rows:
            assert np.isfinite(float(r[5]))
            assert float(r[5]) == pytest.approx(expected[r[4]], rel=1e-12)


@pytest.fixture
def two_fits(tmp_path):
    """Two simulated datasets, each with one 9-draw sampler fit and one
    variational fit: (corpus, {engine: fits directory})."""
    cfg = _write_config(tmp_path / "sim.json", {
        "scenario": {"kind": "beta", "eps_grid": [0.5], "T": 150.0}, "replications": 2, "seed": 5,
    })
    corpus = tmp_path / "corpus"
    assert main(["simulate", "--config", cfg, "--output", str(corpus), "--threads", "1"]) == 0
    fits = {}
    for engine, section in (("mcmc", {"iterations": 19, "burn_in": 10, "h0": 2, "h": 2}),
                            ("svi", {"iterations": 20, "h0": 2, "h": 2})):
        fits[engine] = tmp_path / f"fits-{engine}"
        fit_cfg = _write_config(tmp_path / f"{engine}.json", {"data": str(corpus), engine: section, "seed": 4})
        assert main([f"fit-{engine}", "--config", fit_cfg, "--output", str(fits[engine]), "--threads", "1"]) == 0
    return corpus, fits


def _evaluate(tmp_path, corpus, fits, **settings):
    cfg = _write_config(tmp_path / "eval.json", dict(corpus=str(corpus), fits=str(fits), grid_points=32, seed=3,
                                                     **settings))
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 0
    return out


class TestEvaluateOnePass:
    @pytest.mark.parametrize("eval_draws,kept", [(5, 5), (4, 3), (3, 3), (9, 9), (500, 9)])
    def test_sampler_draws_capped_at_eval_draws(self, two_fits, tmp_path, eval_draws, kept):
        """9 retained draws thinned by the smallest step keeping at most eval_draws."""
        corpus, fits = two_fits
        out = _evaluate(tmp_path, corpus, fits["mcmc"], eval_draws=eval_draws)
        rows = [line.split(",") for line in (out / "spectral_histogram.csv").read_text().splitlines()[1:-1]]
        assert sum(int(r[2]) for r in rows) == kept

    @pytest.mark.parametrize("engine", ["mcmc", "svi"])
    def test_one_quantile_pass_per_dataset(self, two_fits, tmp_path, monkeypatch, engine):
        from hawkesmix import cli

        corpus, fits = two_fits
        calls = []
        quantile, curves = np.quantile, cli.curve_samples_from_draws
        monkeypatch.setattr(np, "quantile", lambda *a, **kw: calls.append("quantile") or quantile(*a, **kw))
        monkeypatch.setattr(cli, "curve_samples_from_draws",
                            lambda *a, **kw: calls.append("curves") or curves(*a, **kw))
        _evaluate(tmp_path, corpus, fits[engine], eval_draws=5)
        assert calls == ["curves", "quantile", "quantile"] * 2

    @pytest.mark.parametrize("engine", ["mcmc", "svi"])
    def test_written_values_equal_public_functions(self, two_fits, tmp_path, monkeypatch, engine):
        """metrics.csv and bands.csv hold the public metric and band values of
        the evaluated curves, bit for bit."""
        from hawkesmix import cli, load_params
        from hawkesmix.metrics import coverage_acr, evaluate_truth, excitation_bands, interval_score, rmise

        corpus, fits = two_fits
        made = []
        curves = cli.curve_samples_from_draws
        monkeypatch.setattr(cli, "curve_samples_from_draws", lambda *a: made.append(curves(*a)) or made[-1])
        out = _evaluate(tmp_path, corpus, fits[engine], eval_draws=5, level=0.9)
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert len(made) == 2 and len(rows) == 6
        for rep, samples in enumerate(made):
            density = load_params(corpus / "eps0.5" / f"rep{rep}" / "truth.json").excitation.density
            truth = evaluate_truth(density, samples.K, samples.grid)
            expected = {"rmise": rmise(truth, samples), "acr": coverage_acr(samples, truth, 0.9),
                        "interval_score": interval_score(samples, truth, 0.9)}
            written = {r[4]: float(r[5]) for r in rows if r[3] == f"eps0.5/rep{rep}"}
            assert written == expected
        bands = excitation_bands(made[0], 0.9)
        table = np.loadtxt(out / "bands.csv", delimiter=",", skiprows=1)
        parent, child, g = np.indices(bands["mean"].shape).reshape(3, -1)
        np.testing.assert_array_equal(table[:, :3], np.column_stack([parent + 1, child + 1, made[0].grid.points[g]]))
        for col, name in enumerate(("mean", "lower", "upper"), start=3):
            assert table[:, col].tobytes() == bands[name].ravel().tobytes()


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

    def test_level_other_than_0_or_1_fails_the_task(self, tmp_path):
        cfg = _write_config(tmp_path / "ingest.json", {
            "ingest": {"messages": str(DATA / "lobster_messages_50.csv"), "level": 2},
        })
        out = tmp_path / "ingested"
        assert main(["ingest", "--config", cfg, "--output", str(out)]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed"
        assert "Traceback (most recent call last):" in task["error"] and "ValueError: level" in task["error"]
        assert not (out / "events.csv").exists()

    def test_unknown_key_fails_the_task(self, tmp_path):
        cfg = _write_config(tmp_path / "ingest.json", {
            "ingest": {"messages": str(DATA / "lobster_messages_50.csv"), "min_volum": 10},
        })
        out = tmp_path / "ingested"
        assert main(["ingest", "--config", cfg, "--output", str(out)]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "min_volum" in task["error"]
        assert not (out / "events.csv").exists()


class TestCommandSetup:
    def test_setup_failure_writes_manifest(self, tmp_path):
        """An ingest config without its "ingest" section fails before any
        task runs: exit 1, and the manifest holds the traceback."""
        cfg = _write_config(tmp_path / "ingest.json", {"messages": "x.csv"})
        out = tmp_path / "ingested"
        assert main(["ingest", "--config", cfg, "--output", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ok"] is False
        [task] = manifest["tasks"]
        assert task["status"] == "failed"
        assert "Traceback (most recent call last):" in task["error"] and "messages" in task["error"]

    def test_restarts_below_one_writes_manifest(self, sim_corpus, tmp_path):
        cfg = _write_config(tmp_path / "fit.json", {"data": str(sim_corpus), "restarts": 0})
        out = tmp_path / "fits"
        assert main(["fit-mcmc", "--config", cfg, "--output", str(out), "--threads", "1"]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert task["status"] == "failed" and "restarts must be at least 1" in task["error"]

    @pytest.mark.parametrize("doc,key", [
        ({"scenario": {"kind": "beta", "eps_grid": [0.5], "T": 50.0}, "replication": 3}, "replication"),
        ({"scenario": {"kind": "beta", "eps-grid": [0.5], "T": 50.0}}, "eps-grid"),
    ])
    def test_unknown_key_fails_simulate(self, tmp_path, doc, key):
        cfg = _write_config(tmp_path / "sim.json", doc)
        out = tmp_path / "corpus"
        assert main(["simulate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert "ValueError" in task["error"] and key in task["error"]
        assert not list(out.glob("eps*"))

    def test_unknown_key_fails_evaluate(self, tmp_path):
        cfg = _write_config(tmp_path / "eval.json", {"corpus": "c", "fits": "f", "grid_point": 64})
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert "grid_point" in task["error"]


class TestBlasThreads:
    SCRIPT = ("import os, hawkesmix.cli as cli; "
              "tasks = [(n, os.getenv, ('OPENBLAS_NUM_THREADS',)) for n in ('a', 'b')]; "
              "print(*[value for _, value in cli._run_tasks(tasks, threads=2)])")

    @pytest.mark.parametrize("setting,expected", [(None, "1 1"), ("3", "3 3")])
    def test_pool_workers_run_one_blas_thread_by_default(self, setting, expected):
        import subprocess
        import sys

        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.split() == expected.split()


class TestConfigValues:
    """A config value is used only when its type is the field's: no cast may change it."""

    @pytest.mark.parametrize("command,section,key,value", [
        ("fit-mcmc", "mcmc", "adapt_mh", "false"),
        ("fit-mcmc", "mcmc", "iterations", 2.9),
        ("fit-mcmc", "mcmc", "h0", True),
        ("fit-svi", "svi", "kappa", "0.5"),
        ("fit-svi", "svi", "elbo_every", 2.5),
    ])
    def test_bad_section_value_fails_every_fit(self, sim_corpus, tmp_path, command, section, key, value):
        fits = tmp_path / "fits"
        fit_cfg = _write_config(tmp_path / "fit.json", {
            "data": str(sim_corpus), section: {"iterations": 20, "h0": 2, "h": 2, key: value}, "seed": 2,
        })
        assert main([command, "--config", fit_cfg, "--output", str(fits), "--threads", "1"]) == 1
        tasks = json.loads((fits / "manifest.json").read_text())["tasks"]
        assert len(tasks) == 4
        for t in tasks:
            assert t["status"] == "failed"
            assert "ValueError" in t["error"] and key in t["error"]

    def test_include_hidden_string_fails_ingest(self, tmp_path):
        cfg = _write_config(tmp_path / "ingest.json", {
            "ingest": {"messages": str(DATA / "lobster_messages_50.csv"), "include_hidden": "false"},
        })
        out = tmp_path / "ingested"
        assert main(["ingest", "--config", cfg, "--output", str(out)]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert "ValueError" in task["error"] and "include_hidden" in task["error"]
        assert not (out / "events.csv").exists()

    @pytest.mark.parametrize("command,doc,key", [
        ("simulate", {"scenario": {"T": "50"}}, "T"),
        ("simulate", {"scenario": {"T": 50.0}, "replications": 1.5}, "replications"),
        ("simulate", {"scenario": {"T": 50.0}, "seed": 2.9}, "seed"),
        ("fit-mcmc", {"data": "d", "restarts": 1.5}, "restarts"),
        ("fit-svi", {"data": "d", "restarts": True}, "restarts"),
        ("evaluate", {"corpus": "c", "fits": "f", "grid_points": 64.5}, "grid_points"),
        ("evaluate", {"corpus": "c", "fits": "f", "level": "0.9"}, "level"),
        ("evaluate", {"corpus": "c", "fits": "f", "eval_draws": True}, "eval_draws"),
    ])
    def test_bad_top_level_value_fails_command(self, tmp_path, command, doc, key):
        cfg = _write_config(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out), "--threads", "1"]) == 1
        [task] = json.loads((out / "manifest.json").read_text())["tasks"]
        assert "ValueError" in task["error"] and key in task["error"]

    def test_accepted_values_keep_their_meaning(self):
        from hawkesmix.cli import _config
        from hawkesmix.lobster import IngestConfig
        from hawkesmix.mcmc import McmcConfig

        cfg = _config(McmcConfig, {"iterations": 20.0, "burn_in": None, "mh_step": 1, "adapt_mh": False,
                                   "hyper": {"e": 2}})
        assert type(cfg.iterations) is int and cfg.iterations == 20 and cfg.burn_in == 10
        assert type(cfg.mh_step) is float and cfg.mh_step == 1.0
        assert cfg.adapt_mh is False and type(cfg.hyper.e) is float
        assert _config(McmcConfig, {"iterations": 20, "burn_in": 4}).burn_in == 4
        assert _config(IngestConfig, {"include_hidden": False}).include_hidden is False


class TestResolvedManifest:
    def test_simulate_manifest_records_defaults_and_reruns(self, tmp_path):
        cfg = _write_config(tmp_path / "sim.json", {"scenario": {}})
        out = tmp_path / "corpus"
        assert main(["simulate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["scenario"] == {"kind": "beta", "eps_grid": [0.0, 0.2, 0.5, 0.8, 1.0], "T": 3000.0}
        assert config["replications"] == 1 and config["seed"] == 0
        out2 = tmp_path / "corpus2"
        assert main(["simulate", "--config", str(out / "manifest.json"), "--output", str(out2),
                     "--threads", "1"]) == 0
        written = sorted(out.glob("eps*/rep*/events.csv"))
        assert len(written) == 5
        for a in written:
            assert a.read_bytes() == (out2 / a.relative_to(out)).read_bytes()

    def test_evaluate_manifest_records_defaults(self, tmp_path):
        cfg = _write_config(tmp_path / "eval.json", {"corpus": "c", "fits": "f"})
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", cfg, "--output", str(out), "--threads", "1"]) == 1
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["grid_points"], config["level"], config["eval_draws"]) == (512, 0.95, 500)
