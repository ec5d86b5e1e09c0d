"""Unit tests for the top-level `python -m repro` CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.sparse.io import save_libsvm


class TestListing:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("abalone", "susy", "covtype", "mnist", "epsilon"):
            assert name in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "comet_paper" in out
        assert "comet_effective" in out


class TestSolve:
    def test_serial_rc_sfista(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "rc_sfista", "--k", "2", "--b", "0.2",
            "--epochs", "2", "--iters-per-epoch", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rc_sfista" in out
        assert "converged" in out

    def test_distributed_solver_reports_sim_time(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "rc_sfista_dist", "--nranks", "4", "--k", "2",
            "--b", "0.2", "--epochs", "1", "--iters-per-epoch", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim time" in out
        assert "words/rank" in out

    def test_fista_with_tolerance(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "fista", "--tol", "0.01",
            "--epochs", "5", "--iters-per-epoch", "100",
        ])
        assert rc == 0
        assert "True" in capsys.readouterr().out

    def test_output_json(self, tmp_path, capsys):
        out_file = tmp_path / "res.json"
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "sfista", "--b", "0.2",
            "--epochs", "1", "--iters-per-epoch", "10",
            "--output", str(out_file),
        ])
        assert rc == 0
        from repro.utils.serialization import load_result

        result = load_result(out_file)
        assert result.n_iterations == 10

    def test_sfista_dist_is_rc_sfista_at_k1(self, tmp_path, capsys):
        """``--solver sfista_dist`` runs RC-SFISTA at k = S = 1; --k/--S do
        not apply to it."""
        out_file = tmp_path / "res.json"
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "sfista_dist", "--nranks", "4", "--k", "4", "--S", "2",
            "--b", "0.2", "--epochs", "1", "--iters-per-epoch", "8",
            "--output", str(out_file),
        ])
        assert rc == 0
        from repro.utils.serialization import load_result

        meta = load_result(out_file).meta
        assert meta["solver"] == "rc_sfista_distributed"
        assert meta["k"] == meta["S"] == 1

    def test_libsvm_input(self, tmp_path, capsys):
        gen = np.random.default_rng(0)
        X = gen.standard_normal((5, 40))
        y = gen.standard_normal(40)
        path = tmp_path / "data.svm"
        save_libsvm(path, X, y)
        rc = main([
            "solve", "--libsvm", str(path), "--solver", "cd", "--epochs", "20",
        ])
        assert rc == 0
        assert "5 × 40" in capsys.readouterr().out

    def test_lambda_override(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "ista", "--lam", "0.5",
            "--epochs", "1", "--iters-per-epoch", "5",
        ])
        assert rc == 0
        assert "0.5" in capsys.readouterr().out

    def test_general_objective_solve(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "rc_sfista_dist", "--nranks", "2",
            "--loss", "logistic", "--penalty", "elastic_net:l2=0.5",
            "--b", "0.2", "--epochs", "1", "--iters-per-epoch", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "logistic + elastic_net:l2=0.5" in out

    def test_group_lasso_via_fista(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "fista", "--penalty", "group_l1:size=2",
            "--epochs", "1", "--iters-per-epoch", "20",
        ])
        assert rc == 0
        assert "squared + group_l1:size=2" in capsys.readouterr().out

    def test_unknown_loss_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--loss", "hinge"])

    def test_malformed_penalty_rejected(self):
        with pytest.raises(SystemExit, match="penalty"):
            main(["solve", "--dataset", "covtype", "--size", "tiny",
                  "--solver", "fista", "--penalty", "elastic_net:l2=-1"])

    def test_objective_needs_generic_solver(self):
        with pytest.raises(SystemExit, match="objective-generic"):
            main(["solve", "--dataset", "covtype", "--size", "tiny",
                  "--solver", "cd", "--loss", "logistic"])

    def test_unknown_solver_rejected(self, capsys):
        # rc_sfista_spmd was retired; rc_sfista_dist runs the same schedule.
        for solver in ("adam", "rc_sfista_spmd"):
            with pytest.raises(SystemExit):
                main(["solve", "--solver", solver])
            assert "invalid choice" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTraceReport:
    def test_renders_a_solve_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "rc_sfista_dist", "--nranks", "4", "--k", "2",
            "--b", "0.2", "--epochs", "1", "--iters-per-epoch", "10",
            "--comm", "auto", "--report", str(report),
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace-report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "=== rc_sfista_distributed ===" in out
        assert "iterations recorded: 10  (comm decisions seen: dense)" in out
        assert "by phase kind" in out and "by label" in out
        assert "allreduce_G" in out
        assert "comm " in out and "compute " in out

    def test_serial_rc_sfista_writes_report_and_trace(self, tmp_path, capsys):
        """``rc_sfista`` is the one body at P=1 on the serial backend."""
        report, trace = tmp_path / "R.json", tmp_path / "T.json"
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "rc_sfista", "--k", "2", "--b", "0.2",
            "--epochs", "1", "--iters-per-epoch", "10",
            "--report", str(report), "--trace-export", str(trace),
        ])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["solver"] == "rc_sfista_distributed"
        assert payload["params"]["nranks"] == 1
        assert payload["params"]["machine"] == "serial"
        assert len(payload["iterations"]) == 10
        assert json.loads(trace.read_text())["traceEvents"] is not None
        assert main(["trace-report", str(report)]) == 0
        assert "iterations recorded: 10" in capsys.readouterr().out

    def test_non_json_file_is_a_clean_exit(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit, match="bad.txt is not valid JSON"):
            main(["trace-report", str(bad)])


@pytest.mark.collectives
class TestCollectivesV2Flags:
    def test_compressed_solve_runs(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "sfista_dist", "--nranks", "4", "--b", "0.2",
            "--epochs", "1", "--iters-per-epoch", "10",
            "--comm-compress", "quant:bits=8",
        ])
        assert rc == 0
        assert "sim time" in capsys.readouterr().out

    def test_hier_topology_solve_runs(self, capsys):
        rc = main([
            "solve", "--dataset", "covtype", "--size", "tiny",
            "--solver", "sfista_dist", "--nranks", "4", "--b", "0.2",
            "--epochs", "1", "--iters-per-epoch", "10",
            "--machine", "fat_tree", "--comm-topology", "hier",
            "--comm-compress", "topk:frac=0.25",
        ])
        assert rc == 0

    def test_unknown_topology_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--comm-topology", "torus"])
        assert "invalid choice" in capsys.readouterr().err

    def test_malformed_compress_spec_is_usage_error(self):
        """ValidationError surfaces as a clean SystemExit, not a traceback."""
        with pytest.raises(SystemExit, match="invalid runtime configuration"):
            main(["solve", "--dataset", "covtype", "--size", "tiny",
                  "--solver", "sfista_dist", "--comm-compress", "gzip"])

    def test_hier_on_flat_machine_is_usage_error(self):
        with pytest.raises(SystemExit, match="invalid runtime configuration"):
            main(["solve", "--dataset", "covtype", "--size", "tiny",
                  "--solver", "sfista_dist", "--machine", "comet_paper",
                  "--comm-topology", "hier"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--solver", "rc_sfista_dist", "--k", "0"],
            ["--solver", "rc_sfista_dist", "--seed", "-1"],
            ["--solver", "rc_sfista_dist", "--faults-seed", "-1", "--stall-rate", "0.1"],
        ],
        ids=["k-zero", "negative-seed", "negative-faults-seed"],
    )
    def test_solver_validation_is_usage_error(self, flags):
        with pytest.raises(SystemExit, match="invalid solve configuration"):
            main(["solve", "--dataset", "covtype", "--size", "tiny", *flags])

    @pytest.mark.parametrize("command", ["solve", "submit"])
    def test_golden_help_text(self, command, capsys):
        """The v2 flags and their documented forms are pinned in --help."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse wrapping
        assert "--comm-topology {flat,hier}" in out
        assert "--comm-compress SPEC" in out
        assert "topk:frac=F | quant:bits=B" in out
        assert "docs/COLLECTIVES.md" in out


class TestServeCli:
    def test_bad_tenant_weight_rejected(self):
        from repro.cli import _parse_tenant_weights

        assert _parse_tenant_weights(["a=2", "b=1"]) == {"a": 2, "b": 1}
        for bad in ("a", "a=0", "a=-1", "=2", "a=x"):
            with pytest.raises(SystemExit):
                _parse_tenant_weights([bad])

    def test_bad_synthetic_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["submit", "--synthetic", "10,50"])  # needs D,M,SEED

    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        rc = main([
            "submit", "--url", "http://127.0.0.1:9", "--synthetic", "4,10,0",
            "--timeout", "2",
        ])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_round_trip_against_live_server(self, capsys):
        import asyncio
        import threading

        from repro.serve import ServeApp

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        app = ServeApp(max_workers=1)
        host, port = asyncio.run_coroutine_threadsafe(
            app.start(), loop).result(timeout=30)
        try:
            rc = main([
                "submit", "--url", f"http://{host}:{port}",
                "--synthetic", "8,40,1", "--lam", "0.05", "--max-iter", "150",
            ])
            out = capsys.readouterr().out
            assert rc == 0
            assert "submitted job-" in out
            assert "warm_start" in out and "cold" in out
        finally:
            asyncio.run_coroutine_threadsafe(app.stop(), loop).result(timeout=30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
