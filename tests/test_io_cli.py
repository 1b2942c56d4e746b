import numpy as np
import pytest

import covgraph as cg
from covgraph.cli import main
from covgraph.io import (
    InputError,
    format_matrix,
    load_data,
    load_matrix,
    load_stats,
    write_matrix,
)

from conftest import DATA, SIGMA_CHAIN


class TestLoadData:
    def test_comma_file_with_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4\n5,6\n")
        data, labels = load_data(f)
        assert labels == ("a", "b")
        assert data.shape == (3, 2)
        assert data[2, 1] == 6.0

    def test_whitespace_no_header(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 2\n3 4\n")
        data, labels = load_data(f)
        assert labels == ("X1", "X2")
        assert np.allclose(data, [[1, 2], [3, 4]])

    def test_non_numeric_cell_cites_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(InputError, match=r"d\.csv:2.*column 2"):
            load_data(f)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(InputError, match="ragged"):
            load_data(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("# only a comment\n")
        with pytest.raises(InputError, match="no data rows"):
            load_data(f)


class TestLoadStats:
    def test_tiny_diag(self, tmp_path):
        f = tmp_path / "s.stats"
        f.write_text("n 12\nvars a b\nsd 1 2\ncorr\n0\n")
        st = load_stats(f)
        assert st.n == 12
        assert np.allclose(st.s, np.diag([1.0, 4.0]))
        assert st.labels == ("a", "b")

    def test_yeast_table_loads_pd(self, yeast_stats):
        assert yeast_stats.s_pos_def
        assert yeast_stats.n == 134
        assert yeast_stats.s.shape == (8, 8)
        i, j = yeast_stats.labels.index("X1"), yeast_stats.labels.index("X2")
        assert yeast_stats.s[i, j] == pytest.approx(0.87 * 1.70 * 1.70)

    def test_perfect_correlation_reports_pd_failure(self, tmp_path):
        f = tmp_path / "s.stats"
        f.write_text("n 9\nvars a b\nsd 1 1\ncorr\n1.0\n")
        with pytest.raises(InputError, match="positive definite"):
            load_stats(f)

    def test_correlation_outside_range(self, tmp_path):
        f = tmp_path / "s.stats"
        f.write_text("n 9\nvars a b\nsd 1 1\ncorr\n1.7\n")
        with pytest.raises(InputError, match="outside"):
            load_stats(f)

    def test_missing_entries_rejected(self, tmp_path):
        f = tmp_path / "s.stats"
        f.write_text("n 9\nvars a b c\nsd 1 1 1\ncorr\n0.1\n")
        with pytest.raises(InputError, match="needs 2 rows"):
            load_stats(f)


class TestMatrixRoundTrip:
    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        m = m @ m.T / 3.0
        f = tmp_path / "m.tsv"
        write_matrix(f, m, labels=["a", "b", "c", "d"])
        labels, back = load_matrix(f)
        assert labels == ("a", "b", "c", "d")
        assert np.array_equal(m, back)

    def test_digits_formatting(self):
        text = format_matrix(np.array([[1.23456]]), digits=2)
        assert text == "1.23\n"


class TestCliFit:
    def test_fit_stats_ml_icf(self, tmp_path, capsys):
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)),
            "--method", "ml-icf",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged true" in out
        dev = float(next(l.split()[1] for l in out.splitlines() if l.startswith("deviance ")))
        assert dev >= 0.0

    def test_fit_yeast_gd_deviance(self, capsys):
        rc = main([
            "fit", "--graph", str(DATA / "gd.graph"),
            "--stats", str(DATA / "table1.stats"), "--method", "ml-icf",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        dev = float(next(l.split()[1] for l in out.splitlines() if l.startswith("deviance ")))
        df = int(next(l.split()[1] for l in out.splitlines() if l.startswith("df ")))
        assert abs(dev - 9.98) <= 1.0
        assert df == 9

    def test_el_refuses_stats_input(self, capsys):
        rc = main([
            "fit", "--graph", str(DATA / "gd.graph"),
            "--stats", str(DATA / "table1.stats"), "--method", "el",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "raw data" in err

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        rc = main([
            "fit", "--graph", str(DATA / "gd.graph"),
            "--stats", str(DATA / "table1.stats"), "--method", "ml-icf",
            "--max-iter", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 2
        assert "converged false" in out

    def test_matrix_out_and_roundtrip(self, tmp_path, capsys):
        est = tmp_path / "est.tsv"
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "dual",
            "--out", str(est),
        ])
        capsys.readouterr()
        assert rc == 0
        labels, m = load_matrix(est)
        assert labels == ("1", "2", "3", "4")
        assert m[0, 1] == 0.0

    def test_trace_file_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.tsv"
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
            "--trace", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "sweep\tloglik"
        assert len(lines) > 1

    def test_stderr_never_pollutes_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("COVGRAPH_QUIET", raising=False)
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "finished" in captured.err
        assert "finished" not in captured.out

    def test_quiet_env_silences_progress(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVGRAPH_QUIET", "1")
        main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
        ])
        assert capsys.readouterr().err == ""

    def test_bad_family_exits_one(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("1,2\n3,4\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf-multi",
            "--family", str(fam),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "not adjacent" in err

    def test_family_file_accepted(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("1\n2\n3,4\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf-multi",
            "--family", str(fam),
        ])
        capsys.readouterr()
        assert rc == 0

    def test_digits_flag_rounds_output(self, tmp_path, capsys):
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
            "--digits", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        matrix_part = out.split("matrix\n", 1)[1]
        for tok in matrix_part.split():
            if tok.replace(".", "").replace("-", "").isdigit():
                assert len(tok.split(".")[-1]) <= 2

    def test_start_flag_resumes_from_estimate(self, tmp_path, capsys):
        est = tmp_path / "est.tsv"
        main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
            "--out", str(est),
        ])
        capsys.readouterr()
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
            "--start", str(est),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        iters = int(next(l.split()[1] for l in out.splitlines() if l.startswith("iterations")))
        assert iters <= 3  # warm start is already at the optimum

    def test_fit_from_raw_data_ml_and_el(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        low = np.linalg.cholesky(SIGMA_CHAIN)
        data = rng.standard_normal((60, 4)) @ low.T
        f = tmp_path / "obs.csv"
        rows = "\n".join(",".join(format(x, ".17g") for x in row) for row in data)
        # numeric label row: needs an explicit --header yes to be stripped
        f.write_text("1,2,3,4\n" + rows + "\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"), "--data", str(f),
            "--header", "yes", "--method", "ml-icf",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "converged true" in out and "n 60" in out
        lines = out.splitlines()
        at = next(k for k, l in enumerate(lines) if l.startswith("iterations"))
        assert lines[at + 1].split()[0] == "rejected-extrapolations"
        assert int(lines[at + 1].split()[1]) >= 0
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"), "--data", str(f),
            "--header", "yes", "--method", "el",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "converged true" in out and "detail converged" in out.splitlines()
        assert any(l.startswith("el-log-ratio") for l in out.splitlines())
        assert any(l.startswith("inner-solves") for l in out.splitlines())
        assert not any(l.startswith("rejected-extrapolations") for l in out.splitlines())

    def test_n_adjust_scales_loglik(self, tmp_path, capsys):
        vals = {}
        for flag in (False, True):
            argv = [
                "fit", "--graph", str(DATA / "fig1.graph"),
                "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
            ] + (["--n-adjust"] if flag else [])
            main(argv)
            out = capsys.readouterr().out
            vals[flag] = float(next(l.split()[1] for l in out.splitlines() if l.startswith("loglik")))
        assert vals[True] == pytest.approx(vals[False] * 59 / 60, rel=1e-12)


class TestCliSimulateLoglikCompare:
    def test_simulate_byte_identical(self, tmp_path, capsys):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        outs = []
        for k in range(2):
            out = tmp_path / f"rep{k}.tsv"
            rc = main([
                "simulate", "--sigma", str(sig), "--seed", "7", "--n", "25",
                "--reps", "5", "--methods", "ml-icf,dual", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_simulate_t_metadata_scaling(self, tmp_path, capsys):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main([
            "simulate", "--sigma", str(sig), "--seed", "1", "--n", "20",
            "--reps", "2", "--dist", "t", "--df", "5", "--methods", "dual",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert format(5.0 / 3.0, ".17g") in out

    def test_simulate_el_small_n_reports_failures(self, tmp_path, capsys):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main([
            "simulate", "--sigma", str(sig), "--seed", "3", "--n", "10",
            "--reps", "10", "--methods", "el",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        failures = [int(l.split("\t")[-1]) for l in out.splitlines() if l.startswith("el\t")]
        assert max(failures) > 0

    def test_simulate_failure_reasons_on_stderr(self, tmp_path, capsys, monkeypatch):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        reports = {}
        for quiet in (False, True):
            if quiet:
                monkeypatch.setenv("COVGRAPH_QUIET", "1")
            else:
                monkeypatch.delenv("COVGRAPH_QUIET", raising=False)
                monkeypatch.delenv("NO_COLOR", raising=False)
            out = tmp_path / f"report-{quiet}.tsv"
            rc = main([
                "simulate", "--sigma", str(sig), "--seed", "3", "--n", "10",
                "--reps", "10", "--methods", "ml-icf,el", "--out", str(out),
            ])
            assert rc == 0
            reports[quiet] = out.read_bytes()
            err = capsys.readouterr().err
            lines = [l for l in err.splitlines() if l.startswith("failures")]
            if quiet:
                assert err == ""
                continue
            table = reports[quiet].decode().splitlines()
            el_failures = int(next(l.split("\t")[-1] for l in table if l.startswith("el\t")))
            assert el_failures > 0
            assert f"failures el n=10: ELInfeasibleError {el_failures}" in lines
        assert reports[False] == reports[True]

    def test_simulate_graph_override_consistent(self, tmp_path, capsys):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main([
            "simulate", "--sigma", str(sig), "--graph", str(DATA / "fig1.graph"),
            "--seed", "2", "--n", "20", "--reps", "2", "--methods", "dual",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dual\t20" in out

    def test_simulate_graph_override_inconsistent(self, tmp_path, capsys):
        # a graph missing an edge where the truth matrix is nonzero
        sparse = tmp_path / "sparse.graph"
        sparse.write_text("vertex 1\nvertex 2\nvertex 3\nvertex 4\nedge 1 3\nedge 3 4\n")
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main([
            "simulate", "--sigma", str(sig), "--graph", str(sparse),
            "--seed", "2", "--n", "20", "--reps", "2", "--methods", "dual",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "nonzeros outside" in err

    def test_fit_graph_stats_label_mismatch(self, tmp_path, capsys):
        f = tmp_path / "s.stats"
        f.write_text("n 12\nvars a b\nsd 1 2\ncorr\n0\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"), "--stats", str(f),
            "--method", "ml-icf",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "do not match" in err

    def test_loglik_subcommand(self, tmp_path, capsys):
        est = tmp_path / "est.tsv"
        main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
            "--out", str(est),
        ])
        capsys.readouterr()
        rc = main([
            "loglik", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--matrix", str(est),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("loglik ")

    def test_compare_subcommand(self, tmp_path, capsys):
        rc = main([
            "compare", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--methods", "ml-icf,dual",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert any(l.startswith("dloglik ml-icf dual ") for l in lines)
        diff = float([l for l in lines if l.startswith("dloglik")][0].split()[-1])
        assert diff >= -1e-9  # the likelihood maximizer wins


def _chain_stats(tmp_path):
    """Stats file for the chain dispersion, written once per test dir."""
    f = tmp_path / "chain.stats"
    if not f.exists():
        sd = np.sqrt(np.diag(SIGMA_CHAIN))
        corr = SIGMA_CHAIN / np.outer(sd, sd)
        lines = ["n 60", "vars 1 2 3 4", "sd " + " ".join(format(x, ".17g") for x in sd), "corr"]
        for i in range(1, 4):
            lines.append(" ".join(format(corr[i, j], ".17g") for j in range(i)))
        f.write_text("\n".join(lines) + "\n")
    return f
