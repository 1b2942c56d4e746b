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
from oracles import matrix_text_cell_loop


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
        assert labels is None  # unlabelled: read in graph order
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

    def test_empty_delimiter_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,4\n")
        with pytest.raises(InputError, match="^delimiter must not be empty$"):
            load_data(f, delimiter="")


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

    @pytest.mark.parametrize(
        "text, message",
        [
            # a later line would silently replace the first
            ("# yeast\nn 134\nn 10\nvars a b\nsd 1 2\ncorr\n0\n", ":3: second 'n' line (the first is line 2)"),
            ("vars a b\nn 9\nVARS b a\nsd 1 2\ncorr\n0\n", ":3: second 'vars' line (the first is line 1)"),
            ("n 9\nvars a b\nsd 1 2\nsd 2 1\ncorr\n0\n", ":4: second 'sd' line (the first is line 3)"),
            ("n 9\nvars a b\nsd 1 2\ncorr\n0\ncorr\n0\n", ":6: second 'corr' line (the first is line 4)"),
            ("n 9\nvars a b\nsd 1 2\ncorr\n0\nn 10\n", ":6: second 'n' line (the first is line 1)"),
        ],
    )
    def test_repeated_keyword_line_cites_both_lines(self, tmp_path, text, message):
        f = tmp_path / "s.stats"
        f.write_text(text)
        with pytest.raises(InputError) as err:
            load_stats(f)
        assert str(err.value) == f"{f}{message}"

    @pytest.mark.parametrize("count", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
    def test_count_with_non_ascii_digit_exits_one(self, tmp_path, capsys, count):
        g = tmp_path / "g.graph"
        g.write_text("vertex a\nvertex b\n")
        f = tmp_path / "s.stats"
        f.write_text(f"n {count}\nvars a b\nsd 1 2\ncorr\n0\n", encoding="utf-8")
        rc = main(["fit", "--graph", str(g), "--stats", str(f)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {f}:1: expected 'n <count>'\n"


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

    @pytest.mark.parametrize("digits", [None, 0, 4])
    @pytest.mark.parametrize("labels", [None, ("a", "b%", "c", "d", "e")])
    def test_format_matches_the_cell_loop(self, digits, labels):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5, -0.5, 1e300, 1 / 3]
        m = np.array(special + list(np.random.default_rng(4).standard_normal(5) * 10.0 ** np.arange(-6, 9, 3)))
        for shape in [(3, 5), (5, 3)]:
            cells = m.reshape(shape)
            names = None if labels is None else labels[: shape[1]]
            assert format_matrix(cells, names, digits) == matrix_text_cell_loop(cells, names, digits)

    def test_non_square_matrix_rejected(self, tmp_path):
        # labels name the columns only, so a spare row would go unread
        f = tmp_path / "m.tsv"
        f.write_text("#labels\ta\tb\n1\t0\n0\t1\n0\t0\n")
        with pytest.raises(InputError, match="3 rows and 2 columns, not square"):
            load_matrix(f)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 0\n0 1 2\n", ":2: ragged matrix row, expected 2 values, found 3"),
            ("# comment\n1 0 # trailing\n\n0 x\n", ":4: non-numeric cell 'x' in column 2"),
            # a stray label line would silently permute the matrix
            ("#labels a b\n1 0\n0 1\n#labels b a\n", ":4: second #labels line (the first is line 1)"),
            ("#labels a b\n# note\n#labels b a\n1 0\n0 1\n", ":3: second #labels line (the first is line 1)"),
            ("1 0\n#labels a b\n0 1\n", ":2: #labels line after the first matrix row (line 1)"),
        ],
        ids=["ragged", "non-numeric", "labels-at-end", "second-labels", "labels-after-row"],
    )
    def test_bad_matrix_row_cites_its_line(self, tmp_path, text, message):
        f = tmp_path / "m.tsv"
        f.write_text(text)
        with pytest.raises(InputError) as exc:
            load_matrix(f)
        assert str(exc.value) == f"{f}{message}"


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
        assert lines[0] == "iteration\tloglik"
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

    def test_no_color_keeps_progress(self, tmp_path, capsys, monkeypatch):
        # NO_COLOR asks for no colour, and the progress note has none
        monkeypatch.delenv("COVGRAPH_QUIET", raising=False)
        monkeypatch.setenv("NO_COLOR", "1")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf",
        ])
        assert rc == 0
        assert "fit finished in" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, 1])
    def test_stats_file_below_two_observations_exits_one(self, tmp_path, capsys, n):
        f = tmp_path / "small.stats"
        f.write_text(_chain_stats(tmp_path).read_text().replace("n 60", f"n {n}"))
        rc = main(["fit", "--graph", str(DATA / "fig1.graph"), "--stats", str(f)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {f}: need at least 2 observations, got {n}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--method", method], f"--family needs method ml-icf-multi, not {method}")
            for method in ("ml-icf", "ml-anderson", "dual", "el")
        ] + [
            (["compare", "--methods", "ml-icf,dual"], "--family needs ml-icf-multi among the compared methods"),
        ],
    )
    def test_family_without_ml_icf_multi_exits_one(self, tmp_path, capsys, argv, message):
        # the family 1,2 is not complete on fig1, but is refused before it is read
        fam = tmp_path / "fam.txt"
        fam.write_text("1,2\n3,4\n")
        rc = main([
            *argv, "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--family", str(fam),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

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

    def test_family_repeating_a_vertex_exits_one(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("1,1\n1,3\n3,4\n2,4\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf-multi",
            "--family", str(fam),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: invalid family: set ('1', '1') names vertex 1 more than once\n"

    def test_empty_delimiter_exits_one(self, tmp_path, capsys):
        f = tmp_path / "obs.csv"
        f.write_text("1,2,3,4\n2,1,4,3\n0,1,1,0\n")
        rc = main(["fit", "--graph", str(DATA / "fig1.graph"), "--data", str(f), "--delimiter", ""])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: delimiter must not be empty\n"

    def test_unknown_label_in_graph_file_cites_its_line(self, tmp_path, capsys):
        g = tmp_path / "g.graph"
        g.write_text("vertex 1\nvertex 2\nvertex 3\nvertex 4\nedge 1 3\nedge 3 ZZ\n")
        rc = main(["fit", "--graph", str(g), "--stats", str(_chain_stats(tmp_path))])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {g}:6: unknown vertex label 'ZZ'\n"

    def test_unknown_label_in_family_file_cites_its_line(self, tmp_path, capsys):
        fam = tmp_path / "fam.txt"
        fam.write_text("1,3\n3,4\nZZ,4\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf-multi",
            "--family", str(fam),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {fam}:3: unknown vertex label 'ZZ'\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_exits_one_with_a_message(self, tmp_path, capsys, monkeypatch, flag):
        import covgraph.cli as cli

        monkeypatch.setenv("COVGRAPH_QUIET", "1")
        fits = []
        monkeypatch.setattr(cli, "fit_icf", lambda *args: fits.append(args) or cg.fit_icf(*args))
        target = tmp_path / "missing-dir" / "file.tsv"
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--method", "ml-icf", flag, str(target),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and not target.exists()
        assert captured.err.startswith(f"error: cannot write {target}: ") and captured.err.count("\n") == 1
        assert captured.out == "" and fits == []  # checked before the fit, not after it has run

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

    def test_start_rejected_by_dual_and_el(self, tmp_path, capsys):
        # neither fit reads a starting value, so one is an input error
        est = tmp_path / "est.tsv"
        write_matrix(est, SIGMA_CHAIN, labels=("1", "2", "3", "4"))
        data = np.random.default_rng(1).standard_normal((60, 4)) @ np.linalg.cholesky(SIGMA_CHAIN).T
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(",".join(format(x, ".17g") for x in row) for row in data) + "\n")
        for method in ("dual", "el"):
            rc = main([
                "fit", "--graph", str(DATA / "fig1.graph"), "--data", str(obs),
                "--method", method, "--start", str(est),
            ])
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == ""
            assert "no starting value" in captured.err

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
        residual = next(l for l in out.splitlines() if l.startswith("residual "))
        assert float(residual.split()[1]) <= 1e-5
        assert not any(l.startswith("rejected-extrapolations") for l in out.splitlines())

    @pytest.mark.parametrize(
        "method, keys",
        [
            ("ml-icf", ["rejected-extrapolations", "newton-steps", "loglik", "deviance", "df", "detail",
                        "residual"]),
            ("ml-icf-multi", ["rejected-extrapolations", "newton-steps", "loglik", "deviance", "df", "detail",
                              "residual"]),
            ("ml-anderson", ["loglik", "deviance", "df", "detail", "residual"]),
            ("dual", ["loglik", "deviance-functional", "df", "detail", "residual"]),
            ("el", ["inner-solves", "loglik", "deviance-functional", "df", "detail", "residual",
                    "el-log-ratio"]),
        ],
    )
    def test_fit_prints_its_record_in_a_fixed_order(self, tmp_path, capsys, method, keys):
        data = np.random.default_rng(3).standard_normal((60, 4)) @ np.linalg.cholesky(SIGMA_CHAIN).T
        f = tmp_path / "obs.csv"
        f.write_text("\n".join(",".join(format(x, ".17g") for x in row) for row in data) + "\n")
        rc = main(["fit", "--graph", str(DATA / "fig1.graph"), "--data", str(f), "--method", method])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        head = [l.split()[0] for l in lines[: lines.index("matrix") + 1]]
        assert head == ["method", "n", "p", "converged", "iterations", *keys, "matrix"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--tol", "0"], "tol must be positive"),
            (["fit", "--max-iter", "0"], "max_iter must be at least 1"),
            (["fit", "--digits", "-1"], "--digits must be non-negative"),
            (["compare", "--tol", "0"], "tol must be positive"),
            (["fit", "--tol", "inf"], "tol must be finite"),
            (["compare", "--tol", "inf"], "tol must be finite"),
        ],
    )
    def test_bad_numeric_flag_exits_one_with_a_message(self, tmp_path, capsys, argv, message):
        rc = main([*argv, "--graph", str(DATA / "fig1.graph"), "--stats", str(_chain_stats(tmp_path))])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["dual", "el"])
    def test_trace_needs_a_sweep_method(self, tmp_path, capsys, method):
        # dual and el keep no per-sweep trace: refused before any fit, no file written
        data = np.random.default_rng(4).standard_normal((60, 4)) @ np.linalg.cholesky(SIGMA_CHAIN).T
        f, trace = tmp_path / "obs.csv", tmp_path / "t.tsv"
        f.write_text("\n".join(",".join(format(x, ".17g") for x in row) for row in data) + "\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"), "--data", str(f),
            "--method", method, "--trace", str(trace),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not trace.exists()
        assert captured.err == (
            f"error: --trace needs a sweep method (ml-icf, ml-icf-multi, ml-anderson), not {method}\n"
        )

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

    def test_trace_ends_at_the_reported_loglik(self, tmp_path, capsys):
        # the trace obeys --n-adjust as the loglik line does, for every ML method
        for method in ("ml-icf", "ml-icf-multi", "ml-anderson"):
            trace = tmp_path / f"{method}.trace"
            rc = main([
                "fit", "--graph", str(DATA / "gd.graph"), "--stats", str(DATA / "table1.stats"),
                "--method", method, "--n-adjust", "--trace", str(trace),
            ])
            out = capsys.readouterr().out
            assert rc == 0
            loglik = next(l.split()[1] for l in out.splitlines() if l.startswith("loglik"))
            assert trace.read_text().splitlines()[-1].split("\t")[1] == loglik


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

    def test_simulate_unwritable_out_exits_one_with_a_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVGRAPH_QUIET", "1")
        sig, target = tmp_path / "sigma.tsv", tmp_path / "missing-dir" / "report.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main([
            "simulate", "--sigma", str(sig), "--n", "25", "--reps", "2", "--methods", "dual",
            "--out", str(target),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not target.exists()
        assert captured.err.startswith(f"error: cannot write {target}: ") and captured.err.count("\n") == 1

    def test_simulate_unwritable_out_is_refused_before_the_simulation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVGRAPH_QUIET", "1")
        calls = []
        monkeypatch.setattr("covgraph.cli.run_simulation", lambda *a, **k: calls.append(a))
        sig, target = tmp_path / "sigma.tsv", tmp_path / "missing-dir" / "report.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main([
            "simulate", "--sigma", str(sig), "--n", "100", "--reps", "1000", "--methods", "ml-icf,dual,el",
            "--dist", "t", "--out", str(target),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and calls == [] and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("existing", [None, "old report\n"])
    def test_simulate_out_check_leaves_the_path_as_it_was(self, tmp_path, capsys, monkeypatch, existing):
        # the writability check runs before the simulation; a simulation
        # that then fails leaves no file behind, and an old one intact
        monkeypatch.setenv("COVGRAPH_QUIET", "1")

        def fail(*args, **kwargs):
            raise cg.ModelError("simulation failed")

        monkeypatch.setattr("covgraph.cli.run_simulation", fail)
        sig, target = tmp_path / "sigma.tsv", tmp_path / "report.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        if existing is not None:
            target.write_text(existing)
        rc = main(["simulate", "--sigma", str(sig), "--n", "25", "--reps", "2", "--methods", "dual",
                   "--out", str(target)])
        assert rc == 1 and capsys.readouterr().err == "error: simulation failed\n"
        assert (target.read_text() if target.exists() else None) == existing

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--methods", "dual,ml-icf,dual"], "repeated methods"),
            (["--n", "20,20"], "repeated sample sizes"),
            # an empty design would print a header without rows
            (["--methods", ","], "no methods given"),
            (["--n", ","], "no sample sizes given"),
        ],
    )
    def test_simulate_repeats_exit_one(self, tmp_path, capsys, flags, message):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main(["simulate", "--sigma", str(sig), "--reps", "2", *flags])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("sizes, named", [("0", "[0]"), ("20,1", "[1]"), ("-5", "[-5]")])
    def test_simulate_sample_size_below_two_exits_one(self, tmp_path, capsys, sizes, named):
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        rc = main(["simulate", "--sigma", str(sig), "--reps", "2", "--n", sizes])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: sample sizes must be at least 2: {named}\n"

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

    def test_fit_flags_only_on_fit_and_compare(self, tmp_path, capsys):
        # simulate and loglik run no iterative fit, so they take no --tol or --max-iter
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, SIGMA_CHAIN)
        stats = str(_chain_stats(tmp_path))
        for argv in (
            ["simulate", "--sigma", str(sig), "--reps", "1", "--methods", "dual", "--tol", "1e-6"],
            ["loglik", "--graph", str(DATA / "fig1.graph"), "--stats", stats, "--matrix", str(sig),
             "--max-iter", "3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        rc = main([
            "compare", "--graph", str(DATA / "fig1.graph"), "--stats", stats,
            "--methods", "ml-icf,dual", "--tol", "1e-6", "--max-iter", "3000",
        ])
        assert rc == 0

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

    @pytest.mark.parametrize("command", ["loglik", "compare"])
    def test_n_adjust_scales_every_printed_value(self, tmp_path, capsys, command):
        # every loglik, deviance-functional and dloglik value, times (n - 1) / n
        est = tmp_path / "est.tsv"
        inputs = ["--graph", str(DATA / "gd.graph"), "--stats", str(DATA / "table1.stats")]
        assert main(["fit", *inputs, "--method", "dual", "--out", str(est)]) == 0
        capsys.readouterr()
        extra = ["--matrix", str(est)] if command == "loglik" else [
            "--methods", "ml-icf,ml-icf-multi,ml-anderson,dual"]
        printed = {}
        for flag in (False, True):
            assert main([command, *inputs, *extra] + (["--n-adjust"] if flag else [])) == 0
            printed[flag] = [line.rsplit(" ", 1) for line in capsys.readouterr().out.splitlines()]
        scaled = 0
        for (key, plain), (same_key, adjusted) in zip(printed[False], printed[True], strict=True):
            assert key == same_key
            if key.split()[0] in ("loglik", "deviance-functional", "dloglik"):
                assert float(adjusted) == pytest.approx(float(plain) * 133 / 134, rel=1e-12)
                scaled += 1
            else:
                assert adjusted == plain
        assert scaled == (2 if command == "loglik" else 4 + 6)

    def test_compare_repeated_methods_exit_one_before_fitting(self, tmp_path, capsys, monkeypatch):
        import covgraph.cli as cli

        fits = []
        monkeypatch.setattr(cli, "_run_method", lambda m, *args: fits.append(m))
        rc = main([
            "compare", "--graph", str(DATA / "fig1.graph"),
            "--stats", str(_chain_stats(tmp_path)), "--methods", "ml-icf,dual,ml-icf",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and fits == []
        assert captured.err == "error: repeated methods: ['ml-icf']\n"


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


def _reversed_copy(src, dst):
    """The matrix file ``src`` rewritten with its variables in reverse order."""
    labels, m = load_matrix(src)
    write_matrix(dst, m[::-1, ::-1], labels=labels[::-1])


class TestLabelledInputsFollowGraphOrder:
    """Every labelled input is read in the graph's vertex order."""

    def _yeast_fit(self, tmp_path, capsys, method):
        est = tmp_path / f"{method}.tsv"
        rc = main([
            "fit", "--graph", str(DATA / "gd.graph"), "--stats", str(DATA / "table1.stats"),
            "--method", method, "--out", str(est),
        ])
        capsys.readouterr()
        assert rc == 0
        rev = tmp_path / f"{method}-reversed.tsv"
        _reversed_copy(est, rev)
        return est, rev

    def test_loglik_matrix_in_reversed_label_order(self, tmp_path, capsys):
        outs = []
        for est in self._yeast_fit(tmp_path, capsys, "ml-icf"):
            rc = main([
                "loglik", "--graph", str(DATA / "gd.graph"), "--stats", str(DATA / "table1.stats"),
                "--matrix", str(est),
            ])
            outs.append(capsys.readouterr().out)
            assert rc == 0
        assert outs[0] == outs[1]
        assert outs[0].startswith("loglik -1008.77957345942")

    def test_fit_start_in_reversed_label_order(self, tmp_path, capsys):
        # the dual estimate is a start some sweeps away from the ML estimate
        outs = []
        for start in self._yeast_fit(tmp_path, capsys, "dual"):
            rc = main([
                "fit", "--graph", str(DATA / "gd.graph"), "--stats", str(DATA / "table1.stats"),
                "--method", "ml-icf", "--start", str(start),
            ])
            outs.append(capsys.readouterr().out)
            assert rc == 0
        assert outs[0] == outs[1]
        assert "iterations 1\n" not in outs[0]

    def test_simulate_sigma_in_permuted_label_order(self, tmp_path, capsys):
        perm = [2, 3, 0, 1]
        labels = ("1", "2", "3", "4")
        files = {"graph-order": (SIGMA_CHAIN, labels)}
        files["permuted"] = (SIGMA_CHAIN[np.ix_(perm, perm)], tuple(labels[k] for k in perm))
        reports = []
        for name, (m, labs) in files.items():
            sig = tmp_path / f"{name}.tsv"
            write_matrix(sig, m, labels=labs)
            out = tmp_path / f"{name}-report.tsv"
            rc = main([
                "simulate", "--sigma", str(sig), "--graph", str(DATA / "fig1.graph"),
                "--seed", "4", "--n", "20", "--reps", "3", "--methods", "ml-icf,dual",
                "--out", str(out),
            ])
            assert rc == 0, capsys.readouterr().err
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_simulate_fits_the_given_supergraph(self, tmp_path, capsys):
        # sigma is zero on the edge 2-4 that the graph keeps free
        sigma = SIGMA_CHAIN.copy()
        sigma[1, 3] = sigma[3, 1] = 0.0
        sig = tmp_path / "sigma.tsv"
        write_matrix(sig, sigma, labels=("1", "2", "3", "4"))
        base = ["simulate", "--sigma", str(sig), "--seed", "5", "--n", "30", "--reps", "4",
                "--methods", "dual"]
        assert main(base + ["--graph", str(DATA / "fig1.graph")]) == 0
        fitted = capsys.readouterr().out
        assert main(base) == 0
        pattern = capsys.readouterr().out
        assert fitted != pattern
        rmse = {tuple(l.split("\t")[2:4]): float(l.split("\t")[5])
                for l in fitted.splitlines() if l.startswith("dual\t")}
        assert rmse[("2", "4")] > 0.0
        assert rmse[("1", "2")] == 0.0

    @pytest.mark.parametrize(
        "labels, named",
        [
            (("1", "2", "3", "5"), ["missing '4'", "extra '5'"]),
            (("1", "2", "3", "3"), ["missing '4'", "duplicate '3'"]),
            (("4", "3", "2", "1", "0"), ["extra '0'"]),
        ],
    )
    def test_bad_matrix_labels_exit_one_naming_them(self, tmp_path, capsys, labels, named):
        m = np.eye(len(labels))
        sig = tmp_path / "m.tsv"
        write_matrix(sig, m, labels=labels)
        stats = str(_chain_stats(tmp_path))
        graph = str(DATA / "fig1.graph")
        for argv in (
            ["loglik", "--graph", graph, "--stats", stats, "--matrix", str(sig)],
            ["fit", "--graph", graph, "--stats", stats, "--start", str(sig)],
            ["simulate", "--graph", graph, "--sigma", str(sig), "--reps", "1", "--methods", "dual"],
        ):
            rc = main(argv)
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == "", argv
            assert all(part in captured.err for part in named), captured.err

    @pytest.mark.parametrize(
        "header, named",
        [("1,2,3,x", ["missing '4'", "extra 'x'"]), ("1,2,4,4", ["missing '3'", "duplicate '4'"])],
    )
    def test_bad_table_labels_exit_one_naming_them(self, tmp_path, capsys, header, named):
        data = np.random.default_rng(2).standard_normal((30, 4))
        f = tmp_path / "obs.csv"
        f.write_text(header + "\n" + "\n".join(",".join(map(str, row)) for row in data) + "\n")
        rc = main([
            "fit", "--graph", str(DATA / "fig1.graph"), "--data", str(f), "--header", "yes",
        ])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert all(part in captured.err for part in named), captured.err

    def test_unlabelled_input_must_match_the_graph_size(self, tmp_path, capsys):
        sig = tmp_path / "m.tsv"
        write_matrix(sig, np.eye(3))
        rc = main([
            "loglik", "--graph", str(DATA / "fig1.graph"), "--stats", str(_chain_stats(tmp_path)),
            "--matrix", str(sig),
        ])
        assert rc == 1
        assert "3 unlabelled variables for 4 vertices" in capsys.readouterr().err
