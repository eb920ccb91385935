"""Tests for the dltl command line: flag parsing, dataset and weight file
IO, per-subcommand output shapes, exit codes, and byte-level determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dltl import cli
from dltl.cli import main, parse_float_list, parse_int_list, parse_range, read_dataset
from dltl.netcore import NetConfig, forward, init_weights, load_weights, save_weights


# ---------------------------------------------------------------------------
# fixtures: datasets, weight files, contraction specs


def _write_dataset(path, x, y):
    """x has one example per row; header is y,x1,...,xd."""
    d = x.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y"] + [f"x{i}" for i in range(1, d + 1)])
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(yi))] + [repr(float(v)) for v in xi])


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal(4)
    path = tmp_path / "data.csv"
    _write_dataset(path, x, y)
    return str(path), x, y


@pytest.fixture
def signed_dataset(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 4))
    y = np.where(rng.standard_normal(12) > 0, 1.0, -1.0)
    path = tmp_path / "signed.csv"
    _write_dataset(path, x, y)
    return str(path), x, y


def _save_net(path, widths, activation="linear", seed=0, **kwargs):
    config = NetConfig(widths=widths, activation=activation, **kwargs)
    weights = init_weights(config, seed=seed)
    save_weights(path, config, weights)
    return config, weights


@pytest.fixture
def ntk_net(tmp_path):
    path = tmp_path / "ntk_net.json"
    _save_net(path, (3, 8, 1), activation="relu", parameterization="ntk",
              sigma_w2=2.0, seed=21)
    return str(path)


@pytest.fixture
def wick_spec(tmp_path):
    path = tmp_path / "spec.json"
    doc = {"m": 4, "depth": 1, "contractions": [], "inputs": [[1.2]] * 4}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# pure parsing helpers


class TestParsers:
    def test_range_inclusive(self):
        assert parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_range_endpoint_survives_rounding(self):
        """Accumulated float error in hi/step must not drop the endpoint."""
        values = parse_range("1:2:0.1")
        assert len(values) == 11
        np.testing.assert_allclose(values[-1], 2.0, rtol=1e-12)

    def test_range_single_point(self):
        assert parse_range("3:3:1") == [3.0]

    def test_range_errors(self):
        with pytest.raises(cli.UsageError, match="lo:hi:step"):
            parse_range("1:2")
        with pytest.raises(cli.UsageError, match="non-numeric"):
            parse_range("a:b:c")
        with pytest.raises(cli.UsageError, match="step > 0"):
            parse_range("2:1:0.5")
        with pytest.raises(cli.UsageError, match="step > 0"):
            parse_range("1:2:0")
        for text in ("0.5:inf:0.5", "nan:2:0.5", "0:1:nan", "-inf:0:1"):
            with pytest.raises(cli.UsageError, match="finite"):
                parse_range(text)
        with pytest.raises(cli.UsageError, match="more than"):
            parse_range("0:1e300:1e-300")

    def test_lists(self):
        assert parse_float_list("1.5,2,3.25") == [1.5, 2.0, 3.25]
        assert parse_int_list("8,32,128") == [8, 32, 128]
        with pytest.raises(cli.UsageError, match="non-numeric list"):
            parse_float_list("1,x")
        with pytest.raises(cli.UsageError, match="non-integer list"):
            parse_int_list("1,2.5")

    def test_read_dataset_roundtrip(self, dataset):
        path, x, y = dataset
        x_read, y_read = read_dataset(path)
        np.testing.assert_allclose(x_read, x, rtol=1e-15)
        np.testing.assert_allclose(y_read, y, rtol=1e-15)

    def test_read_dataset_skips_blank_rows(self, tmp_path):
        plain, blank = tmp_path / "p.csv", tmp_path / "b.csv"
        plain.write_text("y,x1\n1,2\n3,4\n", encoding="utf-8")
        blank.write_text("y,x1\n\n1,2\n\n3,4\n\n", encoding="utf-8")
        for got, want in zip(read_dataset(str(blank)), read_dataset(str(plain)), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_read_dataset_errors(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("y,a,b\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header must be"):
            read_dataset(str(bad_header))
        empty = tmp_path / "e.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty dataset"):
            read_dataset(str(empty))
        no_rows = tmp_path / "n.csv"
        no_rows.write_text("y,x1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            read_dataset(str(no_rows))
        bad_value = tmp_path / "v.csv"
        bad_value.write_text("y,x1\n1,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric value"):
            read_dataset(str(bad_value))
        short_row = tmp_path / "s.csv"
        short_row.write_text("y,x1,x2\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 3 fields"):
            read_dataset(str(short_row))

    def test_render_csv_cells(self):
        """Floats via repr, None empty, LF endings; phase writes its bool
        marginal column as 0/1 in csv and true/false in json."""
        buf = io.StringIO()
        cli.render_csv(("a", "b", "c"), [(0.1, None, "x"), (2, 1e-17, None)], buf)
        text = buf.getvalue()
        assert text == "a,b,c\n0.1,,x\n2,1e-17,\n"
        assert "\r" not in text
        argv = ["phase", "--act", "linear", "--sigma-w2", "1:1.5:0.5"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert [row[-1] for row in csv.reader(io.StringIO(out.getvalue()))] == ["marginal", "1", "0"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--format", "json"]) == 0
        assert [p["marginal"] for p in json.loads(out.getvalue())["points"]] == [True, False]

    def test_failed_render_leaves_no_file(self, tmp_path):
        """--out and --mc-out are written to a temporary file that replaces
        the target after the last byte: a row generator that raises leaves
        neither a partial target nor the temporary file, and an existing
        target as it was."""
        def rows():
            yield (1, 2.5)
            raise ValueError("row 2 failed")

        out, extra = tmp_path / "out.csv", tmp_path / "mc.csv"
        extra.write_text("kept\n", encoding="utf-8")
        for emission in (cli.Emission(("a", "b"), rows(), {}),
                         cli.Emission(("a", "b"), [(1, 2.5)], {}, extra_files=((str(extra), ("a", "b"), rows()),))):
            with pytest.raises(ValueError, match="row 2 failed"):
                cli._emit(emission, argparse.Namespace(fmt="csv", out=str(out)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mc.csv", "out.csv"]
        assert out.read_text(encoding="utf-8") == "a,b\n1,2.5\n"
        assert extra.read_text(encoding="utf-8") == "kept\n"
        out.unlink()
        with pytest.raises(ValueError, match="row 2 failed"):
            cli._emit(cli.Emission(("a", "b"), rows(), {}), argparse.Namespace(fmt="csv", out=str(out)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mc.csv"]

    def test_render_json_shape(self):
        buf = io.StringIO()
        cli.render_json({"b": 1.5, "a": [1, 2], "inf": math.inf, "nan": math.nan}, buf)
        text = buf.getvalue()
        doc = json.loads(text)
        assert doc == {"a": [1, 2], "b": 1.5, "inf": "inf", "nan": "nan"}
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_render_json_arrays(self):
        """An all-finite float array is written from its own list; one with
        inf or nan, an integer and a bool array are converted per entry."""
        buf = io.StringIO()
        cli.render_json({"f": np.array([[0.1, -0.0], [1e-300, 2.0]]), "i": np.arange(2),
                         "b": np.array([True, False]), "n": np.array([1.5, math.inf, -math.nan])}, buf)
        assert json.loads(buf.getvalue()) == {"b": [True, False], "f": [[0.1, -0.0], [1e-300, 2.0]],
                                              "i": [0, 1], "n": [1.5, "inf", "nan"]}
        assert "-0.0" in buf.getvalue()


# ---------------------------------------------------------------------------
# exit codes


class TestExitCodes:
    def test_no_arguments_is_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["phase", "--help"]) == 0

    def test_malformed_range_is_usage(self, capsys):
        code = main(["phase", "--act", "relu", "--sigma-w2", "1;2;3"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_activation_is_domain_error(self, capsys):
        code = main(["phase", "--act", "bogus", "--sigma-w2", "1:2:1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        code = main(["align", "--data", str(tmp_path / "missing.csv")])
        assert code == 1

    def test_bad_seed_is_usage(self, capsys):
        code = main(["phase", "--act", "relu", "--sigma-w2", "1:2:1",
                     "--seed", "-3"])
        assert code == 2

    def test_invalid_depth_is_domain_error(self, capsys):
        code = main(["lengthmap", "--act", "relu", "--sigma-w2", "2.0",
                     "--depth", "0"])
        assert code == 1

    def test_kernel_source_must_be_exactly_one(self, dataset, ntk_net, capsys):
        path, _, _ = dataset
        both = main(["ntk-kernel", "--data", path, "--weights", ntk_net,
                     "--widths", "3,8,1"])
        neither = main(["ntk-kernel", "--data", path])
        assert both == 2
        assert neither == 2

    def test_empirical_kernel_needs_weights(self, dataset, capsys):
        path, _, _ = dataset
        code = main(["ntk-kernel", "--data", path, "--widths", "3,8,1",
                     "--kind", "empirical"])
        assert code == 2

    def test_wick_mc_csv_needs_mc_out(self, wick_spec, capsys):
        code = main(["wick", "--spec", wick_spec, "--mc", "--format", "csv"])
        assert code == 2
        assert "mc-out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand outputs


class TestPhase:
    def test_csv_table(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = main(["phase", "--act", "relu", "--sigma-w2", "1:3:1",
                     "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["sigma_w2", "q_inf", "chi1", "phase", "marginal"]
        assert len(rows) == 4
        by_sigma = {row[0]: row for row in rows[1:]}
        assert by_sigma["2.0"][2] == "1.0"
        assert by_sigma["2.0"][4] == "1"

    def test_json_document(self, tmp_path):
        out = tmp_path / "phase.json"
        code = main(["phase", "--act", "tanh", "--sigma-w2", "0.5:1.5:0.5",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["activation"] == "tanh"
        assert len(doc["points"]) == 3
        assert {"sigma_w2", "q_inf", "chi1", "phase", "marginal"} <= set(
            doc["points"][0]
        )

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["phase", "--act", "linear", "--sigma-w2", "1:1:1"]) == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == "sigma_w2,q_inf,chi1,phase,marginal"

    def test_out_to_a_device_is_written_in_place(self, capsys):
        """A path that exists and is not a regular file is written, not
        renamed over: os.devnull stays a device."""
        assert main(["phase", "--act", "linear", "--sigma-w2", "1:1:1", "--out", os.devnull]) == 0
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
        assert capsys.readouterr().out == ""


class TestLengthmap:
    def test_relu_critical_point_is_fixed(self, tmp_path):
        """sigma_w^2 = 2 relu preserves q = 1 exactly, chi1 = 1 per layer."""
        out = tmp_path / "lm.csv"
        code = main(["lengthmap", "--act", "relu", "--sigma-w2", "2.0",
                     "--depth", "6", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["layer", "q", "chi1"]
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(7)]
        for row in rows[1:]:
            np.testing.assert_allclose(float(row[1]), 1.0, atol=1e-12)
            np.testing.assert_allclose(float(row[2]), 1.0, atol=1e-10)


class TestSpectrum:
    def test_analytic_depth_one(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--analytic", "--depth", "1",
                     "--points", "2001", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        np.testing.assert_allclose(doc["lambda_max"], 4.0, rtol=1e-10)
        np.testing.assert_allclose(doc["mass"], 1.0, atol=2e-4)
        np.testing.assert_allclose(doc["mean"], 1.0, atol=2e-4)

    def test_empirical_histogram(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = main(["spectrum", "--empirical", "--depth", "1", "--width", "32",
                     "--replicates", "2", "--bins", "8", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["bin_left", "bin_right", "density"]
        assert len(rows) == 9

    @pytest.mark.parametrize("flags, value", [([], 1.0), (["--depth", "3", "--sigma-w2", "2"], 8.0)],
                             ids=["depth-1", "depth-3-sigma-w2-2"])
    def test_orthogonal_linear_spectrum_is_one_bin(self, tmp_path, flags, value):
        """A linear net with scaled orthogonal layers has J J^T =
        sigma_w^(2L) I exactly (dynamical isometry), so all the mass sits in
        one bin at sigma_w^(2L): 1 at sigma_w^2 = 1, and 2^3 = 8 at depth
        L = 3 and sigma_w^2 = 2, where the eigenvalues spread over 3.7e-15
        relative."""
        out = tmp_path / "hist.json"
        code = main(["spectrum", "--empirical", "--width", "8", "--replicates", "3", "--bins", "6",
                     "--seed", "7", "--init", "orthogonal", *flags, "--format", "json", "--out", str(out)])
        assert code == 0
        full = [b for b in json.loads(out.read_text(encoding="utf-8"))["bins"] if b["density"] > 0]
        assert len(full) == 1
        assert full[0]["left"] <= value <= full[0]["right"]
        assert full[0]["density"] * (full[0]["right"] - full[0]["left"]) == pytest.approx(1.0)


class TestLindyn:
    def test_losses_reach_tolerance(self, tmp_path):
        out = tmp_path / "gd.json"
        code = main(["lindyn", "--depth", "2", "--svals", "1.0,0.7",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        losses = doc["losses"]
        assert doc["steps_to_tol"] == len(losses) - 1
        assert losses[-1] <= 1e-4 * (1.0 + 0.49)
        assert losses[0] > losses[-1]
        np.testing.assert_allclose(doc["targets"], [1.0, 0.7], rtol=1e-12)

    def test_csv_is_step_loss_table(self, tmp_path):
        out = tmp_path / "gd.csv"
        code = main(["lindyn", "--depth", "2", "--svals", "1.0",
                     "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["step", "loss"]
        assert rows[1][0] == "0"

    def test_default_rate_at_a_subnormal_u0(self, tmp_path):
        """The default rate once came from opt_schedule with an invented
        target, whose arrival time from u0 = 1e-320 leaves float range, so
        the call exited 1; the rate reads neither u0 nor a target."""
        out = tmp_path / "gd.json"
        code = main(["lindyn", "--depth", "1", "--svals", "1.0,0.5", "--u0", "1e-320",
                     "--max-steps", "3000", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["eta"] == 0.5
        assert doc["steps_to_tol"] == 1655

    def test_divergent_rate_is_domain_error(self, capsys):
        code = main(["lindyn", "--depth", "2", "--svals", "1.0",
                     "--eta", "5.0", "--max-steps", "50"])
        assert code == 1
        assert "diverged" in capsys.readouterr().err


class TestPath:
    def test_path_between_random_nets(self, tmp_path):
        wa = tmp_path / "a.json"
        wb = tmp_path / "b.json"
        _save_net(wa, (6, 8, 4, 1), seed=11)
        _save_net(wb, (6, 8, 4, 1), seed=12)
        rng = np.random.default_rng(13)
        data = tmp_path / "path_data.csv"
        _write_dataset(data, rng.standard_normal((5, 6)), rng.standard_normal(5))
        out = tmp_path / "path.json"
        code = main(["path", "--weights-a", str(wa), "--weights-b", str(wb),
                     "--data", str(data), "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["meeting_loss"] < 1e-6
        assert doc["max_rise"] <= 1e-6
        assert [seg["name"] for seg in doc["segments"]] == [
            "first_layer_a", "upper_a", "output_a", "output_b", "first_layer_b",
        ]

    @pytest.mark.parametrize("net_a, net_b, message", [
        ({"widths": (6, 8, 4, 1)}, {"widths": (6, 4, 1)}, "disagree on the architecture"),
        # B's weights once ran under A's forward scale, and exit 0
        ({"widths": (6, 8, 4, 1), "parameterization": "ntk", "sigma_w2": 1.0},
         {"widths": (6, 8, 4, 1), "parameterization": "ntk", "sigma_w2": 4.0}, "disagree on the architecture"),
        # every output was once scored against the one label column, and exit 0
        ({"widths": (6, 8, 4, 2)}, {"widths": (6, 8, 4, 2)}, "need a label per output and column, 2 x 5, got 5 labels"),
    ])
    def test_mismatch_is_domain_error(self, tmp_path, capsys, net_a, net_b, message):
        wa = tmp_path / "a.json"
        wb = tmp_path / "b.json"
        _save_net(wa, seed=11, **net_a)
        _save_net(wb, seed=12, **net_b)
        rng = np.random.default_rng(13)
        data = tmp_path / "d.csv"
        _write_dataset(data, rng.standard_normal((5, 6)), rng.standard_normal(5))
        code = main(["path", "--weights-a", str(wa), "--weights-b", str(wb),
                     "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_tanh_nets_are_rejected_where_they_enter(self, tmp_path, capsys):
        """tanh is not bijective on R; the call once reached the reconstruction
        and failed there with "tanh inverse needs values inside (-1, 1)"."""
        wa = tmp_path / "a.json"
        wb = tmp_path / "b.json"
        _save_net(wa, (6, 8, 4, 1), activation="tanh", seed=11)
        _save_net(wb, (6, 8, 4, 1), activation="tanh", seed=12)
        rng = np.random.default_rng(13)
        data = tmp_path / "d.csv"
        _write_dataset(data, rng.standard_normal((5, 6)), rng.standard_normal(5))
        code = main(["path", "--weights-a", str(wa), "--weights-b", str(wb),
                     "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "activation tanh is not bijective on R; reconstruction needs linear or leaky_relu" in err

    def test_logistic_needs_signed_labels(self, tmp_path, capsys):
        wa = tmp_path / "a.json"
        _save_net(wa, (6, 8, 4, 1), seed=11)
        rng = np.random.default_rng(13)
        data = tmp_path / "d.csv"
        _write_dataset(data, rng.standard_normal((5, 6)), rng.standard_normal(5))
        code = main(["path", "--weights-a", str(wa), "--weights-b", str(wa),
                     "--data", str(data), "--loss", "logistic"])
        assert code == 1
        assert "labels" in capsys.readouterr().err


class TestNtkKernel:
    def test_limiting_from_widths(self, dataset, tmp_path):
        path, x, _ = dataset
        out = tmp_path / "gram.json"
        code = main(["ntk-kernel", "--data", path, "--widths", "3,16,1",
                     "--act", "relu", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["tag"] == "limiting_ntk"
        assert doc["size"] == 4
        assert doc["lambda_min"] >= -1e-8
        matrix = np.asarray(doc["matrix"])
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_empirical_from_weight_file(self, dataset, ntk_net, tmp_path):
        path, _, _ = dataset
        out = tmp_path / "gram.csv"
        code = main(["ntk-kernel", "--data", path, "--weights", ntk_net,
                     "--kind", "empirical", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["i", "j", "value"]
        assert len(rows) == 1 + 16

    def test_dimension_mismatch_is_domain_error(self, dataset, capsys):
        path, _, _ = dataset
        code = main(["ntk-kernel", "--data", path, "--widths", "5,16,1"])
        assert code == 1
        assert "dimension" in capsys.readouterr().err


class TestNtkTrain:
    def test_infinite_time_interpolates(self, dataset, ntk_net, tmp_path):
        path, _, y = dataset
        out = tmp_path / "train.json"
        code = main(["ntk-train", "--weights", ntk_net, "--data", path,
                     "--times", "0,inf", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [snap["t"] for snap in doc["predictions"]] == [0.0, "inf"]
        final = doc["predictions"][1]
        np.testing.assert_allclose(final["f_lin"], y, atol=1e-8)

    def test_csv_serializes_inf_time(self, dataset, ntk_net, tmp_path):
        path, _, _ = dataset
        out = tmp_path / "train.csv"
        code = main(["ntk-train", "--weights", ntk_net, "--data", path,
                     "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["t", "index", "f_lin", "gp_mean", "gp_sd"]
        assert rows[1][0] == "inf"

    def test_data_of_another_width_meets_the_handlers_check(self, ntk_net, tmp_path, capsys):
        """The weight check's forward pass leaves data of the wrong width
        alone, so the message is that of the training call."""
        data = tmp_path / "d.csv"
        _write_dataset(data, np.ones((4, 2)), np.zeros(4))
        assert main(["ntk-train", "--weights", ntk_net, "--data", str(data)]) == 1
        assert capsys.readouterr().err == "error: dataset must have shape (3, m), got (2, 4)\n"


class TestDuMonitor:
    def test_synthetic_run_shape(self, tmp_path):
        out = tmp_path / "du.csv"
        code = main(["du-monitor", "--dim", "4", "--train-size", "3",
                     "--n", "64", "--eta", "0.5", "--t-max", "2.0",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["t", "loss", "envelope", "lambda_min_h",
                           "max_displacement", "h_drift"]
        assert len(rows) == 6
        losses = [float(r[1]) for r in rows[1:]]
        assert losses[-1] < losses[0]

    def test_data_file_columns_are_normalized(self, tmp_path):
        """--data puts each example on the unit sphere: a file and the same
        file with every row scaled by 2 give the same trajectory."""
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((4, 3)), rng.uniform(-0.9, 0.9, size=4)
        datas, outs = [tmp_path / "a.csv", tmp_path / "b.csv"], [tmp_path / "a.out", tmp_path / "b.out"]
        for data, out, scale in zip(datas, outs, (1.0, 2.0)):
            _write_dataset(data, scale * x, y)
            assert main(["du-monitor", "--data", str(data), "--n", "32", "--t-max", "1", "--out", str(out)]) == 0
        assert _read_rows(outs[0]) == _read_rows(outs[1])
        assert len(_read_rows(outs[0])) > 2

    def test_zero_input_rejected(self, tmp_path, capsys):
        data = tmp_path / "z.csv"
        data.write_text("y,x1,x2\n0.5,0,0\n", encoding="utf-8")
        code = main(["du-monitor", "--data", str(data)])
        assert code == 1
        assert "normalized" in capsys.readouterr().err


class TestAlign:
    def test_residual_curve(self, dataset, tmp_path):
        path, _, y = dataset
        out = tmp_path / "align.json"
        code = main(["align", "--data", path, "--points", "50",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        curve = np.asarray(doc["curve"])
        np.testing.assert_allclose(curve[0], y @ y, rtol=0.05)
        assert np.all(np.diff(curve) <= 1e-12)
        assert len(doc["eigenvalues"]) == 4


class TestWick:
    def test_exact_terms_table(self, wick_spec, tmp_path):
        out = tmp_path / "wick.csv"
        code = main(["wick", "--spec", wick_spec, "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["power_of_inv_n", "coefficient", "monomial"]
        assert [r[:2] for r in rows[1:]] == [["0", "3"], ["1", "6"]]

    def test_json_document_with_mc(self, wick_spec, tmp_path):
        out = tmp_path / "wick.json"
        code = main(["wick", "--spec", wick_spec, "--mc",
                     "--widths", "4,8,16", "--replicates", "200",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["conjectured_exponent"] == 0.0
        assert doc["diagram_count"] == 9
        assert doc["mc"]["widths"] == [4, 8, 16]
        assert len(doc["mc"]["means"]) == 3

    def test_mc_out_writes_side_table(self, wick_spec, tmp_path):
        out = tmp_path / "wick.csv"
        mc_out = tmp_path / "mc.csv"
        code = main(["wick", "--spec", wick_spec, "--mc",
                     "--widths", "4,8,16", "--replicates", "200",
                     "--mc-out", str(mc_out), "--out", str(out)])
        assert code == 0
        rows = _read_rows(mc_out)
        assert rows[0] == ["width", "mc_mean", "mc_se", "mc_variance", "exact"]
        assert len(rows) == 4

    def test_bad_spec_keys_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 4, "depth": 1, "order": 2}),
                       encoding="utf-8")
        code = main(["wick", "--spec", str(bad)])
        assert code == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"m": 2, "depth": 1, "inputs": [[math.nan], [1.0]]},
         "input of factor 1 must be a finite number or 1-D vector, got [nan]"),
        ({"m": 2, "depth": 1, "inputs": [[[1.0]], [[2.0]]]},
         "input of factor 1 must be a finite number or 1-D vector, got [[1.0]]"),
        ({"m": 2, "depth": 1.5, "inputs": [[1.0]] * 2}, "depth must be an integer, got 1.5"),
        ({"m": 2, "depth": True, "inputs": [[1.0]] * 2}, "depth must be an integer, got True"),
        ({"m": 2.9, "depth": 1, "inputs": [[1.0]] * 2}, "m must be an integer, got 2.9"),
        ({"m": 2, "depth": 1, "contractions": [[1.7, 2.2]], "inputs": [[1.0]] * 2},
         "contraction [1.7, 2.2] is not a pair of integer factor indices"),
        ({"m": 2, "depth": 1, "contractions": [[1, 2, 3]], "inputs": [[1.0]] * 2},
         "contraction [1, 2, 3] is not a pair of integer factor indices"),
        ({"m": 2, "depth": 1, "contractions": 5, "inputs": [[1.0]] * 2}, "contractions and inputs must be lists"),
        ([2, 1], "expected a JSON object"),
        ({"m": 4, "depth": 1, "contractions": [[1, 2]] * 30, "inputs": [[1.0]] * 4},
         "30 contractions at depth 1 give more than 2000000 type assignments"),
        ({"m": 2, "depth": 64, "inputs": [[1.0]] * 2}, "depth 64 exceeds the supported 63"),
    ])
    def test_spec_checked_where_it_enters(self, doc, message, tmp_path, capsys):
        """A nan input once gave nan means, exacts and slopes with exit 0, a
        1 x 1 input a TypeError traceback, non-integers were truncated, a
        three-entry contraction failed to unpack, 30 contractions walked 2^30
        assignments and depth 64 hit numpy's 64-axis limit."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["wick", "--spec", str(spec), "--mc", "--widths", "2,3,4", "--replicates", "2",
                     "--format", "json", "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)
        assert not (tmp_path / "out.json").exists()


class TestBounds:
    def test_all_families_table(self, signed_dataset, tmp_path):
        path, _, _ = signed_dataset
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--weights", str(net), "--data", path,
                     "--replicates", "50", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["family", "bound"]
        assert [r[0] for r in rows[1:]] == ["bartlett", "neyshabur", "pacbayes"]
        for row in rows[1:]:
            assert float(row[1]) > 0.0

    def test_single_family_json(self, signed_dataset, tmp_path):
        path, _, _ = signed_dataset
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        out = tmp_path / "b.json"
        code = main(["bounds", "--weights", str(net), "--data", path,
                     "--family", "bartlett", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["family"] == "bartlett"
        assert doc["bound"] > 0.0

    def test_nonpositive_sigma_is_domain_error(self, signed_dataset, tmp_path,
                                               capsys):
        path, _, _ = signed_dataset
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        code = main(["bounds", "--weights", str(net), "--data", path,
                     "--family", "pacbayes", "--sigma", "0"])
        assert code == 1


class TestFuzzFoundHoles:
    """Inputs on which the CLI fuzz once raised out of main (OverflowError,
    ZeroDivisionError, IndexError) or ran on a nan horizon: each now exits 1
    with a one-line message."""

    def _exits_one(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    @pytest.mark.parametrize("argv, message", [
        (["du-monitor", "--t-max", "inf"], "must be positive and finite"),
        (["du-monitor", "--eta", "inf"], "must be positive and finite"),
        (["du-monitor", "--eta", "nan"], "must be positive and finite"),
        (["du-monitor", "--dim", "0"], "pairwise non-parallel"),
        (["du-monitor", "--dim", "1", "--train-size", "3"], "pairwise non-parallel"),
    ])
    def test_du_monitor(self, capsys, argv, message):
        self._exits_one(capsys, argv, message)

    def test_align_without_mc_samples(self, capsys, dataset):
        argv = ["align", "--data", dataset[0], "--method", "mc", "--mc-samples", "0"]
        self._exits_one(capsys, argv, "mc_samples must be at least 1")

    def test_align_on_overflowing_inputs(self, capsys, tmp_path):
        data = tmp_path / "big.csv"
        _write_dataset(data, np.array([[1e300]]), np.array([0.5]))
        self._exits_one(capsys, ["align", "--data", str(data)], "data row 1: squared norm inf is not finite")

    def test_align_on_zero_inputs(self, capsys, tmp_path):
        data = tmp_path / "zero.csv"
        _write_dataset(data, np.zeros((2, 2)), np.array([0.5, 0.2]))
        self._exits_one(capsys, ["align", "--data", str(data)], "positive finite top eigenvalue")

    def test_path_needs_two_grid_points(self, capsys, tmp_path):
        wa, wb, data = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "d.csv"
        _save_net(wa, (6, 8, 4, 1), seed=11)
        _save_net(wb, (6, 8, 4, 1), seed=12)
        _write_dataset(data, np.random.default_rng(13).standard_normal((5, 6)), np.zeros(5))
        argv = ["path", "--weights-a", str(wa), "--weights-b", str(wb), "--data", str(data)]
        self._exits_one(capsys, argv + ["--grid-points", "0"], "grid_points must be at least 2")
        self._exits_one(capsys, argv + ["--epsilon", "nan"], "epsilon must be at least 1e-8")

    def test_bounds_kl_overflow(self, capsys, signed_dataset, tmp_path):
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        argv = ["bounds", "--weights", str(net), "--data", signed_dataset[0], "--family", "pacbayes",
                "--sigma", "1e-300", "--replicates", "2"]
        self._exits_one(capsys, argv, "posterior scale --sigma 1e-300 is too small: 1/sigma^2 overflows")


class TestDeterminism:
    def _run_twice(self, argv, out_a, out_b):
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        return out_a.read_bytes(), out_b.read_bytes()

    def test_empirical_spectrum_reruns_byte_identical(self, tmp_path):
        argv = ["spectrum", "--empirical", "--depth", "1", "--width", "32",
                "--replicates", "2", "--bins", "8", "--seed", "7"]
        a, b = self._run_twice(argv, tmp_path / "a.csv", tmp_path / "b.csv")
        assert a == b

    def test_mc_bound_reruns_byte_identical(self, signed_dataset, tmp_path):
        path, _, _ = signed_dataset
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        argv = ["bounds", "--weights", str(net), "--data", path,
                "--family", "pacbayes", "--replicates", "40", "--seed", "9",
                "--format", "json"]
        a, b = self._run_twice(argv, tmp_path / "a.json", tmp_path / "b.json")
        assert a == b

    def test_wick_mc_reruns_byte_identical(self, wick_spec, tmp_path):
        argv = ["wick", "--spec", wick_spec, "--mc", "--widths", "4,8,16",
                "--replicates", "100", "--seed", "2", "--format", "json"]
        a, b = self._run_twice(argv, tmp_path / "a.json", tmp_path / "b.json")
        assert a == b


class TestThreadCap:
    def test_env_var_propagates_to_blas_pools(self):
        """DLTL_THREADS must reach the BLAS variables before numpy loads, so
        check in a fresh interpreter rather than this process."""
        env = dict(os.environ, DLTL_THREADS="2")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            env.pop(var, None)
        script = ("import dltl, os;"
                  "print(os.environ['OMP_NUM_THREADS'],"
                  " os.environ['OPENBLAS_NUM_THREADS'])")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["2", "2"]

    def test_explicit_setting_wins(self):
        env = dict(os.environ, DLTL_THREADS="2", OMP_NUM_THREADS="4")
        script = "import dltl, os; print(os.environ['OMP_NUM_THREADS'])"
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "4"


class TestDomainHolesExitOne:
    """Inputs that once crashed with a traceback or printed inf rows: each
    must now exit 1 with a one-line message. Run in a fresh interpreter so
    an uncaught exception would show on stderr as a traceback."""

    def _run(self, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "dltl.cli", *argv], env=env,
                              capture_output=True, text=True)

    @pytest.mark.parametrize("argv, message", [
        (["du-monitor", "--train-size", "0"], "no examples"),
        (["du-monitor", "--n", "0"], "hidden width n must be at least 1"),
        (["lengthmap", "--act", "relu", "--sigma-w2", "1e200"], "length map overflowed"),
        (["spectrum", "--analytic", "--points", "0"], "at least 2 points"),
        (["spectrum", "--analytic", "--points", "1"], "at least 2 points"),
        (["spectrum", "--empirical", "--replicates", "0"], "replicates must be at least 1"),
        (["lindyn", "--svals", ",,"], "target_svals must be a nonempty 1-D sequence"),
        (["lindyn", "--svals", "1e300"], "too large"),
        (["lindyn", "--depth", "2", "--svals", "5e-297"], "too small"),
        # tolerance and loss underflowed together: 1e-300 "converged" at step
        # 0, and 1e-160 ran every step before failing a tolerance of 0
        (["lindyn", "--depth", "1", "--svals", "1e-300", "--u0", "1e-301"],
         "target_svals are too small: their sum of squares 0 underflows"),
        (["lindyn", "--depth", "1", "--svals", "1e-160", "--u0", "1e-170"],
         "target_svals are too small: their sum of squares 9.99989e-321 underflows"),
        (["lindyn", "--u0", "0"], "u0 = 0 sits at the degenerate fixed point"),
        (["lindyn", "--u0", "-1"], "u0 must be positive, got -1.0"),
        (["lindyn", "--svals", "1", "--max-steps", "-1"], "max_steps must be >= 0"),
        (["lindyn", "--eta", "nan"], "learning rate must be positive and finite"),
        (["lindyn", "--eta", "inf"], "learning rate must be positive and finite"),
        (["lindyn", "--tol-loss", "nan"], "tol_loss must be finite"),
        (["lindyn", "--svals", "nan"], "target singular value must be positive and finite, got nan"),
        # a given rate once skipped the u0 check: nan was blamed on the rate,
        # and 0 ran every --max-steps step before failing the tolerance
        (["lindyn", "--u0", "nan", "--eta", "0.3"], "u0 must be positive, got nan"),
        (["lindyn", "--u0", "0", "--eta", "0.3"], "u0 = 0 sits at the degenerate fixed point"),
        (["phase", "--act", "tanh", "--sigma-w2", "0.5:2:0.5", "--tol", "nan"], "tol must be finite"),
        (["phase", "--act", "relu", "--sigma-w2", "0.5:2:0.5", "--tol", "-1"], "tol must be finite"),
        (["phase", "--act", "relu", "--sigma-w2", "1:3:1", "--q0", "nan"], "must be finite and nonnegative"),
        (["phase", "--act", "relu", "--sigma-w2", "1:3:1", "--q0", "inf"], "must be finite and nonnegative"),
        (["phase", "--act", "tanh", "--sigma-w2", "0.5:2:0.5", "--q0", "inf"], "q0 must be finite"),
        (["lengthmap", "--act", "tanh", "--sigma-w2", "1.5", "--q0", "inf"], "must be finite and nonnegative"),
        (["lengthmap", "--act", "relu", "--sigma-w2", "1.5", "--q0", "nan"], "must be finite and nonnegative"),
        (["lengthmap", "--act", "relu", "--sigma-w2", "nan"], "sigma_w2 must be positive and finite"),
        (["spectrum", "--empirical", "--width", "4", "--replicates", "2", "--sigma-w2", "nan"],
         "sigma_w2 must be positive and finite"),
        (["du-monitor", "--eta", "1e-5"], "exceeds the cap of 200000"),
        (["du-monitor", "--eta", "1e-300", "--t-max", "1e300"], "exceeds the cap of 200000"),
        (["lengthmap", "--act", "tanh", "--sigma-w2", "1.5", "--nodes", "0"], "nodes must be a positive integer"),
        (["lengthmap", "--act", "relu", "--sigma-w2", "2", "--nodes", "0"], "nodes must be a positive integer, got 0"),
        (["lengthmap", "--act", "linear", "--sigma-w2", "1", "--nodes", "-3"],
         "nodes must be a positive integer, got -3"),
        *(
            (["spectrum", "--analytic", "--depth", depth, "--points", points],
             f"error: the depth-{depth} spectrum curve leaves float range")
            for depth in ("50", "100", "300") for points in ("50", "2001")
        ),
    ])
    def test_exits_one_with_message(self, argv, message):
        proc = self._run(*argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["ntk-kernel", "--widths", "3,8,1", "--act", "relu"],
        ["ntk-kernel", "--widths", "3,8,1", "--act", "tanh", "--sigma-w2", "1.5"],
        ["ntk-kernel", "--weights", "{net}", "--kind", "empirical"],
        ["ntk-train", "--weights", "{net}"],
        ["ntk-train", "--weights", "{net}", "--kernel", "empirical"],
    ])
    def test_nodes_checked_where_the_flag_enters(self, dataset, ntk_net, argv):
        """--nodes 0 once exited 0 wherever no tanh moment reached the
        quadrature rule; every kind now rejects it alike."""
        proc = self._run(*[tok.format(net=ntk_net) for tok in argv], "--data", dataset[0], "--nodes", "0")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: nodes must be a positive integer, got 0"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("nodes", ["400", "100000"])
    @pytest.mark.parametrize("argv", [
        ["lengthmap", "--act", "tanh", "--sigma-w2", "1.5"],
        ["ntk-kernel", "--data", "{data}", "--widths", "3,4,1", "--act", "relu"],
    ])
    def test_nodes_beyond_the_rule_numpy_builds(self, dataset, argv, nodes):
        """numpy's hermgauss gives weights that are not finite from 371
        nodes on: tanh printed its RuntimeWarnings and then blamed the
        length map, and 100000 nodes asked for a 74.5 GiB matrix."""
        argv = [tok.format(data=dataset[0]) for tok in argv]
        self._assert_one_line([*argv, "--nodes", nodes], f"nodes must be at most 370, got {nodes}")

    @pytest.mark.parametrize("sigma", ["1e200", "1e308"])
    def test_pacbayes_kl_out_of_float_range(self, tmp_path, sigma):
        """A posterior scale whose variance leaves float range once printed
        numpy's overflow warnings and then blamed a nan bound; the KL now
        names itself."""
        data, net = tmp_path / "d.csv", tmp_path / "net.json"
        _write_dataset(data, np.array([[0.5], [1.0], [-0.3]]), np.array([1.0, -1.0, 1.0]))
        _save_net(net, (1, 1), activation="linear")
        proc = self._run("bounds", "--weights", str(net), "--data", str(data), "--family", "pacbayes",
                         f"--sigma={sigma}", "--replicates", "10")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: KL divergence nan is not finite: a posterior variance or the mean shift overflows"
        ]
        assert proc.stdout == ""

    def test_align_residual_out_of_float_range(self, tmp_path):
        """The golden u0 net with its output layer scaled so that |u0|
        peaks at 1e154 on the golden data, against labels -sign(u0) 1e154:
        every output and label is finite, and so is each squared output,
        but |y - u0|^2 is not. align once exited 0 with inf in its curve
        and projections, after numpy's overflow warnings."""
        from test_golden import write_inputs

        paths = write_inputs(tmp_path)
        config, weights = load_weights(paths["u0_net"])
        x, _ = read_dataset(paths["data"])
        u0 = forward(config, weights, x.T).output.ravel()
        weights[-1] *= 1e154 / np.max(np.abs(u0))
        net, data = tmp_path / "big_u0.json", tmp_path / "big_y.csv"
        save_weights(net, config, weights)
        _write_dataset(data, x, -np.sign(u0) * 1e154)
        self._assert_one_line(["align", "--data", str(data), "--u0-weights", str(net), "--points", "3"],
                              "the squared residual |y - u0|^2 = inf is not finite")

    def test_align_time_grid_out_of_float_range(self, tmp_path):
        """Inputs near 1e-160 give an H-infinity gram of subnormal
        eigenvalues near 2.5e-320, so 0.01 / lambda_max overflows. align
        once printed numpy's invalid-value warning and exited 0 with nan
        and inf in its times and curve."""
        data = tmp_path / "tiny.csv"
        _write_dataset(data, np.array([[1e-160, 2e-160], [3e-160, -1e-160], [-2e-160, 1e-160]]),
                       np.array([0.5, -0.3, 0.2]))
        self._assert_one_line(["align", "--data", str(data), "--points", "3", "--format", "json"],
                              "the time grid from 0.01 / lambda_max = inf to 20 / lambda_min = inf "
                              "leaves float range")

    # the golden calls that read weight files and check them on the data
    WEIGHT_FILE_CASES = ["path", "ntk-kernel-linear-empirical", "ntk-train-limiting",
                         "ntk-train-empirical", "align-mc-u0", "bounds"]

    @staticmethod
    def _scaled_golden_call(tmp_path, case, scale, matrices):
        """The golden call's argv, with the given weight matrices of every
        weight file multiplied by scale, and the weight files, each mapped
        to the index of its last matrix."""
        from test_golden import CASES, write_inputs

        paths = write_inputs(tmp_path)
        last = {}
        for path in paths.values():
            if not path.endswith(".json"):
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if "weights" in doc:
                ws = doc["weights"]
                ws[matrices] = [(np.array(w) * scale).tolist() for w in ws[matrices]]
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                last[path] = len(ws) - 1
        return [tok.format(**paths) for tok in CASES[case].split()], last

    def _assert_one_line(self, argv, message):
        proc = self._run(*argv)
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("case", WEIGHT_FILE_CASES)
    def test_weights_out_of_float_range(self, tmp_path, case):
        """The golden weight files times 1e160 once gave nan losses,
        residuals or f_lin with exit 0, or numpy's overflow warnings and then
        an error that blamed a nan risk or gram. The call now names the
        first weight file it reads and the layer that overflows."""
        argv, last = self._scaled_golden_call(tmp_path, case, 1e160, slice(None))
        first = next(tok for tok in argv if tok in last)
        self._assert_one_line(argv, f"{first}: the activations of layer 1 are not finite on the data")

    @pytest.mark.parametrize("case", WEIGHT_FILE_CASES)
    def test_weights_out_of_float_range_name_the_layer(self, tmp_path, case):
        """With only the last two weight matrices of each golden file scaled
        by 1e160, the activations stay finite up to the output layer and
        overflow there: the message names that layer, counted from 0 like
        the weight matrices."""
        argv, last = self._scaled_golden_call(tmp_path, case, 1e160, slice(-2, None))
        first = next(tok for tok in argv if tok in last)
        self._assert_one_line(argv, f"{first}: the activations of layer {last[first]} are not finite on the data")

    @pytest.mark.parametrize("case", WEIGHT_FILE_CASES)
    def test_weights_whose_squared_norms_overflow(self, tmp_path, case):
        """At 1e100 the activations stay finite but their squared norms do
        not. align --u0-weights, path and ntk-train (limiting) once exited 0
        with inf residuals, inf losses or f_lin near -6e199, and the
        empirical kernels printed overflow warnings before blaming the
        gram."""
        argv, last = self._scaled_golden_call(tmp_path, case, 1e100, slice(None))
        first = next(tok for tok in argv if tok in last)
        self._assert_one_line(argv, f"{first}: the squared norm of the activations of layer 1 overflows on the data")

    def test_empirical_training_on_weights_times_1e4(self, tmp_path):
        """The eigendecomposition check once held the reconstruction error
        of the 1e8-scale gram to an absolute 1e-8 and exited 1 ("misses the
        gram by 6.519e-08", a relative error near 1e-16). It is relative now."""
        argv, _ = self._scaled_golden_call(tmp_path, "ntk-train-empirical", 1e4, slice(None))
        proc = self._run(*argv, "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        f_lin = [v for row in json.loads(proc.stdout)["predictions"] for v in row["f_lin"]]
        assert f_lin and all(math.isfinite(v) for v in f_lin)

    @pytest.mark.parametrize("width", [8.9, "8", True])
    def test_weight_file_with_a_width_that_is_not_an_integer(self, tmp_path, width):
        """A width of 8.9 or "8" once loaded as 8, and True as 1; the
        (3, 8, 1) file then ran with exit 0."""
        from test_golden import write_inputs

        paths = write_inputs(tmp_path)
        net = paths["ntk_relu"]
        with open(net, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["widths"] == [3, 8, 1]
        doc["widths"][1] = width
        with open(net, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["ntk-kernel", "--data", paths["data"], "--kind", "empirical", "--weights", net]
        self._assert_one_line(argv, f"{net}: widths must be integers, got {[3, width, 1]}")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "widths": 5}, "widths must be a list, got 5"),
        (lambda doc: {**doc, "widths": None}, "widths must be a list, got None"),
        (lambda doc: {**doc, "activation": 5}, "activation must be a string, got 5"),
        (lambda doc: {**doc, "weights": 5}, "weights must be a list, got 5"),
        (lambda doc: {**doc, "weights": [[[1.0], 2.0]]}, "layer 0 holds [1.0], not a number"),
        (lambda doc: {**doc, "weights": [[[1.0], [2.0, 3.0]]]}, "layer 0 is a ragged list"),
        (lambda doc: [1, 2], "expected a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "widths"}, "missing key 'widths'"),
    ])
    def test_weight_file_of_the_wrong_shape(self, tmp_path, edit, message):
        """A width, activation or weight list of the wrong JSON type, or a
        top-level list, once gave a TypeError or AttributeError traceback,
        and a missing key printed only the key."""
        from test_golden import write_inputs

        paths = write_inputs(tmp_path)
        net = paths["ntk_relu"]
        with open(net, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(net, "w", encoding="utf-8") as fh:
            json.dump(edit(doc), fh)
        argv = ["ntk-kernel", "--data", paths["data"], "--kind", "empirical", "--weights", net]
        self._assert_one_line(argv, f"{net}: {message}")

    @pytest.mark.parametrize("entry, message", [
        (None, "layer 1 holds null, not a number"),
        (math.nan, "layer 1 holds a non-finite weight"),
        (math.inf, "layer 1 holds a non-finite weight"),
        ("nan", 'layer 1 holds "nan", not a number'),
        ("0.5", 'layer 1 holds "0.5", not a number'),
        (True, "layer 1 holds true, not a number"),
        (10**400, "layer 1 holds an integer beyond float range"),
    ])
    def test_weight_file_with_a_non_finite_entry(self, tmp_path, entry, message):
        """A null, NaN, Infinity or "nan" weight once loaded as nan or inf,
        and "0.5" or true as 0.5 or 1.0: the limiting kernel, which reads
        only the architecture, then exited 0, and the calls that run the net
        blamed the activations instead of the file (or, for "0.5" and true,
        ran on the wrong weights). An integer beyond float range was not
        blamed on the file."""
        from test_golden import write_inputs

        paths = write_inputs(tmp_path)
        net = paths["ntk_relu"]
        with open(net, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["weights"][1][0][3] = entry
        with open(net, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["ntk-kernel", "--data", paths["data"], "--kind", "limiting", "--weights", net]
        self._assert_one_line(argv, f"{net}: {message}")

    @pytest.mark.parametrize("inputs, message", [
        ([{}, {}], "input of factor 1 holds {}, not a number"),
        ([1.0, "a"], 'input of factor 2 holds "a", not a number'),
        (["1.2", [True], 1.2, [1.2]], 'input of factor 1 holds "1.2", not a number'),
        ([1.2, [True], 1.2, [1.2]], "input of factor 2 holds true, not a number"),
    ])
    def test_wick_spec_input_of_the_wrong_type(self, tmp_path, inputs, message):
        """An input that is a JSON object once gave a TypeError traceback,
        and a quoted number or a bool read as a float: four such inputs
        exited 0 with terms in x1 and x2."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": len(inputs), "depth": 1, "inputs": inputs}), encoding="utf-8")
        self._assert_one_line(["wick", "--spec", str(spec)], f"{spec}: {message}")

    @pytest.mark.parametrize("points", ["50", "2001"])
    def test_depth_30_analytic_spectrum_still_runs(self, points):
        """The deepest curves above fail in float64; depth 30 still fits."""
        proc = self._run("spectrum", "--analytic", "--depth", "30", "--points", points, "--format", "json")
        assert proc.returncode == 0 and proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert math.isfinite(doc["mass"]) and math.isfinite(doc["mean"])

    def test_wick_mc_out_of_float_range(self, tmp_path):
        """Finite inputs whose products overflow once printed numpy's
        "invalid value" warning and inf means and exacts with exit 0."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 2, "depth": 1, "inputs": [[1e200], [1e200]]}), encoding="utf-8")
        proc = self._run("wick", "--spec", str(spec), "--mc", "--widths", "2,3,4", "--replicates", "3",
                         "--format", "json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: the Monte Carlo samples at width 2 have mean inf and variance nan: the inputs are too large"
        ]
        assert proc.stdout == ""

    @pytest.mark.parametrize("inputs, message", [
        ([[1e-200], [1e-200]], "mean 0.0 and variance 0.0"),
        ([[1e-160], [1e-160]], "mean 3.923e-321 and variance 0.0"),
        ([[0.0], [1.0]], "mean 0.0 and variance 0.0"),
    ])
    def test_wick_mc_underflow(self, tmp_path, inputs, message):
        """Inputs whose products underflow once printed exacts and means of
        0.0 (or subnormal) and nan slopes with exit 0."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 2, "depth": 1, "inputs": inputs}), encoding="utf-8")
        proc = self._run("wick", "--spec", str(spec), "--mc", "--widths", "2,3,4", "--replicates", "3",
                         "--format", "json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: the Monte Carlo samples at width 2 have {message}: the inputs are too small to fit a slope"
        ]
        assert proc.stdout == ""

    @pytest.mark.parametrize("inputs", [[[1.0]] * 3, [[0.5, -1.0], [0.3, 2.0], [1.0, 0.0]]])
    def test_wick_mc_odd_m_still_runs(self, tmp_path, inputs):
        """An odd number of factors has the zero polynomial: integer-0
        exacts next to finite sampled slopes, exit 0."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 3, "depth": 1, "inputs": inputs}), encoding="utf-8")
        proc = self._run("wick", "--spec", str(spec), "--mc", "--widths", "2,3,4", "--replicates", "50",
                         "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        mc = json.loads(proc.stdout)["mc"]
        assert mc["exacts"] == [0, 0, 0] and all(type(v) is int for v in mc["exacts"])
        assert math.isfinite(mc["slope_mean"]) and math.isfinite(mc["slope_variance"])

    def test_pacbayes_prior_precision_out_of_float_range(self, tmp_path):
        """A posterior scale whose prior precision 1/sigma^2 leaves float
        range once exited with "math range error"; the CLI now names the flag."""
        data, net = tmp_path / "d.csv", tmp_path / "net.json"
        _write_dataset(data, np.array([[0.5], [1.0], [-0.3]]), np.array([1.0, -1.0, 1.0]))
        _save_net(net, (1, 1), activation="linear")
        proc = self._run("bounds", "--weights", str(net), "--data", str(data), "--family", "pacbayes",
                         "--sigma=1e-200", "--replicates", "10")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: posterior scale --sigma 1e-200 is too small: 1/sigma^2 overflows"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["--delta", "1e-320"], "error: confidence delta = 1e-320 is too small: 1 / delta overflows"),
        (["--delta", "1e-307", "--family", "pacbayes"],
         "error: confidence delta = 1e-307 is too small: 48 / delta overflows"),
        (["--delta", "1e-307", "--family", "neyshabur"],
         "error: confidence delta = 1e-307 is too small: 192 / delta overflows"),
        (["--gamma", "1e-310"], "error: the scaled complexity C |X|_F R / gamma = inf leaves float range"),
        (["--gamma", "1e-310", "--family", "neyshabur"], "error: the penalty overflows: B R(theta) / gamma = inf"),
        (["--gamma", "1e-200"], "error: the penalty overflows"),
        (["--family", "neyshabur", "--b-norm", "1e300"], "(B = 1e+300, gamma = 1)"),
    ])
    def test_bounds_out_of_float_range(self, signed_dataset, tmp_path, argv, message):
        """Each once printed an inf bound, a bound clamped to 1 over inf
        details, numpy's overflow warning or "(34, 'Numerical result out of
        range')", and all but the last exited 0."""
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        proc = self._run("bounds", "--weights", str(net), "--data", signed_dataset[0], "--replicates", "2", *argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert proc.stdout == ""

    def test_bounds_tiny_gamma_warns_nothing(self, signed_dataset, tmp_path):
        """A ramp risk once divided the margins by gamma, which overflows at
        gamma = 1e-310; the hard risk only compares them, and pacbayes does
        not read gamma."""
        net = tmp_path / "net.json"
        _save_net(net, (4, 6, 1), activation="relu", seed=30)
        proc = self._run("bounds", "--weights", str(net), "--data", signed_dataset[0], "--replicates", "2",
                         "--family", "pacbayes", "--gamma", "1e-310")
        assert proc.returncode == 0 and proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["ntk-kernel", "--widths", "3,8,1", "--act", "tanh"],
        ["ntk-kernel", "--widths", "3,8,1", "--act", "relu"],
        ["ntk-kernel", "--kind", "nngp", "--widths", "3,8,8,1", "--act", "leaky_relu:0.2", "--sigma-w2", "1"],
    ])
    def test_ntk_kernel_variance_product_overflow(self, tmp_path, argv):
        """Rows whose squared norms fit but whose layer variances overflow
        in q(x, x) q(x', x') once warned and then printed an all-zero gram
        with exit 0 (tanh), or exited 1 after two warnings (relu)."""
        data = tmp_path / "big.csv"
        _write_dataset(data, np.array([[1e150, 0.0, 0.0], [0.0, 1e150, 0.0]]), np.array([0.5, -0.2]))
        proc = self._run(*argv, "--data", str(data))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: input columns 0 and 0 are too large: their layer-1 variances")
        assert proc.stdout == ""

    @pytest.mark.parametrize("kind", ["limiting", "nngp"])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_ntk_kernel_variance_product_underflow(self, tmp_path, kind, act):
        """Rows whose layer variances underflow in q(x, x) q(x', x') once
        read every pair as uncorrelated: with relu, the nngp gram printed all
        zeros and the limiting kernel kept only its first-layer term, both
        with exit 0."""
        data = tmp_path / "tiny.csv"
        _write_dataset(data, np.random.default_rng(0).standard_normal((6, 3)) * 1e-100, np.zeros(6))
        proc = self._run("ntk-kernel", "--widths", "3,16,16,1", "--kind", kind, "--act", act, "--format", "json",
                         "--data", str(data))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: input columns 1 and 1 are too small: their layer-1 variances")
        assert proc.stdout == ""

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_align_needs_two_points(self, dataset, points):
        """--points 0 once printed empty "t" and "curve" lists with exit 0."""
        proc = self._run("align", "--data", dataset[0], "--points", points)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: points must be at least 2, got {points}"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("sigma_w2", ["inf", "nan"])
    def test_ntk_kernel_nonfinite_sigma(self, dataset, sigma_w2):
        """Once reported as "q must be finite" from inside the recursion."""
        proc = self._run("ntk-kernel", "--data", dataset[0], "--widths", "3,16,16,1", "--sigma-w2", sigma_w2)
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "sigma_w2 must be positive and finite" in lines[0]
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["--eta", "nan"], "eta must be positive and finite, got nan"),
        (["--eta", "nan", "--kernel", "empirical"], "eta must be positive and finite, got nan"),
        (["--eta", "inf", "--times", "0"], "eta must be positive and finite, got inf"),
        (["--times", "nan"], "times must be nonnegative"),
        (["--times", "1,nan"], "times must be nonnegative"),
    ])
    def test_ntk_train_nonfinite_eta_or_time(self, dataset, ntk_net, argv, message):
        """Each once printed rows of nan with exit 0, the inf rate after two
        "invalid value" RuntimeWarnings."""
        proc = self._run("ntk-train", "--weights", ntk_net, "--data", dataset[0], *argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
        assert proc.stdout == ""

    def test_ntk_train_overflowing_time_is_the_trained_limit(self, dataset, ntk_net):
        """t = 1e308 once printed an overflow RuntimeWarning; eta lambda t / m
        overflowing is the t -> infinity limit, so its rows are the t = inf rows."""
        proc = self._run("ntk-train", "--weights", ntk_net, "--data", dataset[0],
                         "--times", "1e308,inf", "--format", "json")
        assert proc.returncode == 0
        assert proc.stderr == ""
        far, limit = json.loads(proc.stdout)["predictions"]
        assert far["f_lin"] == limit["f_lin"] and far["gp_mean"] == limit["gp_mean"]

    @pytest.mark.parametrize("argv", [
        ["align"],
        ["align", "--method", "mc", "--mc-samples", "50"],
        ["ntk-kernel", "--widths", "2,4,1", "--act", "tanh"],
        ["ntk-kernel", "--kind", "nngp", "--widths", "2,4,1", "--act", "relu"],
        ["du-monitor", "--t-max", "1"],
    ])
    def test_overflowing_row_is_rejected_where_it_enters(self, tmp_path, argv):
        """A row whose squared norm overflows once printed numpy's two-line
        RuntimeWarning before the error, and an error that blamed the
        kernel instead of the row."""
        data = tmp_path / "big.csv"
        _write_dataset(data, np.array([[0.5, 1e300], [1.0, 0.3]]), np.array([0.1, 0.2]))
        proc = self._run(*argv, "--data", str(data))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"error: {data}: data row 1: squared norm inf is not finite"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("label, square", [("nan", "nan"), ("inf", "inf"), ("1e300", "inf")])
    @pytest.mark.parametrize("argv", [
        ["align"],
        ["du-monitor", "--t-max", "0.4"],
        ["ntk-train", "--weights", "{net}"],
    ])
    def test_nonfinite_label_is_rejected_where_it_enters(self, tmp_path, argv, label, square):
        """A nan label once ran on into rows of nan with exit 0, and a 1e300
        label overflowed align's residual energy with exit 0."""
        data = tmp_path / "y.csv"
        _write_dataset(data, np.array([[0.5, 0.1], [0.1, 0.3]]), np.array([float(label), 0.2]))
        net = tmp_path / "net.json"
        _save_net(net, (2, 8, 1), activation="relu", parameterization="ntk", sigma_w2=2.0)
        proc = self._run(*[tok.format(net=net) for tok in argv], "--data", str(data))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"error: {data}: data row 1: squared label {square} is not finite"]
        assert proc.stdout == ""
