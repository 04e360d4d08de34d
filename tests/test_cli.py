"""End-to-end command-line interface tests via main(argv)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conclab
from conclab import calculus as cal
from conclab import discrete as dc
from conclab.cli import main
from conclab.samplers import SampleBatch


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity tokens are refused."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestNorms:
    def test_identity_tensor(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"tensor": {"order": 2, "dim": 3, "entries": np.eye(3).ravel().tolist()}},
        )
        assert main(["norms", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        row = out["norms"][0]
        assert row["hs"] == pytest.approx(math.sqrt(3.0))
        assert row["op"] == pytest.approx(1.0)

    def test_quadratic_form_derivative(self, tmp_path, capsys):
        A = [[1.0, 2.0], [2.0, -1.0]]
        cfg = write_config(
            tmp_path, {"function": {"quadratic": A}, "orders": [2], "point": [0.0, 0.0]}
        )
        assert main(["norms", "--config", cfg]) == 0
        row = json.loads(capsys.readouterr().out)["norms"][0]
        assert row["hs"] == pytest.approx(2.0 * np.linalg.norm(A))
        assert row["op"] == pytest.approx(2.0 * np.linalg.norm(A, 2))

    def test_rows_report_upper_and_convergence(self, tmp_path, capsys):
        # all-ones 2x2x2 at q = 1: the norm 8 and the upper bracket coincide
        entries = {"order": 3, "dim": 2, "entries": [1.0] * 8}
        cfg = write_config(tmp_path, {"tensor": entries, "q": 1.0})
        assert main(["norms", "--config", cfg]) == 0
        row = _strict_json(capsys.readouterr().out)["norms"][0]
        assert set(row) == {"order", "hs", "op", "op_upper", "converged"}
        assert row["op"] == pytest.approx(8.0, rel=1e-12)
        assert row["op_upper"] == pytest.approx(8.0, rel=1e-12)
        assert row["converged"] is True
        cfg = write_config(tmp_path, {"tensor": entries, "q": 1.0, "format": "csv"})
        assert main(["norms", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "order,hs,op"
        assert float(lines[1].split(",")[2]) == pytest.approx(8.0, rel=1e-12)

    def test_non_finite_tensor_is_refused(self, tmp_path, capsys):
        # json reads 1e400 as inf; op used to come out as 0.0
        cfg = tmp_path / "inf.json"
        cfg.write_text('{"tensor": {"order": 3, "dim": 2, "entries": [1e400, 0, 0, 0, 0, 0, 0, 0]}}')
        assert main(["norms", "--config", str(cfg)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_invalid_q_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"tensor": {"order": 2, "dim": 2, "entries": [1, 0, 0, 1]}, "q": 3.0},
        )
        assert main(["norms", "--config", cfg]) == 2


class TestBound:
    def test_tail_curve_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "setting": {"tag": "lsi", "sigma2": 1.0},
                "K": [1.0],
                "grid": {"start": 0.0, "stop": 8.0, "step": 4.0},
            },
        )
        assert main(["bound", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,bound"
        assert lines[1].startswith("0.0,1.0")
        C = math.log(2.0) / (2.0 * math.e ** 2)
        t2, b2 = lines[3].split(",")
        assert float(t2) == 8.0
        assert float(b2) == pytest.approx(2.0 * math.exp(-C * 64.0))

    def test_single_point_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"setting": {"tag": "gaussian"}, "K": [1.0], "grid": [0.0]},
        )
        assert main(["bound", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip().splitlines()[1] == "0.0,1.0"

    def test_all_zero_K_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"setting": {"tag": "gaussian"}, "K": [0.0], "grid": [1.0]},
        )
        assert main(["bound", "--config", cfg]) == 1

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"setting": {"tag": "gaussian"}, "K": [1.0], "grid": [1.0], "bogus": 1},
        )
        assert main(["bound", "--config", cfg]) == 2

    @pytest.mark.parametrize("K,grid", [([math.nan], [1.0]), ([math.inf], [1.0]), ([1.0], [math.nan])])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, K, grid):
        cfg = write_config(tmp_path, {"setting": {"tag": "gaussian"}, "K": K, "grid": grid})
        assert main(["bound", "--config", cfg]) == 1
        assert "finite" in capsys.readouterr().err


class TestSample:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "samples.csv"
        cfg = write_config(
            tmp_path,
            {"measure": {"tag": "gaussian", "n": 3}, "count": 10, "out": str(out)},
        )
        assert main(["sample", "--config", cfg]) == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (10, 3)

    def test_binary_output_roundtrip(self, tmp_path):
        out = tmp_path / "samples.bin"
        cfg = write_config(
            tmp_path,
            {
                "measure": {"tag": "sphere", "n": 4},
                "count": 20,
                "out": str(out),
                "format": "binary",
            },
        )
        assert main(["sample", "--config", cfg]) == 0
        data = SampleBatch.read_binary(out)
        assert data.shape == (20, 4)
        assert np.allclose(np.linalg.norm(data, axis=1), 1.0)

    def test_seed_flag_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = {"measure": {"tag": "gaussian", "n": 2}, "count": 5, "out": None}
        for out in (out1, out2):
            base["out"] = str(out)
            cfg = write_config(tmp_path, base)
            assert main(["sample", "--config", cfg, "--seed", "9"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerify:
    def test_gaussian_linear_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "tail",
                "setting": {"tag": "gaussian"},
                "function": {"linear": [1.0, 0.0, 0.0]},
                "measure": {"tag": "gaussian", "n": 3},
                "K": [1.0],
                "grid": {"start": 0.0, "stop": 5.0, "step": 0.5},
                "samples": 20000,
            },
        )
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_bad_delta_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "tail",
                "setting": {"tag": "gaussian"},
                "function": {"linear": [1.0]},
                "measure": {"tag": "gaussian", "n": 1},
                "K": [1.0],
                "grid": [1.0],
            },
        )
        assert main(["verify", "--config", cfg, "--delta", "1.5"]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_function_exits_1(self, tmp_path, capsys):
        # 1e308 * (x0 + x1) overflows to +-inf on two corners of the square
        cfg = write_config(
            tmp_path,
            {
                "kind": "tail",
                "setting": {"tag": "independent_bounded"},
                "function": {"linear": [1e308, 1e308]},
                "space": {"uniform_cube": 2},
                "K": [1.0],
                "grid": [0.5, 1.0],
            },
        )
        assert main(["verify", "--config", cfg]) == 1
        assert "finite" in capsys.readouterr().err

    def test_dlsi_two_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"kind": "dlsi", "space": {"uniform_cube": 1}, "sigma2": 1.0, "budget": 4},
        )
        assert main(["verify", "--config", cfg]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert report["max_ratio_found"] == pytest.approx(1.0, abs=1e-3)
        assert report["poincare_ratio"] == pytest.approx(1.0, rel=1e-14)

    def test_dlsi_disconnected_chain_exits_1(self, tmp_path, capsys):
        # no single-coordinate move joins the two points of the support
        cfg = write_config(
            tmp_path,
            {
                "kind": "dlsi",
                "space": {"alphabets": [[-1, 1], [-1, 1]], "joint": [[0.5, 0.0], [0.0, 0.5]]},
                "sigma2": 1e6,
            },
        )
        assert main(["verify", "--config", cfg]) == 1
        report = _strict_json(capsys.readouterr().out)
        assert report["poincare_ratio"] is None
        assert report["max_ratio_found"] is None
        assert report["passed"] is False

    def test_dlsi_unresolved_floor_is_null(self, tmp_path, capsys):
        # a strongly coupled pair: the spectral gap is below roundoff
        cfg = write_config(
            tmp_path,
            {
                "kind": "dlsi",
                "space": {"ising": {"n": 2, "edges": [[0, 1, 1.0]], "beta": 20.0}},
                "sigma2": 1.0,
                "budget": 2,
            },
        )
        assert main(["verify", "--config", cfg]) == 1
        report = _strict_json(capsys.readouterr().out)
        assert report["poincare_ratio"] is None
        assert 1.0 < report["max_ratio_found"] < math.inf
        assert report["passed"] is False

    def test_dlsi_refuses_infinite_claim(self, tmp_path):
        # json.dumps writes math.inf as the non-standard token Infinity
        cfg = write_config(
            tmp_path, {"kind": "dlsi", "space": {"uniform_cube": 1}, "sigma2": math.inf}
        )
        assert main(["verify", "--config", cfg]) == 2

    def test_dlsi_failing_claim_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"kind": "dlsi", "space": {"uniform_cube": 1}, "sigma2": 0.25, "budget": 3},
        )
        assert main(["verify", "--config", cfg]) == 1

    def test_exp_moment(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "exp_moment",
                "space": {"uniform_cube": 4},
                "setting": {"tag": "independent_bounded"},
                "function": {"linear": [0.125, 0.125, 0.125, 0.125]},
                "K": [1.0],
            },
        )
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert report["integral"] <= 2.0

    def test_exp_moment_overflow_is_null(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "kind": "exp_moment",
                "space": {"uniform_cube": 3},
                "setting": {"tag": "independent_bounded"},
                "function": {"linear": [1000.0, 1000.0, 1000.0]},
                "K": [1.0],
            },
        )
        assert main(["verify", "--config", cfg]) == 1
        report = _strict_json(capsys.readouterr().out)
        assert report["integral"] is None
        assert report["passed"] is False


class TestDiscrete:
    def test_independent_ising_zero_J(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"space": {"ising": {"n": 2, "edges": [[0, 1, 1.0]], "beta": 0.0}}},
        )
        assert main(["discrete", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["J"], 0.0)
        assert report["is_product"]

    def test_operator_dump(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "space": {"uniform_cube": 2},
                "function": {"linear": [1.0, -2.0]},
                "point": [0, 0],
            },
        )
        assert main(["discrete", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["h"] == pytest.approx([2.0, 4.0])
        assert report["d"] == pytest.approx([1.0, 2.0])

    def test_operator_fields_match_per_coordinate_ops(self, tmp_path, capsys):
        A = np.random.default_rng(6).standard_normal((6, 6))
        x = (1, 0, 1, 1, 0, 1)
        cfg = write_config(
            tmp_path,
            {
                "space": {"uniform_cube": 6},
                "function": {"quadratic": A.tolist()},
                "point": list(x),
            },
        )
        assert main(["discrete", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        space = dc.uniform_cube(6)
        table = dc.value_table(cal.PolyFunction.quadratic_form(A), space)
        ops = [dc.h_ops(table, space, x, i) for i in range(6)]
        assert report["h"] == [h for h, _, _ in ops]
        assert report["h_plus"] == [hp for _, hp, _ in ops]
        assert report["h_minus"] == [hm for _, _, hm in ops]

    @pytest.mark.parametrize("point", [[0], [0, 0, 0], [0, 2], [-1, 0]])
    def test_point_outside_the_space_exits_2(self, tmp_path, capsys, point):
        cfg = write_config(
            tmp_path,
            {"space": {"uniform_cube": 2}, "function": {"linear": [1.0, -2.0]}, "point": point},
        )
        assert main(["discrete", "--config", cfg]) == 2
        assert "point" in capsys.readouterr().err

    def test_csv_cells_are_numbers(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"space": {"ising": {"n": 2, "edges": [[0, 1, 1.0]], "beta": 0.5}}, "format": "csv"},
        )
        assert main(["discrete", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,j,J" and len(lines) == 5
        J = [float(line.split(",")[2]) for line in lines[1:]]
        assert J[0] == J[3] == 0.0 and J[1] > 0.0

    def test_output_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            cfg = write_config(
                tmp_path,
                {
                    "space": {"ising": {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5]], "beta": 0.3}},
                    "out": str(out),
                },
            )
            assert main(["discrete", "--config", cfg]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestUsage:
    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        cfg = write_config(
            tmp_path, {"setting": {"tag": "gaussian"}, "K": [1.0], "grid": [0.0, 1.0]}
        )
        src = str(Path(conclab.__file__).resolve().parents[1])
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "conclab.cli",
               "bound", "--config", cfg]
        proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("t,bound\n0.0,1.0\n")

    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_unknown_config_file(self, capsys):
        assert main(["bound", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["bound", "--config", str(path)]) == 2
