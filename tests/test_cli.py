"""The command-line interface: exit codes, formats, determinism."""

import json
import math
import re

import pytest

import xapprox
from xapprox.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- eval -----------------------------------------------------------------------

def test_eval_kernel_node_error_is_zero(capsys):
    code, out, _ = run(capsys, "eval", "--kernel", "exp", "--lambda", "1",
                       "--x", "2.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,target,approximant,error"
    cells = lines[1].split(",")
    assert float(cells[0]) == 2.5
    assert cells[3] == "0"  # exact zero at an interpolation node


def test_eval_defaults_to_kernel_mode_and_requires_lambda(capsys):
    code, _, err = run(capsys, "eval", "--x", "1.0")
    assert code == 2
    assert "lambda" in err


def test_eval_rejects_kernel_and_measure_together(capsys):
    code, _, err = run(capsys, "eval", "--kernel", "exp", "--measure", "haar",
                       "--lambda", "1", "--x", "1.0")
    assert code == 2
    assert "either" in err


def test_eval_haar_sign_at_quarter(capsys):
    code, out, _ = run(capsys, "eval", "--measure", "haar", "--x", "0.25")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.log(0.25), rel=1e-15)
    assert float(row[3]) < 0.0  # error sign = sign of cos(pi x) pattern


def test_eval_power_node(capsys):
    code, out, _ = run(capsys, "eval", "--measure", "power", "--sigma", "1.5",
                       "--x", "-2.5")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.sqrt(2.5), rel=1e-14)
    assert abs(float(row[3])) < 1e-11


def test_eval_measure_json_and_range(capsys):
    code, out, _ = run(capsys, "eval", "--measure",
                       '{"kind":"points","masses":[[1.0,1.0]]}',
                       "--x-range", "0.5:2.5:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 5  # header + inclusive endpoints
    err_at_half = float(lines[1].split(",")[3])
    assert err_at_half == 0.0


def test_eval_periodic_needs_degree(capsys):
    code, _, err = run(capsys, "eval", "--periodic", "--measure", "haar",
                       "--x", "0.2")
    assert code == 2
    assert "degree" in err


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "--measure", "haar", "--x", "0.25",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["x"] == 0.25
    assert payload[0]["target"] == pytest.approx(math.log(0.25))


# --- coeffs ----------------------------------------------------------------------

def test_coeffs_exports_full_spectrum(capsys):
    code, out, _ = run(capsys, "coeffs", "--kernel", "exp", "--lambda", "1",
                       "--degree", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 3
    assert len(obj["coeffs"]) == 7
    by_n = {row[0]: row[1] for row in obj["coeffs"]}
    assert by_n[2] == by_n[-2]  # even symmetry


def test_coeffs_negated_haar_constant(capsys):
    code, out, _ = run(capsys, "coeffs", "--measure", "haar", "--degree", "0",
                       "--negate-for-vn")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][0][1] == pytest.approx(math.log(2.0) / 2.0, abs=1e-10)


def test_coeffs_degree_required(capsys):
    code, _, err = run(capsys, "coeffs", "--kernel", "exp", "--lambda", "1")
    assert code == 2
    assert "degree" in err


# --- error-table -------------------------------------------------------------------

def test_error_table_kernel_grid(capsys):
    code, out, _ = run(capsys, "error-table", "--kernel", "exp",
                       "--lambda", "0.5:4:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,closed_form,quadrature,abs_diff"
    assert len(lines) == 1 + 8
    # closed form in column 2, verification columns empty without --verify
    assert lines[1].endswith(",,")


def test_error_table_with_verification(capsys):
    code, out, _ = run(capsys, "error-table", "--kernel", "exp", "--lambda", "1",
                       "--verify")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[3]) < 1e-8


@pytest.mark.parametrize("sigma", ["0.05", "0.5", "1.5", "1.95"])
def test_error_table_periodic_power_verification(capsys, sigma):
    # the quadrature column integrates the |x|^{sigma-1} singularity at
    # x = 0 exactly, so it must agree with the closed form to rounding
    code, out, _ = run(capsys, "error-table", "--measure", "power", "--sigma", sigma,
                       "--periodic", "--degree", "0:2:2", "--verify")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 2.0]
    for r in rows:
        assert float(r[3]) < 1e-12


def test_error_table_periodic_degree_grid(capsys):
    code, out, _ = run(capsys, "error-table", "--measure", "haar",
                       "--degree", "0:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    # degree-N error decreases like 1/(2N+2)
    closed = [float(l.split(",")[1]) for l in lines[1:]]
    assert closed == sorted(closed, reverse=True)
    assert closed[0] / closed[3] == pytest.approx(4.0, rel=1e-12)


def test_error_table_measure_single_row(capsys):
    code, out, _ = run(capsys, "error-table", "--measure", "power",
                       "--sigma", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[0]) == 0.5  # param column carries sigma


def test_error_table_negative_degree_rejected(capsys):
    code, _, err = run(capsys, "error-table", "--measure", "haar",
                       "--degree", "-1")
    assert code == 2
    assert "degree" in err


def test_error_table_empty_grid_rejected(capsys):
    code, _, err = run(capsys, "error-table", "--kernel", "exp",
                       "--lambda", "5:1")
    assert code == 2
    assert "grid" in err or "empty" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--kernel", "exp", "--lambda", "1", "--x", "0.3", "--delta", "-1"),
    ("eval", "--measure", "haar", "--x", "0.3", "--delta", "0"),
    ("eval", "--measure", "haar", "--x", "0.3", "--delta", "nan"),
    ("error-table", "--measure", "haar", "--delta", "inf"),
    ("error-table", "--kernel", "exp", "--lambda", "1", "--delta", "abc"),
    ("error-table", "--kernel", "exp", "--lambda", "0:1:0.5"),
    ("error-table", "--kernel", "exp", "--lambda", "nan:1"),
    ("error-table", "--kernel", "exp", "--lambda", "1:inf"),
    ("error-table", "--kernel", "exp", "--lambda", "1", "--periodic", "--degree", "0:inf"),
    ("eval", "--lambda", "inf", "--x", "0.3"),
    ("plot-data", "--lambda", "-2", "--x-range", "0:1", "--samples", "3"),
    ("coeffs", "--measure", "haar", "--degree", "inf"),
    ("coeffs", "--measure", "haar", "--degree", "nan"),
    ("eval", "--periodic", "--degree", "4", "--lambda", "1", "--x", "inf"),
    ("eval", "--periodic", "--degree", "300", "--lambda", "1", "--x", "0.1", "--x", "nan"),
    ("eval", "--periodic", "--degree", "4", "--measure", "haar", "--x=-inf"),
    ("eval", "--periodic", "--degree", "4", "--measure", "power", "--sigma", "1.5", "--x", "nan"),
], ids=" ".join)
def test_bad_numeric_model_flags_exit_2_without_a_traceback(capsys, argv):
    # exit 1 means a failed verification, so a bad flag must never reach a
    # library ValueError, nor a non-finite --delta print a number
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_value_after_a_single_dash_is_glued_to_its_flag(capsys):
    # not only digit-led values: argparse would read `-inf` or `-.5:.5` as
    # an option name and stop at "expected one argument"
    code, out, err = run(capsys, "eval", "--periodic", "--degree", "4", "--measure", "haar",
                         "--x", "-inf")
    assert (code, out) == (2, "")
    assert "circle point x = -inf is not finite" in err
    code, out, _ = run(capsys, "eval", "--periodic", "--degree", "4", "--measure", "haar",
                       "--x-range", "-.5:.5")
    assert code == 0
    assert [row.split(",")[0] for row in out.strip().splitlines()[1:]] == ["-0.5", "0.5"]


# --- the circle's flag rule ---------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("error-table", "--measure", "haar", "--periodic"),
    ("coeffs", "--measure", "haar", "--degree", "3", "--delta", "2"),
    ("eval", "--periodic", "--lambda", "1", "--degree", "3", "--x", "0.3", "--delta", "5"),
    ("error-table", "--kernel", "exp", "--lambda", "1", "--degree", "3", "--delta", "1"),
    ("plot-data", "--measure", "haar", "--degree", "2", "--samples", "3", "--x-range", "0:1",
     "--delta", "2"),
], ids=" ".join)
def test_circle_needs_degree_and_refuses_delta(capsys, argv):
    # --periodic or --degree selects the circle, which requires --degree and
    # has no --delta: each is refused with exit 2 rather than ignored
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("error-table", "--kernel", "exp", "--lambda", "1", "--degree", "3"),
    ("eval", "--measure", "haar", "--degree", "3", "--x", "0.3"),
    ("plot-data", "--lambda", "2", "--degree", "1", "--samples", "5"),
], ids=" ".join)
def test_degree_selects_the_circle(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv, "--periodic")[:2]


def test_kernel_circle_error_table_is_the_periodic_error(capsys):
    code, out, _ = run(capsys, "error-table", "--kernel", "exp", "--lambda", "1",
                       "--degree", "3")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[1]) == xapprox.periodic_l1_error(1.0, 3)


# --- plot-data -----------------------------------------------------------------------

def test_plot_data_row_count_and_default_periodic_range(capsys):
    code, out, _ = run(capsys, "plot-data", "--periodic", "--measure", "haar",
                       "--degree", "2", "--samples", "601")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 602
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "1"
    # the log target blows up at the integer points
    assert lines[1].split(",")[1] == "-inf"


def test_plot_data_periodic_power_inf_exactly_at_integers(capsys):
    # sigma < 1: q_mu is +inf at the integers and finite everywhere else
    code, out, _ = run(capsys, "plot-data", "--periodic", "--measure", "power",
                       "--sigma", "0.5", "--degree", "4", "--x-range=-1:2",
                       "--samples", "13")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 13
    for cells in rows:
        x, target = float(cells[0]), cells[1]
        if x == math.floor(x):
            assert target == "inf"
        else:
            assert math.isfinite(float(target))


def test_plot_data_requires_range_on_the_line(capsys):
    code, _, err = run(capsys, "plot-data", "--kernel", "exp", "--lambda", "1",
                       "--samples", "10")
    assert code == 2
    assert "x-range" in err


def test_plot_data_needs_two_samples(capsys):
    code, _, err = run(capsys, "plot-data", "--kernel", "exp", "--lambda", "1",
                       "--x-range", "0:1", "--samples", "1")
    assert code == 2
    assert "samples" in err


def test_plot_data_negative_range_values(capsys):
    code, out, _ = run(capsys, "plot-data", "--kernel", "exp", "--lambda", "1",
                       "--x-range", "-1:1", "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert float(lines[1].split(",")[0]) == -1.0


def test_plot_data_json_nulls_for_nonfinite(capsys):
    code, out, _ = run(capsys, "plot-data", "--periodic", "--measure", "haar",
                       "--degree", "0", "--samples", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["target"] is None  # -inf at x = 0
    assert payload[1]["target"] is not None


# --- verify ----------------------------------------------------------------------------

def test_verify_single_check_table(capsys):
    code, out, _ = run(capsys, "verify", "--only", "thm1_1_lambda1")
    assert code == 0
    assert "PASS" in out
    assert len(out.strip().splitlines()) == 2


def test_verify_comma_list_json(capsys):
    code, out, _ = run(capsys, "verify", "--only", "catalan_digits,khat_edge_zero",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # reports come back in registration order, not selection order
    assert [r["name"] for r in payload] == ["khat_edge_zero", "catalan_digits"]
    assert all(r["passed"] for r in payload)


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--only", "bogus")
    assert code == 2
    assert err.strip() == "error: unknown check name: 'bogus'"


# --- output plumbing ---------------------------------------------------------------------

def test_output_file_and_byte_identical_reruns(tmp_path, capsys):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for f in (f1, f2):
        code = main(["eval", "--measure", "haar", "--x", "0.3", "--x", "0.7",
                     "--output", str(f)])
        assert code == 0
    capsys.readouterr()
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1  # plain \n line endings
    assert b1.decode().count("\n") == 3


def test_seventeen_digit_floats(capsys):
    # the printed value must round-trip the library float exactly; comparing
    # against 2 - 2/cosh(0.5) in doubles would lose two digits to cancellation
    from xapprox.expkernel import l1_error_exp

    code, out, _ = run(capsys, "error-table", "--kernel", "exp", "--lambda", "1")
    closed = out.strip().splitlines()[1].split(",")[1]
    assert closed == format(l1_error_exp(1.0, 1.0), ".17g")
    assert float(closed) == pytest.approx(2.0 - 2.0 / math.cosh(0.5), rel=1e-14)


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# a good call, an argparse error, repeated --x, verify --only lists; then the
# same flags once each, which must not see the earlier calls' appended values
_SEQUENCE = (
    ["eval", "--measure", "haar", "--x", "0.3"],
    ["eval", "--measure", "haar", "--x", "0.3", "--format", "xml"],
    ["eval", "--kernel", "exp", "--lambda", "1", "--x", "0.3", "--x", "-0.7"],
    ["eval", "--kernel", "exp", "--lambda", "1", "--x", "2.5"],
    ["verify", "--only", "khat_edge_zero,catalan_digits", "--only", "interp_exp_nodes",
     "--format", "json"],
    ["verify", "--only", "catalan_digits", "--format", "json"],
)


def _unclocked(text):
    # a check's runtime_ms is a wall time, the one field no rerun repeats
    return re.sub(r'"runtime_ms": [^\n]*', '"runtime_ms": _', text)


def test_consecutive_calls_match_fresh_processes(capsys, fresh_python):
    # main reuses one parser for every call in a process
    in_process = []
    for argv in _SEQUENCE:
        code = main(list(argv))
        cap = capsys.readouterr()
        in_process.append((code, _unclocked(cap.out), cap.err))
    assert [c for c, _, _ in in_process] == [0, 2, 0, 0, 0, 0]
    for argv, got in zip(_SEQUENCE, in_process):
        res = fresh_python("-m", "xapprox.cli", *argv, check=False)
        assert got == (res.returncode, _unclocked(res.stdout), res.stderr), argv
