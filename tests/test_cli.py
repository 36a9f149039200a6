import csv
import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from combregret import cli
from combregret.checks import CheckResult
from combregret.dyadic import HALF, Dyadic
from combregret.forward import regret_series_fixed
from combregret.game import RankSubset
from combregret.oracle import brute_regret_fixed


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_exact_stdout(capsys):
    code, out, err = run(capsys, "eval", "--k", "2", "--subset", "1", "--t-max", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "T,regret,regret_exact,error_bound"
    assert lines[3] == "3,0.75,3/2^2,0"


def test_eval_bad_subset(capsys):
    code, out, err = run(capsys, "eval", "--k", "5", "--subset", "6", "--t-max", "3")
    assert code == 2
    assert "rank" in err
    assert out == ""


def test_eval_float_file_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "eval", "--k", "5", "--subset", "comb", "--t-max", "60",
            "--backend", "float", "--out", str(p),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    rows = [line.split(",") for line in p1.read_text().splitlines()[1:]]
    assert len(rows) == 60 and rows[0][2] == ""


def test_compare_identical_subsets(capsys):
    code, out, _ = run(capsys, "compare", "--k", "5", "--a", "1,3", "--b", "1,3",
                       "--t-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T,D"
    for t in range(1, 7):
        assert lines[t] == f"{t},0"


def test_compare_exact_value_and_summary(capsys):
    code, out, _ = run(capsys, "compare", "--k", "5", "--a", "1,3", "--b", "1,3,5",
                       "--t-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert "5,2475/128" in lines
    assert any(line.startswith("# window=") for line in lines)


def test_compare_out_file_summary_on_stdout(tmp_path, capsys):
    p = tmp_path / "d.csv"
    code, out, _ = run(capsys, "compare", "--k", "5", "--a", "1,3", "--b", "1,3,5",
                       "--t-max", "12", "--window", "5:12", "--out", str(p))
    assert code == 0
    assert "window=5..12" in out
    assert p.read_text().splitlines()[0] == "T,D"


def test_compare_default_window_past_t100(capsys):
    code, out, _ = run(capsys, "compare", "--k", "3", "--a", "1", "--b", "1,3",
                       "--t-max", "103")
    assert code == 0
    assert "# window=100..103" in out.splitlines()


def test_compare_bad_window(capsys):
    for window in ("8:2", "3:3", "0:5", "5:11"):
        code, _, err = run(capsys, "compare", "--k", "5", "--a", "1,3", "--b", "1,3,5",
                           "--t-max", "10", "--window", window)
        assert code == 2
        assert f"error: window {window} must satisfy 1 <= LO < HI <= 10" in err


@pytest.mark.parametrize("window, message", [
    ("abc", "window must be LO:HI, got 'abc'"),
    ("1:2:3", "window must be LO:HI, got '1:2:3'"),
    ("400:500", "window 400:500 must satisfy 1 <= LO < HI <= 200"),
])
def test_compare_window_checked_before_sweeps(monkeypatch, capsys, window, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the window was checked")

    monkeypatch.setattr(cli, "regret_series_fixed", no_sweep)
    code, out, err = run(capsys, "compare", "--k", "5", "--a", "1,3", "--b", "1,3,5",
                         "--t-max", "200", "--backend", "exact", "--window", window)
    assert code == 2 and out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--k", "5", "--subset", "comb", "--t-max", "200", "--out", "MISSING"],
    ["compare", "--k", "5", "--a", "1,3", "--b", "1,3,5", "--t-max", "200", "--out", "MISSING"],
    ["optimal", "--k", "3", "--family", "all", "--t", "20", "--trace", "MISSING"],
    ["figure1", "--t-max", "600", "--out-csv", "MISSING", "--out-svg", "OK"],
    ["figure1", "--t-max", "600", "--out-csv", "OK", "--out-svg", "MISSING"],
], ids=["eval", "compare", "optimal", "figure1-csv", "figure1-svg"])
def test_output_paths_checked_before_engines(monkeypatch, capsys, tmp_path, argv):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran before the output paths were checked")

    monkeypatch.setattr(cli, "regret_series_fixed", no_engine)
    monkeypatch.setattr(cli, "value_adaptive", no_engine)
    paths = {"MISSING": str(tmp_path / "missing" / "out"), "OK": str(tmp_path / "ok")}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert "error:" in err


def test_output_path_check_keeps_existing_file(monkeypatch, capsys, tmp_path):
    def failing(*args, **kwargs):
        raise ValueError("engine failed")

    monkeypatch.setattr(cli, "value_adaptive", failing)
    trace = tmp_path / "trace.txt"
    trace.write_text("kept\n")
    code, _, err = run(capsys, "optimal", "--k", "3", "--family", "all", "--t", "5",
                       "--trace", str(trace))
    assert code == 2 and "error: engine failed" in err
    assert trace.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--k", "5", "--subset", "1,3", "--t-max", "5000", "--out", "x.csv"],
    ["figure1", "--t-max", "4096", "--out-csv", "f.csv", "--out-svg", "f.svg"],
], ids=["eval", "figure1"])
def test_failed_command_removes_only_files_it_created(monkeypatch, capsys, tmp_path, argv):
    # both horizons pass the packed width, so the engines refuse them
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "error:" in err
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / argv[-1]
    kept.write_bytes(b"kept\r\n\x00")
    code, _, _ = run(capsys, *argv)
    assert code == 2
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_bytes() == b"kept\r\n\x00"


@pytest.mark.parametrize("argv", [
    ["figure1", "--t-max", "8", "--out-csv", "-", "--out-svg", "f.svg"],
    ["figure1", "--t-max", "8", "--out-csv", "f.csv", "--out-svg", "-"],
    ["optimal", "--k", "3", "--family", "all", "--t", "3", "--trace", "-"],
], ids=["figure1-csv", "figure1-svg", "optimal-trace"])
def test_dash_writes_to_stdout(monkeypatch, capsys, tmp_path, argv):
    # '-' means stdout for every output flag: the lines the file would hold
    # are printed, and no file named '-' is created or touched
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, *("expected.out" if a == "-" else a for a in argv))
    assert code == 0
    expected = (tmp_path / "expected.out").read_text().splitlines()
    dash = tmp_path / "-"
    for existing in (None, b"kept\r\n\x00"):
        if existing is not None:
            dash.write_bytes(existing)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert any(lines[i:i + len(expected)] == expected for i in range(len(lines)))
        if existing is None:
            assert not dash.exists()
        else:
            assert dash.read_bytes() == existing


def test_figure1_csv_on_stdout_parses(monkeypatch, capsys, tmp_path):
    # every line that is not a CSV row is a '# ' comment
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "figure1", "--t-max", "120", "--out-csv", "-", "--out-svg", "f.svg")
    assert code == 0
    lines = out.splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    assert comments[-2:] == ["# csv=-", "# svg=f.svg"]
    rows = list(csv.reader(line for line in lines if not line.startswith("# ")))
    assert len(rows) == 121 and rows[0] == ["T", "D"]
    assert all(len(row) == 2 for row in rows)


def test_optimal_k6_reference(capsys):
    code, out, _ = run(capsys, "optimal", "--k", "6", "--family", "1,3,6:1,4,6",
                       "--t", "13")
    assert code == 0
    lines = out.splitlines()
    assert "family=1,3,6:1,4,6" in lines
    assert "t=13" in lines
    assert "expected_max=9.14453125 (2341/2^8)" in lines
    assert "regret=2.64453125 (677/2^8)" in lines
    assert any(line.startswith("nodes=") for line in lines)


@pytest.mark.parametrize("argv, pinned", [
    (["optimal", "--k", "6", "--family", "1,3,6:1,4,6", "--t", "13"],
     ["expected_max=9.14453125", "regret=2.64453125"]),
    # {1,3} and {1,4} tie exactly, and both are reported
    (["best-fixed", "--k", "4", "--t", "80"],
     ["t=80", "scanned=8", "best=1,3", "maximizers=1,3:1,4",
      "expected_max=45.599212323396159", "regret=5.5992123233961584"]),
], ids=["optimal", "best-fixed"])
def test_optimal_float_prints_rounded_exact_value(capsys, argv, pinned):
    code, exact_out, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--backend", "float")
    assert code == 0
    lines = out.splitlines()
    assert all(line in lines for line in pinned)
    # the float lines are the exact lines, correctly rounded; the rest agree
    for line in exact_out.splitlines():
        name, _, text = line.partition("=")
        if name in ("expected_max", "regret"):
            num, exp = text[text.index("(") + 1:-1].split("/2^")
            line = f"{name}={float(Fraction(int(num), 1 << int(exp))):.17g}"
        assert line in lines


def test_optimal_all_family_matches_eval(capsys):
    code, out, _ = run(capsys, "optimal", "--k", "5", "--family", "all", "--t", "10")
    assert code == 0
    expected = regret_series_fixed(5, RankSubset.of(5, (1, 3)), 10).values[10]
    assert f"regret={expected.decimal()} ({expected.interchange()})" in out.splitlines()


def test_optimal_trace_file(tmp_path, capsys):
    p = tmp_path / "trace.txt"
    code, _, _ = run(capsys, "optimal", "--k", "3", "--family", "1,2,3:1",
                     "--t", "4", "--trace", str(p))
    assert code == 0
    lines = p.read_text().splitlines()
    assert lines[0] == "(0,0,0) 4 -> 1"
    for line in lines:
        state_txt, rest = line.split(" ", 1)
        remaining_txt, maxers = rest.split(" -> ")
        assert state_txt.startswith("(") and state_txt.endswith(")")
        assert 1 <= int(remaining_txt) <= 4
        assert maxers


@pytest.mark.parametrize("k, family, t, digest", [
    ("3", "all", "80", "2bd8c5fba22e7a2806866ca73ab817947c194f76d586cc8aa38ff1fd324d691b"),
    ("6", "1,3,6:1,4,6", "13", "1cbaa351d08b2dca44df3463ea9fbe02b227af50a2e475681c7a59e8a206dc61"),
], ids=["k3-all-t80", "k6-pair-t13"])
def test_optimal_trace_digest(tmp_path, capsys, k, family, t, digest):
    # digests of the files written by the recursive memo solver that the
    # layered solver replaced, taken before the replacement: the trace keeps
    # its breadth-first order, members in family order, a-branch first
    p = tmp_path / "trace.txt"
    code, _, _ = run(capsys, "optimal", "--k", k, "--family", family, "--t", t,
                     "--trace", str(p))
    assert code == 0
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def test_best_fixed_small(capsys):
    code, out, _ = run(capsys, "best-fixed", "--k", "2", "--t", "6")
    assert code == 0
    assert "best=1" in out.splitlines()
    code, out, _ = run(capsys, "best-fixed", "--k", "5", "--t", "5")
    assert code == 0
    lines = out.splitlines()
    assert "best=1,3" in lines
    assert "scanned=16" in lines


def test_figure1_outputs(tmp_path, capsys):
    csv = tmp_path / "fig.csv"
    svg = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "figure1", "--t-max", "40",
                       "--out-csv", str(csv), "--out-svg", str(svg))
    assert code == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "T,D" and len(rows) == 41
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert any(line.startswith("certified_min_from_t5=") for line in out.splitlines())
    assert f"csv={csv}" in out.splitlines()
    assert f"svg={svg}" in out.splitlines()


def test_figure1_rejects_bad_t_max(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure1", "--t-max", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    # k = 5 packs 12 bits per gap, so a gap, and a horizon, stops at 4095
    code, _, err = run(capsys, "figure1", "--t-max", "4096",
                       "--out-csv", str(tmp_path / "c"), "--out-svg", str(tmp_path / "s"))
    assert code == 2
    assert "packed-gap range" in err


def test_verify_closed_form(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "k2-closed-form")
    assert code == 0
    lines = out.splitlines()
    assert lines[9] == "k2_closed_form_t10: PASS expected=315/2^8, got=315/2^8"
    assert lines[-1] == "60/60 checks passed"


@pytest.mark.parametrize("argv, last", [
    (["--suite", "oracle"], "8/8 checks passed"),
    (["--suite", "all"], "71/71 checks passed"),
])
def test_verify_suite_flags(capsys, argv, last):
    # all = 3 reference values + one oracle check per k = 4 subset + T = 1..60 closed form
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("flag", ["--k", "--t-max"])
def test_verify_takes_no_size_flags(capsys, flag):
    # the suites have fixed sizes
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "oracle", flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_oracle_reports_disagreement(monkeypatch, capsys):
    # an oracle that disagrees from T = 3 on: each subset fails there
    def off_by_half(k, subset, t):
        value = brute_regret_fixed(k, subset, t)
        return Dyadic(value + HALF) if t >= 3 else value

    monkeypatch.setattr("combregret.checks.brute_regret_fixed", off_by_half)
    code, out, _ = run(capsys, "verify", "--suite", "oracle")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "0/8 checks passed"
    engine = regret_series_fixed(4, RankSubset.of(4, (1,)), 3).values[3]
    assert lines[0] == (
        f"oracle_k4_subset_1: FAIL expected=T=3: {Dyadic(engine + HALF).interchange()}, "
        f"got={engine.interchange()}"
    )


def test_verify_reference_values(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reference-values")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k6_t13_adaptive: PASS")
    assert lines[-1] == "3/3 checks passed"


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_suite",
        lambda name: [CheckResult("stub", False, "x", "y")],
    )
    code, out, _ = run(capsys, "verify", "--suite", "oracle")
    assert code == 1
    assert "stub: FAIL expected=x, got=y" in out
    assert "0/1 checks passed" in out


def test_bad_suite_and_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_eps():
    assert cli._parse_eps("2^-50") == 2.0 ** -50
    assert cli._parse_eps("0") == 0.0
    assert cli._parse_eps("1e-9") == 1e-9
    assert cli._parse_eps("2^-1074") == 5e-324
    with pytest.raises(Exception):
        cli._parse_eps("-1")


# a threshold that rounds to 0 as a float would silently switch pruning off
@pytest.mark.parametrize("text", ["nan", "inf", "2^5000", "2^-2000", "1e-400"])
def test_prune_rejects_non_finite(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--k", "3", "--subset", "1", "--t-max", "4", "--prune", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--prune" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["2^x", "abc"])
def test_prune_rejects_malformed(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--k", "5", "--subset", "1,3", "--t-max", "5", "--prune", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --prune: prune threshold {text} is not 0, a float or 2^N" in err
    assert "_parse_eps" not in err


@pytest.mark.parametrize("argv", [
    ["optimal", "--k", "3", "--family", "all", "--t", "5"],
    ["best-fixed", "--k", "3", "--t", "5"],
], ids=["optimal", "best-fixed"])
def test_prune_rejected_where_unused(capsys, argv):
    # neither command sweeps with pruning, so --prune is not an option of either
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--prune", "2^-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --prune" in capsys.readouterr().err


def test_float_sweep_survives_empty_frontier(capsys):
    # eps 0.6 prunes both halves of day 1, leaving nothing to step
    rows = {}
    for backend in ("exact", "float"):
        code, out, _ = run(capsys, "eval", "--k", "3", "--subset", "1", "--t-max", "4",
                           "--backend", backend, "--prune", "0.6")
        assert code == 0
        rows[backend] = [
            (int(t), float(regret), float(bound))
            for t, regret, _, bound in (line.split(",") for line in out.splitlines()[1:])
        ]
    assert rows["float"] == rows["exact"]
    assert rows["exact"][-1] == (4, -1.0, 3.0)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_sweep_budget_exit_code(capsys, monkeypatch, backend):
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 100)
    code, out, err = run(capsys, "eval", "--k", "5", "--subset", "comb", "--t-max", "30",
                         "--backend", backend)
    assert code == 2
    assert "table exceeded 100 rows" in err and "Traceback" not in err


def test_exact_sweep_byte_budget_exit_code(capsys, monkeypatch):
    # k = 2 reaches T + 1 states by day T, so T = 300 fits a 400-row float
    # table; the exact counts take 8 limbs by day 213, when 214 rows at
    # 128 B plus 16 B per further limb pass the 400 * 128 B budget
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 400)
    argv = ["eval", "--k", "2", "--subset", "1", "--t-max", "300", "--backend"]
    code, out, _ = run(capsys, *argv, "float", "--prune", "0")
    assert code == 0 and out.splitlines()[-1].startswith("300,")
    code, out, err = run(capsys, *argv, "exact")
    assert code == 2 and out == ""
    assert "exact sweep exceeded 51200 bytes: 214 rows of 8 limbs" in err
    assert "Traceback" not in err


def test_best_fixed_budget_exit_code(capsys, monkeypatch):
    # a group of subsets splits in two before its pair table passes the row
    # or byte budget, down to one subset, whose table has a one-subset
    # sweep's budget: under 1,000 rows k = 5 answers up to T = 32, as the
    # sixteen sweeps do, and at T = 33 one subset's counts pass 128,000 B
    _, want, _ = run(capsys, "best-fixed", "--k", "5", "--t", "11")
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 1000)
    code, out, _ = run(capsys, "best-fixed", "--k", "5", "--t", "11")
    assert code == 0 and out == want
    code, out, _ = run(capsys, "best-fixed", "--k", "5", "--t", "32")
    assert code == 0 and "t=32" in out.splitlines()
    code, out, err = run(capsys, "best-fixed", "--k", "5", "--t", "33")
    assert code == 2 and out == ""
    assert "exact sweep exceeded 128000 bytes: 958 rows of 2 limbs" in err
    assert "Traceback" not in err
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 100)
    code, out, err = run(capsys, "best-fixed", "--k", "5", "--t", "12")
    assert code == 2 and out == ""
    assert "table exceeded 100 rows" in err and "Traceback" not in err


def test_wide_family_table_budget_exit_code(capsys, monkeypatch):
    # a table row of the 32 subsets of k = 6 holds 64 child rows and 64
    # deltas, 593 B against 35 B for one member, so the cap scales to
    # 100,000 * 35 // 593 rows; the k = 6 solves need 5,542 rows at T = 15
    # and more than 5,902 at T = 16
    monkeypatch.setattr("combregret.forward.MAX_TABLE_ROWS", 100_000)
    code, out, _ = run(capsys, "optimal", "--k", "6", "--family", "1,3,6", "--t", "16")
    assert code == 0 and "t=16" in out.splitlines()
    code, out, _ = run(capsys, "optimal", "--k", "6", "--family", "all", "--t", "15")
    assert code == 0 and "t=15" in out.splitlines()
    code, out, err = run(capsys, "optimal", "--k", "6", "--family", "all", "--t", "16")
    assert code == 2
    assert "table exceeded 5902 rows" in err and "Traceback" not in err


def test_sweeps_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use, about 1.2 MB of RSS; neither
    # forward backend nor figure1's analysis needs it
    script = (
        "import sys\n"
        "from combregret import cli\n"
        "assert cli.main(['eval', '--k', '5', '--subset', 'comb', '--t-max', '40',\n"
        "                 '--backend', 'exact', '--out', sys.argv[1] + '/eval.csv']) == 0\n"
        "assert cli.main(['figure1', '--t-max', '120', '--out-csv', sys.argv[1] + '/f.csv',\n"
        "                 '--out-svg', sys.argv[1] + '/f.svg']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
