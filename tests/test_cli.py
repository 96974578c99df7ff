import numpy as np
import pytest

from causalbell import bell, distributions, separation
from causalbell.cli import run
from causalbell.graph import CondQuery, parse_dag
from causalbell.separation import d_separated, q_separated


@pytest.fixture
def bell_dag_file(tmp_path):
    path = tmp_path / "bell.dag"
    assert run(["gen", "bell-dag", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def pr_file(tmp_path):
    path = tmp_path / "pr.behavior"
    assert run(["gen", "pr-box", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.behavior"
    angles = "0,1.5707963268,0.7853981634,-0.7853981634"
    assert run(["gen", "singlet", "--angles", angles, "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def lhv_file(tmp_path):
    path = tmp_path / "lhv.behavior"
    assert run(["gen", "random-lhv", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def dist_file(tmp_path, bell_dag_file):
    path = tmp_path / "dist.txt"
    assert run([
        "gen", "random-compatible", "--dag", bell_dag_file, "--seed", "5",
        "--out", str(path),
    ]) == 0
    return str(path)


# --- separation verbs ---------------------------------------------------------

def test_dsep_separated(bell_dag_file, capsys):
    assert run(["dsep", bell_dag_file, "--x", "X", "--y", "Y", "--z", ""]) == 0
    assert capsys.readouterr().out.strip() == "separated"


def test_dsep_connected_prints_witness(bell_dag_file, capsys):
    assert run(["dsep", bell_dag_file, "--x", "X", "--y", "Y", "--z", "A,B"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "not separated"
    assert "witness: X->A<-Lambda->B<-Y" in out


def test_qsep_verdicts(bell_dag_file, capsys):
    assert run(["qsep", bell_dag_file, "--x", "X", "--y", "Y", "--z", ""]) == 0
    assert run(["qsep", bell_dag_file, "--x", "A", "--y", "B", "--z", "Lambda"]) == 1
    out = capsys.readouterr().out
    assert "witness: A<-Lambda->B" in out


def test_cli_matches_library_verdicts(bell_dag_file):
    g = parse_dag(open(bell_dag_file).read())
    cases = [
        ({"X"}, {"Y"}, set()),
        ({"X"}, {"Y"}, {"A", "B"}),
        ({"A"}, {"B"}, {"Lambda"}),
        ({"A"}, {"Y"}, set()),
    ]
    for x, y, z in cases:
        q = CondQuery(x, y, z)
        expect_d = 0 if d_separated(g, q).separated else 1
        expect_q = 0 if q_separated(g, q).separated else 1
        argv = ["--x", ",".join(sorted(x)), "--y", ",".join(sorted(y)),
                "--z", ",".join(sorted(z))]
        assert run(["dsep", bell_dag_file] + argv) == expect_d
        assert run(["qsep", bell_dag_file] + argv) == expect_q


# --- comparison ----------------------------------------------------------------

def test_compare_csv_contains_disagreement_row(bell_dag_file, capsys):
    assert run(["compare", bell_dag_file, "--csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "X,Y,Z,d_sep,q_sep,disagree"
    assert "A,B,Lambda,true,false,true" in lines


def test_compare_exit_zero_when_criteria_agree(tmp_path, capsys):
    path = tmp_path / "tiny.dag"
    path.write_text("node X setting 2\nnode A outcome 2\nedge X -> A\n")
    assert run(["compare", str(path)]) == 0


# --- distribution audits ----------------------------------------------------------

def test_markov_and_compat_pass_on_compatible_input(bell_dag_file, dist_file, capsys):
    for verb in ("compat", "markov", "complete"):
        assert run([verb, bell_dag_file, dist_file]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_markov_fails_on_incompatible_input(tmp_path, capsys):
    dag = tmp_path / "pair.dag"
    dag.write_text("node P 2\nnode Q 2\n")
    dist = tmp_path / "copy.txt"
    dist.write_text("vars P:2 Q:2\n0 0 0.5\n1 1 0.5\n")
    assert run(["markov", str(dag), str(dist)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_rpcc_screening_and_violation(tmp_path, bell_dag_file, dist_file, capsys):
    assert run(["rpcc", bell_dag_file, dist_file, "--x", "A", "--y", "B"]) == 0
    assert "screened_by_common_past" in capsys.readouterr().out
    dag = tmp_path / "pair.dag"
    dag.write_text("node P 2\nnode Q 2\n")
    dist = tmp_path / "copy.txt"
    dist.write_text("vars P:2 Q:2\n0 0 0.5\n1 1 0.5\n")
    assert run(["rpcc", str(dag), str(dist), "--x", "P", "--y", "Q"]) == 1
    assert "violates_rpcc" in capsys.readouterr().out


def test_graphoid_cli(dist_file, capsys):
    assert run(["graphoid", dist_file, "--trials", "100", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "graphoid audit" in out
    assert "overall: PASS" in out


# --- behavior verbs ------------------------------------------------------------------

def test_bell_chsh_on_singlet(singlet_file, capsys):
    assert run(["bell-chsh", singlet_file]) == 1  # the bound is violated
    out = capsys.readouterr().out
    assert "variant 0: S = -2.828427125" in out
    assert "variant 4: S = 2.828427125" in out


def test_bell_chsh_single_variant(lhv_file, capsys):
    assert run(["bell-chsh", lhv_file, "--variant", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_bell_member_pr_box_output(pr_file, capsys):
    assert run(["bell-member", pr_file]) == 1
    assert capsys.readouterr().out == "not local: variant 0, S = 4.000000000\n"


def test_bell_member_local_output(lhv_file, capsys):
    # the weights pin the simplex's pivot sequence: another vertex of the
    # optimal face would print other weights for the same behavior
    assert run(["bell-member", lhv_file]) == 0
    assert capsys.readouterr().out == """\
local
w[ 0] = 0.000000000  a(0)=0 a(1)=0 b(0)=0 b(1)=0
w[ 1] = 0.003558948  a(0)=0 a(1)=0 b(0)=1 b(1)=0
w[ 2] = 0.000000000  a(0)=0 a(1)=0 b(0)=0 b(1)=1
w[ 3] = 0.000000000  a(0)=0 a(1)=0 b(0)=1 b(1)=1
w[ 4] = 0.058202060  a(0)=1 a(1)=0 b(0)=0 b(1)=0
w[ 5] = 0.154850893  a(0)=1 a(1)=0 b(0)=1 b(1)=0
w[ 6] = 0.314355295  a(0)=1 a(1)=0 b(0)=0 b(1)=1
w[ 7] = 0.000000000  a(0)=1 a(1)=0 b(0)=1 b(1)=1
w[ 8] = 0.000000000  a(0)=0 a(1)=1 b(0)=0 b(1)=0
w[ 9] = 0.110787731  a(0)=0 a(1)=1 b(0)=1 b(1)=0
w[10] = 0.235832937  a(0)=0 a(1)=1 b(0)=0 b(1)=1
w[11] = 0.019094923  a(0)=0 a(1)=1 b(0)=1 b(1)=1
w[12] = 0.016656726  a(0)=1 a(1)=1 b(0)=0 b(1)=0
w[13] = 0.000000000  a(0)=1 a(1)=1 b(0)=1 b(1)=0
w[14] = 0.086660486  a(0)=1 a(1)=1 b(0)=0 b(1)=1
w[15] = 0.000000000  a(0)=1 a(1)=1 b(0)=1 b(1)=1
"""


def test_bell_nosig(pr_file, tmp_path, capsys):
    assert run(["bell-nosig", pr_file]) == 0
    bad = tmp_path / "sig.behavior"
    table = np.zeros((2, 2, 2, 2))
    for b in range(2):
        for x in range(2):
            for y in range(2):
                table[y, b, x, y] = 0.5
    bad.write_text(bell.format_behavior(bell.Behavior(table)))
    assert run(["bell-nosig", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "1.000000000" in out


def test_bell_qcc(singlet_file, capsys):
    assert run(["bell-qcc", singlet_file]) == 0
    out = capsys.readouterr().out
    assert "A _||_ B | {}" in out
    assert "overall: PASS" in out


# --- generation ------------------------------------------------------------------------

def test_gen_writes_identical_files_per_seed(tmp_path):
    a = tmp_path / "a.behavior"
    b = tmp_path / "b.behavior"
    assert run(["gen", "random-lhv", "--seed", "3", "--out", str(a)]) == 0
    assert run(["gen", "random-lhv", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bell_dag_parses_back(bell_dag_file):
    g = parse_dag(open(bell_dag_file).read())
    assert g.names == ("X", "Y", "A", "B", "Lambda")
    assert len(g.edges) == 4


def test_gen_singlet_reaches_quantum_bound(singlet_file):
    b = bell.parse_behavior(open(singlet_file).read())
    assert abs(bell.chsh_value(b, 0) + 2.0 * np.sqrt(2.0)) <= 1e-9


def test_gen_random_compatible_loads(dist_file, bell_dag_file):
    p = distributions.parse_distribution(open(dist_file).read())
    g = parse_dag(open(bell_dag_file).read())
    assert distributions.compatible(p, g).passed


def test_gen_defaults_to_stdout(capsys):
    assert run(["gen", "pr-box"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16


def test_gen_lambda_card_default_and_override(capsys):
    assert run(["gen", "bell-dag"]) == 0
    assert "node Lambda latent 16" in capsys.readouterr().out.splitlines()
    assert run(["gen", "bell-dag", "--lambda-card", "3"]) == 0
    assert parse_dag(capsys.readouterr().out).cardinality("Lambda") == 3
    assert run(["gen", "bell-dag", "--lambda-card", "0"]) == 2
    captured = capsys.readouterr()
    assert "lambda cardinality must be positive" in captured.err and not captured.out


# --- exit-status contract -----------------------------------------------------------------

def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["frobnicate"]) == 2
    assert run(["dsep"]) == 2
    assert run(["gen", "random-lhv"]) == 2  # --seed is required
    assert run(["gen", "random-compatible", "--seed", "1"]) == 2  # --dag required
    err = capsys.readouterr().err
    assert "requires --seed" in err
    # a negative seed is bad input, caught before any file is read
    missing = str(tmp_path / "nope")
    for argv in (["gen", "random-lhv", "--seed", "-1"],
                 ["gen", "random-compatible", "--dag", missing, "--seed", "-5"],
                 ["graphoid", missing, "--trials", "3", "--seed", "-2"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "seed" in captured.err, argv
        assert not captured.out, argv


def test_bad_tolerance_rejected_before_reading_files(tmp_path, capsys):
    missing = tmp_path / "nope.behavior"
    assert run(["bell-member", str(missing), "--eps", "-1"]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_non_finite_and_oversized_inputs_exit_two(tmp_path, singlet_file, capsys):
    nan_dist = tmp_path / "nan.txt"
    nan_dist.write_text("vars P:2 Q:2\n0 0 nan\n1 1 0.5\n")
    huge = tmp_path / "huge.txt"
    huge.write_text("vars A:100000 B:100000 C:1000\n")
    out = tmp_path / "s.behavior"
    for argv, fragment in (
        (["graphoid", str(nan_dist), "--trials", "5", "--seed", "1"], "finite"),
        (["graphoid", str(huge), "--trials", "5", "--seed", "1"], "cap"),
        (["bell-member", singlet_file, "--eps", "nan"], "tolerance"),
        (["bell-member", singlet_file, "--eps", "inf"], "tolerance"),
        (["gen", "singlet", "--angles", "nan,0,0,0", "--out", str(out)], "finite"),
        (["gen", "singlet", "--angles", "0,inf,0,0", "--out", str(out)], "finite"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert fragment in captured.err and not captured.out, argv
    assert not out.exists()


@pytest.mark.parametrize("fault", [MemoryError(), AssertionError("sweep and search disagree")])
def test_unexpected_exception_is_an_internal_error(bell_dag_file, monkeypatch, capsys, fault):
    def boom(g, q):
        raise fault

    monkeypatch.setattr(separation, "d_separated", boom)
    assert run(["dsep", bell_dag_file, "--x", "X", "--y", "Y"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err
    assert (str(fault) or "MemoryError") in err


def test_bell_member_just_past_the_facet(tmp_path, capsys):
    t = 0.5 + 2e-9
    b = bell.Behavior(t * bell.pr_box().table + (1.0 - t) * np.full((2, 2, 2, 2), 0.25))
    path = tmp_path / "edge.behavior"
    path.write_text(bell.format_behavior(b))
    assert run(["bell-chsh", str(path)]) == 1
    assert run(["bell-member", str(path)]) == 1
    assert capsys.readouterr().out.endswith("not local: variant 0, S = 2.000000008\n")


def test_bad_variant_rejected(singlet_file, capsys):
    assert run(["bell-chsh", singlet_file, "--variant", "9"]) == 2
    assert "variant" in capsys.readouterr().err


def test_missing_file_reports_error(tmp_path, capsys):
    assert run(["dsep", str(tmp_path / "nope.dag"), "--x", "X", "--y", "Y"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.dag"
    path.write_text("node X setting 2\nnode X outcome 2\n")
    assert run(["dsep", str(path), "--x", "X", "--y", "X"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "bad.dag" in err


def test_overlapping_sets_rejected(bell_dag_file, capsys):
    assert run(["dsep", bell_dag_file, "--x", "X", "--y", "X"]) == 2
    assert "overlapping" in capsys.readouterr().err


def test_reports_are_byte_stable(bell_dag_file, dist_file, capsys):
    def capture(argv):
        run(argv)
        return capsys.readouterr().out

    for argv in (
        ["compare", bell_dag_file],
        ["markov", bell_dag_file, dist_file],
        ["graphoid", dist_file, "--trials", "50", "--seed", "1"],
    ):
        assert capture(argv) == capture(argv)
