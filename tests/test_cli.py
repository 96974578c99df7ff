import argparse
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import causalbell
from causalbell import bell, cli, distributions, separation
from causalbell.cli import run
from causalbell.graph import CondQuery, GraphError, bell_dag, parse_dag
from causalbell.separation import d_separated, q_separated

ANGLES = "0,1.5707963268,0.7853981634,-0.7853981634"


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
    assert run(["gen", "singlet", "--angles", ANGLES, "--out", str(path)]) == 0
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


def _signalling_behavior() -> bell.Behavior:
    """Alice's outcome copies Bob's setting."""
    table = np.zeros((2, 2, 2, 2))
    for b in range(2):
        for x in range(2):
            for y in range(2):
                table[y, b, x, y] = 0.5
    return bell.Behavior(table)


def test_bell_nosig(pr_file, tmp_path, capsys):
    assert run(["bell-nosig", pr_file]) == 0
    bad = tmp_path / "sig.behavior"
    bad.write_text(bell.format_behavior(_signalling_behavior()))
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


def test_gen_random_lhv_caps_the_hidden_value_cardinality(capsys):
    # rejected before any draw, as an input error, not a failed allocation
    assert run(["gen", "random-lhv", "--seed", "1", "--lambda-card", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: table of 4000000000000 cells exceeds the 1048576 cap\n"
    assert not captured.out


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

    monkeypatch.setattr(causalbell, "d_separated", boom)
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


def test_a_flag_rule_has_the_library_message(singlet_file, dist_file, capsys):
    # the CLI holds no copy of these rules: its stderr is the library's error
    b = bell.parse_behavior(Path(singlet_file).read_text())
    p = distributions.parse_distribution(Path(dist_file).read_text())
    for argv, call in (
        (["bell-chsh", singlet_file, "--variant", "9"], lambda: bell.chsh_value(b, 9)),
        (["graphoid", dist_file, "--trials", "0", "--seed", "1"],
         lambda: distributions.graphoid_audit(p, 1e-9, 0, 1)),
        (["bell-member", singlet_file, "--eps", "nan"],
         lambda: bell.lhv_membership(b, float("nan"))),
        (["gen", "random-lhv", "--seed", "-1"], lambda: bell.random_lhv(-1)),
        (["graphoid", dist_file, "--trials", "3", "--seed", "-2"],
         lambda: distributions.graphoid_audit(p, 1e-9, 3, -2)),
        (["gen", "random-lhv", "--seed", "1", "--lambda-card", "0"],
         lambda: bell.random_lhv(1, 0)),
        (["gen", "bell-dag", "--lambda-card", "0"], lambda: bell_dag(0)),
        (["gen", "singlet", "--angles", "inf,0,0,0"],
         lambda: bell.singlet_behavior(float("inf"), 0.0, 0.0, 0.0)),
    ):
        with pytest.raises(GraphError) as raised:
            call()
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {raised.value}\n"), argv


def test_inputs_are_read_in_order_before_the_library_rules(tmp_path, capsys):
    # the DAG before the distribution, and every file before a rule on the parsed inputs
    dag = tmp_path / "v.dag"
    dag.write_text("node v0 2\nnode v1 2\nnode v2 2\n")
    bad_dag = tmp_path / "bad.dag"
    bad_dag.write_text("node X 2\nnode X 2\n")
    bad_dist = tmp_path / "bad.txt"
    bad_dist.write_text("vars P:2\n0 0.9\n")
    missing = str(tmp_path / "nope.txt")
    for argv, fragment in (
        (["compat", str(bad_dag), str(bad_dist)], f"error: {bad_dag}: line 2"),
        (["rpcc", str(dag), missing, "--x", "v0,v1", "--y", "v2"], f"cannot read {missing}"),
        (["graphoid", missing, "--trials", "0", "--seed", "1"], f"cannot read {missing}"),
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert fragment in captured.err and not captured.out, argv


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


# --- the verb contract: stdout is the library's rendering, the exit code its verdict --------

def _sep(decide, lib, x, y, z=()):
    verdict = decide(lib.dag, CondQuery(x, y, z))
    if verdict.separated:
        return "separated\n", 0
    return f"not separated\nwitness: {verdict.witness}\n", 1


def _audit(report):
    return report.to_text(), 0 if report.passed else 1


def _compare(lib, render):
    report = separation.compare_criteria(lib.dag)
    return render(report), 1 if report.disagreements else 0


def _rpcc(g, p, x, y):
    report = distributions.reichenbach_check(p, g, x, y)
    return report.to_text(), 1 if report.verdict == distributions.VIOLATES_RPCC else 0


def _chsh(b, variants):
    values = [bell.chsh_value(b, v) for v in variants]
    text = "".join(f"variant {v}: S = {s:.9f}\n" for v, s in zip(variants, values))
    return text, 1 if max(values) > 2.0 + 1e-9 else 0


def _member(b):
    verdict = bell.lhv_membership(b)
    return verdict.to_text(), 0 if verdict.local else 1


CONTRACT = [
    (["dsep", "{dag}", "--x", "X", "--y", "Y", "--z", ""],
     lambda lib: _sep(d_separated, lib, {"X"}, {"Y"})),
    (["dsep", "{dag}", "--x", "X", "--y", "Y", "--z", "A,B"],
     lambda lib: _sep(d_separated, lib, {"X"}, {"Y"}, {"A", "B"})),
    (["qsep", "{dag}", "--x", "X", "--y", "Y"],
     lambda lib: _sep(q_separated, lib, {"X"}, {"Y"})),
    (["qsep", "{dag}", "--x", "A", "--y", "B", "--z", "Lambda"],
     lambda lib: _sep(q_separated, lib, {"A"}, {"B"}, {"Lambda"})),
    (["compare", "{dag}"], lambda lib: _compare(lib, lambda r: r.to_text())),
    (["compare", "{dag}", "--csv"], lambda lib: _compare(lib, lambda r: r.to_csv())),
    (["compat", "{dag}", "{dist}"],
     lambda lib: _audit(distributions.compatible(lib.dist, lib.dag))),
    (["compat", "{pair}", "{copy}"],
     lambda lib: _audit(distributions.compatible(lib.copy, lib.pair))),
    (["markov", "{dag}", "{dist}"],
     lambda lib: _audit(distributions.causal_markov_check(lib.dist, lib.dag))),
    (["markov", "{pair}", "{copy}"],
     lambda lib: _audit(distributions.causal_markov_check(lib.copy, lib.pair))),
    (["complete", "{dag}", "{dist}"],
     lambda lib: _audit(distributions.causal_completeness_check(lib.dist, lib.dag))),
    (["complete", "{pair}", "{copy}", "--eps", "1e-6"],
     lambda lib: _audit(distributions.causal_completeness_check(lib.copy, lib.pair, 1e-6))),
    (["rpcc", "{dag}", "{dist}", "--x", "A", "--y", "B"],
     lambda lib: _rpcc(lib.dag, lib.dist, "A", "B")),
    (["rpcc", "{pair}", "{copy}", "--x", "P", "--y", "Q"],
     lambda lib: _rpcc(lib.pair, lib.copy, "P", "Q")),
    (["graphoid", "{dist}", "--trials", "50", "--seed", "7"],
     lambda lib: _audit(distributions.graphoid_audit(lib.dist, 1e-9, 50, 7))),
    (["bell-chsh", "{singlet}"], lambda lib: _chsh(lib.singlet, range(8))),
    (["bell-chsh", "{lhv}", "--variant", "5"], lambda lib: _chsh(lib.lhv, [5])),
    (["bell-member", "{pr}"], lambda lib: _member(lib.pr)),
    (["bell-member", "{lhv}"], lambda lib: _member(lib.lhv)),
    (["bell-nosig", "{pr}"], lambda lib: _audit(bell.no_signalling_check(lib.pr))),
    (["bell-nosig", "{signalling}"],
     lambda lib: _audit(bell.no_signalling_check(lib.signalling))),
    (["bell-qcc", "{singlet}"], lambda lib: _audit(bell.quantum_causality_audit(lib.singlet))),
    (["bell-qcc", "{pr}"], lambda lib: _audit(bell.quantum_causality_audit(lib.pr))),
    (["gen", "bell-dag"], lambda lib: (bell_dag().to_text(), 0)),
    (["gen", "bell-dag", "--lambda-card", "3"], lambda lib: (bell_dag(3).to_text(), 0)),
    (["gen", "singlet", "--angles", ANGLES],
     lambda lib: (bell.format_behavior(bell.singlet_behavior(*map(float, ANGLES.split(",")))),
                  0)),
    (["gen", "pr-box"], lambda lib: (bell.format_behavior(bell.pr_box()), 0)),
    (["gen", "random-lhv", "--seed", "3"],
     lambda lib: (bell.format_behavior(bell.behavior_from_lhv(bell.random_lhv(3))), 0)),
    (["gen", "random-compatible", "--dag", "{dag}", "--seed", "5"],
     lambda lib: (distributions.format_distribution(
         distributions.random_compatible(lib.dag, 5)), 0)),
]


def _verbs() -> list[str]:
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


@pytest.fixture(scope="module")
def library_inputs(tmp_path_factory):
    """Input files written by the library, and the objects parsed back from them."""
    root = tmp_path_factory.mktemp("contract")
    texts = {
        "dag": bell_dag().to_text(),
        "dist": distributions.format_distribution(distributions.random_compatible(bell_dag(), 5)),
        "pair": "node P 2\nnode Q 2\n",
        "copy": "vars P:2 Q:2\n0 0 0.5\n1 1 0.5\n",
        "singlet": bell.format_behavior(bell.singlet_behavior(*bell.CHSH_ANGLES)),
        "pr": bell.format_behavior(bell.pr_box()),
        "lhv": bell.format_behavior(bell.behavior_from_lhv(bell.random_lhv(3))),
        "signalling": bell.format_behavior(_signalling_behavior()),
    }
    parsers = {"dag": parse_dag, "pair": parse_dag, "dist": distributions.parse_distribution,
               "copy": distributions.parse_distribution}
    paths, objects = {}, {}
    for key, text in texts.items():
        path = root / key
        path.write_text(text)
        paths[key] = str(path)
        objects[key] = parsers.get(key, bell.parse_behavior)(text)
    return paths, SimpleNamespace(**objects)


@pytest.mark.parametrize("argv, expect", CONTRACT, ids=[" ".join(a) for a, _ in CONTRACT])
def test_verb_prints_the_library_report_and_exits_with_its_verdict(
        library_inputs, capsys, argv, expect):
    paths, lib = library_inputs
    code = run([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert (captured.out, code) == expect(lib)
    assert not captured.err


def test_contract_covers_every_verb_and_gen_kind():
    assert {argv[0] for argv, _ in CONTRACT} == set(_verbs())
    kinds = {argv[1] for argv, _ in CONTRACT if argv[0] == "gen"}
    assert kinds == {"bell-dag", "singlet", "pr-box", "random-lhv", "random-compatible"}


@pytest.mark.parametrize("verb", _verbs())
def test_every_verb_has_help(verb, capsys):
    assert run([verb, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: causalbell {verb} ")


def test_oversized_graph_is_a_cap_error(tmp_path, capsys):
    path = tmp_path / "chain40.dag"
    path.write_text("".join(f"node v{i} 2\n" for i in range(40))
                    + "".join(f"edge v{i} -> v{i + 1}\n" for i in range(39)))
    assert run(["gen", "random-compatible", "--dag", str(path), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "cap" in captured.err
    assert not captured.out
