import json

import pytest

from pcforge.cli import main
from pcforge.cnf import parse_dimacs, write_dimacs
from pcforge.families import gen_gamma, gen_parity, gen_psi_horn, gen_psi_qhorn
from pcforge.semantics import equivalent, prime_implicates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def psi3_file(tmp_path):
    path = tmp_path / "psi_qhorn_3.cnf"
    formula, _ = gen_psi_qhorn(3)
    path.write_text(write_dimacs(formula))
    return str(path)


def test_gen_writes_dimacs(tmp_path, capsys):
    out = tmp_path / "gamma.cnf"
    code, report, _ = run(capsys, "gen", "gamma_dprime", "3", "-o", str(out))
    assert code == 0
    assert report["clauses"] == 13
    assert parse_dimacs(out.read_text()) == gen_gamma(3, "dprime")


def test_gen_companions(capsys):
    code, report, _ = run(capsys, "gen", "psi_qhorn", "2", "--companions")
    assert code == 0
    assert len(report["companions"]["u_bar"]) == 4


def test_gen_cycle_ext_requires_base(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "cycle_ext")
    assert code == 2 and "base" in err
    base = tmp_path / "base.cnf"
    base.write_text("p cnf 2 2\n1 0\n2 0\n")
    code, report, _ = run(capsys, "gen", "cycle_ext", "--base", str(base))
    assert code == 0 and report["clauses"] == 4


def test_check_urc_reports_witness(psi3_file, capsys):
    code, report, _ = run(capsys, "check", "urc", psi3_file, "--witness")
    assert code == 1
    assert report["verdict"] is False
    assert report["witness"] == [4, 5, 6]
    # the reported witness re-validates against the input file
    from pcforge.propagation import up_closure
    from pcforge.semantics import satisfiable, _model_words, _select
    formula = parse_dimacs(open(psi3_file).read())
    alpha = frozenset(report["witness"])
    assert len(_select(_model_words(formula), alpha)) == 0  # semantically inconsistent
    assert not up_closure(formula, alpha).conflict           # but invisible to propagation


def test_check_pc_true(tmp_path, capsys):
    path = tmp_path / "gp.cnf"
    path.write_text(write_dimacs(gen_gamma(2, "prime")))
    code, report, _ = run(capsys, "check", "pc", str(path))
    assert code == 0 and report["verdict"] is True
    code, report, _ = run(capsys, "check", "pc-dr", str(path))
    assert code == 0 and report["verdict"] is True


def test_check_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 20 1\n1 20 0\n")
    code, _, err = run(capsys, "check", "pc", str(path))
    assert code == 3 and "limit" in err.lower()


def test_up_conflict(tmp_path, capsys):
    path = tmp_path / "conflict.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, report, err = run(capsys, "up", str(path))
    assert code == 0
    assert report["status"] == "conflict"
    assert "CONFLICT" in err


def test_up_empty_clause_does_not_depend_on_assumption_order(tmp_path, capsys):
    path = tmp_path / "units.cnf"
    path.write_text("p cnf 2 2\n1 0\n2 0\n")
    reports = []
    for assume in ("-1 -2", "-2 -1"):
        code, report, _ = run(capsys, "up", str(path), "--assume", assume)
        assert code == 0
        report.pop("timing_ms")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["empty_clause"] == [1]


def test_up_derives_chain(tmp_path, capsys):
    path = tmp_path / "chain.cnf"
    path.write_text("p cnf 3 2\n-1 2 0\n-2 3 0\n")
    code, report, _ = run(capsys, "up", str(path), "--assume", "1")
    assert code == 0
    assert report["derived"] == [1, 2, 3]


def test_primes_roundtrip(tmp_path, capsys):
    src = tmp_path / "psi.cnf"
    src.write_text(write_dimacs(gen_psi_horn(3)))
    out = tmp_path / "primes.cnf"
    code, report, _ = run(capsys, "primes", str(src), "-o", str(out))
    assert code == 0 and report["count"] == 24
    assert parse_dimacs(out.read_text()) == prime_implicates(gen_psi_horn(3))


def test_equiv(tmp_path, capsys):
    a = tmp_path / "a.cnf"
    b = tmp_path / "b.cnf"
    a.write_text(write_dimacs(gen_gamma(2, "base")))
    b.write_text(write_dimacs(gen_gamma(2, "prime")))
    code, report, _ = run(capsys, "equiv", str(a), str(b))
    assert code == 0 and report["verdict"] is True
    b.write_text("p cnf 8 1\n1 0\n")
    code, report, _ = run(capsys, "equiv", str(a), str(b))
    assert code == 1 and report["verdict"] is False


def test_encodes(tmp_path, capsys):
    enc = tmp_path / "enc.cnf"
    spec = tmp_path / "spec.cnf"
    enc.write_text(write_dimacs(gen_parity(3, "encoding")))
    spec.write_text(write_dimacs(gen_parity(3, "cnf")))
    code, report, _ = run(capsys, "encodes", str(enc), str(spec))
    assert code == 0 and report["verdict"] is True


def test_dr_output_has_meta_map(tmp_path, capsys):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 2 1\n1 2 0\n")
    out = tmp_path / "dr.cnf"
    code, report, _ = run(capsys, "dr", str(src), "-o", str(out))
    assert code == 0 and report["meta_vars"] == 4 and report["clauses"] == 4
    text = out.read_text()
    assert "c meta 1 1" in text and "c meta 3 -1" in text
    assert parse_dimacs(text).num_vars == 4


def test_qhorn_recognize(psi3_file, capsys):
    code, report, _ = run(capsys, "qhorn", "recognize", psi3_file)
    assert code == 0
    assert report["weights"]["1"] == 0.5
    assert report["weights"]["4"] == 1.0


def test_qhorn_recognize_negative(tmp_path, capsys):
    path = tmp_path / "nq.cnf"
    path.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    code, report, err = run(capsys, "qhorn", "recognize", str(path))
    assert code == 1 and report["qhorn"] is False
    assert "NOT-QHORN" in err


def test_qhorn_sat(tmp_path, capsys):
    path = tmp_path / "sat.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    code, report, _ = run(capsys, "qhorn", "sat", str(path))
    assert code == 0 and report["satisfiable"] is True


def test_qhorn_compile_verify(tmp_path, psi3_file, capsys):
    out = tmp_path / "enc.cnf"
    code, report, _ = run(capsys, "qhorn", "compile", psi3_file, "-o", str(out), "--verify")
    assert code == 0
    assert report["verified_encoding"] is True and report["verified_urc"] is True
    encoded = parse_dimacs(out.read_text())
    assert len(encoded.aux_vars) == report["aux_vars"]


def test_reduce_urc(tmp_path, capsys):
    path = tmp_path / "gd.cnf"
    path.write_text(write_dimacs(gen_gamma(2, "dprime")))
    code, report, _ = run(capsys, "reduce", "urc", str(path), "--limit", "16")
    assert code == 0
    assert report["before"] == report["after"] == 8


def test_reduce_pc_with_seed(tmp_path, capsys):
    primes = prime_implicates(gen_psi_horn(3))
    path = tmp_path / "primes.cnf"
    path.write_text(write_dimacs(primes))
    code, report, _ = run(capsys, "reduce", "pc", str(path), "--limit", "16", "--seed", "5")
    assert code == 0
    assert report["after"] <= report["before"]
    reduced = parse_dimacs("\n".join(
        ["p cnf %d %d" % (primes.num_vars, len(report["clauses"]))]
        + [" ".join(map(str, c)) + " 0" for c in report["clauses"]]))
    assert equivalent(reduced, primes)


def test_absorb(tmp_path, capsys):
    path = tmp_path / "delta.cnf"
    path.write_text("p cnf 4 3\n-1 2 0\n-1 3 0\n-2 -3 4 0\n")
    code, report, _ = run(capsys, "absorb", str(path), "--clause", "-1 2")
    assert code == 0 and report["verdict"] is True
    code, report, _ = run(capsys, "absorb", str(path), "--clause", "-1 4")
    assert code == 1 and report["verdict"] is False
    code, _, err = run(capsys, "absorb", str(path), "--clause", "2")
    assert code == 2 and "implicate" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cnf"
    path.write_text("p cnf 1 1\n2 0\n")
    code, _, err = run(capsys, "check", "pc", str(path))
    assert code == 2 and "line 2" in err


def test_suite_subset(capsys):
    code, report, err = run(capsys, "suite", "--only", "1,10")
    assert code == 0
    assert report["all_passed"] is True
    assert [r["criterion"] for r in report["results"]] == [1, 10]
    assert "PASS criterion" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "pc", "/nonexistent/file.cnf")
    assert code == 2


def test_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--jobs", "4", "gen", "gamma", "2"])
    assert exit_info.value.code == 2


def test_reports_are_deterministic_modulo_timing(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(write_dimacs(gen_psi_qhorn(2)[0]))
    reports = []
    for _ in range(2):
        _, report, _ = run(capsys, "check", "urc", str(path), "--witness")
        report.pop("timing_ms")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
