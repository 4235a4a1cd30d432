"""Problem-file parsing, report rendering, exit codes and determinism."""

import json
import time

import pytest

from zeroloci import cli
from zeroloci.cli import ProblemFileError, main, parse_problem_file, run
from zeroloci.complexes import ComplexInvariantError
from zeroloci.gtheory import CrossCheckError

DIVISOR = """\
[ring]
variables = x
degrees = 1

[section]
entries = x : 1

[task]
kind = verify-excess
cutoff = 8
"""

NON_REGULAR = """\
[ring]
variables = x, y
degrees = 1, 1

[section]
entries = x*y : 2, x^2 : 2

[task]
kind = {kind}
"""

CRIT = """\
[ring]
variables = x, y
degrees = 1, 1

[task]
kind = crit
potential = x^2*y
"""

TRUNCATED_SYM = """\
[ring]
variables = x, y
degrees = 1, 1

[section]
entries = x : 1, y : 1

[task]
kind = verify-sym-ga
cutoff = 8
sym_max = 1
"""

STRONG = """\
[ring]
variables = x, y
degrees = 1, 1

[ambient]
entries = x : 1, x : 1

[section]
entries = y : 1

[task]
kind = verify-strong
"""


def write(tmp_path, text, name="problem.zlp"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- parsing ------------------------------------------------------------------


def test_parse_problem_file_roundtrip():
    problem = parse_problem_file(DIVISOR)
    assert problem.kind == "verify-excess"
    assert problem.cutoff == 8
    assert problem.ring.variables == ("x",)


def test_unknown_key_rejected():
    with pytest.raises(ProblemFileError, match="unknown key"):
        parse_problem_file(DIVISOR + "color = red\n")


def test_unknown_block_rejected():
    with pytest.raises(ProblemFileError, match="unknown block"):
        parse_problem_file("[rings]\nvariables = x\n")


def test_bad_task_kind_rejected():
    with pytest.raises(ProblemFileError, match="kind"):
        parse_problem_file(NON_REGULAR.format(kind="explode"))


def test_degree_inferred_from_entry():
    problem = parse_problem_file(
        "[ring]\nvariables = x\ndegrees = 1\n[section]\nentries = x^3\n"
        "[task]\nkind = gclass\n")
    assert problem.section[0][1] == 3


def test_zero_entry_needs_degree():
    with pytest.raises(ProblemFileError, match="degree"):
        parse_problem_file(
            "[ring]\nvariables = x\ndegrees = 1\n[section]\nentries = 0\n"
            "[task]\nkind = gclass\n")


# -- execution ----------------------------------------------------------------


def test_verify_excess_divisor(tmp_path):
    code, report = run(write(tmp_path, DIVISOR))
    assert code == 0
    assert report.status == "PASS"
    table = report.tables["restricted_pushforward"]
    assert table.entries == {(0, 0): 1, (-1, 1): 1}


def test_gclass_repeated(tmp_path):
    text = ("[ring]\nvariables = x\ndegrees = 1\n[section]\n"
            "entries = x : 1, x : 1\n[task]\nkind = gclass\n")
    code, report = run(write(tmp_path, text))
    assert code == 0
    assert report.kclass == "1 - 2*t + t^2"


def test_crit_emits_presentation(tmp_path):
    code, report = run(write(tmp_path, CRIT))
    assert code == 0
    assert report.presentation["section"] == ["2*x*y : 2", "x^2 : 2"]


def test_crit_then_verifier(tmp_path):
    code, report = run(write(tmp_path, CRIT), then="verify-excess")
    assert code == 0
    assert report.status == "PASS"
    assert report.task == "crit --then verify-excess"


def test_then_requires_crit(tmp_path):
    with pytest.raises(ProblemFileError, match="--then"):
        run(write(tmp_path, DIVISOR), then="gclass")


def test_truncated_sym_fails_with_witness(tmp_path):
    code, report = run(write(tmp_path, TRUNCATED_SYM))
    assert code == 1
    assert report.status == "FAIL"
    assert report.witness is not None
    assert {"coh_degree", "internal_degree", "lhs", "rhs"} <= set(report.witness)


def test_verify_strong(tmp_path):
    code, report = run(write(tmp_path, STRONG))
    assert code == 0
    assert report.kclass == "1 - 3*t + 3*t^2 - t^3"


@pytest.mark.parametrize("kind", ["homology", "gclass", "virtual-class",
                                  "verify-excess", "verify-lefschetz",
                                  "verify-sym-ga", "vpull"])
def test_all_section_tasks_run(tmp_path, kind):
    code, report = run(write(tmp_path, NON_REGULAR.format(kind=kind)))
    assert code == 0
    assert report.status in ("PASS", "INFO")


# -- main() and exit codes -------------------------------------------------------


def test_main_pass(tmp_path, capsys):
    assert main([write(tmp_path, DIVISOR)]) == 0
    out = capsys.readouterr().out
    assert "status:  PASS" in out


def test_main_fail_exit_one(tmp_path, capsys):
    assert main([write(tmp_path, TRUNCATED_SYM)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_missing_file_exit_two(capsys):
    assert main(["/nonexistent/problem.zlp"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_parse_error_exit_two(tmp_path, capsys):
    path = write(tmp_path, "[ring]\nvariables = x\ndegrees = 1\n[section]\n"
                           "entries = x + : 1\n[task]\nkind = gclass\n")
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_main_deep_nesting_exit_two(tmp_path, capsys):
    entry = "(" * 400 + "x" + ")" * 400
    path = write(tmp_path, "[ring]\nvariables = x\ndegrees = 1\n[section]\n"
                           f"entries = {entry} : 1\n[task]\nkind = gclass\n")
    assert main([path]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_main_large_exponent_exit_two(tmp_path, capsys):
    path = write(tmp_path, "[ring]\nvariables = x\ndegrees = 1\n[section]\n"
                           "entries = x^100000000 : 100000000\n[task]\nkind = gclass\n")
    started = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - started < 0.5
    assert "exponent 100000000 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [CrossCheckError, ComplexInvariantError])
def test_main_engine_fault_exit_three(tmp_path, capsys, monkeypatch, fault):
    def broken(p):
        raise fault("injected")

    monkeypatch.setattr(cli, "koszul_complex", broken)
    assert main([write(tmp_path, NON_REGULAR.format(kind="gclass"))]) == 3
    assert "engine fault: injected" in capsys.readouterr().err


def test_main_invariant_violation_exit_two(tmp_path, capsys):
    path = write(tmp_path, "[ring]\nvariables = x, y\ndegrees = 1, 1\n[section]\n"
                           "entries = x + x*y : 1\n[task]\nkind = gclass\n")
    assert main([path]) == 2
    assert "homogeneous" in capsys.readouterr().err


# -- JSON output --------------------------------------------------------------------


def test_json_schema_fields(tmp_path, capsys):
    assert main([write(tmp_path, DIVISOR), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"task", "status", "version", "input_sha256", "tables"} <= set(doc)
    assert "elapsed" not in json.dumps(doc)
    assert doc["status"] == "PASS"
    assert len(doc["input_sha256"]) == 64


def test_json_witness_on_fail(tmp_path, capsys):
    assert main([write(tmp_path, TRUNCATED_SYM), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "FAIL"
    assert "witness" in doc


def test_json_deterministic_across_runs_and_threads(tmp_path, capsys):
    path = write(tmp_path, NON_REGULAR.format(kind="verify-excess"))
    outputs = []
    for argv in ([path, "--json"], [path, "--json"], [path, "--json", "--threads", "3"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_text_and_json_carry_same_data(tmp_path):
    code, report = run(write(tmp_path, DIVISOR))
    text = report.to_text()
    doc = json.loads(report.to_json())
    assert doc["status"] in text
    assert doc["input_sha256"] in text
    for name in doc.get("tables", {}):
        assert f"table {name}" in text
