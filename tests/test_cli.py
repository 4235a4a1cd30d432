"""Problem-file parsing, report rendering, exit codes and determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import zeroloci
from zeroloci import chains, cli, groebner, gtheory
from zeroloci.cli import ProblemFileError, main, parse_problem_file, run
from zeroloci.complexes import MAX_GENERATORS, ComplexInvariantError
from zeroloci.gtheory import CrossCheckError, KClass, excess_certificate
from zeroloci.homology import MAX_CELL_ENTRIES, MAX_RANK_CELLS, MAX_TABLE_CELLS
from zeroloci.polyalg import _MAX_COEFFICIENT_BITS, _MAX_TERM_PRODUCTS, PolyMatrix

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


def test_main_non_ascii_digit_exit_two(tmp_path, capsys):
    path = tmp_path / "problem.zlp"
    path.write_bytes("[ring]\nvariables = x\ndegrees = 1\n[section]\n"
                     "entries = \u0663*x : 1\n[task]\nkind = gclass\n".encode("utf-8"))
    assert main([str(path)]) == 2
    assert "unexpected character" in capsys.readouterr().err


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


def test_main_rank_cell_limit_exit_two(tmp_path, capsys):
    # one differential over 100001 internal degrees: refused before any assembly
    path = write(tmp_path, DIVISOR.replace("cutoff = 8", "cutoff = 100000"))
    started = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert "100001 rank cells" in err and f"limit of {MAX_RANK_CELLS}" in err


def test_class_identities_leave_numpy_unloaded(tmp_path):
    # numpy is imported by the modular rank kernel only, the groebner module by the
    # Koszul table only, and the chain-level layer by explicit differentials only;
    # a run without any of them must not pay for their import
    path = write(tmp_path, NON_REGULAR.format(kind="verify-lefschetz") + "module = x : 1\n")
    script = ("import sys\n"
              "import zeroloci\n"
              "loaded = lambda: tuple(name in sys.modules for name in\n"
              "                       ('numpy', 'zeroloci.groebner', 'zeroloci.chains'))\n"
              "imported = loaded()\n"
              "from zeroloci.cli import main\n"
              "code = main([sys.argv[1]])\n"
              "print(imported, code, loaded())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "status:  PASS" in done.stdout
    assert done.stdout.splitlines()[-1] == "(False, False, False) 0 (False, False, False)"


def test_run_leaves_dataclasses_inspect_and_argparse_unloaded(tmp_path):
    # the benchmark path (cli.run, then to_json) pays for no module the package does not use:
    # its records are plain classes, and only main parses options.  A module the interpreter
    # loaded before the import does not count against the package.
    path = write(tmp_path, NON_REGULAR.format(kind="homology"))
    script = ("import sys\n"
              "names = ('dataclasses', 'inspect', 'argparse', 'numpy', 'zeroloci.groebner',\n"
              "         'zeroloci.chains', 'hashlib')\n"
              "before = {name for name in names if name in sys.modules}\n"
              "from zeroloci import cli\n"
              "imported = {name for name in names if name in sys.modules} - before\n"
              "code, report = cli.run(sys.argv[1])\n"
              "report.to_json()\n"
              "after = {name for name in names if name in sys.modules} - before\n"
              "print(sorted(imported), code, sorted(after))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # the Koszul table of a non-regular section needs the Groebner basis, nothing
    # else: no rank cell, so not the chain-level layer
    assert done.stdout.splitlines()[-1] == "[] 0 ['zeroloci.groebner']"


def test_input_digest_is_the_sha256_of_the_file(tmp_path):
    assert cli.sha256(b"zeroloci").hexdigest() == hashlib.sha256(b"zeroloci").hexdigest()
    text = NON_REGULAR.format(kind="gclass")
    code, report = run(write(tmp_path, text))
    assert code == 0
    assert report.input_sha256 == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("module, message", [
    ("1 : 0", "[task] module entry 0: declared degree must be >= 1"),
    ("x : 1, x + y^2 : 2", "[task] module entry 1: x + y^2 is not homogeneous of declared "
                           "degree 2"),
])
def test_main_module_entry_errors_name_the_module(tmp_path, capsys, module, message):
    text = NON_REGULAR.format(kind="verify-lefschetz") + f"module = {module}\n"
    assert main([write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert message in err and "section" not in err


def test_main_help_and_unknown_option(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert "--cutoff" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exited:
        main(["problem.zlp", "--no-such-flag"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_reports_are_mutable_and_own_their_tables_and_notes():
    a, b = cli.Report("homology", "INFO", "ab"), cli.Report(task="homology", status="INFO",
                                                            input_sha256="ab")
    assert a == b and a.tables is not b.tables and a.notes is not b.notes
    a.status = "FAIL"
    a.notes.append("n")
    assert a != b and (a.exit_code, b.exit_code) == (1, 0) and b.notes == []
    assert repr(b) == ("Report(task='homology', status='INFO', input_sha256='ab', kclass=None, "
                       f"tables={{}}, witness=None, presentation=None, notes=[], elapsed_s=0.0, "
                       f"version='{zeroloci.__version__}')")


@pytest.mark.parametrize("fault", [CrossCheckError, ComplexInvariantError, KeyError])
def test_main_engine_fault_exit_three(tmp_path, capsys, monkeypatch, fault):
    def broken(p, cutoff):
        raise fault("injected")

    monkeypatch.setattr(cli, "koszul_table", broken)
    assert main([write(tmp_path, NON_REGULAR.format(kind="homology"))]) == 3
    assert "engine fault: injected" in capsys.readouterr().err


def test_main_uncertified_groebner_basis_exit_three(tmp_path, capsys, monkeypatch):
    # a basis short of its last element fails its certificate: an engine fault
    original = groebner.groebner_basis
    monkeypatch.setattr(groebner, "groebner_basis", lambda polys, top: original(polys, top)[:-1])
    assert main([write(tmp_path, NON_REGULAR.format(kind="homology"))]) == 3
    captured = capsys.readouterr()
    assert "engine fault: the Groebner basis of the entries is not certified" in captured.err
    assert captured.out == ""


def test_main_vpull_route_mismatch_exit_three(tmp_path, capsys, monkeypatch):
    # the two vpull routes agree on any correct engine; a mismatch is a fault, not a FAIL
    monkeypatch.setattr(cli, "vpull_via_homology", lambda p, rep: KClass.parse("1 + t"))
    assert main([write(tmp_path, NON_REGULAR.format(kind="vpull"))]) == 3
    captured = capsys.readouterr()
    assert "engine fault: vpull mismatch" in captured.err
    assert captured.out == ""


TEN_VARIABLES = ("[ring]\nvariables = a, b, c, d, e, f, g, h, i, j\n"
                 "degrees = 1, 1, 1, 1, 1, 1, 1, 1, 1, 1\n")
HOSTILE_SIZES = {
    # 12 entries: a Koszul complex of 4096 generators
    "generators": ("[ring]\nvariables = x\ndegrees = 1\n[section]\nentries = "
                   + ", ".join(["x : 1"] * 12) + "\n[task]\nkind = homology\n",
                   f"4096 generators, more than the limit of {MAX_GENERATORS}"),
    # one generator per unit of the input class
    "kappa": (NON_REGULAR.format(kind="vpull") + "kappa = 100000000\n",
              f"100000000 generators, more than the limit of {MAX_GENERATORS}"),
    # ten variables at cutoff 10, an ideal of grade 1 in three entries: the d^-2 cell
    # in degree 10 maps 3 pieces of 5005 monomials to 3 pieces of 24310
    "cell": (TEN_VARIABLES + "[section]\nentries = a*b : 2, a*c : 2, a*d : 2\n"
             "[task]\nkind = homology\ncutoff = 10\n",
             f"72930 x 15015 = 1095043950 entries, more than the limit of {MAX_CELL_ENTRIES}"),
    # the zero section has no differential, hence no rank cell: two terms over 200001 degrees
    "window": ("[ring]\nvariables = x, y\ndegrees = 1, 1\n[section]\nentries = 0 : 1\n"
               "[task]\nkind = homology\ncutoff = 200000\n",
               f"400002 table cells, more than the limit of {MAX_TABLE_CELLS}"),
    # the homology route of virtual-class runs up to the largest twist, here 10^8
    "zero-degree": ("[ring]\nvariables = x\ndegrees = 1\n[section]\nentries = 0 : 100000000\n"
                    "[task]\nkind = virtual-class\n",
                    f"200000002 table cells, more than the limit of {MAX_TABLE_CELLS}"),
    # a negative truncation is refused before the Koszul complex is built
    "negative-sym-max": (TRUNCATED_SYM.replace("sym_max = 1", "sym_max = -1"),
                         "n_max must be >= 0"),
}
# four dense quadrics over ten variables at the default cutoff 16: the Groebner
# basis stops at its work limit, and the rank route refuses its largest cell before
# the Koszul complex is built
DENSE_QUADRICS = ", ".join(
    " + ".join(f"{(7 * q + 3 * m) % 11 + 1}*{x}*{y}" for m, (x, y) in enumerate(
        (x, y) for k, x in enumerate("abcdefghij") for y in "abcdefghij"[k:])) + " : 2"
    for q in range(4))
HOSTILE_SIZES["dense-quadrics"] = (
    TEN_VARIABLES + f"[section]\nentries = {DENSE_QUADRICS}\n[task]\nkind = homology\n",
    f"2042975 x 3268760 = 6677994961000 entries, more than the limit of {MAX_CELL_ENTRIES}")
# a short power of a sum: each product costs one step per pair of terms
for name, power in (("four", "(x + y + z + w)^1000"), ("two", "(x + y)^1000")):
    HOSTILE_SIZES[f"power-of-{name}-terms"] = (
        "[ring]\nvariables = x, y, z, w\ndegrees = 1, 1, 1, 1\n[section]\n"
        f"entries = {power} : 1000\n[task]\nkind = homology\n",
        f"term products, more than the limit of {_MAX_TERM_PRODUCTS}")
# a power of a power of a large number: one term, but a coefficient of 10^9 bits
for outer in (1000, 10):
    HOSTILE_SIZES[f"coefficient-bits-{outer}"] = (
        "[ring]\nvariables = x\ndegrees = 1\n[section]\n"
        f"entries = ((2^1000)^1000)^{outer}*x : 1\n[task]\nkind = homology\ncutoff = 2\n",
        f"bits, more than the limit of {_MAX_COEFFICIENT_BITS}")
# number literals too long for int(): refused by their digit count, with a position
for name, entry, message in (
        ("coefficient", "1" + "0" * 5000 + "*x",
         f"a number of 5001 digits has more bits than the limit of {_MAX_COEFFICIENT_BITS} "
         "at position 0"),
        ("denominator", "1/" + "7" * 5000 + "*x",
         f"a number of 5000 digits has more bits than the limit of {_MAX_COEFFICIENT_BITS} "
         "at position 2"),
        ("exponent", "x^" + "1" * 5000, "exponent of 5000 digits exceeds 1000 at position 2")):
    HOSTILE_SIZES[f"long-{name}-literal"] = (
        "[ring]\nvariables = x\ndegrees = 1\n[section]\n"
        f"entries = {entry} : 1\n[task]\nkind = homology\n", message)
# windows of 2^63 degrees or more, past what len() of a range can count
HUGE = 10**20
for kind in ("homology", "verify-excess", "verify-sym-ga"):
    HOSTILE_SIZES[f"huge-cutoff-{kind}"] = (
        DIVISOR.replace("verify-excess", kind).replace("cutoff = 8", f"cutoff = {HUGE}"),
        f"{HUGE + 1} rank cells, more than the limit of {MAX_RANK_CELLS}")
for kind in ("virtual-class", "vpull"):
    HOSTILE_SIZES[f"huge-degree-{kind}"] = (
        HOSTILE_SIZES["zero-degree"][0].replace("100000000", str(HUGE)).replace(
            "virtual-class", kind),
        f"{2 * HUGE + 2} table cells, more than the limit of {MAX_TABLE_CELLS}")


@pytest.mark.parametrize("case", sorted(HOSTILE_SIZES))
def test_main_size_limits_exit_two(tmp_path, capsys, case):
    text, message = HOSTILE_SIZES[case]
    started = time.perf_counter()
    assert main([write(tmp_path, text)]) == 2
    assert time.perf_counter() - started < 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["verify-excess", "verify-sym-ga"])
def test_main_huge_cutoff_option_exit_two(tmp_path, capsys, kind):
    path = write(tmp_path, DIVISOR.replace("verify-excess", kind))
    assert main([path, "--cutoff", str(HUGE)]) == 2
    assert f"{HUGE + 1} rank cells" in capsys.readouterr().err


def test_main_regular_ten_variables_needs_no_rank_cell(tmp_path):
    # a : 1 over ten variables is regular, so its table is the complete-intersection
    # series in H^0 alone, read off a Groebner basis with no rank cell
    text = TEN_VARIABLES + "[section]\nentries = a : 1\n[task]\nkind = homology\ncutoff = 10\n"
    started = time.perf_counter()
    code, report = run(write(tmp_path, text))
    assert time.perf_counter() - started < 1
    assert code == 0
    assert report.tables["koszul"].entries == {(0, d): comb(d + 8, 8) for d in range(11)}


def test_main_long_window_is_linear(tmp_path, capsys):
    # 10000 degrees of a complex with no differential, one count table per ring
    text = HOSTILE_SIZES["window"][0].replace("200000", "9999")
    started = time.perf_counter()
    assert main([write(tmp_path, text)]) == 0
    assert time.perf_counter() - started < 2
    assert "table koszul" in capsys.readouterr().out


def test_main_excess_certificate_fault_exit_three(tmp_path, capsys, monkeypatch):
    # one sign of Lambda(psi) flipped: the map no longer commutes, an engine fault
    original = gtheory._wedge_sign

    def flipped(s, t, u):
        sign = original(s, t, u)
        return -sign if (s, t, u) == ((), (0,), (0,)) else sign

    monkeypatch.setattr(gtheory, "_wedge_sign", flipped)
    excess_certificate.cache_clear()
    try:
        assert main([write(tmp_path, DIVISOR)]) == 3
    finally:
        excess_certificate.cache_clear()
    captured = capsys.readouterr()
    assert "engine fault: chain map fails to commute" in captured.err
    assert captured.out == ""


def test_main_excess_six_entries_exit_two_before_any_table(tmp_path, capsys, monkeypatch):
    tables = []
    koszul_table, homology_dimensions = gtheory.koszul_table, chains.homology_dimensions
    monkeypatch.setattr(gtheory, "koszul_table",
                        lambda p, cutoff: tables.append(1) or koszul_table(p, cutoff))
    monkeypatch.setattr(chains, "homology_dimensions",
                        lambda c, cutoff: tables.append(1) or homology_dimensions(c, cutoff))
    # the patches see the one table of a one-entry check
    assert main([write(tmp_path, DIVISOR)]) == 0
    assert tables == [1]
    tables.clear()
    capsys.readouterr()
    text = DIVISOR.replace("entries = x : 1", "entries = " + ", ".join(["x : 1"] * 6))
    started = time.perf_counter()
    assert main([write(tmp_path, text)]) == 2
    assert time.perf_counter() - started < 1
    assert f"4096 generators, more than the limit of {MAX_GENERATORS}" in capsys.readouterr().err
    assert tables == []


@pytest.mark.parametrize("kind", ["gclass", "verify-lefschetz"])
def test_class_tasks_build_no_differential(tmp_path, monkeypatch, kind):
    # both classes are read off the Koszul terms: no d o d product is formed
    calls = []
    original = PolyMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counted)
    text = NON_REGULAR.format(kind=kind) + "module = x : 1, x + y : 1\n"
    code, report = run(write(tmp_path, text))
    assert code == 0
    assert report.kclass == ("1 - 2*t^2 + t^4" if kind == "gclass"
                             else str(KClass.parse("(1 - t)^2 * (1 - t^2)^2")))
    assert calls == []


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


def test_json_deterministic_across_runs(tmp_path, capsys):
    path = write(tmp_path, NON_REGULAR.format(kind="verify-excess"))
    outputs = []
    for _ in range(2):
        assert main([path, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_text_and_json_carry_same_data(tmp_path):
    code, report = run(write(tmp_path, DIVISOR))
    text = report.to_text()
    doc = json.loads(report.to_json())
    assert doc["status"] in text
    assert doc["input_sha256"] in text
    for name in doc.get("tables", {}):
        assert f"table {name}" in text
