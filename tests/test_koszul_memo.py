"""The per-process memos: each input gets one table, term layout or polynomial.

`homology.koszul_table` keeps the last KOSZUL_MEMO_SIZE tables it made,
keyed on what a table reads: the ring, all entries in order (with their
coefficients and declared degrees) and the cutoff.  `zerolocus.exterior_terms`
keeps the last TERMS_MEMO_SIZE term layouts, keyed on the ring and the entry
degrees, and `polyalg.parse_poly` the last PARSE_MEMO_SIZE polynomials, keyed
on the text and the ring.  `conftest.fresh_memos` empties all three before
every test.
"""

import pytest

from zeroloci import cli, groebner
from zeroloci.complexes import WorkLimitError
from zeroloci.homology import KOSZUL_MEMO_SIZE, homology_dimensions, koszul_table
from zeroloci.polyalg import GradedFreeModule, GradedRing, ParseError, parse_poly
from zeroloci.zerolocus import exterior_terms, koszul_complex, koszul_terms

from conftest import RING_X, RING_XY
from test_cli import HOSTILE_SIZES, NON_REGULAR, write
from test_corpus_reports import FIXED, PINS, workloads
from test_zerolocus import pres

RING_UV11 = GradedRing(("u", "v"), (1, 1))


def _memo():
    info = koszul_table.cache_info()
    return info.hits, info.misses, info.currsize


def test_one_presentation_parsed_twice_is_one_table(monkeypatch):
    calls = []
    hilbert_and_grade = groebner.hilbert_and_grade
    monkeypatch.setattr(groebner, "hilbert_and_grade",
                        lambda *args: calls.append(args) or hilbert_and_grade(*args))
    # the parse memo would hand both the same polynomials: empty it in between
    a = pres(RING_XY, [("x*y", 2), ("x^2", 2)])
    parse_poly.cache_clear()
    b = pres(RING_XY, [("x*y", 2), ("x^2", 2)])
    assert a is not b and a.section[0][0] is not b.section[0][0]
    table = koszul_table(a, 8)
    assert koszul_table(b, 8) is table
    assert len(calls) == 1
    assert _memo() == (1, 1, 1)


@pytest.mark.parametrize("first, second", [
    # another cutoff: never cut down from a higher one
    ((pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 8), (pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 7)),
    # another entry order
    ((pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 8), (pres(RING_XY, [("x^2", 2), ("x*y", 2)]), 8)),
    # renamed variables
    ((pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 8), (pres(RING_UV11, [("u*v", 2), ("u^2", 2)]), 8)),
    # another declared degree of a zero entry
    ((pres(RING_XY, [("x", 1), ("0", 1)]), 6), (pres(RING_XY, [("x", 1), ("0", 2)]), 6)),
], ids=["cutoff", "order", "variables", "zero-degree"])
def test_another_input_is_another_table(first, second):
    koszul_table(*first)
    table = koszul_table(*second)
    assert _memo() == (0, 2, 2)
    assert table == homology_dimensions(koszul_complex(second[0]), second[1])


def test_a_cutoff_of_another_type_is_another_key():
    p = pres(RING_X, [("x", 1)])
    koszul_table(p, 4)
    with pytest.raises(TypeError):
        koszul_table(p, 4.0)
    assert _memo() == (0, 2, 1)


def test_an_error_is_raised_again_and_never_kept():
    p = pres(RING_XY, [("x", 1)])
    for _ in range(2):
        with pytest.raises(WorkLimitError, match="rank cells"):
            koszul_table(p, 10**6)
    assert _memo() == (0, 2, 0)


def test_the_least_recently_used_table_is_dropped_past_the_bound():
    p = pres(RING_X, [("x", 1)])
    tables = [koszul_table(p, cutoff) for cutoff in range(KOSZUL_MEMO_SIZE + 1)]
    assert _memo() == (0, KOSZUL_MEMO_SIZE + 1, KOSZUL_MEMO_SIZE)
    assert koszul_table(p, 1) is tables[1]
    again = koszul_table(p, 0)
    assert again is not tables[0] and again == tables[0]
    assert _memo() == (1, KOSZUL_MEMO_SIZE + 2, KOSZUL_MEMO_SIZE)


@pytest.mark.parametrize("kind", ["homology", "verify-excess", "verify-sym-ga"])
def test_a_task_leaves_its_table_as_computed(tmp_path, kind):
    # a task that wrote into the shared table would change every later reader's
    assert cli.run(write(tmp_path, NON_REGULAR.format(kind=kind)))[0] == 0
    cached = koszul_table(pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 8)
    assert _memo() == (1, 1, 1)
    koszul_table.cache_clear()
    assert cached == koszul_table(pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 8)


def test_tasks_on_one_presentation_share_one_table(tmp_path):
    for kind in ("homology", "verify-excess", "verify-sym-ga"):
        assert cli.run(write(tmp_path, NON_REGULAR.format(kind=kind)))[0] == 0
    assert _memo() == (2, 1, 1)


def test_corpus_reports_do_not_depend_on_the_order_of_the_ops(tmp_path):
    # backwards from an empty memo, then forwards with the memo filled
    path = tmp_path / "problem.zlp"
    for problems in (FIXED[::-1], FIXED):
        for problem in problems:
            path.write_text(problem.text)
            code, report = cli.run(str(path), then=problem.then)
            assert [code, workloads.sha256(report.to_json())] == PINS[problem.name], problem.name
    assert koszul_table.cache_info().hits


def test_entries_split_otherwise_between_ambient_and_section_share_a_table():
    # the table reads the ring and all entries in order, not where they sit
    split = pres(RING_XY, [("y", 1), ("x*y", 2)], ambient=[("x", 1)])
    flat = pres(RING_XY, [("x", 1), ("y", 1), ("x*y", 2)])
    assert split != flat and split.all_entries == flat.all_entries
    table = koszul_table(split, 6)
    assert _memo() == (0, 1, 1)
    assert koszul_table(flat, 6) is table
    assert _memo() == (1, 1, 1)
    assert table == homology_dimensions(koszul_complex(flat), 6)


def test_equal_text_over_equal_rings_is_one_polynomial():
    text = "x^2*y - 2/3*x*y^2 + (x - y)^2*y"
    ring = GradedRing(("x", "y"), (1, 1))
    assert ring is not RING_XY and ring == RING_XY
    poly = parse_poly(text, RING_XY)
    assert parse_poly(text, ring) is poly
    # another ring, even with the same variables, is another polynomial
    other = parse_poly(text, GradedRing(("x", "y"), (1, 2)))
    assert other is not poly and other != poly
    info = parse_poly.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_a_parse_error_is_raised_again_and_never_kept():
    positions = []
    for _ in range(2):
        with pytest.raises(ParseError) as error:
            parse_poly("x + * y", RING_XY)
        positions.append(error.value.position)
    assert positions == [4, 4]
    info = parse_poly.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


# one hostile input per memo it reaches: the parser's, the term layouts' (the
# Koszul complex of 12 entries) and the tables' (a window past the limit)
@pytest.mark.parametrize("case, memo", [("power-of-two-terms", parse_poly),
                                        ("generators", exterior_terms),
                                        ("window", koszul_table)])
def test_a_hostile_input_exits_two_on_every_run(tmp_path, capsys, case, memo):
    text, message = HOSTILE_SIZES[case]
    path = write(tmp_path, text)
    for _ in range(2):
        assert cli.main([path]) == 2
        assert message in capsys.readouterr().err
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_equal_layouts_share_one_read_only_mapping():
    a = pres(RING_XY, [("x*y", 2), ("x", 1)])
    b = pres(RING_XY, [("x", 1)], ambient=[("x^2 + y^2", 2)])
    terms = koszul_terms(a)
    assert koszul_terms(b) is terms is exterior_terms(RING_XY, (2, 1))
    assert dict(terms) == koszul_complex(a).terms
    with pytest.raises(TypeError):
        terms[0] = GradedFreeModule(RING_XY, (5,))
    with pytest.raises(TypeError):
        del terms[-1]
    assert koszul_terms(pres(RING_XY, [("x", 1), ("x*y", 2)])) is not terms


def test_one_presentation_through_three_tasks_fills_each_memo_once(tmp_path):
    # as in a corpus sweep: each op parses its file again; gclass reads only the
    # Koszul terms, homology and verify-excess one table at one cutoff
    for kind in ("homology", "gclass", "verify-excess"):
        assert cli.run(write(tmp_path, NON_REGULAR.format(kind=kind)))[0] == 0
    counts = {memo: memo.cache_info()[:2] for memo in (parse_poly, exterior_terms, koszul_table)}
    # (hits, misses): two entries parsed three times; the terms made once by
    # the table and read again by gclass and by verify-excess; one table, read twice
    assert counts == {parse_poly: (4, 2), exterior_terms: (2, 1), koszul_table: (1, 1)}
