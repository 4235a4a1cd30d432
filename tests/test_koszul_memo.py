"""The Koszul-table memo: each exact input gets one table per process.

`homology.koszul_table` keeps the last KOSZUL_MEMO_SIZE tables it made,
keyed on the presentation (ring, entries in order with their coefficients
and declared degrees) and the cutoff.  `conftest.fresh_koszul_memo` empties
it before every test.
"""

import pytest

from zeroloci import cli, groebner
from zeroloci.complexes import WorkLimitError
from zeroloci.homology import KOSZUL_MEMO_SIZE, homology_dimensions, koszul_table
from zeroloci.polyalg import GradedRing
from zeroloci.zerolocus import koszul_complex

from conftest import RING_X, RING_XY
from test_cli import NON_REGULAR, write
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
    a, b = (pres(RING_XY, [("x*y", 2), ("x^2", 2)]) for _ in range(2))
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
