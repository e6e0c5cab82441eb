"""The answers pinned at the size cap (``tests/cap_answers.py``), run in-process: the
same fourteen sha256 digests that CI checks through the installed ``riordan`` script."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from riordan.cli import main
from riordan.series import Series

from cap_answers import CAP_ANSWERS, dense_bell_g, dense_ones_omega, x_over_g_omega


def test_fourteen_distinct_answers():
    assert len(CAP_ANSWERS) == 14
    assert len({a.name for a in CAP_ANSWERS}) == len({a.argv for a in CAP_ANSWERS}) == 14


def test_the_long_literals_are_the_series_they_name():
    p = 200
    omega = Series(json.loads(dense_ones_omega()))
    assert omega * Series([1, -1], p) == Series([0, 1], p)  # x/(1-x)
    omega = Series(json.loads(x_over_g_omega()))
    assert omega * Series([F(-3, 2), 1, F(2, 5)], p) == Series([0, 1], p)  # x/g
    g = Series(json.loads(dense_bell_g()))
    assert g * Series([1, F(1, 3), 2], p) == Series.one(p)  # 1/(1 + x/3 + 2x^2)


@pytest.mark.parametrize("answer", CAP_ANSWERS, ids=[a.name for a in CAP_ANSWERS])
def test_cap_answer_matches_its_digest(capsys, answer):
    assert main(list(answer.argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == answer.sha256
