"""A fixed slice of the backend survey (``tests/backend_survey.py``): its
first 15 rate sets, 5 per configuration, 960 points."""

import pytest

import backend_survey
from eit3.cli import BACKEND_AGREEMENT_TOL

# the 13th set, a lambda one, is misdiagnosed at all 64 of its points
SLICE = 15


@pytest.fixture(scope="module")
def tally():
    return backend_survey.survey(SLICE)


def test_survey_slice_states_are_density_matrices(tally):
    solved = sum(sum(t["solved"].values()) for t in tally.values())
    assert solved == 1792  # of 2 x 960 points; analytic fails 64 vee points
    assert [t["invalid"] for t in tally.values()] == [0, 0, 0]


def test_survey_slice_backends_agree_where_both_solve(tally):
    worst = max(disc for t in tally.values() for disc, *_ in t["both"])
    assert worst <= BACKEND_AGREEMENT_TOL


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: NULL_TOL compares L's raw singular "
                          "values, so stiff systems with a unique state read "
                          "as degenerate")
def test_survey_slice_has_no_misdiagnosed_point(tally):
    assert sum(len(t["misdiagnosed"]) for t in tally.values()) == 0
