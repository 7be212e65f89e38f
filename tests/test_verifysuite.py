"""Every case of the ``eiscoeff verify`` catalogue, one test each, named by the case."""

import pytest

from eiscoeff.verifysuite import PAPER_CASES, PROPERTY_CASES


def _params(cases):
    return [pytest.param(check, id=name) for name, check in cases]


@pytest.mark.parametrize("check", _params(PAPER_CASES))
def test_paper(check):
    assert check()


@pytest.mark.parametrize("check", _params(PROPERTY_CASES))
def test_property(check):
    assert check()
