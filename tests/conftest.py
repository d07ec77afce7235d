import pytest

from curvezeta.artin import CurveData


@pytest.fixture(scope="session")
def curve_g1():
    """The supersingular genus-one fixture: q=2, trace 0."""
    return CurveData(2, 1, [1, 0, 2], genuine=True, label="g1-fixture")


@pytest.fixture(scope="session")
def curve_g2():
    """The genus-two fixture with numerator 1 + 4t^4 (from y^2+y=x^5 over F_2)."""
    return CurveData(2, 2, [1, 0, 0, 0, 4], genuine=True, label="g2-fixture")


@pytest.fixture(scope="session")
def corpus():
    from corpus import corpus_curves

    return corpus_curves()
