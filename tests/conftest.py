import pytest

from hopflab.fields import QQ
from hopflab import catalog as cat


@pytest.fixture(scope="session")
def h4():
    return cat.sweedler_h4(QQ)


@pytest.fixture(scope="session")
def kc2():
    return cat.group_algebra_c2(QQ)


@pytest.fixture(scope="session")
def r1(h4):
    return cat.r_t(h4, 1)


@pytest.fixture(scope="session")
def s1(h4):
    return cat.sigma_t(h4, 1)


@pytest.fixture(scope="session")
def mreg(r1):
    return cat.regular_comodule_module(r1)


@pytest.fixture(scope="session")
def unit_obj(h4):
    from hopflab.galois import unit_object
    from hopflab.yd import verify_yd_algebra
    uo = unit_object(h4)
    assert verify_yd_algebra(uo).ok
    return uo
