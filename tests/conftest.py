import pytest

from hopflab.fields import QQ
from hopflab import catalog as cat


# -- dense references ---------------------------------------------------------
# src/ reads structure tensors as sparse rows only; the tests keep these
# dense forms to check the sparse routes against.

def dense_row(tensor, i, j):
    """t[i,j,:] of a 3-tensor as a dense list: a slice of its row-major
    data."""
    n1, n2 = tensor.shape[1], tensor.shape[2]
    start = (i * n1 + j) * n2
    return tensor.data[start:start + n2]


def apply_rowmap(vec, m):
    """v·M: the image of the coordinate vector vec under the row-as-image
    matrix m, summed entry by entry."""
    out = [m.field.zero] * m.cols
    for r, x in enumerate(vec):
        if not x:
            continue
        row = m.data[r]
        for c in range(m.cols):
            if row[c]:
                out[c] = out[c] + x * row[c]
    return out


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
