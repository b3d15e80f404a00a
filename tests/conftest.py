import sys

import pytest

from fanforge import assemble, build


@pytest.fixture
def int_text_limit():
    """Sets the interpreter's int-to-str digit limit for one test, then puts
    the old one back; skipped where the interpreter has no such limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def st_0_4():
    return build(0, 4)


@pytest.fixture(scope="session")
def st_1_4():
    return build(1, 4)


@pytest.fixture(scope="session")
def st_2_16():
    return build(2, 16)


@pytest.fixture(scope="session")
def st_3_16():
    return build(3, 16)


@pytest.fixture(scope="session")
def st_3_32():
    return build(3, 32)


@pytest.fixture(scope="session")
def st_3_16t():
    return build(3, 16, strict=False)


@pytest.fixture(scope="session")
def st_4_16t():
    # below the strict interleaving threshold for depth 4; tolerant build
    return build(4, 16, strict=False)


@pytest.fixture(scope="session")
def st_4_32():
    return build(4, 32)


@pytest.fixture(scope="session")
def st_5_32t():
    return build(5, 32, strict=False)


@pytest.fixture(scope="session")
def model_1_4(st_1_4):
    return assemble(st_1_4)


@pytest.fixture(scope="session")
def model_2_16(st_2_16):
    return assemble(st_2_16)


@pytest.fixture(scope="session")
def model_3_16(st_3_16):
    return assemble(st_3_16)


@pytest.fixture(scope="session")
def model_4_16t(st_4_16t):
    return assemble(st_4_16t)
