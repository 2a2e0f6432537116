import sys

import pytest

from asmlab import validate_asm


@pytest.fixture()
def calls_through(monkeypatch):
    """calls_through(fn) counts the calls of fn through every asmlab module
    that binds its name: it returns the list of their argument tuples."""

    def through(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "asmlab" and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
        return calls

    return through


@pytest.fixture(scope="session")
def worked_example():
    """4x4 with D = {(1,1),(1,2),(2,3)} and five Fulton generators."""
    return validate_asm([[0, 0, 1, 0], [1, 0, -1, 1], [0, 1, 0, 0], [0, 0, 1, 0]])


@pytest.fixture(scope="session")
def a3():
    """3x3 with Perm = {312, 231}, a complete intersection."""
    return validate_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])


@pytest.fixture(scope="session")
def b4():
    """4x4 insertion into a3 with Perm = {3412, 2341}, not equidimensional."""
    return validate_asm([[0, 1, 0, 0], [0, 0, 1, 0], [1, -1, 0, 1], [0, 1, 0, 0]])


@pytest.fixture(scope="session")
def non_km_gvd():
    """4x4 CM ASM whose complex is not fixed-order vertex decomposable."""
    return validate_asm([[0, 1, 0, 0], [0, 0, 0, 1], [1, -1, 1, 0], [0, 1, 0, 0]])


@pytest.fixture(scope="session")
def b5():
    """5x5 non-unmixed ASM contained in a CM 6x6 one."""
    return validate_asm(
        [
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 1, 0, -1, 1],
            [1, 0, -1, 1, 0],
            [0, 0, 1, 0, 0],
        ]
    )


@pytest.fixture(scope="session")
def a6():
    """6x6 CM ASM containing b5 (delete row 4 and column 3)."""
    return validate_asm(
        [
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, -1, 1],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, -1, 1, 0],
            [0, 0, 0, 1, 0, 0],
        ]
    )


@pytest.fixture(scope="session")
def badblock8():
    """8x8 example with the obstruction block at (4,2)."""
    return validate_asm(
        [
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 1, -1, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 1, 0, 0],
        ]
    )
