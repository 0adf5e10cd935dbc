import zlib

import pytest

from xlramsey.colorings import ExactColoring, FiniteColoring, RegressiveColoring
from xlramsey.machines import OracleSet, clear_caches


class UnkeyedOracle(OracleSet):
    """Membership in a pure predicate, with no cache key, so runs and
    jump steps over it take their uncached reference paths."""

    def __init__(self, fn):
        self._fn = fn

    def member(self, n: int) -> bool:
        return bool(self._fn(n))


def crc_bit(seed, parts, mod=2):
    data = (str(seed) + ":" + ",".join(str(p) for p in parts)).encode()
    return zlib.crc32(data) % mod


def random_finite_coloring(seed, dimension, palette=2):
    return FiniteColoring(
        dimension,
        lambda t: crc_bit(seed, t, palette),
        palette=palette,
        name=f"rand{dimension}:{seed}",
    )


def random_exact_coloring(seed, palette=2):
    return ExactColoring(lambda s: crc_bit(seed, s.elems, palette), palette=palette,
                         name=f"rand:{seed}")


def random_regressive_coloring(seed):
    def fn(s):
        m = s.min()
        if m == 0:
            return 0
        return crc_bit(seed, s.elems, m)

    return RegressiveColoring(fn, name=f"rand-reg:{seed}")


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    clear_caches()
    yield
