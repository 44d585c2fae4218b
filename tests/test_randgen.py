"""The seeded generators draw the same instances from the same seed.

Each digest hashes a run of draws from one generator on one stream, so
a change to what a generator draws, or to how many numbers it takes
from the stream, changes the digest.
"""

import hashlib
import json

import numpy as np
import pytest

from choqkit.randgen import (SUBMODULAR_FAMILIES, random_fubini_instance,
                             random_submodular_setfunction, random_table_setfunction,
                             random_weighted_family)
from choqkit.setfunctions import SetFunction, is_submodular, setfunction_to_json


def _floats(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def _table_draws(rng):
    for n in range(1, 9):
        yield _floats(random_table_setfunction(rng, n).values)


def _family_draws(rng):
    for n in range(1, 11):
        for _ in range(20):
            yield repr(random_weighted_family(rng, n).entries).encode()


def _fubini_draws(rng):
    for m in range(2, 9):
        for n in range(2, 9):
            inst = random_fubini_instance(rng, m, n)
            yield _floats(inst.lam) + _floats(inst.pi) + _floats(inst.F)
            yield json.dumps(setfunction_to_json(inst.phi), sort_keys=True).encode()
            yield _floats(inst.phi.values)


DIGESTS = {
    _table_draws: "fffb1cffc77d450e66b13897e95abe7cfc103cd1608ff8c9ab3d97f5ef7a602c",
    _family_draws: "943e5d9b7343855acb0c9a7b8f23d8439b95ba3bde209321c3b07a2a1460541b",
    _fubini_draws: "9cbc67cbf4b8ab72c8ba39301a463e85298d9c13945269ecd1a136fede252264",
}


@pytest.mark.parametrize("draws", list(DIGESTS), ids=lambda d: d.__name__[1:])
def test_seeded_draws_are_pinned(draws):
    rng = np.random.default_rng(20261018)
    digest = hashlib.sha256()
    for chunk in draws(rng):
        digest.update(chunk)
    # one more draw pins how many numbers the run took from the stream
    digest.update(_floats(rng.random(1)))
    assert digest.hexdigest() == DIGESTS[draws]


def test_fubini_draws_are_submodular_and_nonnegative():
    # random_fubini_instance does not re-check its phi: the pinned grid's
    # draws, then 300 of random size
    grid = np.random.default_rng(20261018)
    phis = [random_fubini_instance(grid, m, n).phi
            for m in range(2, 9) for n in range(2, 9)]
    rng = np.random.default_rng(20261020)
    phis += [random_fubini_instance(rng, int(rng.integers(2, 9)),
                                    int(rng.integers(2, 9))).phi for _ in range(300)]
    for phi in phis:
        assert is_submodular(phi) and phi.values.min() >= 0.0
        # the payload decides the verdict above; the table pass checks the values
        assert is_submodular(SetFunction.from_table(phi.values))


@pytest.mark.parametrize("family", SUBMODULAR_FAMILIES)
def test_every_family_draws_at_n_1(family):
    rng = np.random.default_rng(20261019)
    for _ in range(20):
        phi = random_submodular_setfunction(rng, 1, families=(family,))
        assert phi.n == 1 and phi.values[0] == 0.0
