import os

import numpy as np
import pytest
from hypothesis import settings

from choqkit import SetFunction

# CI keeps no example database, so a failure there is reproducible only
# from its @reproduce_failure blob.  This profile keeps every setting of
# Hypothesis's built-in "ci" profile (derandomized, no deadline, no
# database) and pins print_blob, so the blob is printed.
settings.register_profile("ci", settings.get_profile("ci"), print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def path_cut():
    """Cut function of the path 0 - 1 - 2."""
    return SetFunction.cut(3, [(0, 1), (1, 2)])
