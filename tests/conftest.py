"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run, has no deadline (exact LPs vary in time), and
keeps no example database.  Hypothesis still caches the constants it reads
from the source under test; that cache goes to a temporary directory that
is removed when the session ends, so a run writes no .hypothesis/."""

import os
import shutil
import tempfile

from hypothesis import settings

settings.register_profile("corrbox", derandomize=True, deadline=None, database=None)
settings.load_profile("corrbox")

_STORAGE = None
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _STORAGE = tempfile.mkdtemp(prefix="corrbox-hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _STORAGE


def pytest_sessionfinish(session, exitstatus):
    if _STORAGE is not None:
        shutil.rmtree(_STORAGE, ignore_errors=True)
