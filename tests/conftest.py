import pytest

from lambda_stirling import _triangle


@pytest.fixture
def fresh_triangles():
    """An empty triangle cache for one test, and the cache as it was after
    it.  The dict is emptied in place, not replaced, so that the test and
    ``_triangle``'s readers, row sums and ``_lookup`` work on one object."""
    saved = dict(_triangle._TRIANGLES)
    _triangle._TRIANGLES.clear()
    yield
    _triangle._TRIANGLES.clear()
    _triangle._TRIANGLES.update(saved)
