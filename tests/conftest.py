import pytest

from glcenter import central


@pytest.fixture(autouse=True)
def _empty_piece_memos():
    # each test builds its own letter-set pieces, so a test that patches
    # `central.devirtualize` sees its patch run
    central._schur_piece.cache_clear()
    central._row_piece.cache_clear()
