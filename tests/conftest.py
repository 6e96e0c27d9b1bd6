"""Fixtures shared by every test module."""

import pytest

from csieve import subsets, words


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test starts with empty per-content tables, each memoized for
    one content: a table built while one test patched the functions
    behind it reaches no other test, and a test that counts the work of
    building a table sees it built."""
    for table in (words.necklace_classes, words.cdt_groups, words.words_ending_in_one,
                  subsets.subsets_by_blocks):
        table.cache_clear()
