from __future__ import annotations

import pytest
from hypothesis import settings

from classgraph.construct import builtin_atlas

# property tests run a fixed, reproducible example budget and leave no
# example database behind
settings.register_profile("tier1", max_examples=30, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def atlas():
    """Name -> AtlasEntry for every built-in group (built once per session)."""
    return {entry.group.name: entry for entry in builtin_atlas()}


@pytest.fixture(scope="session")
def atlas_groups(atlas):
    return {name: entry.group for name, entry in atlas.items()}
