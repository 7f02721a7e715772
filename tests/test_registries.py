"""One registry protocol, checked on every strategy table.

Address mappings, page policies, traffic schedulers, MSU scheduling
policies and experiments are each a :class:`repro.registry.Registry`,
so one parametrized set of tests covers them all: the sorted listing,
the miss message naming every registered entry, and the rejection of
a duplicate, ``base``-named or upper-case entry.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.policies import POLICIES
from repro.errors import ConfigurationError
from repro.experiments.registry import EXPERIMENTS
from repro.memsys.address import MAPPINGS
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.registry import Registry
from repro.traffic.scheduling import SCHEDULERS

TABLES = {
    "MAPPINGS": MAPPINGS,
    "PAGE_POLICIES": PAGE_POLICIES,
    "SCHEDULERS": SCHEDULERS,
    "POLICIES": POLICIES,
    "EXPERIMENTS": EXPERIMENTS,
}


@pytest.fixture(params=list(TABLES))
def table(request) -> Registry:
    return TABLES[request.param]


def impostor(table: Registry, name: str):
    """An entry of ``table``'s kind registering as ``name``."""
    first = table[next(iter(table))]
    if isinstance(first, type):
        return type("Impostor", (first,), {"name": name})
    return dataclasses.replace(first, name=name)


class TestProtocol:
    def test_listing_is_sorted(self, table):
        assert isinstance(table, Registry)
        assert len(table) > 0
        assert table.names() == sorted(table)

    def test_unhashable_name_is_a_miss(self, table):
        with pytest.raises(ConfigurationError, match=r"unknown .* \['zorp'\]"):
            table.resolve(["zorp"])

    def test_miss_names_every_entry(self, table):
        with pytest.raises(ConfigurationError) as error:
            table.resolve("zorp")
        assert str(error.value) == (
            f"unknown {table.kind} 'zorp'; "
            f"registered: {', '.join(sorted(table))}"
        )

    def test_duplicate_rejected(self, table):
        name = table.names()[0]
        entry = table[name]
        with pytest.raises(ConfigurationError, match="registered twice"):
            table.register(impostor(table, name))
        assert table[name] is entry

    @pytest.mark.parametrize("name", ["base", None])
    def test_base_named_entry_rejected(self, table, name):
        names = table.names()
        with pytest.raises(ConfigurationError, match="other than 'base'"):
            table.register(impostor(table, name))
        assert table.names() == names

    def test_upper_case_name_rejected(self, table):
        # The config lower-cases a name, so an upper-case one could
        # never be selected.
        names = table.names()
        with pytest.raises(ConfigurationError, match="needs a lower-case name"):
            table.register(impostor(table, "Zorp"))
        assert table.names() == names
