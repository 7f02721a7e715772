"""Memory-system organization: configuration, interleaving, policies."""

from repro.memsys.address import (
    AddressMapping,
    Location,
    MAPPINGS,
    get_address_mapping,
)
from repro.memsys.config import (
    ELEMENT_BYTES,
    ELEMENTS_PER_PACKET,
    MemorySystemConfig,
)
from repro.memsys.pagemanager import (
    PAGE_POLICIES,
    PageManager,
    make_page_manager,
)

__all__ = [
    "AddressMapping",
    "Location",
    "MAPPINGS",
    "get_address_mapping",
    "ELEMENT_BYTES",
    "ELEMENTS_PER_PACKET",
    "MemorySystemConfig",
    "PAGE_POLICIES",
    "PageManager",
    "make_page_manager",
]
