"""Memory-system organization: configuration, interleaving, policies."""

from repro.memsys.address import (
    AddressMapping,
    Location,
    MAPPINGS,
    get_address_mapping,
    list_mappings,
    register_mapping,
)
from repro.memsys.config import (
    ELEMENT_BYTES,
    ELEMENTS_PER_PACKET,
    Interleaving,
    MemorySystemConfig,
    PagePolicy,
)
from repro.memsys.pagemanager import (
    PAGE_POLICIES,
    PageManager,
    list_page_policies,
    make_page_manager,
    register_page_policy,
)

__all__ = [
    "AddressMapping",
    "Location",
    "MAPPINGS",
    "get_address_mapping",
    "list_mappings",
    "register_mapping",
    "ELEMENT_BYTES",
    "ELEMENTS_PER_PACKET",
    "Interleaving",
    "MemorySystemConfig",
    "PagePolicy",
    "PAGE_POLICIES",
    "PageManager",
    "list_page_policies",
    "make_page_manager",
    "register_page_policy",
]
