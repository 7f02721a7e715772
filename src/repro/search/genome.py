"""Policy genomes: the mutation space of the search driver.

A :class:`PolicyGenome` names one point in the policy space the
refactored registries expose — an address mapping, a page policy, a
request scheduler, and their tuning knobs (reorder window, starvation
age cap, re-arrangement epoch, page timeout).  Genomes are frozen and
canonically keyed, so identical policy choices hash and sort equally
regardless of how the search reached them, and the whole evolve loop
is reproducible from one seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.memsys.address import MAPPINGS
from repro.memsys.config import MemorySystemConfig
from repro.memsys.pagemanager import PAGE_POLICIES
from repro.traffic.scheduling import SCHEDULERS, Scheduler, make_scheduler

#: Tuning-knob palettes the mutator draws from.
WINDOW_CHOICES = (8, 16, 32, 64)
AGE_CAP_CHOICES = (128, 256, 512, 1024, 2048)
EPOCH_CHOICES = (256, 512, 1024, 2048)
TIMEOUT_CHOICES = (16, 32, 64, 128, 256)


@dataclass(frozen=True, order=True)
class PolicyGenome:
    """One candidate policy configuration.

    Attributes:
        interleaving: Address-mapping registry name.
        page_policy: Page-policy registry name.
        scheduler: Scheduler registry name.
        window: Reorder window for ``frfcfs``/``mars``.
        age_cap: MARS starvation age cap, in cycles.
        remap_epoch: Accesses between ``dream`` re-arrangement
            decisions.
        page_timeout: Idle cycles before the ``timeout`` page policy
            closes a bank.
    """

    interleaving: str = "cli"
    page_policy: str = "closed"
    scheduler: str = "fcfs"
    window: int = 32
    age_cap: int = 512
    remap_epoch: int = 1024
    page_timeout: int = 64

    def key(self) -> str:
        """Canonical sortable identity string."""
        return (
            f"{self.interleaving}/{self.page_policy}/{self.scheduler}"
            f"/w{self.window}/a{self.age_cap}"
            f"/e{self.remap_epoch}/t{self.page_timeout}"
        )

    def normalized(self) -> "PolicyGenome":
        """This genome with inert knobs reset to their defaults.

        A knob only matters when the policy reading it is selected:
        the window is dead weight under ``fcfs``, the age cap outside
        ``mars``, the remap epoch outside ``dream``, the page timeout
        outside the ``timeout`` policy.  Normalizing collapses such
        genomes onto one evaluation, so memo tables and winner
        comparisons never distinguish behaviorally identical points.
        """
        defaults = PolicyGenome()
        changes: Dict[str, int] = {}
        if self.scheduler == "fcfs":
            changes["window"] = defaults.window
        if self.scheduler != "mars":
            changes["age_cap"] = defaults.age_cap
        if self.interleaving != "dream":
            changes["remap_epoch"] = defaults.remap_epoch
        if self.page_policy != "timeout":
            changes["page_timeout"] = defaults.page_timeout
        return dataclasses.replace(self, **changes) if changes else self

    def memory_config(self) -> MemorySystemConfig:
        """The memory-system configuration this genome selects."""
        return MemorySystemConfig.cli(
            interleaving=self.interleaving,
            page_policy=self.page_policy,
            page_timeout_cycles=self.page_timeout,
            remap_epoch_accesses=self.remap_epoch,
        )

    def build_scheduler(self) -> Scheduler:
        """One scheduler instance with this genome's knobs applied."""
        if self.scheduler == "mars":
            return make_scheduler(
                "mars", window=self.window, age_cap=self.age_cap
            )
        if self.scheduler == "frfcfs":
            return make_scheduler("frfcfs", window=self.window)
        return make_scheduler(self.scheduler)


#: Mutable genome fields, in mutation-palette order.
MUTATION_FIELDS = (
    "interleaving",
    "page_policy",
    "scheduler",
    "window",
    "age_cap",
    "remap_epoch",
    "page_timeout",
)


def _palette(field: str):
    if field == "interleaving":
        return tuple(MAPPINGS.names())
    if field == "page_policy":
        return tuple(PAGE_POLICIES.names())
    if field == "scheduler":
        return tuple(SCHEDULERS.names())
    if field == "window":
        return WINDOW_CHOICES
    if field == "age_cap":
        return AGE_CAP_CHOICES
    if field == "remap_epoch":
        return EPOCH_CHOICES
    if field == "page_timeout":
        return TIMEOUT_CHOICES
    raise ConfigurationError(f"unknown genome field {field!r}")


def random_genome(rng: random.Random) -> PolicyGenome:
    """A uniformly random genome drawn from the registries/palettes."""
    return PolicyGenome(
        **{field: rng.choice(_palette(field)) for field in MUTATION_FIELDS}
    )


def mutate(genome: PolicyGenome, rng: random.Random) -> PolicyGenome:
    """One-field mutation: a different value from that field's palette."""
    field = rng.choice(MUTATION_FIELDS)
    alternatives = [
        value
        for value in _palette(field)
        if value != getattr(genome, field)
    ]
    return dataclasses.replace(genome, **{field: rng.choice(alternatives)})
