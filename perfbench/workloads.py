"""The three benchmark workloads and the command lines they run.

Every op is one README command passed to ``cdtleak.cli.main`` with only
the README's flags, so the CLI's defaults (FALCON-512 geometry, 4 mV
noise, one render thread) are what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

# Input sizes of the README walkthrough.
CAMPAIGN_KEYS = 20
PROFILE_TRACES = 10000
COEFFS_PER_KEY = 1024  # f and g, n = 512 each
CAMPAIGN_TRACES = CAMPAIGN_KEYS * COEFFS_PER_KEY

# Seeds of the README walkthrough, used when no --seed is given.
README_SIMULATE_SEED = 20260819
README_PROFILE_SEED = 714


@dataclass(frozen=True)
class Seeds:
    simulate: int
    profile: int


def input_seeds(seed: int | None) -> Seeds:
    """Map the benchmark's --seed to the simulate and profile seeds."""
    if seed is None:
        return Seeds(README_SIMULATE_SEED, README_PROFILE_SEED)
    digest = hashlib.sha256(f"cdtleak-bench:{seed}".encode()).digest()
    mask = (1 << 63) - 1
    return Seeds(
        simulate=int.from_bytes(digest[:8], "little") & mask,
        profile=int.from_bytes(digest[8:16], "little") & mask,
    )


@dataclass(frozen=True)
class Paths:
    """Prefixes inside one run's work directory."""

    campaign: str
    templates: str

    @classmethod
    def under(cls, workdir: str) -> "Paths":
        return cls(os.path.join(workdir, "camp"), os.path.join(workdir, "tpl"))


def simulate_argv(seeds: Seeds, paths: Paths) -> list[str]:
    return ["simulate", "--seed", str(seeds.simulate), "--keys", str(CAMPAIGN_KEYS),
            "--out", paths.campaign]


def profile_argv(seeds: Seeds, paths: Paths) -> list[str]:
    return ["profile", "--seed", str(seeds.profile), "--traces", str(PROFILE_TRACES),
            "--out", paths.templates]


def attack_argv(seeds: Seeds, paths: Paths) -> list[str]:
    return ["attack", "--in", paths.campaign, "--templates", paths.templates,
            "--out", paths.campaign]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate", "profile" or "attack"
    traces_per_op: int
    setup_commands: tuple[str, ...]  # commands whose outputs the ops read


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-20k", "simulate", CAMPAIGN_TRACES, ()),
        Workload("profile-10k", "profile", PROFILE_TRACES, ()),
        Workload("attack-20k", "attack", CAMPAIGN_TRACES, ("simulate", "profile")),
    )
}

ARGV = {"simulate": simulate_argv, "profile": profile_argv, "attack": attack_argv}
