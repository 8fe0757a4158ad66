"""Golden digests of segment placement: which peer gets every segment.

Every simulated delivery depends on where :class:`PlacementMap` puts
each segment, so its tie order is pinned here independently of the
simulator.  Each case drives one map through a seeded sequence of
placements and batched removals, and hashes the peer ids (100 + peer
index) of every assignment plus every peer's ``used_bytes`` (as
``float.hex``) after every operation.  The sequences never ask for more
segments than the peers have free, so they exercise only successful
placements.

Re-pin after an intended placement change with::

    python -m tests.cache.test_placement_golden --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cache.segments import PlacementMap, peer_slots, segment_bytes
from repro.trace.records import Program

GOLDEN_PATH = Path(__file__).with_name("placement_golden.json")

#: Per-peer storage of each case family: the paper's 10 GB ceiling, the
#: small-storage churn shape, and a disk that ends in a partial slot.
STORAGES = {
    "10GB": 10e9,
    "2GB": 2e9,
    "2.5seg": 2.5 * segment_bytes(),
}
SEEDS = (1, 2, 3, 4)
OPS = 400


def run_sequence(storage_bytes: float, seed: int) -> str:
    """Drive one seeded sequence; return its sha256 hex digest."""
    rng = random.Random(seed)
    n_peers = rng.randint(3, 24)
    placement = PlacementMap([peer_slots(storage_bytes)] * n_peers)
    max_segments = max(1, min(24, placement.free_slots))
    placed = []
    sizes = {}
    next_id = 0
    digest = hashlib.sha256()

    def record(tag, peer_ids=()):
        digest.update(tag.encode())
        digest.update(",".join(map(str, peer_ids)).encode())
        digest.update("|".join(placement.used_bytes(peer).hex()
                               for peer in range(n_peers)).encode())
        digest.update(b";")

    for _ in range(OPS):
        roll = rng.random()
        if placed and roll < 0.3:
            # A batch of evictions in random order, sometimes naming a
            # program that is not placed (removal is then a no-op).
            victims = rng.sample(placed, rng.randint(1, min(4, len(placed))))
            for pid in victims:
                placed.remove(pid)
            if rng.random() < 0.2:
                victims.append(10_000 + next_id)
            placement.remove_programs(victims)
            record("r" + ",".join(map(str, victims)))
            continue
        if placed and roll < 0.4:
            # Re-place a program just evicted, so the peers it freed
            # return to levels they held before.
            pid = placed.pop(rng.randrange(len(placed)))
            placement.remove_program(pid)
            record(f"x{pid}")
        else:
            pid = next_id
            next_id += 1
            sizes[pid] = rng.randint(1, max_segments)
        segments = sizes[pid]
        # Evict oldest first until the program fits, as a cache does.
        while placement.free_slots < segments:
            victim = placed.pop(0)
            placement.remove_programs((victim,))
            record(f"e{victim}")
        partial = rng.choice((0.0, 0.0, 120.0))
        program = Program(pid, segments * 300.0 - partial)
        assignment = placement.place_program(program)
        placed.append(pid)
        record(f"p{pid}", [100 + peer for peer in assignment])
    return digest.hexdigest()


CASES = {f"{name}/seed{seed}": (storage, seed)
         for name, storage in STORAGES.items() for seed in SEEDS}


def _pinned() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_placement_matches_golden(case):
    assert run_sequence(*CASES[case]) == _pinned()[case]


def test_golden_file_pins_exactly_the_cases():
    assert sorted(_pinned()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.cache.test_placement_golden --write")
    corpus = {case: run_sequence(*args) for case, args in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
