"""Seeded inputs of the four workloads.

The seed changes only what the program is asked to do, never how much:

* ``paper-cold`` / ``paper-warm``: the order of the 13 commands;
* ``dse-sweep``: which 60 of :data:`CLOCK_POOL` the ``pe_freq_mhz`` axis
  takes (same point count, same geometry groups, same plan compiles);
* ``serve-mixed``: the request sequence -- which distinct cells are
  asked for, which hot cell each repeat names, and the interleaving.
"""

from __future__ import annotations

import itertools
import random

#: The artifact-reproduction commands: Tables I/II, the suite, and every
#: figure the CLI regenerates.
PAPER_COMMANDS = (
    ("tables",),
    ("suite",),
    ("figure", "1"),
    ("figure", "6a"),
    ("figure", "6b"),
    ("figure", "7"),
    ("figure", "8"),
    ("figure", "9"),
    ("figure", "10a"),
    ("figure", "10b"),
    ("figure", "11"),
    ("figure", "12"),
    ("figure", "13"),
)

DSE_BASES = ("bank", "fulcrum")
DSE_BENCHMARKS = ("vecadd", "gemv", "histogram", "kmeans", "aes-enc", "brightness")
DSE_RANKS = 4
DSE_BANKS_PER_RANK = (32, 64, 128)
DSE_PE_WIDTH_BITS = (32, 64)
DSE_CLOCKS = 60
#: Candidate ``pe_freq_mhz`` values; the reference digests cover all of them.
CLOCK_POOL = tuple(range(100, 700, 5))

SERVE_CONNECTIONS = 2
SERVE_WORKERS = 2
#: The hot set every block repeats (one AES cell: a slow first request).
SERVE_HOT = (
    {"benchmark": "aes-enc", "device": "fulcrum", "ranks": 32},
    {"benchmark": "gemv", "device": "bank", "ranks": 32},
    {"benchmark": "kmeans", "device": "bitserial", "ranks": 32, "vector": True},
    {"benchmark": "vgg-13", "device": "upmem", "ranks": 32},
)
#: Distinct cells vary benchmark, device, ranks and ``vector``.  Every
#: combination fits its device at these rank counts and runs in tens of
#: milliseconds or less, so the direct reference run stays affordable.
#: Rank 32 is left to the hot set.
SERVE_BENCHMARKS = (
    "vecadd", "axpy", "gemv", "gemm", "radixsort", "tricount", "filter",
    "histogram", "brightness", "downsample", "knn", "linreg", "kmeans",
    "vgg-13", "vgg-16", "vgg-19", "prefixsum", "stringmatch", "pca",
)
SERVE_DEVICES = ("analog", "bank", "bitserial", "ddr5-bank", "fulcrum", "upmem")
SERVE_RANKS = tuple(r for r in range(8, 129, 4) if r != 32)
#: Distinct cells per (benchmark, device, vector) in every block.  Each
#: block holds the same mix of kinds, so its slowest percent -- the
#: p99 -- is made of the same kinds of cells whatever the seed.
SERVE_PER_KIND = 3


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def paper_commands(seed: int) -> "list[tuple[str, ...]]":
    commands = list(PAPER_COMMANDS)
    _rng("paper", seed).shuffle(commands)
    return commands


def dse_clocks(seed: int) -> "list[int]":
    return sorted(_rng("dse", seed).sample(CLOCK_POOL, DSE_CLOCKS))


def dse_spec(clocks: "list[int]", name: str = "perfbench-dse") -> dict:
    """The sweep spec file's content for one set of clock values."""
    return {
        "name": name,
        "bases": list(DSE_BASES),
        "benchmarks": list(DSE_BENCHMARKS),
        "num_ranks": DSE_RANKS,
        "axes": {
            "banks_per_rank": list(DSE_BANKS_PER_RANK),
            "pe_width_bits": list(DSE_PE_WIDTH_BITS),
            "pe_freq_mhz": list(clocks),
        },
    }


def serve_blocks(seed: int) -> "list[list[dict]]":
    """Every request block the rank values allow.

    A block asks for :data:`SERVE_PER_KIND` distinct cells of every
    (benchmark, device, vector) kind, at ranks the seed picks, plus as
    many repeats of the hot set, in a seeded order.  No distinct cell
    appears twice in the whole sequence or in the hot set, so every
    distinct request is a cache miss when it arrives.
    """
    rng = _rng("serve", seed)
    kinds = list(itertools.product(SERVE_BENCHMARKS, SERVE_DEVICES, (False, True)))
    ranks = {kind: rng.sample(SERVE_RANKS, len(SERVE_RANKS)) for kind in kinds}
    blocks = []
    for block in range(len(SERVE_RANKS) // SERVE_PER_KIND):
        requests = []
        for kind in kinds:
            bench, device, vector = kind
            for rank in ranks[kind][block * SERVE_PER_KIND:(block + 1) * SERVE_PER_KIND]:
                cell = {"benchmark": bench, "device": device, "ranks": rank}
                if vector:
                    cell["vector"] = True
                requests.append(cell)
        requests += [rng.choice(SERVE_HOT) for _ in range(len(requests))]
        rng.shuffle(requests)
        blocks.append(requests)
    return blocks
