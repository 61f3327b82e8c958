"""The seed changes which inputs a workload gets, never how many."""

import json

import inputs


def _key(cell):
    return json.dumps(cell, sort_keys=True)


def test_same_seed_same_inputs():
    assert inputs.paper_commands(4) == inputs.paper_commands(4)
    assert inputs.dse_clocks(4) == inputs.dse_clocks(4)
    assert inputs.serve_blocks(4) == inputs.serve_blocks(4)
    assert inputs.serve_blocks(4) != inputs.serve_blocks(5)


def test_paper_seed_only_reorders():
    assert sorted(inputs.paper_commands(9)) == sorted(inputs.PAPER_COMMANDS)


def test_dse_seed_keeps_point_count_and_geometry():
    clocks = inputs.dse_clocks(11)
    assert len(set(clocks)) == inputs.DSE_CLOCKS
    assert set(clocks) <= set(inputs.CLOCK_POOL)
    spec = inputs.dse_spec(clocks)
    assert spec["axes"]["banks_per_rank"] == list(inputs.DSE_BANKS_PER_RANK)
    assert spec["axes"]["pe_width_bits"] == list(inputs.DSE_PE_WIDTH_BITS)


def test_serve_blocks_are_half_hot_and_never_repeat_a_distinct_cell():
    hot = {_key(cell) for cell in inputs.SERVE_HOT}
    seen = set()
    for block in inputs.serve_blocks(2):
        distinct = [_key(c) for c in block if _key(c) not in hot]
        assert len(distinct) == len(block) // 2
        assert not seen & set(distinct)
        seen.update(distinct)


def test_every_serve_block_has_the_same_mix_of_kinds():
    def kinds(block):
        return sorted((c["benchmark"], c["device"], c.get("vector", False))
                      for c in block if _key(c) not in
                      {_key(h) for h in inputs.SERVE_HOT})

    first, *rest = inputs.serve_blocks(3)
    assert all(kinds(block) == kinds(first) for block in rest)
    assert kinds(first) == kinds(inputs.serve_blocks(8)[0])
