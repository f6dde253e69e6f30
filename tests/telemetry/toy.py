"""Small topologies for the telemetry stages' name-keyed calls.

Every stage keeps a direction in its direction-table row, which the
topology assigns; a test that names directions builds the stages over a
topology that has them.
"""

from repro.topology import Switch, Topology


def toy_topology(*pairs):
    """A two-stage topology with one link per ``(lower, upper)`` pair, in
    the order given: each pair's first switch at stage 0, its second at
    stage 1, so ``pair`` is the link's up direction (table row
    ``2 * i``) and ``pair[::-1]`` its down one."""
    topo = Topology(num_stages=2)
    for pair in pairs:
        for stage, name in enumerate(pair):
            if not topo.has_switch(name):
                topo.add_switch(Switch(name, stage=stage))
    topo.add_links(pairs)
    return topo
