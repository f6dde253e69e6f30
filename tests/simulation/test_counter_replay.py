"""A CorrOpt replay's capacity series against a recount at every event.

The live :class:`~repro.core.PathCounter` is shared by the kernel, the
fast checker and the optimizer, and the kernel records its worst and mean
ToR fraction after every event.  Here each of those reads is checked, as
the run takes it, against a :class:`~repro.topology.columnar.
ColumnarPathCounter` built from the topology at that moment: the worst
fraction must equal the recount's, and the mean must equal the exact
``Fraction`` mean of the recount's ToR counts.
"""

from repro.simulation import (
    CorrOptStrategy,
    OracleSensing,
    SimulationKernel,
    make_scenario,
)
from repro.simulation.kernel import DAY_S
from repro.topology.columnar import ColumnarPathCounter
from repro.workloads import MEDIUM_DCN
from tests.path_counts import exact_average


class RecountingSensing(OracleSensing):
    """Oracle sensing that checks every capacity read against a recount."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []

    def tor_fractions(self):
        worst, average = super().tor_fractions()
        topo = self.kernel.topo
        recount = ColumnarPathCounter.for_topology(topo)
        assert worst == recount.worst_tor_fraction(), len(self.checked)
        assert average == exact_average(recount, topo.tors()), len(
            self.checked
        )
        self.checked.append(worst)
        return worst, average


def test_corropt_replay_capacity_equals_a_recount_at_every_event():
    scenario = make_scenario(
        profile=MEDIUM_DCN,
        scale=0.5,
        duration_days=20,
        seed=100,
        capacity=0.75,
        events_per_10k_links_per_day=15.0,
    )
    topo = scenario.topo_factory()
    strategy = CorrOptStrategy(topo, scenario.constraint())
    sensing = RecountingSensing(scenario.trace, strategy)
    kernel = SimulationKernel(
        topo,
        scenario.trace.duration_days * DAY_S,
        sensing,
        repair_accuracy=0.8,
        seed=7,
    )
    result = kernel.run()
    # One shared counter, and the replay moved it.
    assert sensing._counter is strategy.counter
    assert len(sensing.checked) >= len(scenario.trace)
    assert min(sensing.checked) < 1.0 and len(set(sensing.checked)) > 2
    assert result.metrics.worst_tor_fraction.changes()
