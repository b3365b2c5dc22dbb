"""Self-time arithmetic and reversible wrapping of the span tracer."""

import numpy as np

from tracer import NEW_GROUP, Tracer, self_times


def test_self_time_subtracts_the_time_children_cover():
    # estimator [0, 100] > explorer [10, 90] > tiling [20, 80]
    #   > dram [30, 40] and dram [50, 60]; then a second estimator [100, 130].
    start = np.array([0, 10, 20, 30, 50, 100])
    end = np.array([100, 90, 80, 40, 60, 130])
    parent = np.array([-1, 0, 1, 2, 2, -1])
    assert self_times(start, end, parent).tolist() == [20, 20, 40, 10, 10, 30]


def test_layer_totals_sum_to_the_root_spans_wall():
    tracer = Tracer()
    names = ["estimator", "explorer", "tiling", "dram", "dram", "estimator"]
    tracer.names = ["estimator", "explorer", "tiling", "dram"]
    for name, begin, finish, up in zip(
            names, [0, 10, 20, 30, 50, 100], [100, 90, 80, 40, 60, 130],
            [-1, 0, 1, 2, 2, -1]):
        tracer.start.append(begin)
        tracer.end.append(finish)
        tracer.name.append(tracer.names.index(name))
        tracer.parent.append(up)
        tracer.group.append(0)
    totals = tracer.layer_totals()
    assert {k: (round(s * 1e9), c) for k, (s, c) in totals.items()} == {
        "estimator": (50, 2), "explorer": (20, 1), "tiling": (40, 1),
        "dram": (20, 2)}
    assert sum(s for s, _ in totals.values()) * 1e9 == 130


class _Dram:
    def transfer(self):
        return 1


class _Estimator:
    def __init__(self):
        self.dram = _Dram()

    def estimate(self):
        return self.dram.transfer() + self.dram.transfer()


def test_wrapped_calls_nest_share_a_group_and_unwrap():
    original = _Estimator.estimate
    tracer = Tracer()
    tracer.wrap(_Estimator, "estimate", "estimator", group=NEW_GROUP)
    tracer.wrap(_Dram, "transfer", "dram")
    estimator = _Estimator()
    assert estimator.estimate() == 2
    assert estimator.estimate() == 2
    tracer.uninstall()
    assert _Estimator.estimate is original
    assert "transfer" in vars(_Dram)
    estimator.estimate()  # no longer recorded
    columns = tracer.columns()
    assert [tracer.names[i] for i in columns["name"]] == [
        "estimator", "dram", "dram", "estimator", "dram", "dram"]
    assert columns["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    assert columns["group"].tolist() == [0, 0, 0, 1, 1, 1]
    assert (columns["end"] >= columns["start"]).all()
