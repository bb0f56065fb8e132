"""Tests of the benchmark's own rules: ``python -m pytest perfbench``."""

import pbcore
from pbcore import INC, QUERY


def test_percentile_value_and_samples_beyond():
    samples = [float(v) for v in range(1, 1001)]  # 1..1000
    assert pbcore.percentile(samples, 50) == (500.0, 500)
    assert pbcore.percentile(samples, 99) == (990.0, 10)
    assert pbcore.percentile(list(reversed(samples)), 99) == (990.0, 10)


def test_percentile_counts_ties_and_empty_input():
    # Samples equal to the percentile are not "beyond" it.
    assert pbcore.percentile([1.0, 2.0, 2.0, 2.0], 50) == (2.0, 0)
    assert pbcore.percentile([5.0], 99) == (5.0, 0)
    assert pbcore.percentile([], 50) == (0.0, 0)


def _span(sid, name, start, end, parent=None, tid=None):
    return (sid, name, start, end, parent, tid)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "child", 1.0, 4.0, parent=1),
        _span(3, "grandchild", 2.0, 3.0, parent=2),
    ]
    own = pbcore.self_times(spans)
    assert own == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 6.0, parent=1),
        _span(3, "b", 4.0, 8.0, parent=1),
        _span(4, "c", 5.0, 7.0, parent=1),
    ]
    assert pbcore.self_times(spans)[1] == 3.0


def test_self_time_never_negative():
    # Children that overlap each other and run past their parent (an
    # async child outliving its caller) are clipped to the parent.
    spans = [
        _span(1, "root", 0.0, 2.0),
        _span(2, "a", -1.0, 1.5, parent=1),
        _span(3, "b", 0.5, 5.0, parent=1),
        _span(4, "c", 0.0, 2.0, parent=1),
    ]
    own = pbcore.self_times(spans)
    assert own[1] == 0.0
    assert all(value >= 0.0 for value in own.values())


def test_layer_table_and_root_breakdown():
    spans = [
        _span(1, "server.update", 0.0, 10.0),
        _span(2, "durable_queue.record", 1.0, 3.0, parent=1),
        _span(3, "server.update", 20.0, 24.0),
        _span(4, "durable_queue.record", 21.0, 22.0, parent=3),
        _span(5, "durable_queue.record", 30.0, 31.0),  # not under a root
    ]
    table = pbcore.layer_table(spans)
    assert table["durable_queue.record"] == (3, 4.0)
    roots, per_root = pbcore.root_breakdown(spans, "server.update")
    assert roots == 2
    assert per_root == {"server.update": 5.5, "durable_queue.record": 1.5}


def _clean_run():
    values = {"k000": 3, "k001": 1}
    acked = {"k000": 3, "k001": 1}
    return [values, dict(values), dict(values)], acked


def test_gate_passes_a_clean_run():
    sites, acked = _clean_run()
    assert pbcore.check_gate(sites, acked, acked, False, [0, 4]) == []


def test_gate_flags_a_dropped_acked_increment():
    sites, acked = _clean_run()
    for values in sites:
        values["k000"] = 2
    problems = pbcore.check_gate(sites, acked, acked, False, [])
    assert len(problems) == 1 and "k000" in problems[0]


def test_gate_flags_diverged_replicas():
    sites, acked = _clean_run()
    sites[2]["k001"] = 0
    problems = pbcore.check_gate(sites, acked, acked, False, [])
    assert any("site2" in p for p in problems)


def test_gate_flags_a_query_over_epsilon():
    sites, acked = _clean_run()
    problems = pbcore.check_gate(sites, acked, acked, False, [1, 4.5])
    assert len(problems) == 1 and "inconsistency" in problems[0]


def test_gate_allows_failed_increments_between_acked_and_sent():
    sites, acked = _clean_run()
    sent = {"k000": 4, "k001": 1}
    assert pbcore.check_gate(sites, acked, sent, True, []) == []
    for values in sites:
        values["k000"] = 5
    assert pbcore.check_gate(sites, acked, sent, True, [])


def test_same_seed_gives_an_identical_plan():
    a = pbcore.build_plan("commu-read", 7, 0.5)
    b = pbcore.build_plan("commu-read", 7, 0.5)
    assert a == b
    assert a != pbcore.build_plan("commu-read", 8, 0.5)
    assert len(a) == pbcore.SLOTS
    assert all(len(slot) == pbcore.PLAN_RATE_PER_SLOT // 2 for slot in a)


def test_plan_mix_and_key_skew_follow_the_workload():
    def requests(workload):
        return [r for slot in pbcore.build_plan(workload, 1, 1) for r in slot]

    assert {kind for kind, _ in requests("commu-write")} == {INC}
    reads = requests("commu-read")
    share = sum(kind == QUERY for kind, _ in reads) / len(reads)
    assert 0.88 < share < 0.92
    hot = sum(key == "k000" for _, key in reads) / len(reads)
    assert hot > 0.1  # zipfian: the hottest key takes about 13%
