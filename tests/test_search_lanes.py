"""The search's lane arithmetic against the node-by-node search loop kept
in ``oracles.brute_longest_avoiding``, and the lane width rule."""

import time
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotewords import longest_avoiding
from rotewords.search import _lane_width

from oracles import brute_longest_avoiding


def outcome_fields(forbidden, target):
    o = longest_avoiding(forbidden, target)
    return o.max_length, o.witness.letters, o.reached_target, o.nodes_explored


factors = st.lists(st.text("01", min_size=1, max_size=9), max_size=3)


@example(["0101", "1010", "10110010"], 150)
@example(["0110", "10"], 40)            # one factor a suffix of another,
@example(["01", "0110"], 40)            # a prefix,
@example(["1", "0110"], 40)             # an infix,
@example(["0110", "0110"], 40)          # the same factor twice
@example(["011010011"], 6)              # a factor longer than the target
@example([], 0)
@example(["0", "1"], 5)                 # both root children pruned
@example(["0"], 5)                      # root child 0 pruned
@example(["0"], 2)                      # the target reached on a child 1
@example(["0110"], 1)
@example(["11"], 10)                    # the target reached with children 1
@example(["0110"], 10)                  # pruned or waiting beside the path
@example(["00", "11"], 150)
@settings(max_examples=300, deadline=None)
@given(factors, st.integers(0, 150))
def test_search_matches_the_node_by_node_loop(forbidden, target):
    assert outcome_fields(forbidden, target) == brute_longest_avoiding(
        [bytes(int(c) for c in f) for f in forbidden], target)


@example(400)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 400))
def test_search_without_factors_matches_the_node_by_node_loop(target):
    assert outcome_fields([], target) == brute_longest_avoiding([], target)


def test_cost_follows_depth_not_target():
    start = time.perf_counter()
    assert outcome_fields(["0"], 10**6) == (2, b"\x01\x01", False, 7)
    assert time.perf_counter() - start < 0.1


def test_path_memory_is_one_run_int_per_depth():
    # Thue-Morse avoids 000, 111 and every 5/2+ power, so the search
    # reaches depth 2000 and holds one runs int per waiting child 1
    # (1.4-1.5 MB); one per depth took 3.6 MB
    tracemalloc.start()
    try:
        outcome = longest_avoiding(["000", "111"], 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.reached_target
    assert peak < 2.5 * 10**6


def test_lane_width_fits_every_bound():
    # every bound p + p // 2 + 1 up to the target is at most
    # 2 ** (width - 1), and one bit less would not do
    assert _lane_width(21844) == _lane_width(21845) == 16
    assert _lane_width(21846) == 17
    for target in range(1, 3000):
        width = _lane_width(target)
        assert target + target // 2 + 1 <= 2 ** (width - 1)
        assert target + target // 2 + 1 > 2 ** (width - 2)
