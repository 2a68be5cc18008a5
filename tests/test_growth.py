"""The whole-word run scan's work, counted rather than timed: on the class
words its calls grow near n log n, and no period below the band is tested
more than a fixed number of times.  No clock is read.

Counts of ``repetitions._runs`` with the 5/2+ need p + p//2 + 1, at
5000, 10000, 20000 and 40000 letters:

- ``_holds_run`` (the packed test of a period below the band): 62 calls at
  every size, on F and Frev alike;
- ``find`` and ``startswith`` on the word (the band's samples and walks):
  509, 1076, 2185 and 4444 (F), 507, 1064, 2183 and 4448 (Frev), that is
  0.0083 to 0.0073 n log2 n.

The bounds below are 100 packed tests, and 0.01 n log2 n band calls,
1.2 times the largest ratio counted (0.0083, at 5000 letters).
"""

import math
from unittest import mock

import pytest

from rotewords import generate_case_word, repetitions

PACKED_TESTS = 100
BAND_CALLS_PER_N_LOG_N = 0.01


class Counted(bytes):
    """The word as bytes that count the band's ``find`` and ``startswith``
    calls on it; slices of it are plain bytes."""

    calls = 0

    def find(self, *args):
        Counted.calls += 1
        return bytes.find(self, *args)

    def startswith(self, *args):
        Counted.calls += 1
        return bytes.startswith(self, *args)


@pytest.mark.parametrize("n", [5000, 40000])
@pytest.mark.parametrize("case", ["F", "Frev"])
def test_run_scan_work_grows_near_n_log_n(case, n):
    data = Counted(generate_case_word(case, 4, n).letters)
    Counted.calls = 0
    with mock.patch.object(repetitions, "_holds_run",
                           wraps=repetitions._holds_run) as packed_test:
        runs = list(repetitions._runs(data, lambda p: p + p // 2 + 1))
    assert runs == []       # the class words hold no 5/2+ power
    assert packed_test.call_count <= PACKED_TESTS
    assert Counted.calls <= BAND_CALLS_PER_N_LOG_N * n * math.log2(n)
