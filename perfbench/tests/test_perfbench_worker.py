import pytest

from worker import Pacer


def test_slowdown_is_the_median_of_the_probes_around_each_request():
    pacer = Pacer(arrays=False)
    pacer.probes = [1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    # one stray probe does not move its neighbours; a lasting change does
    assert pacer.slowdowns() == pytest.approx([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
