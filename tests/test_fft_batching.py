"""How many transforms the far field makes, counted at numpy.fft.

A series known in full transforms all far blocks of one size together,
one rfft/irfft pair per block size; the stepper's leaf route closes one
block per coupling and leaf boundary as the run reaches it, one pair
each.  Both counts are taken warm, with every block spectrum already
cached.
"""

import numpy as np
import pytest

from fodesolve.operators import SampleSeries, apply_operator
from fodesolve.stepper import SolverConfig, solve


@pytest.fixture
def fft_calls(monkeypatch):
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        real = getattr(np.fft, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_whole_series_makes_one_pair_per_block_size(fft_calls):
    # 16 001 samples: far blocks of 64, 128, ..., 8192 samples, 250 in
    # all, in 8 sizes.
    z = SampleSeries(0.001, np.sin(0.001 * np.arange(16001)))
    apply_operator(z, -0.5)
    fft_calls.update(rfft=0, irfft=0)
    apply_operator(z, -0.5)
    assert fft_calls == {"rfft": 8, "irfft": 8}


@pytest.mark.parametrize("problem", ["plate", "plate_cubic"])
def test_leaf_route_makes_one_pair_per_leaf_boundary(problem, request,
                                                     fft_calls):
    # 15 001 nodes: 234 leaf boundaries, each closing one block of the
    # direct inverter's one link.  The cubic plate's sweeps stay inside
    # the leaf and transform nothing.
    problem = request.getfixturevalue(problem)
    config = SolverConfig(0.002, 30.0)
    solve(problem, config)
    fft_calls.update(rfft=0, irfft=0)
    assert len(solve(problem, config).y.values) == 15001
    assert fft_calls == {"rfft": 234, "irfft": 234}
