"""How many transforms the far field makes, counted at numpy.fft.

A series known in full transforms all far blocks of one size together,
one rfft/irfft pair per block size; the stepper's leaf route closes one
block per leaf boundary as the run reaches it, one rfft and one irfft
for all the couplings that read the same series.  The counts are taken
warm, with every block spectrum already cached.
"""

import math

import numpy as np
import pytest

from fodesolve import (
    ForcingSegment,
    PiecewiseForcing,
    Polynomial,
    ProblemSpec,
)
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


def test_couplings_on_one_series_share_each_leaf_transform(fft_calls,
                                                           monkeypatch):
    # Orders 1.5 and 0.7, the independent class: a right-hand-side link
    # of order 1.2 and the reconstruction y = D^0.5 z1, both on z1.
    # 10 001 nodes: 156 leaf starts, each closing one block for both
    # couplings with one rfft and one irfft.  y comes from the far field
    # the run accumulated for nu: no whole-series far pass.  The leaf
    # driver closes its leaves through the module's _close_blocks too,
    # so the calls recorded there are the 156 leaf closings, one leaf
    # start each; a whole-series pass would add a call closing many.
    from fodesolve import operators
    problem = ProblemSpec(
        terms=((1.0, 1.5), (0.5, 0.7)),
        nonlinearity=Polynomial((0.0, 0.5)),
        forcing=PiecewiseForcing((ForcingSegment(0.0, math.inf,
                                                 (1.0, 0.1)),)),
        initial_conditions=(0.0, 0.0))
    config = SolverConfig(0.002, 20.0)
    solve(problem, config)
    passes = []
    real = operators._close_blocks

    def counted(*args):
        passes.append(args)
        return real(*args)
    monkeypatch.setattr(operators, "_close_blocks", counted)
    fft_calls.update(rfft=0, irfft=0)
    assert len(solve(problem, config).y.values) == 10001
    assert fft_calls == {"rfft": 156, "irfft": 156}
    assert len(passes) == 156
    assert [tuple(args[3]) for args in passes] == [
        (s,) for s in range(64, 10001, 64)]
