"""Benchmark: every registered experiment, timed and claim-checked.

One case per id in ``EXPERIMENT_REGISTRY``, so an experiment registered
later is benchmarked without a new file here.
"""

import pytest
from conftest import assert_claims, report

from repro.api import EXPERIMENT_REGISTRY


@pytest.mark.parametrize("experiment_id", EXPERIMENT_REGISTRY.ids())
def test_experiment(benchmark, experiment_id):
    """Time the experiment's runner and verify its paper claims."""
    result = benchmark(EXPERIMENT_REGISTRY.get(experiment_id).runner)
    report(result)
    assert_claims(result)
