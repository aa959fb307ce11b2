"""The library API that the benchmark's workloads call.

Runs op, observe and check of each workload in perfbench/workloads.py on
two cheap cases, so a library change that breaks the benchmark fails
here.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402

CASES = {
    "certify": ("sup-atomic#28", "half-atomic#38"),
    "compile": ("sup-atomic@k2", "atomic-unary@k3"),
    "eval": ("sentence3/field0/0", "sub-sup/field0/1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_workload_cases_run_and_check(name):
    workload = workloads.WORKLOADS[name](seed=0)
    by_name = {case.name: case for case in workload.cases}
    for case_name in CASES[name]:
        case = by_name[case_name]
        output = workload.op(*case.args)
        observation = workload.observe(*case.args, output)
        assert observation.ok, case_name
        assert set(observation.counters) == set(workloads.COUNTERS)
        assert workload.check(case, observation.fingerprint), case_name
