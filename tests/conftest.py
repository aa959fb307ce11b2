"""Test-suite root; its presence puts this directory on sys.path so the
tests can import the shared `helpers` module.  It also holds the fixtures
that more than one module uses."""

import os
import sys

import pytest

from dilogic import family
from dilogic import formula as fm

from helpers import compile_recording_finish

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def compile_panel():
    sig = family.default_signature()
    cases = workloads.compile_panel()
    jobs = [(fm.rewrite_inf(fm.parse_formula(text, sig)), k,
             workloads.COMPILE_BUDGET, workloads.COMPILE_BUDGET)
            for text, k in (case.args for case in cases)]
    results, finished = compile_recording_finish(jobs)
    return [case.name for case in cases], results, finished
