"""Control protocols for the harness tests, registered only while a test runs."""

import numpy as np
import pytest

from smpinfer import harness
from smpinfer.smp import Verdict

DUMMY_N = 500  # dummy-const is correct iff n >= DUMMY_N
HALF_N = 1000  # half-uniform's uniform side is right iff n >= HALF_N, else by a fair coin
HALF_DEFAULT_N = 2000


def _is_uniform(p) -> bool:
    return float(np.max(p.probs) - np.min(p.probs)) < 1e-12


def _verdict(p, right: bool, n: int) -> Verdict:
    expect = "accept_uniform" if _is_uniform(p) else "reject"
    wrong = "reject" if expect == "accept_uniform" else "accept_uniform"
    return Verdict(decision=expect if right else wrong, diagnostics={"players_used": n})


def _run_dummy_const(p, ell, eps, n, streams, c):
    return _verdict(p, n >= DUMMY_N, n)


def _run_half_uniform(p, ell, eps, n, streams, c):
    # The far side is always right, so a pooled success rate stays near 3/4 at any n.
    return _verdict(p, not _is_uniform(p) or n >= HALF_N or streams.protocol.random() < 0.5, n)


@pytest.fixture
def control_protocols(monkeypatch):
    """Register `dummy-const` (correct iff n >= DUMMY_N) and `half-uniform` in
    harness.PROTOCOLS.  In-process only: worker processes do not see them."""
    monkeypatch.setitem(harness.PROTOCOLS, "dummy-const", harness.Protocol(lambda k, ell, eps, c: DUMMY_N, _run_dummy_const))
    monkeypatch.setitem(
        harness.PROTOCOLS, "half-uniform", harness.Protocol(lambda k, ell, eps, c: HALF_DEFAULT_N, _run_half_uniform)
    )
