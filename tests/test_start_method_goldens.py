"""The goldens hold in worker processes, whatever the start method.

Sweeps fan seeds out to a process pool, so a result must not depend on
how the worker process came to be: a ``fork`` child inherits the
parent's imported modules, caches and hash seed, a ``spawn`` child
imports everything afresh under its own hash seed.  This module
reruns the app-level world goldens (every ``outcome/*`` and ``spec/*``
case of ``tests/test_world_goldens.py``) and one brake kernel
fingerprint in a :class:`~concurrent.futures.ProcessPoolExecutor` per
start method, and compares each result with the committed JSON.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from tests import test_kernel_fingerprints, test_world_goldens

WORLD_CASES = sorted(
    name for name in test_world_goldens.CASES if name.startswith(("outcome/", "spec/"))
)
#: The nondet brake digest depends on every RNG draw the platform makes.
KERNEL_CASE = "nondet-seed3"


def _world_case(name: str):
    return test_world_goldens.CASES[name]()


def _kernel_case(name: str) -> dict:
    result = test_kernel_fingerprints._run_case(name)
    return {
        "traces": dict(result.trace_fingerprints),
        "outcome": result.outcome_digest(),
    }


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_goldens_hold_under_start_method(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        world = dict(zip(WORLD_CASES, pool.map(_world_case, WORLD_CASES)))
        kernel = pool.submit(_kernel_case, KERNEL_CASE).result()
    goldens = test_world_goldens._load_goldens()
    assert world == {name: goldens[name] for name in WORLD_CASES}
    assert kernel == test_kernel_fingerprints._load_goldens()[KERNEL_CASE]


def test_world_cases_cover_every_app_and_variant():
    assert len(WORLD_CASES) == 24  # 4 apps x (2 variants x 2 seeds + calm + spec)
