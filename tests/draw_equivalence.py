"""Stdlib-only check that decision draws equal ``random.Random``'s.

:func:`repro.sim.rng.randbelow` runs CPython's rejection loop inline,
so for the same seed its values, and the stream's state afterwards,
must equal ``randrange``'s on every supported interpreter; the
scheduler's decisions and the latency/execution-time models depend on
it.  ``tests/test_sim_rng.py`` drives :func:`check_draws` from
hypothesis.  Run this file directly to check an interpreter that has
neither pytest nor hypothesis installed::

    PYTHONPATH=src python3.12 tests/draw_equivalence.py
"""

from __future__ import annotations

import random
import sys

from repro.network.latency import UniformLatency
from repro.sim.rng import RandomDecisionSource, randbelow

#: Operations :func:`check_draws` interleaves.  (``StageTiming.sample``
#: is ``UniformLatency.sample``'s draw; its module needs numpy, so
#: ``test_sim_rng.py`` checks it under pytest only.)
OPS = ("randbelow", "pick", "jitter", "uniform")

#: Range sizes at the edges of the rejection loop: 1 (the one-bit draw
#: ``randrange(1)`` makes), powers of two (no rejection) and their
#: neighbours (up to half the draws rejected), up to 2**70.
EDGE_SIZES = sorted(
    {1, 2, 3} | {n for k in range(1, 71) for n in (2**k - 1, 2**k, 2**k + 1)}
)

#: ``len()`` must fit in a ``Py_ssize_t``: bigger picks are skipped.
MAX_PICK = sys.maxsize


def _reference(rng: random.Random, op: str, n: int) -> int:
    """What the pre-helper code drew for *op* over a range of size *n*."""
    if op in ("randbelow", "pick"):
        return rng.randrange(n)
    if op == "jitter":
        return rng.randint(0, n - 1)
    return rng.randint(n, 2 * n - 1)  # a non-zero lower bound


def _helper(rng: random.Random, op: str, n: int) -> int:
    """The same draw through the code under test."""
    if op == "randbelow":
        return randbelow(rng, n)
    if op == "pick":
        return RandomDecisionSource(rng).pick_index("dispatch", range(n))
    if op == "jitter":
        return RandomDecisionSource(rng).jitter("timer", "t", n - 1)
    return UniformLatency(n, 2 * n - 1).sample(rng)


def check_draws(seed: int, ops: list[tuple[str, int]]) -> None:
    """Assert that *ops* draw equal values and leave equal stream states.

    *ops* is a sequence of ``(operation, range size)`` pairs, run in
    order against two ``random.Random(seed)`` streams: one through the
    stdlib calls, one through the code under test.
    """
    reference = random.Random(seed)
    helper = random.Random(seed)
    for step, (op, n) in enumerate(ops):
        if op == "pick" and n > MAX_PICK:
            continue
        expected = _reference(reference, op, n)
        got = _helper(helper, op, n)
        assert got == expected, (
            f"seed {seed}, step {step}: {op}({n}) drew {got}, "
            f"random.Random drew {expected}"
        )
        assert helper.getstate() == reference.getstate(), (
            f"seed {seed}, step {step}: {op}({n}) left a different state"
        )


def check_empty_ranges() -> None:
    """An empty range raises ``ValueError`` without drawing."""
    rng = random.Random(0)
    state = rng.getstate()
    for call in (
        lambda: randbelow(rng, 0),
        lambda: randbelow(rng, -3),
        lambda: RandomDecisionSource(rng).pick_index("mutex", []),
        lambda: RandomDecisionSource(rng).jitter("timer", "t", -1),
    ):
        try:
            call()
        except ValueError:
            pass
        else:
            raise AssertionError("an empty range did not raise ValueError")
        assert rng.getstate() == state, "an empty range consumed a draw"


def main(seeds: int = 200, length: int = 60) -> int:
    """Interleaved edge-size sequences over *seeds* seeds; 0 on success."""
    order = random.Random(20201)
    for seed in range(seeds):
        ops = [(order.choice(OPS), order.choice(EDGE_SIZES)) for _ in range(length)]
        check_draws(seed, ops)
    check_draws(seeds, [(op, n) for n in EDGE_SIZES for op in OPS])
    check_empty_ranges()
    print(
        f"draw equivalence ok on Python {sys.version.split()[0]}: "
        f"{seeds} seeds x {length} interleaved draws, "
        f"{len(EDGE_SIZES)} edge sizes x {len(OPS)} operations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
