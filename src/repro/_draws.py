"""Integer draws on a caller's stream, with no imports at all.

:func:`randbelow` lives here rather than in :mod:`repro.sim.rng` (which
re-exports it) so that scenario types can sample execution times
without importing the simulator: listing the registered apps loads
their scenario types and nothing of ``repro.sim``.
"""

from __future__ import annotations


def randbelow(rng, n: int) -> int:
    """``rng.randrange(n)``, draw for draw, in one Python frame.

    *rng* is a :class:`random.Random` (anything with ``getrandbits``).

    Runs CPython's ``Random._randbelow_with_getrandbits`` loop inline:
    ``k = n.bit_length()`` bits per draw, rejecting draws ``>= n``.  So
    ``n == 1`` still makes the one-bit draw ``randrange(1)`` makes, and
    the stream's state afterwards equals ``randrange``'s on every
    supported CPython.  ``rng.randint(a, b)`` is
    ``a + randbelow(rng, b - a + 1)``.  An empty range (``n <= 0``)
    raises :class:`ValueError`, like ``randrange``, and never spins.
    """
    if n <= 0:
        raise ValueError(f"empty range for randbelow({n})")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
