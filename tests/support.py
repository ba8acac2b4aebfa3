"""Scaffolding the tests share: the sign-to-mask codec and seeded valid sequences."""

import random

from hexaflex.sequences import cyclic_shift, extend, invert, reverse


def to_mask(signs) -> int:
    """The mask of a sign tuple, first entry in the top bit, as signs_from_mask reads it."""
    return int("".join("1" if a > 0 else "0" for a in signs), 2)


def grown_to(n: int, rng) -> tuple[int, ...]:
    """(1, 1, 1) extended at random positions to length n.

    A random.Random draws each position as randint(1, len); a numpy
    Generator draws it as integers(1, len + 1).
    """
    signs = (1, 1, 1)
    while len(signs) < n:
        if isinstance(rng, random.Random):
            i = rng.randint(1, len(signs))
        else:
            i = int(rng.integers(1, len(signs) + 1))
        signs = extend(signs, i)
    return signs


def shuffled(signs: tuple[int, ...], rng: random.Random, moves: str) -> tuple[int, ...]:
    """signs moved within its orbit by each move in turn.

    "s" shifts by rng.randrange(n); "r" reverses and "i" inverts, each when
    rng.random() < 0.5.
    """
    for move in moves:
        if move == "s":
            signs = cyclic_shift(signs, rng.randrange(len(signs)))
        elif rng.random() < 0.5:
            signs = reverse(signs) if move == "r" else invert(signs)
    return signs
