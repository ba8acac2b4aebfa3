"""Known class counts used as regression anchors: n -> (H, Hp), and the paper's sum table."""

KNOWN_COUNTS = {
    3: (1, 1),
    4: (1, 1),
    5: (1, 1),
    6: (3, 3),
    7: (3, 2),
    8: (7, 5),
    9: (8, 6),
    10: (17, 10),
    11: (21, 11),
    12: (47, 21),
    13: (63, 29),
    14: (132, 58),
    15: (205, 78),
    16: (411, 144),
    17: (685, 224),
    18: (1353, 421),
    19: (2385, 648),
    20: (4643, 1185),
    21: (8496, 1990),
    22: (16430, 3668),
    23: (30735, 6095),
    24: (59343, 11079),
    25: (112531, 19098),
    26: (217245, 34891),
}


def paper_sum_set(n):
    """The paper's achievable entry sums at length n, ascending.

    A step-6 progression whose bounds depend on n mod 3:
    -n..n for n % 3 == 0, (-n+4)..(n-4) for n % 3 == 1, (-n+2)..(n-2) otherwise.
    """
    if n < 3:
        raise ValueError(f"sum table needs n >= 3, got {n}")
    bound = (n, n - 4, n - 2)[n % 3]
    return tuple(range(-bound, bound + 1, 6))
