"""The directional measures that several test modules share."""

import math

from anisolap.measures import make_atomic_measure, make_banded_measure


def sym1d():
    return make_atomic_measure(1, [((1,), 0.5), ((-1,), 0.5)])


def onesided1d():
    return make_atomic_measure(1, [((1,), 1.0)])


def fig1_measure():
    """Upward-biased band pair: density 2/(3 pi) on the upper half circle
    and 1/(3 pi) on the lower."""
    return make_banded_measure(2, [
        ((0.0, math.pi), 2.0 / (3.0 * math.pi)),
        ((math.pi, 2.0 * math.pi), 1.0 / (3.0 * math.pi)),
    ])
