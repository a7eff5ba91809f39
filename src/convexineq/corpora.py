"""Bundled deterministic instance corpora.

Everything here is generated lazily from fixed seeds through the package's
counter-based streams, so two installs produce identical corpora without
shipping data files; generation is cheap enough that caching is pointless.
"""

from __future__ import annotations

import math

import numpy as np

from ._rng import Purpose, rng_for
from .functional import TestFunction, random_trig, shift_positive
from .geometry import (
    Ball,
    Cube,
    Domain,
    L1Ball,
    RectUnion,
    interval,
    unit_ball_volume,
)
from .transport import DiscreteMeasure

OT_INSTANCES = 500
SINKHORN_INSTANCES = 50
TRIG_SEEDS = 100


def ot_instance(index: int) -> tuple[DiscreteMeasure, DiscreteMeasure, int]:
    """Seeded random 7-point uniform planar OT instance; p alternates 1, 2."""
    if not 0 <= index < OT_INSTANCES:
        raise ValueError(f"OT corpus has indices 0..{OT_INSTANCES - 1}, got {index}")
    g = rng_for(7001, Purpose.CORPUS_OT, rep=index)
    mu = DiscreteMeasure.uniform(g.random((7, 2)))
    nu = DiscreteMeasure.uniform(g.random((7, 2)))
    return mu, nu, 1 if index % 2 == 0 else 2


def sinkhorn_instance(index: int) -> tuple[DiscreteMeasure, DiscreteMeasure, int]:
    """Seeded random 100-point uniform planar instance; p alternates 1, 2."""
    if not 0 <= index < SINKHORN_INSTANCES:
        raise ValueError(f"sinkhorn corpus has indices 0..{SINKHORN_INSTANCES - 1}, got {index}")
    g = rng_for(7002, Purpose.CORPUS_SINKHORN, rep=index)
    mu = DiscreteMeasure.uniform(g.random((100, 2)))
    nu = DiscreteMeasure.uniform(g.random((100, 2)))
    return mu, nu, 1 if index % 2 == 0 else 2


def lshape() -> RectUnion:
    """The bundled nonconvex domain: two unit-height rectangles in an L."""
    return RectUnion((((0.0, 0.0), (2.0, 1.0)), ((0.0, 1.0), (1.0, 2.0))))


def domain_set() -> dict[str, Domain]:
    """Named verification domains: interval, square, disk, L-shape."""
    return {
        "interval": interval(0.0, 1.0),
        "square": Cube(1.0, 2),
        "disk": Ball(1.0, 2),
        "lshape": lshape(),
    }


def trig_function(dim: int, index: int) -> TestFunction:
    """Test function index of the bundled trigonometric family."""
    if not 0 <= index < TRIG_SEEDS:
        raise ValueError(f"trig corpus has indices 0..{TRIG_SEEDS - 1}, got {index}")
    return random_trig(dim, 3000 + index, label=f"trig-{dim}d-{index:03d}")


def nested_pairs() -> list[tuple[str, Domain, Domain]]:
    """20 nested (K, B) pairs across n in {1, 2, 3} and body families.

    Radii come from a fixed stream; containment is by construction (same
    center, inner body scaled inside the outer one's inscribed copy).
    """
    g = rng_for(7003, Purpose.CORPUS_NESTED)
    pairs = []
    for i in range(20):
        n = 1 + i % 3
        t = 0.3 + 0.5 * float(g.random())  # inner/outer scale in (0.3, 0.8)
        kind = i % 4 if n > 1 else i % 2
        if kind == 0:
            outer = Ball(1.0, n)
            inner = Ball(t, n)
        elif kind == 1:
            outer = Cube(2.0, n)
            inner = Cube(2.0 * t, n)
        elif kind == 2:
            # l1 ball of radius r sits inside the euclidean ball of radius r
            outer = Ball(1.0, n)
            inner = L1Ball(t, n)
        else:
            # cube of side s sits inside the ball of radius s*sqrt(n)/2
            outer = Ball(1.0, n)
            inner = Cube(2.0 * t / math.sqrt(n), n)
        pairs.append((f"pair-{i:02d}-n{n}", inner, outer))
    return pairs


def audit_pairs() -> list[tuple[str, Domain, Domain]]:
    """The two reference pairs for the mean-norm audit chain.

    Each B is the volume-one euclidean ball; each K is the largest
    inscribed body of its family (touching, so containment is exact).
    """
    r2 = unit_ball_volume(2) ** -0.5  # volume-one disk radius
    r3 = unit_ball_volume(3) ** (-1.0 / 3.0)
    return [
        ("l1-in-D2", L1Ball(r2, 2), Ball(r2, 2)),
        ("cube-in-D3", Cube(2.0 * r3 / math.sqrt(3.0), 3), Ball(r3, 3)),
    ]


def brenier_grid(f: TestFunction, points: int = 2049) -> np.ndarray:
    """Positive grid values of a test function for the 1-D chain audit."""
    x = np.linspace(0.0, 1.0, points)[:, None]
    return shift_positive(f.value(x))
