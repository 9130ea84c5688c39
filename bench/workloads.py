"""Request generation for the three benchmark workloads.

A workload is one *pass*: a fixed list of ``cartankit`` command lines.
Every pass of a run repeats the same list, so the failed share of a run
is the same whatever the number of passes.  The workload seed decides
the request order, the ``--seed`` each request hands the program, and,
for ``holonomy-loops``, the base points, sides, planes and step counts.
The program only ever sees the generated argv.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

CORPUS = (
    "affine_group_parallelism",
    "ellipsoid",
    "euclid",
    "foliation_r3",
    "hyperbolic",
    "so3_action",
    "so3_dual_poisson",
    "sphere",
    "symplectic_r2",
)

# The mathematics of the corpus (README, acceptance section): the
# ellipsoid is not locally homogeneous and the foliation's flat pair is
# not compatible; every other verdict passes.
EXPECTED_FAIL = {
    ("check", "ellipsoid"),
    ("check", "foliation_r3"),
    ("identities", "foliation_r3"),
}

WORKLOADS = ("identities-corpus", "check-corpus", "holonomy-loops")

# holonomy-loops: four loops per file, each drawn from a band given as
# (coordinate index, lo, hi) of the one coordinate the third-order
# defect depends on (None: the whole box), plus whether the program's
# bound max(tol, side^3) holds there.  The defect is C(p) * side^3 with
# a point-dependent C (README, "Holonomy bands"): C <= 0.94 wherever
# the bound holds and C >= 1.07 in the two bands where it breaks, so
# every request's verdict is the same for every seed.
HOLONOMY_BANDS = {
    "sphere": [(None, True)] * 4,
    "euclid": [(None, True)] * 4,
    "affine_group_parallelism": [(None, True)] * 4,
    "ellipsoid": [((0, 1.15, 1.95), True), ((0, 1.15, 1.95), True),
                  ((0, 0.60, 0.95), False), ((0, 0.60, 0.95), False)],
    "hyperbolic": [((1, 1.25, 1.96), True), ((1, 1.25, 1.96), True),
                   ((1, 0.50, 1.00), False), ((1, 0.50, 1.00), False)],
}
HOLONOMY_STEPS = (128, 256, 512, 1024)  # one request at each, per file
SIDE_RANGE = (0.01, 0.04)


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    command: str
    name: str  # corpus file stem
    seed: int  # the --seed handed to the program
    expect: str  # status the mathematics demands
    # holonomy only: the loop, and whether the program's third-order
    # bound is expected to hold for it (False marks a known false fail)
    point: Optional[Tuple[float, ...]] = None
    plane: Optional[Tuple[int, int]] = None
    side: Optional[float] = None
    bound_holds: bool = True

    @property
    def path(self) -> str:
        return f"corpus/{self.name}.json"


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _corpus_request(command: str, name: str, rng: random.Random) -> Request:
    seed = _program_seed(rng)
    argv = (command, f"corpus/{name}.json", "--seed", str(seed))
    expect = "fail" if (command, name) in EXPECTED_FAIL else "pass"
    return Request(argv, command, name, seed, expect)


def chart_box(name: str):
    """The chart box of a corpus file, as float intervals."""
    with open(f"corpus/{name}.json") as f:
        box = json.load(f)["chart"]["box"]
    return [(float(Fraction(str(lo))), float(Fraction(str(hi)))) for lo, hi in box]


def _holonomy_request(name, band, holds, steps, rng) -> Request:
    seed = _program_seed(rng)
    side = round(rng.uniform(*SIDE_RANGE), 4)
    box = chart_box(name)
    point = []
    for k, (lo, hi) in enumerate(box):
        if band is not None and band[0] == k:
            lo, hi = band[1], band[2]
        # the loop runs from the base point towards +side on both axes; the
        # 1e-3 margin keeps the far corner inside the box after rounding
        point.append(round(rng.uniform(lo, min(hi, box[k][1] - side - 1e-3)), 4))
    plane = (0, 1) if rng.random() < 0.5 else (1, 0)
    argv = (
        "holonomy", f"corpus/{name}.json",
        "--point", *(repr(x) for x in point),
        "--plane", str(plane[0]), str(plane[1]),
        "--side", repr(side),
        "--steps", str(steps),
        "--seed", str(seed),
    )
    return Request(argv, "holonomy", name, seed, "pass", tuple(point), plane, side, holds)


def build(workload: str, seed: int, quick: bool = False) -> List[Request]:
    """The requests of one pass, read against corpus/ in the current
    directory.  ``quick`` is the smallest size, for the self-test: fewer
    files and the shortest loops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "identities-corpus":
        names = list(("euclid", "symplectic_r2") if quick else CORPUS)
        rng.shuffle(names)
        return [_corpus_request("identities", n, rng) for n in names]
    if workload == "check-corpus":
        names = list(("euclid", "foliation_r3") if quick else CORPUS)
        rng.shuffle(names)
        return [_corpus_request(c, n, rng) for n in names for c in ("validate", "check")]
    if workload == "holonomy-loops":
        reqs = []
        for name, bands in HOLONOMY_BANDS.items():
            steps = list(HOLONOMY_STEPS)
            rng.shuffle(steps)
            if quick:
                bands, steps = bands[:1], [16]
            for (band, holds), n_steps in zip(bands, steps):
                reqs.append(_holonomy_request(name, band, holds, n_steps, rng))
        rng.shuffle(reqs)
        return reqs
    raise ValueError(f"unknown workload {workload!r}")
