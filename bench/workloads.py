"""Seeded workload generation: one pass of CLI invocations per workload.

A pass is a fixed list of ``Invocation`` records. The timed loop repeats the
same pass, so every pass does identical work and per-pass figures are
comparable; the benchmark's ``--seed`` decides the sample seeds, boxes and
points inside the pass, never its composition (n values, sample counts,
formats), so figures from different seeds measure the same amount of work.

This module imports neither numpy nor the package: the set-up probe starts
its clock before the first import of either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("sweep-regular", "sweep-diffnondeg", "morse-grid", "fd-oracle")

# Tolerances of the gating checks, copied from the CLI defaults so the gate
# recomputes every verdict from the residual instead of trusting the flag.
TOL = {
    "torsion_relative": 1e-10,
    "sigma_max_deviation": 1e-9,
    "conjugation_relative": 1e-11,
    "pde_system": 1e-10,
    "normal_form_defect": 1e-9,
    # The FD bracket differs from the exact torsion by O(h^2) truncation
    # plus O(eps/h) rounding: at h = 1e-4 and |f_y| >= 0.3 the largest
    # delta over 500 seeded points was 1.2e-6.
    "fd_oracle_delta": 1e-5,
}

SWEEP_CHECKS = {
    "theorem1": ("torsion_relative", "sigma_max_deviation",
                 "conjugation_relative"),
    "diffnondeg": ("torsion_relative", "sigma_max_deviation"),
}

# CSV rows name the check by its --check spelling.
CSV_CHECK = {"torsion": "torsion_relative", "sigma": "sigma_max_deviation",
             "conjugation": "conjugation_relative"}

FD_STEP = "1e-4"
# fd-oracle points keep |f_y| above this, far from the quotient entries'
# singular locus, since `torsion` has no guard and would exit 3 there.
FD_MIN_FY = 0.3


@dataclass(frozen=True)
class Invocation:
    """One `run(argv)` call and everything the gate expects of it."""

    key: str                 # stable label within the pass
    argv: tuple
    n: int
    points: int              # points attempted: accepted + rejected
    checks: tuple            # every check name the report must carry
    expect_exit: int         # 0 positive case, 1 negative control
    fmt: str = "json"
    twin: Optional[str] = None   # key of the JSON run a CSV run must match


def regular_f(n: int) -> str:
    """Cubic in y with a sin(x1)*y term; f_y = y^2 + 0.2 + sin(x1) + x_l*y.

    The default min-denominator 0.05 rejects about 4% of uniform samples
    from [-1, 1]^n, so the guard's reject path runs in every sweep.
    """
    xl = f"x{n - 1}" if n > 2 else "x1"
    return f"y^3/3 + 0.2*y + sin(x1)*y + 0.5*{xl}*y^2 + x1*{xl}"


def regular_fy(p) -> float:
    """Closed-form f_y of regular_f at p (x1 .. x_(n-1), y)."""
    y = p[-1]
    xl = p[-2]
    return y * y + 0.2 + math.sin(p[0]) + xl * y


# Well-conditioned polynomial coefficients for the diffnondeg family.
DIFFNONDEG_SIGMA = {
    3: "x1+0.1*y^2,x2+0.2*x1*y,y+0.1*x1*x2+0.3*x2^2",
    5: "x1+0.1*y^2,x2+0.2*x1*y,x3+0.1*x2^2,x4+0.2*x1*x3,"
       "y+0.1*x1*x2+0.3*x4^2",
}

# Cubic in y with f_yy = 0.6 y + 2 (1 + 0.1 x2) >= 1 on the box, so every
# slice has a Morse critical point y = c(x) near 0.3 sin(x1), which Newton
# from y0 = 0 finds; the far root sits near y = -7. Because f is cubic in y
# the Taylor branch of the quadratic factor is exact, so the normal-form
# defect is pure rounding. R(x) = f(x, c(x)) does not solve the remainder
# system, which makes `verify --check pde` a negative control.
MORSE_F = "y^3/10 + (1 + 0.1*x2)*y^2 - 0.6*sin(x1)*y + x1*x2 + 0.5*x2^2"

# Sizes keep one invocation near 20-250 ms, so the timed loop repeats the
# pass tens of times; the gauge before and after a call tracks the host's
# speed less well the longer the call (two 8^3 Morse grids of 350 ms
# spread more than six 5^3 ones of 150 ms). Sweeps keep 30 samples so
# per-point work, not the fixed cost of an invocation (argument parsing,
# family build, output), dominates the pass.
SWEEP_SAMPLES = 30
CONTROL_SAMPLES = 30
DIFFNONDEG_SAMPLES = {3: 12, 5: 6}
MORSE_GRID = 5
MORSE_BOXES = 6
PDE_CONTROL_SAMPLES = 10


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


def _sweep_regular(seed: int, scale: float) -> list:
    rng = _rng(seed, "sweep-regular")
    samples = max(4, int(SWEEP_SAMPLES * scale))
    control = max(4, int(CONTROL_SAMPLES * scale))
    out = [Invocation(
        key="regular-control-diag", n=2, points=control,
        argv=("verify", "--matrix", "diag:y,x", "--check", "torsion",
              "--samples", str(control), "--seed", _seed(rng)),
        checks=("torsion_relative",), expect_exit=1)]
    # n = 3 runs twice per format so the median invocation falls inside
    # one size class instead of between two.
    for n, copies in ((2, 1), (3, 2), (5, 1), (8, 1)):
        for c in range(copies):
            s = _seed(rng)
            argv = ("verify", "--family", "theorem1", "--n", str(n),
                    "--f", regular_f(n), "--check", "all",
                    "--samples", str(samples), "--seed", s)
            key = f"regular-n{n}-{c}"
            common = dict(n=n, points=samples * 3,
                          checks=SWEEP_CHECKS["theorem1"], expect_exit=0)
            out.append(Invocation(key=key + "-json", argv=argv, **common))
            out.append(Invocation(key=key + "-csv", fmt="csv",
                                  twin=key + "-json",
                                  argv=argv + ("--format", "csv"), **common))
    return out


def _sweep_diffnondeg(seed: int, scale: float) -> list:
    rng = _rng(seed, "sweep-diffnondeg")
    out = []
    # Three n=3 runs per n=5 run keep the median inside the n=3 class.
    for n, copies in ((3, 3), (5, 1)):
        samples = max(2, int(DIFFNONDEG_SAMPLES[n] * scale))
        for c in range(copies):
            out.append(Invocation(
                key=f"diffnondeg-n{n}-{c}", n=n, points=samples * 2,
                argv=("verify", "--family", "diffnondeg", "--n", str(n),
                      "--sigma", DIFFNONDEG_SIGMA[n], "--check", "all",
                      "--samples", str(samples), "--seed", _seed(rng)),
                checks=SWEEP_CHECKS["diffnondeg"], expect_exit=0))
    return out


def _morse_grid(seed: int, scale: float) -> list:
    rng = _rng(seed, "morse-grid")
    grid = max(3, int(round(MORSE_GRID * scale ** (1 / 3))))
    out = []
    for c in range(MORSE_BOXES):
        box = []
        for _ in range(3):
            box += [f"{rng.uniform(-1.1, -0.9):.6f}",
                    f"{rng.uniform(0.9, 1.1):.6f}"]
        out.append(Invocation(
            key=f"morse-grid-{c}", n=3, points=grid ** 3,
            argv=("morse-reduce", "--f", MORSE_F, "--n", "3", "--box", *box,
                  "--samples", str(grid)),
            checks=("normal_form_defect",), expect_exit=0))
    samples = max(4, int(PDE_CONTROL_SAMPLES * scale))
    out.append(Invocation(
        key="morse-control-pde", n=3, points=samples,
        argv=("verify", "--family", "theorem1", "--check", "pde", "--n", "3",
              "--f", MORSE_F, "--samples", str(samples),
              "--seed", _seed(rng)),
        checks=("pde_system", "factor2"), expect_exit=1))
    return out


def _fd_points(rng: random.Random, n: int, count: int) -> list:
    points = []
    while len(points) < count:
        p = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        if abs(regular_fy(p)) >= FD_MIN_FY:
            points.append(p)
    return points


def _fd_oracle(seed: int, scale: float) -> list:
    rng = _rng(seed, "fd-oracle")
    out = []
    # Three n=3 runs per n=8 run keep the median inside the n=3 class.
    for n, copies, count in ((3, 3, 8), (8, 1, 3)):
        count = max(1, int(count * scale))
        for c in range(copies):
            argv = ["torsion", "--family", "theorem1", "--n", str(n),
                    "--f", regular_f(n), "--fd-step", FD_STEP]
            for p in _fd_points(rng, n, count):
                argv += ["--point", *(f"{v:.6f}" for v in p)]
            out.append(Invocation(
                key=f"fd-n{n}-{c}", n=n, points=count, argv=tuple(argv),
                checks=("torsion_relative", "fd_oracle_delta"),
                expect_exit=0))
    return out


_BUILDERS = {
    "sweep-regular": _sweep_regular,
    "sweep-diffnondeg": _sweep_diffnondeg,
    "morse-grid": _morse_grid,
    "fd-oracle": _fd_oracle,
}


def make_pass(workload: str, seed: int, scale: float = 1.0) -> list:
    """The invocations of one pass of `workload` at `seed`.

    `scale` < 1 shrinks sample counts, grids and point lists for the smoke
    test; the timed benchmark always uses 1.
    """
    return _BUILDERS[workload](seed, scale)


# Sizes of the one large invocation per workload that only the peak-RSS
# interpreter runs: at the ROADMAP's batching target (`verify --check
# torsion` at n = 3 with 2000 samples) and near it for the other paths, so
# an engine's per-point arrays, not the interpreter, can decide the peak.
# Each takes one to two seconds with the scalar engine.
BIG_SAMPLES = 2000
BIG_DIFFNONDEG_SAMPLES = 300
BIG_MORSE_GRID = 15
BIG_FD_POINTS = 120


def make_big(workload: str, seed: int, scale: float = 1.0) -> Invocation:
    """The large invocation of `workload` that the peak-RSS pass adds."""
    rng = _rng(seed, workload + ":big")
    if workload == "sweep-regular":
        samples = max(4, int(BIG_SAMPLES * scale))
        return Invocation(
            key="regular-big", n=3, points=samples,
            argv=("verify", "--family", "theorem1", "--n", "3",
                  "--f", regular_f(3), "--check", "torsion",
                  "--samples", str(samples), "--seed", _seed(rng)),
            checks=("torsion_relative",), expect_exit=0)
    if workload == "sweep-diffnondeg":
        samples = max(2, int(BIG_DIFFNONDEG_SAMPLES * scale))
        return Invocation(
            key="diffnondeg-big", n=3, points=samples,
            argv=("verify", "--family", "diffnondeg", "--n", "3",
                  "--sigma", DIFFNONDEG_SIGMA[3], "--check", "torsion",
                  "--samples", str(samples), "--seed", _seed(rng)),
            checks=("torsion_relative",), expect_exit=0)
    if workload == "morse-grid":
        grid = max(3, int(round(BIG_MORSE_GRID * scale ** (1 / 3))))
        return Invocation(
            key="morse-big", n=3, points=grid ** 3,
            argv=("morse-reduce", "--f", MORSE_F, "--n", "3",
                  "--box", "-1", "1", "-1", "1", "-1", "1",
                  "--samples", str(grid)),
            checks=("normal_form_defect",), expect_exit=0)
    count = max(1, int(BIG_FD_POINTS * scale))
    argv = ["torsion", "--family", "theorem1", "--n", "3",
            "--f", regular_f(3), "--fd-step", FD_STEP]
    for p in _fd_points(rng, 3, count):
        argv += ["--point", *(f"{v:.6f}" for v in p)]
    return Invocation(key="fd-big", n=3, points=count, argv=tuple(argv),
                      checks=("torsion_relative", "fd_oracle_delta"),
                      expect_exit=0)
