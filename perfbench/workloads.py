"""Workload definitions: the ``divergelab`` CLI argument lists each workload
runs, and the operations each call must report.

The quantifier facts below are the benchmark's own copy of the paper's
classification. The correctness gate checks the program against them, so
they are deliberately not read from the package.

Every trial count and quantifier list is passed explicitly. Today they equal
the CLI defaults; pinning them keeps the measured work fixed if those
defaults change.
"""
from __future__ import annotations

import math
from typing import NamedTuple

DEFAULT_SEED = 20260810
# Not used while tuning; a change that claims a gain must also show it here.
HELD_OUT_SEED = 3141592653

MU = 0.3
CONTRACTIVE = ("rel_entropy", "qsd", "holevo_skew", "trace_dist", "qjs", "bures", "hellinger")
ALL_TAGS = CONTRACTIVE + ("hs_dist", "d_inf")
NON_CONTRACTIVE = ("hs_dist", "d_inf")
TRANSPOSE_INVARIANT = ("rel_entropy", "qsd", "holevo_skew", "trace_dist")
JOINTLY_CONVEX = ("rel_entropy", "hs_dist", "d_inf", "qsd", "holevo_skew", "qjs")
PLATEAU_VALUE = {
    "trace_dist": 1.0,
    "holevo_skew": 1.0,
    "bures": 1.0,
    "hellinger": 1.0,
    "qsd": 1.0,
    "qjs": math.log(2.0),
}
# Maximum over state pairs for the quantifiers the optimizer workload climbs.
OPTIMUM = {"trace_dist": 1.0, "holevo_skew": 1.0, "hs_dist": 1.0}

HIGHDIM_TRIALS = 120


class Op(NamedTuple):
    """One expected operation: a (suite, quantifier) report or one search."""

    suite: str  # the record's "suite" field
    tag: str
    trials: int  # expected trial count; 0 for a search
    dim: int = 0  # search dimension; 0 for a report

    @property
    def label(self) -> str:
        return f"{self.tag}(mu={MU:g})" if self.tag in ("qsd", "holevo_skew") else self.tag

    @property
    def key(self) -> tuple:
        return (self.suite, self.label, self.dim)


class Call(NamedTuple):
    argv: tuple[str, ...]
    ops: tuple[Op, ...]


def _suite(name: str, tags, trials: int, seed: int, dims: str = "2-6") -> tuple[str, ...]:
    argv = ["suite", name, "--seed", str(seed), "--trials", str(trials), "--mu", str(MU)]
    argv += ["--dim", dims]
    for tag in tags:
        argv += ["--q", tag]
    return tuple(argv)


def _suites_lowdim(seed: int, smoke: bool) -> list[Call]:
    def n(default: int) -> int:
        return 4 if smoke else default

    return [
        Call(
            _suite("dpi", CONTRACTIVE, n(500), seed),
            tuple(Op("dpi", t, n(500)) for t in CONTRACTIVE),
        ),
        Call(
            _suite("invariance", ALL_TAGS, n(100), seed),
            tuple(Op("invariance_unitary", t, n(100)) for t in ALL_TAGS)
            + tuple(Op("invariance_assignment", t, n(100)) for t in ALL_TAGS)
            + tuple(Op("invariance_transpose", t, n(100)) for t in TRANSPOSE_INVARIANT),
        ),
        Call(
            _suite("plateau", PLATEAU_VALUE, n(100), seed),
            tuple(Op("plateau", t, n(100)) for t in PLATEAU_VALUE),
        ),
        Call(
            _suite("joint-convexity", JOINTLY_CONVEX, n(300), seed),
            tuple(Op("joint_convexity", t, n(300)) for t in JOINTLY_CONVEX),
        ),
        Call(_suite("kadison", (), n(300), seed), (Op("kadison", "hs_dist", n(300)),)),
        Call(_suite("purity-bound", (), n(300), seed), (Op("purity_bound", "hs_dist", n(300)),)),
        Call(
            _suite("stinespring", ("trace_dist",), n(50), seed),
            (Op("stinespring", "trace_dist", n(50)),),
        ),
    ]


def _optimizer(seed: int, smoke: bool) -> list[Call]:
    def search(tags, dim: int) -> Call:
        argv = ["suite", "optimal-pair", "--seed", str(seed), "--mu", str(MU), "--dim", str(dim)]
        for tag in tags:
            argv += ["--q", tag]
        return Call(tuple(argv), tuple(Op("optimal-pair", t, 0, dim) for t in tags))

    dims = (2,) if smoke else (2, 3, 4)
    calls = [search(("trace_dist", "holevo_skew"), d) for d in dims]
    if not smoke:
        calls.append(search(("hs_dist",), 4))
    return calls


def _suites_highdim(seed: int, smoke: bool) -> list[Call]:
    trials = 2 if smoke else HIGHDIM_TRIALS
    return [
        Call(
            _suite("dpi", ALL_TAGS, trials, seed, dims="32-64"),
            tuple(Op("dpi", t, trials) for t in ALL_TAGS),
        )
    ]


WORKLOADS = {
    "suites_lowdim": _suites_lowdim,
    "optimizer": _optimizer,
    "suites_highdim": _suites_highdim,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Call]:
    """The calls of one pass of ``workload`` at ``seed``."""
    return WORKLOADS[workload](seed, smoke)
