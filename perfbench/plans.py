"""The fixed list of `ukin` invocations that one round of each workload runs.

`tables` and `verify` run the same invocations for every seed; the seed only
shuffles their order.  `queries` is stratified: its groups of (verb, n,
degree) are fixed, and the seed picks the target family and q inside each
degree, the basis-independent output formats, and the order.  Every target
of one degree visits the same basis pairs, so the cost of a round hardly
depends on the seed while its inputs do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import B_GAMMA, DELTA_N, valid_indices

WORKLOADS = ("tables", "queries", "verify")


@dataclass(frozen=True)
class Invocation:
    """One `ukin` command line and what its document should be checked for."""

    verb: str
    n: int
    fmt: str = "json"
    basis: str = DELTA_N
    target: tuple[str, int, int] | None = None
    suite: str | None = None

    def argv(self) -> list[str]:
        if self.verb == "identities":
            return ["identities"]
        args = [self.verb, "--n", str(self.n)]
        if self.verb == "verify":
            return args + ["--suite", self.suite]
        if self.target is not None:
            family, k, q = self.target
            args += ["--target", f"{family}:{k},{q}"]
        if self.verb in ("table", "formula") and self.basis != DELTA_N:
            args += ["--basis", self.basis]
        return args + ["--format", self.fmt]

    def key(self) -> str:
        return " ".join(self.argv())


def tables_plan() -> list[Invocation]:
    # delta-n JSON at every n; b-gamma text or latex at n = 5..7, so that the
    # b-gamma tables can be checked against the delta-n JSON of the same n.
    plan = [Invocation("table", n) for n in range(5, 9)]
    plan += [Invocation("table", n, fmt, B_GAMMA)
             for n, fmt in ((5, "text"), (6, "latex"), (7, "text"))]
    return plan


def verify_plan() -> list[Invocation]:
    return [
        Invocation("verify", 4, suite="all"),
        Invocation("verify", 5, suite="all"),
        Invocation("verify", 6, suite="relations"),
        Invocation("verify", 6, suite="identities"),
        Invocation("identities", 0),
        Invocation("census", 12),
        Invocation("census", 24),
    ]


# Degrees drawn at each n.  Small n take every degree; larger n take a few,
# so a round stays near ten seconds while reaching the slow n = 8 targets.
QUERY_DEGREES = {3: range(6), 4: range(8), 5: range(0, 10, 2),
                 6: (1, 5, 9), 7: (3, 8), 8: (4, 10)}
TEXT_FORMATS = ("text", "latex")
ALL_FORMATS = ("text", "latex", "json")


def _pick(rng: random.Random, n: int, k: int, families: tuple[str, ...]) -> tuple[str, int, int]:
    choices = [idx for family in families for idx in valid_indices(n, family) if idx[1] == k]
    return rng.choice(choices)


def _has(n: int, k: int, family: str) -> bool:
    return any(idx[1] == k for idx in valid_indices(n, family))


def queries_plan(seed: int) -> list[Invocation]:
    """Groups by degree, cycling through three shapes:

    * triple: `formula`, `global` and `semilocal` on one Delta target;
    * pair: `formula` in JSON and in text or latex, alternating the basis;
    * N pair: `semilocal` and `formula` on one N target.
    """
    rng = random.Random(seed)
    plan: list[Invocation] = []
    for n, degrees in QUERY_DEGREES.items():
        for k in degrees:
            shape = (n + k) % 3
            if shape == 2 and not _has(n, k, "N"):
                shape = 1
            if shape == 0:
                target = _pick(rng, n, k, ("Delta",))
                plan += [Invocation("formula", n, target=target),
                         Invocation("global", n, rng.choice(ALL_FORMATS), target=target),
                         Invocation("semilocal", n, rng.choice(ALL_FORMATS), target=target)]
            elif shape == 1:
                basis = B_GAMMA if k % 2 else DELTA_N
                target = _pick(rng, n, k, ("B", "Gamma") if basis == B_GAMMA else ("Delta", "N"))
                plan += [Invocation("formula", n, basis=basis, target=target),
                         Invocation("formula", n, rng.choice(TEXT_FORMATS), basis, target)]
            else:
                target = _pick(rng, n, k, ("N",))
                plan += [Invocation("formula", n, target=target),
                         Invocation("semilocal", n, rng.choice(ALL_FORMATS), target=target)]
    rng.shuffle(plan)
    return plan


def plan_for(workload: str, seed: int) -> list[Invocation]:
    if workload == "queries":
        return queries_plan(seed)
    plan = tables_plan() if workload == "tables" else verify_plan()
    random.Random(seed).shuffle(plan)
    return plan
