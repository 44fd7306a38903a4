"""Variable contexts and the bit encoding of worlds and teams.

A context fixes an ordered tuple of variable names.  A world is an
assignment, encoded as an integer whose bit i is the value of the i-th
declared variable.  A team is a set of worlds, encoded as a mask over all
2^|V| worlds (bit w set iff world w belongs to the team).  Collections of
teams are masks over all 2^(2^|V|) teams, indexed by the team's own mask.

Contexts are capped at four variables: that bounds teams at 65,536, and
every team routine answers at that size.  Only down-set enumeration
stops earlier, at two variables (algebra.ENUM_MAX_WORLDS).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import SizeCapError

MAX_VARS = 4

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class Context:
    variables: tuple[str, ...]

    def __post_init__(self):
        if len(self.variables) > MAX_VARS:
            raise SizeCapError(
                f"context has {len(self.variables)} variables; the cap is {MAX_VARS}"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")
        for v in self.variables:
            if not _NAME_RE.fullmatch(v):
                raise ValueError(f"bad variable name {v!r}")

    @staticmethod
    def of(names: Iterable[str] | str) -> "Context":
        if isinstance(names, str):
            names = [n for n in names.split(",") if n]
        return Context(tuple(names))

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_worlds(self) -> int:
        return 1 << self.n_vars

    @property
    def n_teams(self) -> int:
        return 1 << self.n_worlds

    @property
    def full_team(self) -> int:
        return self.n_teams - 1

    def unknown_variable(self, name: str) -> ValueError:
        return ValueError(f"unknown variable {name!r} in context {self.variables}")

    @cached_property
    def var_teams(self) -> dict[str, int]:
        """The canonical team of each variable: every world that makes it
        true.  Built once per context; read, do not mutate."""
        return {v: bit_column(i, self.n_worlds) for i, v in enumerate(self.variables)}

    def var_team(self, name: str) -> int:
        try:
            return self.var_teams[name]
        except KeyError:
            raise self.unknown_variable(name) from None

    def worlds(self) -> range:
        return range(self.n_worlds)

    def teams(self) -> range:
        return range(self.n_teams)

    def world_values(self, world: int) -> tuple[int, ...]:
        return tuple((world >> i) & 1 for i in range(self.n_vars))

    def world_str(self, world: int) -> str:
        return "".join(str(v) for v in self.world_values(world))

    # ------------------------------------------------------------- teams

    def team_from_spec(self, spec: str) -> int:
        """Parse a braced team spec such as {10,01}; bit strings follow the
        declared variable order, leftmost character first."""
        spec = spec.strip()
        if not (spec.startswith("{") and spec.endswith("}")):
            raise ValueError(f"team spec must be braced: {spec!r}")
        body = spec[1:-1].strip()
        team = 0
        if body:
            for token in body.split(","):
                token = token.strip()
                if len(token) != self.n_vars or any(c not in "01" for c in token):
                    raise ValueError(
                        f"world {token!r} must be {self.n_vars} bits over {self.variables}"
                    )
                world = sum(int(c) << i for i, c in enumerate(token))
                team |= 1 << world
        return team

    def team_to_spec(self, team: int) -> str:
        worlds = [self.world_str(w) for w in self.worlds() if (team >> w) & 1]
        return "{" + ",".join(worlds) + "}"

    def team_members(self, team: int) -> Iterator[int]:
        for w in self.worlds():
            if (team >> w) & 1:
                yield w


def bit_column(i: int, width: int) -> int:
    """Mask over the indices 0..width-1 whose bit i is set.

    width is a power of two of at least 2^(i+1); the mask repeats the
    block of 2^i zeros followed by 2^i ones.  Over worlds (width 2^|V|)
    this is a variable's team; over teams it is the collection of the
    teams that hold world i."""
    run = 1 << i
    period = run << 1
    block = ((1 << run) - 1) << run
    return block * (((1 << width) - 1) // ((1 << period) - 1))


def subteams(team: int) -> Iterator[int]:
    """All submasks of a team, the empty team last."""
    sub = team
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & team
