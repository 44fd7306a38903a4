"""Exact finite models of the two semantic algebras.

The Boolean side is the powerset of worlds: its elements are teams (world
masks).  The intuitionistic side is the lattice of downward-closed
collections of teams, encoded as team-indexed masks with an explicit
closure check; membership and the lattice operations are O(1) mask
arithmetic.  The three maps connecting the sides form the residuation
triple  f* -| f -| downset.

The relative pseudo-complement is computed through an upward-closure
sweep: S belongs to (Y => Z) exactly when no subteam of S lies in Y\\Z,
i.e. when S is outside the up-closure of Y\\Z.  The co-implication is the
dual residual: the least down-set Z with X included in Y union Z, which
is the downward closure of X\\Y.

Every map costs a fixed number of big-integer operations per world: a
closure step is one AND, one shift and one OR; downset doubles its mask
once per world of the team; f tests each world's team column once.

Denotations of formulas are computed by the package's one compiler
(see denote); denote_general is a thin wrapper over it.
The algebra is built once per context (for_context) and holds that
context's constants: the per-world team columns and closure masks, and
the down-set of each variable's team.  The down-sets themselves are
enumerated once per context, world by world.  Beyond these, the only
thing kept across calls is ``tables``, a weak memo from interned InqL
formulas to their support tables (teams.support_table): an entry leaves
it when its formula is no longer held anywhere, so a formula built again
later has its table computed again.
"""

from __future__ import annotations

from functools import lru_cache
from weakref import WeakKeyDictionary

from .contexts import Context, bit_column
from .denote import Polarity, denote
from .errors import SizeCapError
from .formulas import GeneralFormula

ENUM_MAX_WORLDS = 4  # 168 down-sets over 4 worlds; over 8 there are about 5.6e22


class TeamAlgebra:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.n_worlds = ctx.n_worlds
        self.n_teams = ctx.n_teams
        self.full_team = ctx.full_team
        self.full = (1 << self.n_teams) - 1
        # _has[b]: mask over team indices whose team contains world b
        self._has = [bit_column(b, self.n_teams) for b in range(self.n_worlds)]
        # one closure step per world: the teams that can move (they hold,
        # resp. lack, world b) and the distance 2^b they move by
        self._down_steps = [(has, 1 << b) for b, has in enumerate(self._has)]
        self._up_steps = [(self.full & ~has, 1 << b) for b, has in enumerate(self._has)]
        self._var_downsets = {v: self.downset(t) for v, t in ctx.var_teams.items()}
        # support tables of the live InqL formulas (teams.support_table)
        self.tables: WeakKeyDictionary = WeakKeyDictionary()

    # ----------------------------------------------------------- closures

    def down_closure(self, x: int) -> int:
        for has, shift in self._down_steps:
            x |= (x & has) >> shift
        return x

    def up_closure(self, x: int) -> int:
        for lacks, shift in self._up_steps:
            x |= (x & lacks) << shift
        return x

    def is_downward_closed(self, x: int) -> bool:
        return self.down_closure(x) == x

    # ------------------------------------------------- the three maps

    def downset(self, team: int) -> int:
        """All subteams of a team: each world b of it doubles the mask,
        adding a copy shifted by 2^b (the subteams that gain b)."""
        mask = 1
        while team:
            low = team & -team
            mask |= mask << low
            team ^= low
        return mask

    def var_downset(self, name: str) -> int:
        """downset of a variable's canonical team, built once per context."""
        try:
            return self._var_downsets[name]
        except KeyError:
            raise self.ctx.unknown_variable(name) from None

    def f(self, x: int) -> int:
        """Union of the member teams of a collection: world w is in it
        exactly when some member team holds w."""
        union = 0
        for w, has in enumerate(self._has):
            if x & has:
                union |= 1 << w
        return union

    def f_star(self, team: int) -> int:
        """Singletons of the team's worlds, plus the empty team."""
        mask = 1
        for w in self.ctx.team_members(team):
            mask |= 1 << (1 << w)
        return mask

    # ------------------------------------------------- lattice operations

    def heyting(self, y: int, z: int) -> int:
        return self.full & ~self.up_closure(y & ~z & self.full)

    def coimp(self, x: int, y: int) -> int:
        return self.down_closure(x & ~y & self.full)

    def complement_team(self, team: int) -> int:
        return self.full_team & ~team

    # ----------------------------------------------------- enumeration

    def all_downsets(self) -> tuple[int, ...]:
        return _downsets_of(self.ctx)

    # ------------------------------------------------------ denotations

    def canonical_assignment(self) -> dict[str, int]:
        return dict(self.ctx.var_teams)

    def denote_general(self, a: GeneralFormula, assignment: dict[str, int]) -> int:
        if not isinstance(a, GeneralFormula):
            raise TypeError(f"not a General formula: {a!r}")
        return denote(self, a, Polarity.ANT, assignment)


@lru_cache(maxsize=None)
def for_context(ctx: Context) -> TeamAlgebra:
    return TeamAlgebra(ctx)


@lru_cache(maxsize=None)
def _downsets_of(ctx: Context) -> tuple[int, ...]:
    if ctx.n_worlds > ENUM_MAX_WORLDS:
        raise SizeCapError(
            f"down-set enumeration needs at most {ENUM_MAX_WORLDS} worlds, "
            f"got {ctx.n_worlds}"
        )
    # a down-set over worlds 0..b is D0 | D1 << 2^b: D0 holds the teams
    # without b, D1 the teams that stay in it with b added; both are
    # down-sets over worlds 0..b-1 and D1 is inside D0
    downs = [0, 1]
    for b in range(ctx.n_worlds):
        shift = 1 << b
        downs = [d0 | d1 << shift for d0 in downs for d1 in downs if d1 & ~d0 == 0]
    return tuple(sorted(downs))
