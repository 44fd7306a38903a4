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

Denotations of formulas are computed by the package's one compiler
(see denote); denote_flat and denote_general are thin wrappers over it.
Nothing here builds tables ahead of use: enumeration of down-sets is
cached per context, and everything else is computed on demand.
"""

from __future__ import annotations

from functools import lru_cache

from .contexts import Context
from .denote import Polarity, denote
from .errors import SizeCapError
from .formulas import FlatFormula, GeneralFormula

ENUM_MAX_WORLDS = 4  # down-set enumeration needs 2^(2^worlds) candidates


class TeamAlgebra:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.n_worlds = ctx.n_worlds
        self.n_teams = ctx.n_teams
        self.full_team = ctx.full_team
        self.full = (1 << self.n_teams) - 1
        # _has[b]: mask over team indices whose team contains world b
        self._has = [self._world_bit_mask(b) for b in range(self.n_worlds)]

    def _world_bit_mask(self, b: int) -> int:
        run = 1 << b
        period = run << 1
        block = ((1 << run) - 1) << run
        repeats = self.n_teams // period
        return block * (((1 << (repeats * period)) - 1) // ((1 << period) - 1))

    # ----------------------------------------------------------- closures

    def down_closure(self, x: int) -> int:
        for b in range(self.n_worlds):
            x |= (x & self._has[b]) >> (1 << b)
        return x

    def up_closure(self, x: int) -> int:
        for b in range(self.n_worlds):
            x |= (x & ~self._has[b] & self.full) << (1 << b)
        return x

    def is_downward_closed(self, x: int) -> bool:
        return self.down_closure(x) == x

    # ------------------------------------------------- the three maps

    def downset(self, team: int) -> int:
        """All subteams of a team; the product form sums 2^T over T <= team."""
        mask = 1
        b = 0
        while team >> b:
            if (team >> b) & 1:
                mask *= 1 + (1 << (1 << b))
            b += 1
        return mask

    def f(self, x: int) -> int:
        """Union of the member teams of a collection."""
        union = 0
        while x:
            low = x & -x
            union |= low.bit_length() - 1
            x ^= low
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

    @property
    def top_a(self) -> int:
        return self.full

    @property
    def bot_a(self) -> int:
        return 0

    # ----------------------------------------------------- enumeration

    def all_teams(self) -> range:
        return range(self.n_teams)

    def all_downsets(self) -> tuple[int, ...]:
        return _downsets_of(self.ctx)

    # ------------------------------------------------------ denotations

    def canonical_assignment(self) -> dict[str, int]:
        return {v: self.ctx.var_team(v) for v in self.ctx.variables}

    def denote_flat(self, alpha: FlatFormula, assignment: dict[str, int]) -> int:
        if not isinstance(alpha, FlatFormula):
            raise TypeError(f"not a Flat formula: {alpha!r}")
        return denote(self, alpha, Polarity.ANT, assignment)

    def denote_general(self, a: GeneralFormula, assignment: dict[str, int]) -> int:
        if not isinstance(a, GeneralFormula):
            raise TypeError(f"not a General formula: {a!r}")
        return denote(self, a, Polarity.ANT, assignment)

    def is_flat_algebraic(self, a: GeneralFormula, assignment: dict[str, int]) -> bool:
        """Lemma-style fixed point: the denotation equals downset(f(.)) of itself."""
        x = self.denote_general(a, assignment)
        return x == self.downset(self.f(x))


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
    alg = for_context(ctx)
    return tuple(x for x in range(1 << ctx.n_teams) if alg.is_downward_closed(x))
