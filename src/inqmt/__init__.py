"""Team semantics, a two-sorted down-set algebra, and a structural
sequent kernel for inquisitive logic, with principal-cut reduction and a
bundled, machine-checked derivation corpus."""

from .algebra import TeamAlgebra, for_context
from .calculus import (
    AuditReport,
    CheckResult,
    Polarity,
    audit_soundness,
    check_derivation,
    check_rule_table_soundness,
    match_name,
    match_rule,
)
from .contexts import Context
from .cutelim import (
    CutSite,
    find_cut_sites,
    find_principal_cuts,
    reduce_all,
    reduce_principal_cut,
)
from .errors import (
    InqmtError,
    MixedSortError,
    NotClassicalError,
    ParseError,
    SizeCapError,
    UnsupportedPatternError,
)
from .formulas import (
    Cap,
    Down,
    FImp,
    FVar,
    FZERO,
    FZero,
    GAnd,
    GFALSUM,
    GImp,
    GOr,
    IAnd,
    IImp,
    IOr,
    IVar,
    IZERO,
    IZero,
    enumerate_inql,
    is_classical,
)
from .parser import (
    derivation_to_sexp,
    parse_derivation,
    parse_flat,
    parse_general,
    parse_inql,
    parse_sequent,
    parse_structure,
)
from .rules import RuleSchema, lookup, rule_table
from .structures import Derivation, Sequent, Sort
from .teams import (
    entails,
    is_flat_semantic,
    support,
    support_table,
    valid,
)
from .translate import collapse_to_flat, flatten, tau_c, tau_i

__version__ = "0.1.0"
