"""Call-by-name lambda terms, two abstract machines, and a weighted
intersection type system whose derivations measure machine runs.

The package has three layers:

  terms      syntax interned with the types (hashcons), parsing,
             substitution, weak head reduction
  kam        the Krivine machine and the run core both machines share:
             one Run type, one run loop, trace rows and summary; a run
             keeps only its current state, stores no trace, and
             replays its transitions (fires) and states (trace) on
             each read;
             space_kam adds eager garbage collection and environment
             unchaining, and measures a run's space and time as it goes
  types      indexed multi types and their algebra; checker validates
             weighted derivations in three modes; extractor rebuilds a
             derivation from a complete machine run, walking its
             replayed states back one transition at a time, so that its
             weight equals the run's measure

harness ties the layers together (cross checks, fuzzing) and cli is a
small click front end.
"""

from .terms import (
    Var,
    Abs,
    App,
    Term,
    ParseError,
    parse_term,
    print_term,
    subst,
    whnf_step,
    whnf_eval,
    alpha_eq,
)
from .kam import (
    Closure,
    MachState,
    Run,
    OpenTerm,
    ReplayMismatch,
    StuckState,
    compile,
    kam_run,
    decode,
)
from .space_kam import (
    InvariantViolation,
    env_restrict,
    skam_run,
    state_size,
    check_env_domain_invariant,
)
from .types import (
    Star,
    STAR,
    Arrow,
    ClosureMulti,
    MultiType,
    DCArrow,
    TypeContext,
    EMPTY_CONTEXT,
    NotSummable,
    size_linear,
    size_context,
    is_dry,
    contexts_union,
)
from .checker import (
    Judgment,
    Derivation,
    CheckResult,
    InvalidDerivation,
    check,
    weight_of,
    reweight,
    size_of,
    check_rule_transition_correspondence,
    derivation_to_json,
    derivation_from_json,
    render_derivation,
)
from .extractor import (
    NotFinal,
    IncompleteRun,
    ShapeMismatch,
    StepEquationError,
    dry_type_closure,
    dry_type_env,
    type_final_state,
    expand,
    extract,
    extract_kam,
)
from .harness import (
    VerificationReport,
    random_closed_term,
    verify,
    fuzz,
)

__version__ = "0.1.0"
