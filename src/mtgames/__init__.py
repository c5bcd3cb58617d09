"""Solvers, strategy tools and benchmarks for mode-target games.

A mode-target game is a two-player game on a finite labeled graph whose
objective is a conjunction, over a family of mutually exclusive modes,
of "if the play settles in this mode forever, it also settles inside
one of the mode's targets". The package provides two instrumented
fixed-point solvers for the winning region (a direct one and one
through a GR(1) reformulation), memoryless strategy extraction with
independent checkers, deterministic benchmark generators, and a CLI.
"""

from .benchgen import (
    ROOM_BOXES,
    RobotWorld,
    gen_cleaning_robot,
    gen_multi_target_series,
    gen_random_game,
    scaled_rooms,
)
from .errors import (
    BoundExceeded,
    GameParseError,
    ModeExclusivityError,
    MtgamesError,
    NonExhaustiveModes,
    SpecError,
    SpecParseError,
    UnboundProposition,
    ValidationError,
)
from .fixpoint import (
    FixpointEngine,
    FixpointStats,
    ModeTrace,
    solve_persistence_reach,
)
from .game import (
    PLAYER0,
    PLAYER1,
    GameGraph,
    load_game,
    pre,
    serialize_game,
    validate_graph,
)
from .gr1 import EmbeddedGR1, GR1SolveResult, embed, solve_gr1, solve_gr1_emb
from .sets import StateSet
from .solver import (
    MTSolveResult,
    SolveOptions,
    solve_mt,
    solve_mt_reference,
)
from .specs import (
    GR1Spec,
    LassoWord,
    ModeSpec,
    MTSpec,
    BoundSpec,
    bind_spec,
    format_spec_file,
    lasso_satisfies,
    parse_mt_formula,
    parse_spec_file,
    require_exclusive,
)
from .strategy import (
    CheckVerdict,
    Strategy,
    check_strategy,
    enumerate_memoryless_winning,
    extract_strategy,
    format_strategy,
    format_winning,
    parse_strategy,
    parse_winning,
)

__version__ = "0.1.0"

__all__ = [
    "PLAYER0",
    "PLAYER1",
    "ROOM_BOXES",
    "BoundExceeded",
    "BoundSpec",
    "CheckVerdict",
    "EmbeddedGR1",
    "FixpointEngine",
    "FixpointStats",
    "GameGraph",
    "GameParseError",
    "GR1SolveResult",
    "GR1Spec",
    "LassoWord",
    "ModeExclusivityError",
    "ModeSpec",
    "ModeTrace",
    "MTSolveResult",
    "MTSpec",
    "MtgamesError",
    "NonExhaustiveModes",
    "RobotWorld",
    "SolveOptions",
    "SpecError",
    "SpecParseError",
    "StateSet",
    "Strategy",
    "UnboundProposition",
    "ValidationError",
    "bind_spec",
    "check_strategy",
    "embed",
    "enumerate_memoryless_winning",
    "extract_strategy",
    "format_spec_file",
    "format_strategy",
    "format_winning",
    "gen_cleaning_robot",
    "gen_multi_target_series",
    "gen_random_game",
    "lasso_satisfies",
    "load_game",
    "parse_mt_formula",
    "parse_spec_file",
    "parse_strategy",
    "parse_winning",
    "pre",
    "require_exclusive",
    "scaled_rooms",
    "serialize_game",
    "solve_gr1",
    "solve_gr1_emb",
    "solve_mt",
    "solve_mt_reference",
    "solve_persistence_reach",
    "validate_graph",
]
