"""The reduction of mode-target objectives to GR(1), solved by the shared core.

A GR(1) objective is an implication between two conjunctions of
recurrence conditions: if every assumption set is visited infinitely
often, every guarantee set must be visited infinitely often too. The
nested core ``solve_stable_conjunction`` solves exactly this: conjunct
i is guarantee i, and its persistence rows are the assumptions'
complements, where settling forever falsifies the antecedent.

A mode-target objective embeds into GR(1) by taking as j-th assumption
"the play is currently not inside any mode's j-th target" (a mode with
fewer than j+1 targets contributes nothing to it), and as i-th
guarantee "the play is currently outside mode i". The embedded game has
max_targets assumptions and mode_count guarantees, and every guarantee
iterates over all assumptions, which is precisely why its solver can do
more predecessor work than the direct one when target counts are
uneven; the benchmarks quantify that gap.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fixpoint import solve_stable_conjunction
from .game import GameGraph, validate_graph
from .sets import StateSet
from .solver import MTSolveResult, SolveOptions
from .specs import BoundSpec, MTSpec, bind_spec, require_exclusive


def embed(game: GameGraph, spec: MTSpec) -> tuple[np.ndarray, BoundSpec]:
    """The GR(1) form of a mode-target objective: the max_targets x n
    block of assumption complements, whose row j is the union over the
    modes i with at least j+1 targets of (mode i and its j-th target),
    and the objective bound to the graph. The guarantees are the
    complements of the bound modes.

    Mode exclusivity is a hard requirement: the equivalence between the
    two objectives breaks when a state carries two modes.
    """
    bound = bind_spec(game, spec)
    require_exclusive(bound)
    hit = np.zeros((spec.max_targets, game.n), dtype=bool)
    for i, targets in enumerate(bound.targets):
        hit[: len(targets)] |= bound.persistence(i)
    return hit, bound


def solve_gr1_emb(
    game: GameGraph, spec: MTSpec, options: SolveOptions | None = None
) -> MTSolveResult:
    """Winning region of the mode-target objective via its GR(1) form.

    Returns the same winning set as solve_mt on every valid input; the
    predecessor counts differ because every mode iterates over all
    assumptions. No iterate trace is recorded -- strategy extraction is
    defined on the direct solver's traces.
    """
    opts = options or SolveOptions()
    hit, bound = embed(game, spec)
    issues = validate_graph(game)
    if issues:
        raise ValidationError("; ".join(issues))
    # One block object for every guarantee, so its row slices are built once.
    outcome = solve_stable_conjunction(
        game, [hit] * spec.mode_count, ~bound.modes, warm=opts.warm
    )
    winning = StateSet._wrap(outcome.winning)
    return MTSolveResult(winning, outcome.stats, None, bound, algo="gr1emb")
