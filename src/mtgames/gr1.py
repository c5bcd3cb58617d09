"""GR(1) solving and the reduction of mode-target objectives to GR(1).

A GR(1) objective is an implication between two conjunctions of
recurrence conditions: if every assumption set is visited infinitely
often, every guarantee set must be visited infinitely often too.

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

from dataclasses import dataclass

from .errors import ValidationError
from .fixpoint import FixpointStats, solve_stable_conjunction
from .game import GameGraph, validate_graph
from .sets import StateSet
from .solver import MTSolveResult, SolveOptions
from .specs import BoundSpec, GR1Spec, MTSpec, bind_spec, require_exclusive


@dataclass
class EmbeddedGR1:
    """GR(1) view of a mode-target objective over a concrete graph.

    assumptions[j] is the complement of the union over the modes i with
    at least j+1 targets of (mode i and its j-th target). guarantees[i]
    is the complement of mode i. bound is the objective bound to the
    graph.
    """

    assumptions: list[StateSet]
    guarantees: list[StateSet]
    bound: BoundSpec

    def spec(self) -> GR1Spec:
        return GR1Spec(tuple(self.assumptions), tuple(self.guarantees))


def embed(game: GameGraph, spec: MTSpec) -> EmbeddedGR1:
    """Build the GR(1) form of a mode-target objective.

    Mode exclusivity is a hard requirement: the equivalence between the
    two objectives breaks when a state carries two modes.
    """
    require_exclusive(game, spec)
    bound = bind_spec(game, spec)
    assumptions: list[StateSet] = []
    for j in range(spec.max_targets):
        hit = StateSet.empty(game.n)
        for mode_set, targets in zip(bound.mode_sets, bound.target_sets):
            if j < len(targets):
                hit = hit | (mode_set & targets[j])
        assumptions.append(~hit)
    guarantees = [~ms for ms in bound.mode_sets]
    return EmbeddedGR1(assumptions, guarantees, bound)


@dataclass
class GR1SolveResult:
    winning: StateSet
    stats: FixpointStats


def solve_gr1(
    game: GameGraph, spec: GR1Spec, *, warm: bool = False
) -> GR1SolveResult:
    """Generic GR(1) winning region.

    Per guarantee g_i, the play must either visit g_i again from a
    still-winnable state, or settle forever inside the complement of
    some assumption (falsifying the antecedent). With no assumptions
    this degenerates to a generalized Buechi condition.
    """
    issues = validate_graph(game)
    if issues:
        raise ValidationError("; ".join(issues))
    for s in spec.assumptions + spec.guarantees:
        if s.universe != game.n:
            raise ValidationError(
                f"spec set universe {s.universe} does not match graph size {game.n}"
            )
    persist_row = [~a for a in spec.assumptions]
    persist_matrix = [persist_row for _ in spec.guarantees]
    outcome = solve_stable_conjunction(
        game, persist_matrix, list(spec.guarantees), warm=warm
    )
    return GR1SolveResult(outcome.winning, outcome.stats)


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
    emb = embed(game, spec)
    res = solve_gr1(game, emb.spec(), warm=opts.warm)
    return MTSolveResult(res.winning, res.stats, None, emb.bound, algo="gr1emb")
