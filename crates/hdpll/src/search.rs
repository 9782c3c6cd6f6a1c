//! The Algorithm-1 main loop (DESIGN.md §2.3), shared by the one-shot
//! [`crate::Solver`] and the incremental [`crate::Session`].
//!
//! A one-shot solve is the empty-assumption case of a session query:
//! the caller reaches the level-0 fixpoint (and runs static learning),
//! then [`Search::run`] alternates propagation, conflict handling and
//! `Decide()` until the box is a certified model, the empty clause is
//! derived, an assumption is refuted, or a budget trips. Each caller
//! keeps only its own prelude and epilogue.

use std::time::{Duration, Instant};

use rtl_ir::{analysis, Netlist};
use rtl_obs::{ObsHandle, PhaseAcc};

use crate::decide::{pick_activity, LearnWeights};
use crate::engine::{ConflictInfo, Engine, EngineStats, Propagation};
use crate::final_check::{final_check, FinalOutcome};
use crate::justify::{pick_structural, Structural, StructuralIndex};
use crate::prooflog::ProofLog;
use crate::solver::{LearningMode, Limits, SolverConfig};
use crate::types::{AbortReason, DecisionStrategy, Dom, RestartMode, VarId};

/// Phase slots of the search loop's [`PhaseAcc`] (DESIGN.md §2.14):
/// time is accumulated locally at phase boundaries and flushed into
/// the profiler as leaves under the `search` span once per call.
const P_PROPAGATE: usize = 0;
const P_DECIDE: usize = 1;
const P_ANALYZE: usize = 2;
const P_RESTART: usize = 3;
const P_PROOF: usize = 4;
const P_FINAL: usize = 5;
const SEARCH_PHASES: usize = 6;
const SEARCH_PHASE_NAMES: [&str; SEARCH_PHASES] = [
    "propagate",
    "decide",
    "analyze",
    "restart",
    "proof",
    "final_check",
];

/// Flushes a search-loop accumulator into the profiler as leaves under
/// the currently open span.
fn flush_search_phases(obs: &ObsHandle, acc: &PhaseAcc<SEARCH_PHASES>) {
    if !acc.is_on() {
        return;
    }
    for (i, name) in SEARCH_PHASE_NAMES.iter().enumerate() {
        let (ns, count, hist) = acc.phase(i);
        obs.profile_leaf(name, ns, count, hist);
    }
}

/// How a [`Search::run`] concluded.
pub(crate) enum Outcome {
    /// Every decision variable is assigned and the arithmetic check
    /// accepted the box: one value per engine variable.
    Sat(Vec<i64>),
    /// The empty clause was derived: unsat regardless of assumptions.
    Refuted,
    /// An assumption was implied false below its own level.
    AssumptionConflict,
    /// A budget tripped.
    Unknown(AbortReason),
}

/// One call of the Algorithm-1 loop over an engine already at its
/// level-0 fixpoint.
pub(crate) struct Search<'a> {
    /// Strategy, learning mode, restart and clause-DB policy, limits.
    pub config: &'a SolverConfig,
    /// The netlist the engine was compiled from (structural levels).
    pub netlist: &'a Netlist,
    /// §4.4 learned value weights, when predicate learning ran.
    pub weights: Option<&'a LearnWeights>,
    /// Assumption `i` is pinned as decision level `i + 1` (empty for a
    /// one-shot solve).
    pub assumptions: &'a [(VarId, bool)],
    /// Counters at the start of the budgeted call: limits charge only
    /// the spend since then.
    pub base: &'a EngineStats,
    /// Wall-clock deadline of the call.
    pub deadline: Option<Instant>,
    /// Fault hook: log a bogus deletion at this DB reduction.
    pub corrupt_deletion: Option<u64>,
    /// Profiler sink for the `search` span and its phase leaves.
    pub obs: &'a ObsHandle,
}

impl Search<'_> {
    /// Runs the loop to a verdict; returns it with the search's wall
    /// time.
    pub(crate) fn run(
        &self,
        engine: &mut Engine,
        proof: &mut Option<ProofLog>,
    ) -> (Outcome, Duration) {
        let config = self.config;
        let mut acc = PhaseAcc::<SEARCH_PHASES>::new(self.obs.profiling());
        self.obs.profile_enter("search");
        let structural_index = match config.decision {
            DecisionStrategy::Structural => Some(structural_index(engine, self.netlist)),
            DecisionStrategy::Activity => None,
        };
        let search_start = Instant::now();
        acc.begin();
        let outcome = loop {
            match engine.propagate() {
                Propagation::Conflict(conflict) => {
                    acc.tick(P_PROPAGATE);
                    if !self.handle_conflict(engine, proof, &conflict, &mut acc) {
                        break Outcome::Refuted;
                    }
                    continue;
                }
                Propagation::Aborted(reason) => {
                    acc.tick(P_PROPAGATE);
                    break Outcome::Unknown(reason);
                }
                Propagation::Fixpoint => acc.tick(P_PROPAGATE),
            }
            if let Some(reason) = exceeded(&config.limits, engine, self.base, self.deadline) {
                break Outcome::Unknown(reason);
            }
            // Re-establish the assumption prefix: level `i + 1` carries
            // assumption `i` (an empty level when it is already
            // implied). Backjumps and restarts may unwind into the
            // prefix; this rebuilds it.
            let lvl = engine.level() as usize;
            if let Some(&(var, value)) = self.assumptions.get(lvl) {
                match engine.dom(var) {
                    Dom::B(t) => match t.to_bool() {
                        Some(v) if v == value => engine.open_level(),
                        Some(_) => break Outcome::AssumptionConflict,
                        None => engine.decide(var, value),
                    },
                    Dom::W(_) => unreachable!("assumptions are validated Boolean"),
                }
                acc.tick(P_DECIDE);
                continue;
            }
            let decision = match &structural_index {
                Some(index) => match pick_structural(engine, index, self.weights) {
                    Structural::Decision(var, value) => Some((var, value)),
                    Structural::Done => None,
                    Structural::JConflict(conflict) => {
                        engine.stats.j_conflicts += 1;
                        acc.tick(P_DECIDE);
                        if !self.handle_conflict(engine, proof, &conflict, &mut acc) {
                            break Outcome::Refuted;
                        }
                        continue;
                    }
                },
                None => pick_activity(engine, self.weights, true),
            };
            if let Some((var, value)) = decision {
                engine.decide(var, value);
                acc.tick(P_DECIDE);
                continue;
            }
            acc.tick(P_DECIDE);
            // All decision variables assigned: arithmetic check of the
            // solution box (§2.4).
            let checked = final_check(engine);
            acc.tick(P_FINAL);
            match checked {
                FinalOutcome::Sat(values) => break Outcome::Sat(values),
                FinalOutcome::Conflict(conflict) => {
                    if !self.handle_conflict(engine, proof, &conflict, &mut acc) {
                        break Outcome::Refuted;
                    }
                }
                FinalOutcome::Aborted(reason) => break Outcome::Unknown(reason),
            }
        };
        let search_time = search_start.elapsed();
        flush_search_phases(self.obs, &acc);
        self.obs.profile_exit();
        (outcome, search_time)
    }

    /// Learns from `conflict` and backjumps (or, without learning,
    /// flips the deepest open decision); `false` once the conflict is
    /// at level 0, i.e. the problem is refuted.
    fn handle_conflict(
        &self,
        engine: &mut Engine,
        proof: &mut Option<ProofLog>,
        conflict: &ConflictInfo,
        acc: &mut PhaseAcc<SEARCH_PHASES>,
    ) -> bool {
        let live = match self.config.learning {
            LearningMode::Hybrid | LearningMode::BoolOnly => {
                self.learn(engine, proof, conflict, acc)
            }
            LearningMode::None => {
                engine.stats.conflicts += 1;
                // The decision path is refuted before it is popped: the
                // path lemmas speak about the stack as it stands.
                if let Some(p) = proof.as_mut() {
                    p.log_path(&engine.decision_stack());
                    acc.tick(P_PROOF);
                }
                engine.flip_chronological()
            }
        };
        acc.tick(P_ANALYZE);
        live
    }

    /// Hybrid or Boolean-only analysis: learns the 1UIP clause and
    /// backjumps, then restarts and reduces the clause DB on schedule.
    fn learn(
        &self,
        engine: &mut Engine,
        proof: &mut Option<ProofLog>,
        conflict: &ConflictInfo,
        acc: &mut PhaseAcc<SEARCH_PHASES>,
    ) -> bool {
        let bool_only = self.config.learning == LearningMode::BoolOnly;
        let Some(mut a) = engine.analyze_mode(conflict, bool_only) else {
            return false;
        };
        let used = std::mem::take(&mut a.used);
        let cid = engine.learn_and_backtrack(a);
        acc.tick(P_ANALYZE);
        if let Some(p) = proof.as_mut() {
            p.log_engine_clause(engine, cid, Vec::new(), &used);
            acc.tick(P_PROOF);
        }
        // Scheduled restarts pay off only when rebuilding the abandoned
        // subtree is cheap. Under the activity strategy it is: saved
        // phases replay the old assignment and clause propagation does
        // the rest. Under the structural strategy a restart forfeits the
        // interval narrowing the whole descent paid for and re-derives
        // it from scratch — measured on itc99_b04 a single restart
        // quadruples solve time at an unchanged conflict count — so the
        // scheduled policy applies to the activity strategy only
        // (level-0 forced restarts are unaffected).
        let restart_mode = match self.config.decision {
            DecisionStrategy::Activity => self.config.restarts,
            DecisionStrategy::Structural => RestartMode::Off,
        };
        // Scheduled restart, then DB housekeeping (post-restart the
        // trail is short, so few lemmas are locked as reasons).
        if engine.should_restart(restart_mode) {
            engine.restart();
            acc.tick(P_RESTART);
        }
        if let Some(dropped) = engine.maybe_reduce(&self.config.db) {
            if let Some(p) = proof.as_mut() {
                if self.corrupt_deletion == Some(engine.stats.db_reductions - 1) {
                    p.log_bogus_deletion();
                }
                p.log_deletions(&dropped);
                acc.tick(P_PROOF);
            }
        }
        true
    }
}

/// The structural `Decide()` index. It scores by topological level,
/// indexed by *variable*: the signal-level vector is translated through
/// the (segment-wise) allocation map, the identity on a fresh compile.
fn structural_index(engine: &Engine, netlist: &Netlist) -> StructuralIndex {
    let levels = analysis::levels(netlist);
    let mut var_levels = vec![0u32; engine.doms.len()];
    for (sig, &lvl) in levels.iter().enumerate() {
        var_levels[engine.compiled.sig_var[sig].index()] = lvl;
    }
    StructuralIndex::new(engine, &var_levels)
}

/// Limit check: counters are compared against their value at `base`,
/// so one session query's spend never charges the next.
fn exceeded(
    limits: &Limits,
    engine: &Engine,
    base: &EngineStats,
    deadline: Option<Instant>,
) -> Option<AbortReason> {
    let s = &engine.stats;
    if limits
        .max_decisions
        .is_some_and(|m| s.decisions - base.decisions >= m)
    {
        return Some(AbortReason::Decisions);
    }
    if limits
        .max_conflicts
        .is_some_and(|m| s.conflicts - base.conflicts >= m)
    {
        return Some(AbortReason::Conflicts);
    }
    if limits
        .max_propagations
        .is_some_and(|m| s.propagations - base.propagations >= m)
    {
        return Some(AbortReason::Propagations);
    }
    if limits
        .max_memory
        .is_some_and(|m| engine.approx_mem_bytes() > m)
    {
        return Some(AbortReason::Memory);
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(AbortReason::Deadline);
    }
    None
}

/// The engine's counters with a final memory sample, projected into the
/// telemetry registry as the spend since `base` (counters accumulate
/// and peaks max-merge across a ladder's stages and a session's
/// queries, so both stay monotonic over a run).
pub(crate) fn project_stats(obs: &ObsHandle, engine: &Engine, base: &EngineStats) -> EngineStats {
    let mut s = engine.stats;
    // Final memory sample: in-loop sampling only runs at poll cadence,
    // so short solves (and per-iteration memory aborts) would otherwise
    // report a zero peak.
    s.mem_peak = s.mem_peak.max(engine.approx_mem_bytes());
    if !obs.on() {
        return s;
    }
    for (name, now, then) in [
        ("decisions", s.decisions, base.decisions),
        ("propagations", s.propagations, base.propagations),
        ("narrowings", s.narrowings, base.narrowings),
        ("clause_props", s.clause_props, base.clause_props),
        ("conflicts", s.conflicts, base.conflicts),
        ("learned", s.learned, base.learned),
        ("backtracks", s.backtracks, base.backtracks),
        ("restarts", s.restarts, base.restarts),
        (
            "restarts_scheduled",
            s.restarts_scheduled,
            base.restarts_scheduled,
        ),
        ("db_reductions", s.db_reductions, base.db_reductions),
        ("lemmas_deleted", s.lemmas_deleted, base.lemmas_deleted),
        ("fm_calls", s.fm_calls, base.fm_calls),
        ("fm_subcalls", s.fm_subcalls, base.fm_subcalls),
        ("j_conflicts", s.j_conflicts, base.j_conflicts),
        ("probe_hits", s.probe_hits, base.probe_hits),
        ("probe_misses", s.probe_misses, base.probe_misses),
    ] {
        obs.record_counter(name, now - then);
    }
    for (name, v) in [
        ("max_cqueue", s.max_cqueue),
        ("max_clqueue", s.max_clqueue),
        ("ant_pool_peak", s.ant_pool_peak),
        ("mem_peak", s.mem_peak),
    ] {
        obs.record_peak(name, v);
    }
    s
}
