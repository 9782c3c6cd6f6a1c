//! Proof logging: the producer side of Unsat certification.
//!
//! When enabled ([`crate::SolverConfig::proof`]), the solver records
//! every learned lemma — conflict-analysis clauses, §3 predicate
//! lemmas, and (in the learning-free mode) refuted decision paths — as
//! a step of an [`rtl_proof::Proof`]. Each step is admitted into a
//! *mirror checker* as it is emitted, so the producer knows immediately
//! whether the checker will accept it:
//!
//! * If plain reverse unit propagation does not close the lemma, the
//!   logger runs the checker's split finder and attaches the discovered
//!   case splits to the step.
//! * If that also fails (finder budget, or a genuinely unsound lemma
//!   such as one corrupted by an injected fault), the lemma is recorded
//!   as a **gap**: the mirror database stays aligned with the solver so
//!   later steps still replay, but the proof is marked incomplete and
//!   can never certify the result.
//!
//! The logger deliberately reuses the checker's own admission code
//! rather than a private replay: whatever the logger accepted, a fresh
//! [`rtl_proof::Checker`] accepts for the same reasons. The trust
//! argument does not rest on this file at all — a proof is only
//! believed after an independent re-check (see `rtl-proof`).

use rtl_ir::{Netlist, SignalId};
use rtl_proof::{Checker, PLit, PSplit, Proof, Step};

use crate::engine::Engine;
use crate::types::{HLit, VarId};

/// Sentinel in [`ProofLog::clause_step`]: the engine clause has no
/// corresponding proof step (it was a gap).
const NO_STEP: u32 = u32::MAX;

/// An in-progress proof: a mirror checker plus the emitted steps.
pub(crate) struct ProofLog {
    mirror: Checker,
    steps: Vec<Step>,
    gaps: u32,
    goal: String,
    /// `engine clause id → proof step id` ([`NO_STEP`] for gaps).
    clause_step: Vec<u32>,
    /// Step ids retired by DB reductions since the last emitted step;
    /// attached to the *next* step's `dels` section (deletions carry no
    /// deductive content, so they need no step of their own).
    pending_dels: Vec<u32>,
}

impl ProofLog {
    /// Starts a proof for `netlist` under `goal`. Returns `None` when
    /// the mirror checker cannot be built (non-Boolean goal), in which
    /// case the solve simply runs unlogged.
    pub fn new(netlist: &Netlist, goal: SignalId) -> Option<ProofLog> {
        let mirror = Checker::new(netlist, goal).ok()?;
        Some(ProofLog {
            mirror,
            steps: Vec::new(),
            gaps: 0,
            goal: rtl_proof::goal_name(netlist, goal),
            clause_step: Vec::new(),
            pending_dels: Vec::new(),
        })
    }

    /// Starts a *goal-free* proof log for an incremental solve session:
    /// no goal is asserted into the mirror's base, and each query's
    /// Unsat verdict is sealed by [`ProofLog::snapshot`] into an
    /// assumption proof (goal name `-`) instead of [`ProofLog::finish`].
    pub fn new_free(netlist: &Netlist) -> ProofLog {
        ProofLog {
            mirror: Checker::new_free(netlist),
            steps: Vec::new(),
            gaps: 0,
            goal: "-".to_string(),
            clause_step: Vec::new(),
            pending_dels: Vec::new(),
        }
    }

    /// Grows the mirror over netlist signals appended since the last
    /// (`new_free`/`extend`) call — the logging counterpart of
    /// [`crate::compile::Compiled::extend`]. Admitted steps survive:
    /// extension only adds constraints, so they remain implied.
    pub fn extend(&mut self, netlist: &Netlist) {
        self.mirror.extend(netlist);
    }

    /// The mirror's variable count; the solver cross-checks this
    /// against its own compilation before trusting the logger.
    pub fn var_count(&self) -> u32 {
        self.mirror.var_count()
    }

    /// The steps emitted so far, in the engine's variable layout.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Lemmas the mirror could not justify so far.
    pub fn gaps(&self) -> u32 {
        self.gaps
    }

    /// Test hook: the emitted steps, writable after the mirror admitted
    /// them.
    #[cfg(test)]
    pub fn steps_mut(&mut self) -> &mut [Step] {
        &mut self.steps
    }

    fn plit(lit: &HLit) -> PLit {
        match *lit {
            HLit::Bool { var, value } => PLit::Bool {
                var: var.index() as u32,
                value,
            },
            HLit::Word { var, iv, positive } => PLit::Word {
                var: var.index() as u32,
                lo: iv.lo(),
                hi: iv.hi(),
                positive,
            },
        }
    }

    /// Maps engine clause ids to the proof step ids that introduced
    /// them, dropping gaps and ids the logger never saw (e.g. clauses
    /// added before logging started).
    fn ants_of(&self, cids: &[u32]) -> Vec<u32> {
        cids.iter()
            .filter_map(|&c| self.clause_step.get(c as usize).copied())
            .filter(|&s| s != NO_STEP)
            .collect()
    }

    /// Emits one step, trying in order: admit as given; admit with
    /// finder-discovered splits; record a gap. Returns the step id, or
    /// [`NO_STEP`] for a gap.
    fn log_step(&mut self, lits: Vec<PLit>, splits: Vec<PSplit>, ants: Vec<u32>) -> u32 {
        let mut dels = std::mem::take(&mut self.pending_dels);
        dels.sort_unstable();
        dels.dedup();
        let mut step = Step {
            lits,
            splits,
            ants,
            dels,
        };
        if self.mirror.admit(&step).is_err() {
            let found = self.mirror.find_splits(&step.lits);
            let ok = match found {
                Some(splits) => {
                    // The retry re-applies the step's deletions; the
                    // checker's retire is idempotent, so this is safe.
                    step.splits = splits;
                    self.mirror.admit(&step).is_ok()
                }
                None => false,
            };
            if !ok {
                // A gapped step is never emitted, so its deletions roll
                // over to the next step (the mirror may already have
                // retired them — harmless, retirement only weakens).
                self.gaps += 1;
                self.mirror.assume_clause(&step.lits);
                self.pending_dels = step.dels;
                return NO_STEP;
            }
        }
        let id = self.steps.len() as u32;
        self.steps.push(step);
        id
    }

    /// Records that the engine retired the given clauses: their proof
    /// steps are queued for the next emitted step's deletion section,
    /// bounding the checker's live clause set the same way the solver's
    /// DB reduction bounds its own. Gapped or never-logged clauses have
    /// no step and vanish silently.
    pub fn log_deletions(&mut self, cids: &[u32]) {
        for &c in cids {
            if let Some(&s) = self.clause_step.get(c as usize) {
                if s != NO_STEP {
                    self.pending_dels.push(s);
                }
            }
        }
    }

    /// Test-only fault hook ([`crate::supervise::FaultPlan`]): queues a
    /// deletion citing a step id that can never exist, which the mirror
    /// (and any fresh checker) must reject — from then on every step
    /// gaps and the proof cannot certify.
    pub fn log_bogus_deletion(&mut self) {
        self.pending_dels.push(u32::MAX);
    }

    /// Logs engine clause `cid` as a lemma. The literals are read from
    /// the stored clause — *after* any injected fault corrupted them —
    /// so a lying solver produces a proof the checker rejects rather
    /// than a clean transcript of what it should have learned.
    pub fn log_engine_clause(
        &mut self,
        engine: &Engine,
        cid: u32,
        splits: Vec<PSplit>,
        used: &[u32],
    ) {
        let lits: Vec<PLit> = engine.clauses[cid as usize]
            .lits
            .iter()
            .map(Self::plit)
            .collect();
        let ants = self.ants_of(used);
        let step = self.log_step(lits, splits, ants);
        if self.clause_step.len() <= cid as usize {
            self.clause_step.resize(cid as usize + 1, NO_STEP);
        }
        self.clause_step[cid as usize] = step;
    }

    /// Logs the lemmas refuting the current decision path, for the
    /// learning-free chronological mode. A conflict under decisions
    /// `d₀…dₙ` yields the lemma `(¬d₀ ∨ … ∨ ¬dₙ)`; then, mirroring
    /// [`Engine::flip_chronological`], every trailing already-flipped
    /// decision is popped, each pop emitting the shorter prefix lemma —
    /// RUP-derivable from the two branch lemmas it supersedes. When
    /// every decision was flipped the final prefix is the empty clause.
    pub fn log_path(&mut self, stack: &[(VarId, bool, bool)]) {
        let lemma = |k: usize| {
            stack[..k]
                .iter()
                .map(|&(var, value, _)| PLit::Bool {
                    var: var.index() as u32,
                    value: !value,
                })
                .collect::<Vec<_>>()
        };
        self.log_step(lemma(stack.len()), Vec::new(), Vec::new());
        let mut k = stack.len();
        while k > 0 && stack[k - 1].2 {
            k -= 1;
            self.log_step(lemma(k), Vec::new(), Vec::new());
        }
    }

    /// Emits the final empty clause (unless some earlier step already
    /// was the empty clause).
    pub fn log_final(&mut self) {
        if self.steps.last().is_some_and(Step::is_empty_clause) {
            return;
        }
        self.log_step(Vec::new(), Vec::new(), Vec::new());
    }

    /// Seals the log into a [`Proof`].
    pub fn finish(self) -> Proof {
        Proof {
            var_count: self.mirror.var_count(),
            goal: self.goal,
            assumptions: Vec::new(),
            gaps: self.gaps,
            steps: self.steps,
        }
    }

    /// Seals the *current* state of a session log into an assumption
    /// proof for one Unsat-under-`assumptions` query, without consuming
    /// the log — the session keeps learning across later queries.
    ///
    /// Two things separate a snapshot from [`ProofLog::finish`]:
    ///
    /// * **Variable translation.** The session engine allocates
    ///   variables segment-wise as the netlist grows (each `extend`'s
    ///   signals, then its auxiliaries), but a fresh checker lowers the
    ///   final netlist in one segment (all signals, then all
    ///   auxiliaries). `sig_var` (the engine's signal→variable map)
    ///   determines the renaming: signal variables map to their signal
    ///   index, auxiliaries to `signal_count + rank` by ascending
    ///   engine id — the same order a single-segment lowering allocates
    ///   them, because both walk nodes in signal-id order.
    /// * **The final clause.** `¬a₁ ∨ … ∨ ¬aₖ` over the query's
    ///   assumptions is *assumption-dependent*, so it must not be
    ///   installed in the session mirror (later queries would inherit
    ///   it). It is justified here with the non-mutating split finder;
    ///   if that fails the snapshot (only) gains a gap and cannot
    ///   certify. A session already at the empty clause (globally
    ///   unsat) needs no final clause.
    ///
    /// Alongside the proof it returns that final step untranslated, in
    /// the engine's layout (`None` when none was needed or found), for
    /// a checker that grows with the session.
    pub fn snapshot(
        &mut self,
        sig_var: &[VarId],
        assumptions: &[(VarId, bool)],
    ) -> (Proof, Option<Step>) {
        let n = self.mirror.var_count() as usize;
        let mut canon = vec![u32::MAX; n];
        for (i, v) in sig_var.iter().enumerate() {
            canon[v.index()] = i as u32;
        }
        let mut next = sig_var.len() as u32;
        for c in &mut canon {
            if *c == u32::MAX {
                *c = next;
                next += 1;
            }
        }
        let tr_lit = |lit: &PLit| match *lit {
            PLit::Bool { var, value } => PLit::Bool {
                var: canon[var as usize],
                value,
            },
            PLit::Word {
                var,
                lo,
                hi,
                positive,
            } => PLit::Word {
                var: canon[var as usize],
                lo,
                hi,
                positive,
            },
        };
        let tr_split = |split: &PSplit| match *split {
            PSplit::Bool { var } => PSplit::Bool {
                var: canon[var as usize],
            },
            PSplit::Word { var, at } => PSplit::Word {
                var: canon[var as usize],
                at,
            },
        };
        let mut steps: Vec<Step> = self
            .steps
            .iter()
            .map(|s| Step {
                lits: s.lits.iter().map(tr_lit).collect(),
                splits: s.splits.iter().map(tr_split).collect(),
                ants: s.ants.clone(),
                dels: s.dels.clone(),
            })
            .collect();
        let mut gaps = self.gaps;
        let mut final_step = None;
        if !steps.last().is_some_and(Step::is_empty_clause) {
            let lits: Vec<PLit> = assumptions
                .iter()
                .map(|&(var, value)| PLit::Bool {
                    var: var.index() as u32,
                    value: !value,
                })
                .collect();
            match self.mirror.find_splits(&lits) {
                Some(splits) => {
                    steps.push(Step {
                        lits: lits.iter().map(tr_lit).collect(),
                        splits: splits.iter().map(tr_split).collect(),
                        ants: Vec::new(),
                        dels: Vec::new(),
                    });
                    final_step = Some(Step {
                        lits,
                        splits,
                        ants: Vec::new(),
                        dels: Vec::new(),
                    });
                }
                None => gaps += 1,
            }
        }
        let proof = Proof {
            var_count: self.mirror.var_count(),
            goal: self.goal.clone(),
            assumptions: assumptions
                .iter()
                .map(|&(var, value)| PLit::Bool {
                    var: canon[var.index()],
                    value,
                })
                .collect(),
            gaps,
            steps,
        };
        (proof, final_step)
    }
}
