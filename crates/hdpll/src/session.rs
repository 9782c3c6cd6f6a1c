//! Incremental solve sessions: compile once, solve many under
//! assumptions.
//!
//! A [`Session`] constructs the solver state for a netlist *once* —
//! compilation, the level-0 fixpoint, and (when configured) the §3
//! static predicate-learning pass — and then answers any number of
//! [`Session::solve`] queries, each under its own set of Boolean
//! [`Assumption`]s. Between queries the engine *backtracks* rather
//! than forgets: conflict-learned clauses, their LBD/activity state,
//! variable activities, and saved phases all persist, so a sequence of
//! related queries (the BMC use case) shares work that fresh per-query
//! solves would redo from scratch.
//!
//! **Assumption semantics** (MiniSat-style): assumption `i` of a query
//! is a Boolean decision pinned at decision level `i + 1`. The search
//! never flips or unlearns it within the query; an assumption whose
//! signal is already implied opens an empty level
//! ([`Engine::open_level`]) to keep the level correspondence, and an
//! assumption implied *false* at a lower level proves the query
//! Unsat-under-assumptions. Because assumptions are ordinary decisions,
//! every clause learned during the query is *globally* valid —
//! assumption dependence surfaces as negated-assumption literals inside
//! the clause — which is exactly what makes retention across queries
//! sound. (The chronological [`LearningMode::None`] would flip
//! assumption decisions, so sessions run it as
//! [`LearningMode::Hybrid`].)
//!
//! **Growth**: [`Session::extend`] appends signals to the netlist in
//! place and grows the compiled problem, the engine, and the proof
//! mirror to match — BMC unrolling adds frame `k + 1` without
//! recompiling frames `0..=k`.
//!
//! **Certification**: with [`SolverConfig::proof`] enabled, every Unsat
//! query is sealed into an *assumption proof* (format v3), and the
//! verdict is reported as certified only once the session's own
//! [`rtl_proof::Checker`] — independent of the proof logger's mirror,
//! grown with the netlist and fed nothing but the logged steps — has
//! admitted every step logged since the previous query and refuted the
//! query's final clause. Sat models are replayed through the
//! [`rtl_ir::eval`] reference simulator and checked against the
//! query's assumptions. See [`crate::prooflog::ProofLog::snapshot`]
//! for why proofs stay sound across queries.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use rtl_ir::simplify::{SignalMap, Simplifier, SimplifyStats};
use rtl_ir::{eval, Netlist, SignalId};
use rtl_obs::{DurHist, ObsHandle};
use rtl_proof::{Checker, Proof, Step};

use crate::compile::compile;
use crate::decide::LearnWeights;
use crate::engine::{Engine, EngineStats, Propagation};
use crate::predlearn;
use crate::prooflog::ProofLog;
use crate::search::{self, Outcome, Search};
use crate::solver::{HdpllResult, LearningMode, Limits, SolverConfig, SolverStats};
use crate::supervise::{CancelToken, StageOutcome};
use crate::types::{AbortReason, VarId};

/// One assumption of an incremental query: `signal = value`, pinned
/// for the duration of a single [`Session::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assumption {
    /// The assumed signal (must be Boolean).
    pub signal: SignalId,
    /// The assumed value.
    pub value: bool,
}

impl Assumption {
    /// `signal = true`.
    #[must_use]
    pub fn yes(signal: SignalId) -> Self {
        Assumption {
            signal,
            value: true,
        }
    }

    /// `signal = false`.
    #[must_use]
    pub fn no(signal: SignalId) -> Self {
        Assumption {
            signal,
            value: false,
        }
    }
}

/// How a [`Certified`] verdict was validated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionCert {
    /// Sat: the model was replayed through the [`rtl_ir::eval`]
    /// reference simulator and satisfies every assumption.
    ModelVerified,
    /// Unsat: the query's assumption proof was accepted by an
    /// independent [`rtl_proof::Checker`] (the session's certifier,
    /// which checks each logged step once; a fresh checker accepts the
    /// exported [`Certified::proof`] the same way).
    ProofChecked,
    /// No independent validation (proof logging off, a proof gap, or an
    /// Unknown verdict).
    Uncertified,
}

/// The result of one incremental query: the verdict plus how it was
/// independently validated.
#[derive(Clone, Debug)]
pub struct Certified {
    /// The verdict.
    pub result: HdpllResult,
    /// How the verdict was validated.
    pub cert: SessionCert,
    /// The assumption proof behind an Unsat verdict, when proof logging
    /// is enabled (present even if its check failed — `cert` says so).
    pub proof: Option<Proof>,
    /// Why the query stopped early, when the verdict is
    /// [`HdpllResult::Unknown`].
    pub abort: Option<AbortReason>,
}

/// An incremental solve session over one growing netlist. See the
/// [module documentation](self).
pub struct Session {
    netlist: Netlist,
    /// Word-level preprocessing state, when enabled: the engine solves
    /// `pre.netlist()` (the simplified image), assumptions are mapped
    /// through `pre.map`, and Sat models are read back over the
    /// *original* inputs so certification stays against [`Self::netlist`].
    pre: Option<Simplifier>,
    engine: Engine,
    config: SolverConfig,
    proof: Option<ProofLog>,
    /// The certifier: a goal-free checker over the solved netlist,
    /// grown alongside the engine, that admits each logged step once
    /// (in the engine's variable layout) and never sees the mirror's
    /// unchecked clauses. `None` with proof logging off, and for good
    /// once a log gap, a variable-count mismatch or a rejected step
    /// discredits the log — every later Unsat is then Uncertified.
    certifier: Option<Checker>,
    weights: LearnWeights,
    has_weights: bool,
    /// The empty clause holds: every further query is Unsat.
    root_unsat: bool,
    queries: u32,
    stats: SolverStats,
    obs: ObsHandle,
    /// One-time construction costs, held until a profiled query can
    /// flush them into the profile tree ([`Self::setup_reported`]).
    preproc_ns: u64,
    compile_ns: u64,
    setup_reported: bool,
}

impl Session {
    /// Compiles `netlist`, reaches the level-0 fixpoint, and (when
    /// configured) runs the static predicate-learning pass — the
    /// one-time cost all subsequent queries share. Word-level
    /// preprocessing ([`rtl_ir::simplify`]) is on; see
    /// [`Session::with_preproc`] to disable it.
    #[must_use]
    pub fn new(netlist: &Netlist, config: SolverConfig) -> Session {
        Session::with_preproc(netlist, config, true)
    }

    /// Like [`Session::new`], with explicit control over word-level
    /// preprocessing. When `preproc` is on, the engine compiles the
    /// *simplified* image of the netlist (no cone pruning — future
    /// queries may constrain any signal, so every signal keeps an
    /// image); Sat models are translated back and certified against the
    /// original, and Unsat proofs check against the simplified netlist
    /// ([`Session::proof_netlist`]).
    #[must_use]
    pub fn with_preproc(netlist: &Netlist, config: SolverConfig, preproc: bool) -> Session {
        let mut s = Session::open(netlist, config, preproc);
        s.netlist = netlist.clone();
        s
    }

    /// Everything [`Session::with_preproc`] derives from `netlist`, with
    /// an empty netlist in its place: the caller moves the netlist in
    /// once construction succeeded, so a construction panic never costs
    /// a [`SupervisedSession`] its only copy.
    fn open(netlist: &Netlist, config: SolverConfig, preproc: bool) -> Session {
        let preproc_start = Instant::now();
        let pre = preproc.then(|| {
            let mut s = Simplifier::new(netlist.name());
            s.process(netlist);
            s
        });
        let preproc_ns = u64::try_from(preproc_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let solved = pre.as_ref().map_or(netlist, Simplifier::netlist);
        let compile_start = Instant::now();
        let compiled = Arc::new(compile(solved));
        let compile_ns = u64::try_from(compile_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let engine = Engine::new(compiled);
        let num_vars = engine.doms.len();
        let (proof, certifier) = if config.proof {
            let p = ProofLog::new_free(solved);
            let c = Checker::new_free(solved);
            let c = (c.var_count() as usize == num_vars).then_some(c);
            ((p.var_count() as usize == num_vars).then_some(p), c)
        } else {
            (None, None)
        };
        let mut s = Session {
            netlist: Netlist::default(),
            pre,
            engine,
            config,
            proof,
            certifier,
            weights: LearnWeights::new(num_vars),
            has_weights: config.learn.is_some(),
            root_unsat: false,
            queries: 0,
            stats: SolverStats::default(),
            obs: ObsHandle::off(),
            preproc_ns,
            compile_ns,
            setup_reported: false,
        };
        s.engine.schedule_all();
        if matches!(s.engine.propagate(), Propagation::Conflict(_)) {
            s.mark_root_unsat();
        }
        if let (Some(cfg), false) = (s.config.learn, s.root_unsat) {
            let mut weights = std::mem::take(&mut s.weights);
            let solved = s.pre.as_ref().map_or(netlist, Simplifier::netlist);
            let report = predlearn::run(&mut s.engine, solved, &cfg, &mut weights, &mut s.proof);
            s.weights = weights;
            s.stats.learn_time = report.time;
            if report.proved_unsat {
                s.mark_root_unsat();
            }
        }
        s
    }

    /// Installs a telemetry handle (the default is off). Session-span
    /// events (`session_query_start`/`session_query_end`) bracket each
    /// query's engine trace.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The session's netlist as grown so far (the *original*; Sat
    /// models and their certification are in terms of this netlist).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The netlist the engine actually solves and Unsat proofs are
    /// stated over: the simplified image when preprocessing is on, the
    /// original otherwise. Re-check a [`Certified::proof`] against
    /// *this* netlist with a fresh [`rtl_proof::Checker`].
    #[must_use]
    pub fn proof_netlist(&self) -> &Netlist {
        self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist)
    }

    /// Preprocessing counters (`None` when preprocessing is off).
    #[must_use]
    pub fn preproc_stats(&self) -> Option<SimplifyStats> {
        self.pre.as_ref().map(Simplifier::stats)
    }

    /// The old→new signal map (`None` when preprocessing is off). The
    /// map is total: sessions never cone-prune.
    #[must_use]
    pub fn preproc_map(&self) -> Option<SignalMap> {
        self.pre.as_ref().map(Simplifier::signal_map)
    }

    /// Cumulative engine statistics across all queries so far (the
    /// engine is never rebuilt, so counters only grow).
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Number of [`Session::solve`] calls made so far.
    #[must_use]
    pub fn queries(&self) -> u32 {
        self.queries
    }

    /// `true` between calls: the trail holds only level-0 facts, no
    /// assumption or search decision is live. Every query restores this
    /// before returning (the differential tests assert it).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.engine.level() == 0
    }

    /// `true` once the session derived the empty clause: the netlist's
    /// level-0 constraints are contradictory and every query — whatever
    /// its assumptions — is Unsat.
    #[must_use]
    pub fn root_unsat(&self) -> bool {
        self.root_unsat
    }

    /// Replaces the resource budget applied to subsequent queries.
    pub fn set_limits(&mut self, limits: Limits) {
        self.config.limits = limits;
    }

    /// Grows the netlist in place (the closure appends signals — it
    /// must never mutate existing ones) and extends the compiled
    /// problem, the engine, the proof mirror and the certifier to
    /// match. Learned clauses and level-0 facts survive: extension only
    /// *adds* constraints, so everything derived so far remains valid.
    pub fn extend(&mut self, grow: impl FnOnce(&mut Netlist)) {
        grow(&mut self.netlist);
        self.catch_up();
    }

    /// The second half of [`Session::extend`]: brings the solver state
    /// up to signals already appended to the netlist. Split out so a
    /// [`SupervisedSession`] can grow the netlist outside its panic
    /// guard and catch up inside it.
    fn catch_up(&mut self) {
        self.engine.backtrack(0);
        self.engine.clear_abort();
        // The simplifier's output is itself append-only, so the grown
        // image extends the compiled problem the same way the raw
        // netlist would.
        if let Some(pre) = &mut self.pre {
            pre.process(&self.netlist);
        }
        let solved = self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist);
        // The engine holds the only long-lived handle between queries,
        // so this extends in place without a deep copy.
        Arc::make_mut(&mut self.engine.compiled).extend(solved);
        debug_assert_eq!(self.engine.compiled.signals_consumed(), solved.len());
        self.engine.grow();
        self.weights.grow(self.engine.doms.len());
        if let Some(p) = &mut self.proof {
            let solved = self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist);
            p.extend(solved);
            // The mirror and the engine grew from the same netlist; a
            // divergence means a lowering bug — drop logging rather
            // than emit proofs about the wrong variables.
            if p.var_count() as usize != self.engine.doms.len() {
                self.proof = None;
            }
        }
        if let Some(c) = &mut self.certifier {
            let solved = self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist);
            c.extend(solved);
            if c.var_count() as usize != self.engine.doms.len() {
                self.certifier = None;
            }
        }
        if self.root_unsat {
            return;
        }
        // Unbudgeted: the extension fixpoint is part of compilation,
        // not of any query's search.
        self.engine.set_budget(None, None, None, None);
        if matches!(self.engine.propagate(), Propagation::Conflict(_)) {
            self.mark_root_unsat();
        }
    }

    /// Decides the satisfiability of the netlist under `assumptions`
    /// (their conjunction; an empty slice asks whether the netlist's
    /// constraints alone are consistent).
    ///
    /// # Panics
    ///
    /// Panics if an assumption signal is not Boolean.
    pub fn solve(&mut self, assumptions: &[Assumption]) -> Certified {
        self.solve_inner(assumptions, None)
    }

    /// Like [`Session::solve`], but also polls `cancel` and returns
    /// [`HdpllResult::Unknown`] once it trips. The session stays usable
    /// after a cancelled query.
    pub fn solve_cancellable(
        &mut self,
        assumptions: &[Assumption],
        cancel: &CancelToken,
    ) -> Certified {
        self.solve_inner(assumptions, Some(cancel.clone()))
    }

    fn solve_inner(&mut self, assumptions: &[Assumption], cancel: Option<CancelToken>) -> Certified {
        let query = self.queries;
        self.queries += 1;
        // One-time construction costs (preprocessing, compilation, the
        // static predicate pass) are flushed into the profile tree at
        // the first profiled query — construction ran before a handle
        // could be installed.
        if self.obs.profiling() && !self.setup_reported {
            self.setup_reported = true;
            if self.pre.is_some() {
                self.obs.profile_leaf(
                    "preproc",
                    self.preproc_ns,
                    1,
                    &DurHist::single_ns(self.preproc_ns),
                );
            }
            self.obs
                .profile_leaf("compile", self.compile_ns, 1, &DurHist::single_ns(self.compile_ns));
            let learn_ns =
                u64::try_from(self.stats.learn_time.as_nanos()).unwrap_or(u64::MAX);
            if learn_ns > 0 {
                self.obs
                    .profile_leaf("predlearn", learn_ns, 1, &DurHist::single_ns(learn_ns));
            }
        }
        self.obs
            .session_query_start(query, assumptions.len() as u32);
        self.obs.profile_enter("query");
        let certified = self.run_query(assumptions, cancel);
        self.obs.profile_exit();
        let outcome = match &certified.result {
            HdpllResult::Sat(_) => "SAT",
            HdpllResult::Unsat => "UNSAT",
            HdpllResult::Unknown => "UNKNOWN",
        };
        self.obs.session_query_end(query, outcome);
        certified
    }

    fn run_query(&mut self, assumptions: &[Assumption], cancel: Option<CancelToken>) -> Certified {
        for a in assumptions {
            assert!(
                self.netlist.ty(a.signal).is_bool(),
                "assumption {} must be Boolean",
                a.signal
            );
        }
        // Assumption signals live in the original netlist; the engine
        // solves the simplified image, so map each through the preproc
        // map first (an assumption on a folded-to-constant signal lands
        // on the constant's variable and is decided by propagation).
        let asm: Vec<(VarId, bool)> = assumptions
            .iter()
            .map(|a| {
                let sig = self.pre.as_ref().map_or(a.signal, |p| p.map(a.signal));
                (self.engine.compiled.var_of(sig), a.value)
            })
            .collect();

        let stats_base = self.engine.stats;
        let certified = if self.root_unsat {
            self.certify_unsat(&asm)
        } else {
            self.search_and_certify(assumptions, &asm, &stats_base, cancel)
        };
        // Quiescence: only level-0 facts stay live between queries.
        self.engine.backtrack(0);
        self.stats.abort = certified.abort;
        self.stats.engine = search::project_stats(&self.obs, &self.engine, &stats_base);
        certified
    }

    /// Runs one query's search under a fresh budget and certifies its
    /// verdict.
    fn search_and_certify(
        &mut self,
        assumptions: &[Assumption],
        asm: &[(VarId, bool)],
        stats_base: &EngineStats,
        cancel: Option<CancelToken>,
    ) -> Certified {
        // Fresh budget per query; a previous query's sticky abort (and
        // any propagation it cut short) is recovered by re-scheduling
        // every constraint below.
        self.engine.backtrack(0);
        self.engine.clear_abort();
        let deadline = self.config.limits.max_time.map(|t| Instant::now() + t);
        self.engine.set_budget(
            deadline,
            cancel.map(|c| c.flag()),
            self.config.limits.max_propagations,
            self.config.limits.max_memory,
        );
        self.engine.set_obs(self.obs.clone());
        self.engine.schedule_all();

        // Chronological flipping would flip assumption decisions;
        // sessions always learn (see the module docs).
        let config = SolverConfig {
            learning: match self.config.learning {
                LearningMode::None => LearningMode::Hybrid,
                mode => mode,
            },
            ..self.config
        };
        let (outcome, search_time) = Search {
            config: &config,
            netlist: self.pre.as_ref().map_or(&self.netlist, Simplifier::netlist),
            weights: self.has_weights.then_some(&self.weights),
            assumptions: asm,
            base: stats_base,
            deadline,
            corrupt_deletion: None,
            obs: &self.obs,
        }
        .run(&mut self.engine, &mut self.proof);
        self.stats.search_time += search_time;

        self.obs.profile_enter("certify");
        let certified = match outcome {
            Outcome::Sat(values) => self.certify_sat(assumptions, &values),
            Outcome::Refuted => {
                self.mark_root_unsat();
                self.certify_unsat(asm)
            }
            Outcome::AssumptionConflict => self.certify_unsat(asm),
            Outcome::Unknown(reason) => Certified {
                result: HdpllResult::Unknown,
                cert: SessionCert::Uncertified,
                proof: None,
                abort: Some(reason),
            },
        };
        self.obs.profile_exit();
        certified
    }

    /// Reads the model over the *original* inputs (inputs are never
    /// merged or pruned by session preprocessing, so each has its own
    /// image variable) and replays it through the original netlist.
    fn certify_sat(&self, assumptions: &[Assumption], values: &[i64]) -> Certified {
        let model: HashMap<SignalId, i64> = eval::input_ids(&self.netlist)
            .into_iter()
            .map(|id| {
                let sig = self.pre.as_ref().map_or(id, |p| p.map(id));
                (id, values[self.engine.compiled.var_of(sig).index()])
            })
            .collect();
        let verified = eval::eval(&self.netlist, &model).is_ok_and(|vals| {
            assumptions
                .iter()
                .all(|a| vals.get(a.signal) == Some(i64::from(a.value)))
        });
        Certified {
            result: HdpllResult::Sat(model),
            cert: if verified {
                SessionCert::ModelVerified
            } else {
                SessionCert::Uncertified
            },
            proof: None,
            abort: None,
        }
    }

    /// Derived the empty clause: record it in the proof log (mirroring
    /// the admitted state) and latch the session-wide verdict.
    fn mark_root_unsat(&mut self) {
        self.root_unsat = true;
        if let Some(p) = &mut self.proof {
            p.log_final();
        }
    }

    /// Test hook: flips the first literal of logged step `step`, which
    /// the logger's mirror has already admitted; `false` when there is
    /// no such step.
    #[cfg(test)]
    pub(crate) fn flip_logged_literal(&mut self, step: usize) -> bool {
        let Some(lit) = self
            .proof
            .as_mut()
            .and_then(|log| log.steps_mut().get_mut(step))
            .and_then(|s| s.lits.first_mut())
        else {
            return false;
        };
        *lit = lit.negated();
        true
    }

    /// Seals the current proof state into an assumption proof for an
    /// Unsat verdict and certifies it with the session's certifier.
    fn certify_unsat(&mut self, asm: &[(VarId, bool)]) -> Certified {
        let Session {
            engine,
            proof,
            certifier,
            ..
        } = self;
        let mut cert = SessionCert::Uncertified;
        let proof = proof.as_mut().map(|log| {
            let (proof, final_step) = log.snapshot(&engine.compiled.sig_var, asm);
            if certify(certifier, log, &proof, final_step.as_ref()) {
                cert = SessionCert::ProofChecked;
            }
            proof
        });
        Certified {
            result: HdpllResult::Unsat,
            cert,
            proof,
            abort: None,
        }
    }
}

/// Admits into `certifier` the log steps emitted since the previous
/// query, then checks the query's final clause without installing it
/// (it depends on the query's assumptions). The result is what a fresh
/// [`Checker::check_assumptions`] of `proof` would say: the certifier
/// holds exactly the admitted log steps, and each step it admitted
/// against a smaller netlist stays implied by the grown one. A log gap,
/// a variable-count mismatch or a rejected step drops the certifier, so
/// this query and every later one stay uncertified.
fn certify(
    certifier: &mut Option<Checker>,
    log: &ProofLog,
    proof: &Proof,
    final_step: Option<&Step>,
) -> bool {
    if log.gaps() > 0
        || certifier
            .as_ref()
            .is_some_and(|c| c.var_count() != proof.var_count)
    {
        *certifier = None;
    }
    let Some(checker) = certifier else {
        return false;
    };
    let start = checker.admitted() as usize;
    if log.steps()[start..]
        .iter()
        .any(|step| checker.admit(step).is_err())
    {
        *certifier = None;
        return false;
    }
    match final_step {
        Some(step) => checker.check_clause(&step.lits, &step.splits).is_ok(),
        // No final clause: either the log ends in the empty clause
        // (just admitted) or the mirror could not justify one (a gap in
        // this snapshot only).
        None => proof.gaps == 0 && checker.derived_empty(),
    }
}

/// Per-query record of a rung the [`SupervisedSession`] gave up on.
#[derive(Clone, Debug)]
pub struct SessionFallback {
    /// The rung's label.
    pub rung: String,
    /// Why it was abandoned: [`StageOutcome::Panicked`],
    /// [`StageOutcome::CertFailed`] or [`StageOutcome::Unknown`]. Its
    /// text is this record's [`Display`](fmt::Display).
    pub outcome: StageOutcome,
}

impl fmt::Display for SessionFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            StageOutcome::Panicked { detail } | StageOutcome::CertFailed { detail } => {
                f.write_str(detail)
            }
            StageOutcome::Unknown { reason } => f.write_str(reason),
            other => write!(f, "{other}"),
        }
    }
}

/// The outcome of one [`SupervisedSession::solve`] call.
#[derive(Clone, Debug)]
pub struct SupervisedQuery {
    /// The accepted verdict (never a discredited one: a rung whose
    /// answer failed certification is skipped, not reported).
    pub certified: Certified,
    /// Label of the rung whose answer was accepted; `None` when every
    /// rung was exhausted.
    pub answered_by: Option<String>,
    /// Rungs abandoned while answering this query, in ladder order.
    pub fallbacks: Vec<SessionFallback>,
}

/// A degradation ladder over incremental sessions: the sessioned
/// counterpart of [`crate::Supervisor`].
///
/// One live [`Session`] per rung answers queries incrementally; when a
/// rung panics, fails certification (a Sat model the simulator rejects,
/// or — with proof logging on — an Unsat whose proof the checker
/// refuses), or returns Unknown, the ladder falls to the next rung and
/// builds it a **fresh session** from the current netlist. Degradation
/// is sticky: later queries start at the degraded rung, mirroring
/// [`crate::Supervisor`]'s one-way ladder.
///
/// The ladder keeps one copy of the netlist: while a session is live it
/// is the session's own, grown in place by [`SupervisedSession::extend`]
/// outside the panic guard, and a dropped session hands it back before
/// the next rung is built. A caught panic can only have poisoned solver
/// state, never the netlist (plain data the guarded code only reads),
/// so the fresh session is built from an uncorrupted problem.
pub struct SupervisedSession {
    state: Rung,
    rungs: Vec<(String, SolverConfig)>,
    active: usize,
    obs: ObsHandle,
    degradations: u32,
    preproc: bool,
}

/// Who holds the ladder's netlist.
enum Rung {
    /// No session is live (before the first query, or after a
    /// degradation dropped one): the ladder holds the netlist.
    Idle(Netlist),
    /// The live session, which owns the netlist.
    Live(Box<Session>),
}

impl SupervisedSession {
    /// The default ladder: `hdpll-sp` (structural + predicate learning)
    /// degrading to `hdpll` (activity), both with proof logging.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_rungs(
            netlist,
            vec![
                (
                    "hdpll-sp".to_string(),
                    SolverConfig::structural_with_learning(crate::LearnConfig::default())
                        .with_proof(true),
                ),
                ("hdpll".to_string(), SolverConfig::hdpll().with_proof(true)),
            ],
        )
    }

    /// A ladder with explicit rungs, tried in order.
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty.
    #[must_use]
    pub fn with_rungs(netlist: &Netlist, rungs: Vec<(String, SolverConfig)>) -> Self {
        assert!(!rungs.is_empty(), "ladder needs at least one rung");
        SupervisedSession {
            state: Rung::Idle(netlist.clone()),
            rungs,
            active: 0,
            obs: ObsHandle::off(),
            degradations: 0,
            preproc: true,
        }
    }

    /// Enables or disables word-level preprocessing on every rung's
    /// session (the default is on). Takes effect on the next session
    /// build; call before the first query.
    #[must_use]
    pub fn with_preproc(mut self, on: bool) -> Self {
        self.preproc = on;
        self
    }

    /// Installs a telemetry handle, shared by every rung's session
    /// (the live session, if any, switches immediately).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if let Rung::Live(s) = &mut self.state {
            s.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Replaces the per-query wall-clock budget on every rung (and the
    /// live session). A serve loop calls this before each query so one
    /// cached session honours each request's own deadline.
    pub fn set_timeout(&mut self, max_time: Option<std::time::Duration>) {
        for (_, config) in &mut self.rungs {
            config.limits.max_time = max_time;
        }
        if let Rung::Live(s) = &mut self.state {
            let mut limits = self.rungs[self.active].1.limits;
            limits.max_time = max_time;
            s.set_limits(limits);
        }
    }

    /// Cumulative solver statistics of the live session (`None` right
    /// after construction or a degradation dropped it).
    #[must_use]
    pub fn stats(&self) -> Option<&crate::SolverStats> {
        self.session().map(Session::stats)
    }

    /// The live session, if any (`None` right after construction or
    /// after a degradation dropped it). Use it to reach
    /// [`Session::proof_netlist`] when re-checking a query's proof.
    #[must_use]
    pub fn session(&self) -> Option<&Session> {
        match &self.state {
            Rung::Live(s) => Some(s),
            Rung::Idle(_) => None,
        }
    }

    /// The label of the rung currently answering queries.
    #[must_use]
    pub fn active_rung(&self) -> &str {
        &self.rungs[self.active].0
    }

    /// How many times the ladder has degraded to a lower rung.
    #[must_use]
    pub fn degradations(&self) -> u32 {
        self.degradations
    }

    /// The ladder's netlist as grown so far.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        match &self.state {
            Rung::Live(s) => s.netlist(),
            Rung::Idle(n) => n,
        }
    }

    /// Grows the netlist in place (see [`Session::extend`]); the live
    /// session, if any, is extended to match. Only the solver catch-up
    /// runs under the panic guard; a panic there drops the session and
    /// keeps the grown netlist for the next rung.
    pub fn extend(&mut self, grow: impl FnOnce(&mut Netlist)) {
        match &mut self.state {
            Rung::Idle(n) => grow(n),
            Rung::Live(session) => {
                grow(&mut session.netlist);
                let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.catch_up();
                }))
                .is_ok();
                if !ok {
                    self.drop_session();
                }
            }
        }
    }

    /// Test hook: the live session, if any.
    #[cfg(test)]
    pub(crate) fn session_mut(&mut self) -> Option<&mut Session> {
        match &mut self.state {
            Rung::Live(s) => Some(s),
            Rung::Idle(_) => None,
        }
    }

    /// Drops the live session, if any, taking its netlist back.
    fn drop_session(&mut self) {
        self.state = match std::mem::replace(&mut self.state, Rung::Idle(Netlist::default())) {
            Rung::Live(s) => Rung::Idle(s.netlist),
            idle => idle,
        };
    }

    /// Decides satisfiability under `assumptions`, degrading through
    /// the ladder until a rung's answer survives certification.
    pub fn solve(&mut self, assumptions: &[Assumption]) -> SupervisedQuery {
        self.solve_cancellable(assumptions, &CancelToken::new())
    }

    /// Like [`SupervisedSession::solve`], but polls `cancel`; a
    /// cancelled query returns Unknown without degrading the ladder
    /// further than the rung it interrupted.
    pub fn solve_cancellable(
        &mut self,
        assumptions: &[Assumption],
        cancel: &CancelToken,
    ) -> SupervisedQuery {
        let mut fallbacks = Vec::new();
        loop {
            let (label, config) = self.rungs[self.active].clone();
            if let Rung::Idle(netlist) = &mut self.state {
                let preproc = self.preproc;
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Session::open(netlist, config, preproc)
                }));
                match built {
                    Ok(mut s) => {
                        s.netlist = std::mem::take(netlist);
                        s.set_obs(self.obs.clone());
                        self.state = Rung::Live(Box::new(s));
                    }
                    Err(payload) => {
                        let why = StageOutcome::Panicked {
                            detail: format!(
                                "session construction panicked: {}",
                                crate::supervise::panic_message(&payload)
                            ),
                        };
                        if !self.degrade(&label, why, &mut fallbacks) {
                            return give_up(fallbacks);
                        }
                        continue;
                    }
                }
            }
            let Rung::Live(session) = &mut self.state else {
                unreachable!("a session was just built")
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.solve_cancellable(assumptions, cancel)
            }));
            let why = match run {
                Err(payload) => StageOutcome::Panicked {
                    detail: format!(
                        "solve panicked: {}",
                        crate::supervise::panic_message(&payload)
                    ),
                },
                Ok(certified) => match accept(&label, &config, &certified) {
                    Ok(()) => {
                        return SupervisedQuery {
                            certified,
                            answered_by: Some(label),
                            fallbacks,
                        };
                    }
                    // A cancelled query is the caller's doing, not the
                    // rung's failure: report Unknown, keep the rung.
                    Err(_) if cancel.is_cancelled() => {
                        return SupervisedQuery {
                            certified,
                            answered_by: None,
                            fallbacks,
                        };
                    }
                    Err(why) => why,
                },
            };
            if !self.degrade(&label, why, &mut fallbacks) {
                return give_up(fallbacks);
            }
        }
    }

    /// Drops the discredited session and moves to the next rung;
    /// `false` when the ladder is exhausted (the last rung stays
    /// active for future queries — its replacement is rebuilt fresh).
    fn degrade(
        &mut self,
        label: &str,
        outcome: StageOutcome,
        fallbacks: &mut Vec<SessionFallback>,
    ) -> bool {
        self.drop_session();
        self.degradations += 1;
        fallbacks.push(SessionFallback {
            rung: label.to_string(),
            outcome,
        });
        if self.active + 1 < self.rungs.len() {
            self.active += 1;
            true
        } else {
            false
        }
    }
}

/// Why a rung's answer cannot be accepted, or `Ok(())` if it can. With
/// proof logging on, an Unsat must be proof-checked; with it off,
/// Uncertified Unsat is the best the rung can do and is accepted.
fn accept(label: &str, config: &SolverConfig, certified: &Certified) -> Result<(), StageOutcome> {
    let rejected = |what: &str| StageOutcome::CertFailed {
        detail: format!("{label}: {what}"),
    };
    match (&certified.result, certified.cert) {
        (HdpllResult::Sat(_), SessionCert::ModelVerified) => Ok(()),
        (HdpllResult::Sat(_), _) => Err(rejected("SAT model rejected by the simulator")),
        (HdpllResult::Unsat, SessionCert::ProofChecked) => Ok(()),
        (HdpllResult::Unsat, _) if !config.proof => Ok(()),
        (HdpllResult::Unsat, _) => Err(rejected("UNSAT proof rejected or missing")),
        (HdpllResult::Unknown, _) => {
            let reason = certified
                .abort
                .map_or_else(|| "budget exhausted".to_string(), |r| r.to_string());
            Err(StageOutcome::Unknown {
                reason: format!("{label}: unknown ({reason})"),
            })
        }
    }
}

/// The ladder ran dry: an Unknown verdict with the full fallback trail.
fn give_up(fallbacks: Vec<SessionFallback>) -> SupervisedQuery {
    SupervisedQuery {
        certified: Certified {
            result: HdpllResult::Unknown,
            cert: SessionCert::Uncertified,
            proof: None,
            abort: None,
        },
        answered_by: None,
        fallbacks,
    }
}
