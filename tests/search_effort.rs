//! Exact search-effort pins on instances that actually search.
//!
//! The golden EFFORT band (`tests/golden/EFFORT`) is a tolerance band
//! over cases that need at most one conflict, so it cannot tell a
//! changed search path from an unchanged one. These pins are exact
//! `(decisions, conflicts, propagations)` triples on b13 `p8`
//! unrollings, which take hundreds of conflicts: any change to the
//! order of decisions, to conflict analysis or to propagation shows up
//! here. They pin both entry points of the Algorithm-1 loop — the
//! one-shot [`Solver`] and the incremental [`Session`] — and check that
//! arming the profiler leaves the session's search path untouched.
//!
//! A deliberate change to the search moves these numbers; re-measure
//! them and say why in the change's notes.

use rtlsat::hdpll::{
    Assumption, DecisionStrategy, LearnConfig, LearningMode, ObsConfig, ObsHandle, Session, Solver,
    SolverConfig,
};
use rtlsat::ir::Netlist;

/// `(decisions, conflicts, propagations)`.
type Effort = (u64, u64, u64);

fn one_shot(frames: usize, config: SolverConfig) -> Effort {
    let bmc = rtlsat::itc99::b13().unroll("p8", frames).expect("unroll");
    let mut solver = Solver::new(&bmc.netlist, config.with_proof(true));
    assert!(solver.solve(bmc.bad).is_unsat(), "b13_8({frames}) is UNSAT");
    let s = solver.stats().engine;
    (s.decisions, s.conflicts, s.propagations)
}

/// BMC sweep of b13 `p8` over depths `0..=13` in one session: one frame
/// pushed per depth, one `bad = 1` query per depth, all UNSAT. Returns
/// the session, whose stats hold the sweep's cumulative effort.
fn session_sweep(config: SolverConfig, obs: Option<&ObsHandle>) -> Session {
    let mut unroller = rtlsat::itc99::b13().unroller();
    let mut base = unroller.base_netlist();
    unroller.push_frame(&mut base).expect("frame 0");
    let mut session = Session::new(&base, config.with_proof(true));
    if let Some(h) = obs {
        session.set_obs(h.clone());
    }
    for depth in 0..=13 {
        if depth > 0 {
            session.extend(|n: &mut Netlist| unroller.push_frame(n).expect("frame"));
        }
        let bad = unroller.bad("p8", depth).expect("bad signal");
        let q = session.solve(&[Assumption::yes(bad)]);
        assert!(q.result.is_unsat(), "b13_8 depth {depth} is UNSAT");
    }
    session
}

fn effort(session: &Session) -> Effort {
    let s = session.stats().engine;
    (s.decisions, s.conflicts, s.propagations)
}

fn sp() -> SolverConfig {
    SolverConfig::structural_with_learning(LearnConfig::default())
}

#[test]
fn one_shot_effort_is_pinned_on_b13_p8() {
    assert_eq!(
        one_shot(13, SolverConfig::hdpll()),
        (369, 313, 794_495),
        "hdpll"
    );
    assert_eq!(
        one_shot(13, SolverConfig::structural()),
        (285, 263, 766_636),
        "structural"
    );
    assert_eq!(
        one_shot(13, sp()),
        (450, 262, 451_526),
        "structural_with_learning"
    );
    let bool_only = SolverConfig {
        learning: LearningMode::BoolOnly,
        ..SolverConfig::structural()
    };
    assert_eq!(
        one_shot(13, bool_only),
        (285, 263, 996_883),
        "structural + BoolOnly"
    );
    let chronological = SolverConfig {
        learning: LearningMode::None,
        ..SolverConfig::structural()
    };
    assert_eq!(
        one_shot(12, chronological),
        (12, 7, 4_647),
        "structural + None"
    );
}

#[test]
fn session_sweep_effort_is_pinned_on_b13_p8() {
    let sweep = |config| effort(&session_sweep(config, None));
    assert_eq!(
        sweep(SolverConfig::hdpll()),
        (1133, 835, 1_503_475),
        "hdpll"
    );
    assert_eq!(
        sweep(SolverConfig::structural()),
        (638, 556, 864_588),
        "structural"
    );
    assert_eq!(sweep(sp()), (593, 556, 863_811), "structural_with_learning");
}

#[test]
fn profiled_session_sweep_takes_the_pinned_path() {
    // The activity strategy is the one that restarts, so the sweep
    // exercises the restart leaf too.
    let config = SolverConfig::hdpll();
    assert_eq!(config.decision, DecisionStrategy::Activity);
    let handle = ObsHandle::armed(ObsConfig::profiled());
    let mut session = session_sweep(config, Some(&handle));
    assert_eq!(effort(&session), (1133, 835, 1_503_475));
    // Every sweep query is refuted before the final arithmetic check;
    // one unconstrained query is SAT and reaches it.
    assert!(session.solve(&[]).result.is_sat());
    let snap = handle
        .profile_snapshot()
        .expect("profiled handle has a snapshot");
    for leaf in [
        "propagate",
        "decide",
        "analyze",
        "restart",
        "proof",
        "final_check",
    ] {
        let path = format!("query;search;{leaf}");
        assert!(
            snap.rows.iter().any(|r| r.path == path),
            "leaf {path} missing: {:?}",
            snap.rows.iter().map(|r| &r.path).collect::<Vec<_>>()
        );
    }
}
