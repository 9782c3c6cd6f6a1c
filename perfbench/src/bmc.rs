//! `bmc_incremental`: the `SupervisedSession` path of multi-goal
//! solves, BMC and serve's session cache. Every track deepens one frame
//! at a time (`Unroller::push_frame` inside `SupervisedSession::extend`)
//! and asks one assumption query per property and depth. Each pass
//! starts every track from a fresh session.

use std::time::{Duration, Instant};

use rtl_hdpll::{
    Assumption, HdpllResult, ObsConfig, ObsHandle, SessionCert, SolverStats, SupervisedSession,
};
use rtl_ir::seq::{SeqCircuit, Unroller};
use rtl_serve::{session_rungs, SolveOptions};

use crate::harness::{Reference, Rng, Verdict};
use crate::layers::Layers;
use crate::oneshot::work_of;
use crate::outcome::{closed_loop_done, timed_setup, Outcome};
use crate::pool::{bmc_query_name, Track, BMC_TRACKS, REFERENCE};

struct Live {
    track: Track,
    unroller: Unroller,
    session: SupervisedSession,
    /// The session's cumulative counters after its previous query.
    before: SolverStats,
}

/// One query's share of a session's cumulative counters; the memory
/// peak stays the session's.
fn delta(after: &SolverStats, before: &SolverStats) -> SolverStats {
    let mut d = *after;
    let (e, b) = (&mut d.engine, &before.engine);
    e.decisions -= b.decisions;
    e.conflicts -= b.conflicts;
    e.propagations -= b.propagations;
    e.fm_calls -= b.fm_calls;
    e.restarts -= b.restarts;
    d
}

/// One pass over every track, answers tallied in `out`. A plain pass
/// records each query's latency; a traced one (with `layers`) records
/// the layer figures instead. Returns the pass's busy time.
fn pass(
    circuits: &[SeqCircuit],
    opts: &SolveOptions,
    order_rng: &mut Rng,
    reference: &Reference,
    out: &mut Outcome,
    layers: Option<&mut Layers>,
) -> Result<Duration, String> {
    let mut scratch = Layers::default();
    let traced = layers.is_some();
    let layers = layers.unwrap_or(&mut scratch);
    let t_pass = Instant::now();
    let rungs = session_rungs(opts)?;
    let mut live: Vec<Live> = Vec::with_capacity(circuits.len());
    // Set-up of each track's session counts towards its first query.
    let mut pending: Vec<Duration> = Vec::with_capacity(circuits.len());
    for (track, circuit) in BMC_TRACKS.iter().zip(circuits) {
        let t0 = Instant::now();
        let mut unroller = circuit.unroller();
        let mut base = unroller.base_netlist();
        unroller
            .push_frame(&mut base)
            .map_err(|e| format!("push_frame: {e}"))?;
        let t1 = Instant::now();
        layers.time("ir.push_frame", t1 - t0);
        let session =
            SupervisedSession::with_rungs(&base, rungs.clone()).with_preproc(opts.preproc);
        layers.time("session.open", t1.elapsed());
        pending.push(t0.elapsed());
        live.push(Live {
            track: *track,
            unroller,
            session,
            before: SolverStats::default(),
        });
    }
    let max_depth = BMC_TRACKS.iter().map(|t| t.depths).max().unwrap_or(0);
    for depth in 0..max_depth {
        let mut order: Vec<usize> = (0..live.len())
            .filter(|&i| depth < live[i].track.depths)
            .collect();
        order_rng.shuffle(&mut order);
        for i in order {
            let l = &mut live[i];
            let mut carry = std::mem::take(&mut pending[i]);
            if depth > 0 {
                let t0 = Instant::now();
                let mut push = Duration::ZERO;
                let mut grown = Ok(());
                let unroller = &mut l.unroller;
                l.session.extend(|n| {
                    let tp = Instant::now();
                    grown = unroller.push_frame(n);
                    push = tp.elapsed();
                });
                grown.map_err(|e| format!("push_frame: {e}"))?;
                let total = t0.elapsed();
                layers.time("ir.push_frame", push);
                layers.time("session.extend", total.saturating_sub(push));
                carry += total;
            }
            for property in l.track.properties {
                let name = bmc_query_name(l.track.circuit, property, depth);
                let bad = l
                    .unroller
                    .bad(property, depth)
                    .ok_or_else(|| format!("{name}: no such property"))?;
                let handle = traced.then(|| ObsHandle::armed(ObsConfig::profiled()));
                if let Some(h) = &handle {
                    l.session.set_obs(h.clone());
                }
                let t0 = Instant::now();
                let q = l.session.solve(&[Assumption::yes(bad)]);
                let wall = t0.elapsed() + std::mem::take(&mut carry);
                let after = l.session.stats().copied().unwrap_or_default();
                // A fallback drops the live session, and with it the
                // cumulative counters: count from zero again.
                let before = if q.fallbacks.is_empty() {
                    l.before
                } else {
                    SolverStats::default()
                };
                let stats = delta(&after, &before);
                let work = work_of(&stats);
                l.before = after;
                let (verdict, certified) = match (&q.certified.result, q.certified.cert) {
                    (HdpllResult::Sat(_), cert) => {
                        (Verdict::Sat, cert == SessionCert::ModelVerified)
                    }
                    (HdpllResult::Unsat, cert) => {
                        (Verdict::Unsat, cert == SessionCert::ProofChecked)
                    }
                    (HdpllResult::Unknown, _) => (Verdict::Unknown, false),
                };
                out.tally.answer(reference, &name, verdict, certified, work);
                if !traced {
                    out.latency(&name, wall);
                }
                if let Some(h) = &handle {
                    layers.add_handle(h);
                    layers.add_query_wall(wall);
                    layers.add_stats(&stats);
                    layers.add_fallbacks(q.fallbacks.len() as u64);
                    if verdict == Verdict::Unsat {
                        layers.add_unsat(certified);
                    }
                    if depth == 0 && property == &l.track.properties[0] {
                        if let Some(s) = l.session.session() {
                            if let Some(pre) = s.preproc_stats() {
                                layers.add_preproc(pre.signals_before, pre.removed());
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(t_pass.elapsed())
}

/// Runs the workload.
///
/// # Errors
///
/// Fails on a bad reference file, a track that cannot unroll, or an
/// engine that cannot run sessions.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let reference = Reference::parse(REFERENCE)?;
    let opts = SolveOptions::default();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut n = 0u64;
    // The traced run alternates plain and traced passes (both on the
    // same seeded order), so the overhead compares like with like.
    let mut plain_wall = Duration::ZERO;
    while !closed_loop_done(start, budget, trace, &out) || (trace && n % 2 == 1) {
        // Set-up, before each pass: build the circuits. Each pass's
        // first asks are cold; a query's fastest ask is seldom one.
        let (circuits, setup_s) = timed_setup(|| {
            Ok(BMC_TRACKS
                .iter()
                .map(|t| t.circuit.build())
                .collect::<Vec<SeqCircuit>>())
        })?;
        out.setup_s.push(setup_s);
        let traced = trace && n % 2 == 1;
        let mut rng = Rng::new(seed, if trace { n / 2 } else { n });
        let layers_in = traced.then_some(&mut layers);
        let wall = pass(&circuits, &opts, &mut rng, &reference, &mut out, layers_in)?;
        if traced {
            layers.add_pass_pair(plain_wall, wall);
            layers.end_pass();
        } else {
            plain_wall = wall;
            out.passes += 1;
        }
        n += 1;
    }
    out.layers = trace.then_some(layers);
    Ok(out)
}
