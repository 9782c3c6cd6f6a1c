//! `search_oneshot`: the `rtlsat <netlist> <goal>` path. Each query
//! builds the default supervisor (hdpll-sp with preprocessing, proof
//! logging and certification) and solves once, one query at a time.

use std::time::{Duration, Instant};

use rtl_hdpll::{Certification, HdpllResult, ObsConfig, ObsHandle, SolverStats, SupervisedResult};
use rtl_serve::{build_supervisor, SolveOptions};

use crate::harness::{Reference, Rng, Verdict, Work};
use crate::layers::Layers;
use crate::outcome::{closed_loop_done, timed_setup, Outcome};
use crate::pool::{oneshot_rows, unroll_row, Instance, REFERENCE};

/// What one solve returned, as the tally and the layers read it.
struct Solved {
    result: SupervisedResult,
    wall: Duration,
    build: Duration,
}

fn solve(inst: &Instance, opts: &SolveOptions, obs: Option<&ObsHandle>) -> Result<Solved, String> {
    let t0 = Instant::now();
    let mut sup = build_supervisor(opts, &inst.netlist)?;
    let build = t0.elapsed();
    if let Some(h) = obs {
        sup = sup.with_obs(h.clone());
    }
    let result = sup.solve(&inst.netlist, inst.goal);
    Ok(Solved {
        result,
        wall: t0.elapsed(),
        build,
    })
}

/// The verdict, whether it is certified, and the work of every stage.
pub fn read_result(result: &SupervisedResult) -> (Verdict, bool, Work) {
    let (verdict, certified) = match &result.verdict {
        // The supervisor reports only models it replayed.
        HdpllResult::Sat(_) => (Verdict::Sat, true),
        HdpllResult::Unsat => (
            Verdict::Unsat,
            result.unsat_certification() == Some(Certification::Proof),
        ),
        HdpllResult::Unknown => (Verdict::Unknown, false),
    };
    let mut work = Work::default();
    for w in result
        .reports
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(work_of)
    {
        work.decisions += w.decisions;
        work.conflicts += w.conflicts;
        work.propagations += w.propagations;
        work.fm_calls += w.fm_calls;
    }
    (verdict, certified, work)
}

/// The work counters the digest covers.
#[must_use]
pub fn work_of(stats: &SolverStats) -> Work {
    Work {
        decisions: stats.engine.decisions,
        conflicts: stats.engine.conflicts,
        propagations: stats.engine.propagations,
        fm_calls: stats.engine.fm_calls,
    }
}

/// Folds one traced solve into the layer figures.
pub fn trace_result(layers: &mut Layers, result: &SupervisedResult, handle: &ObsHandle) {
    layers.add_handle(handle);
    for stats in result.reports.iter().filter_map(|r| r.stats.as_ref()) {
        layers.add_stats(stats);
    }
    layers.add_fallbacks(result.reports.len().saturating_sub(1) as u64);
    if result.verdict.is_unsat() {
        layers.add_unsat(result.unsat_certification() == Some(Certification::Proof));
    }
    if let Some(pre) = &result.preproc {
        layers.add_preproc(pre.stats.signals_before, pre.stats.removed());
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Fails on a bad reference file or an unusable solve configuration.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let reference = Reference::parse(REFERENCE)?;
    let opts = SolveOptions::default();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while !closed_loop_done(start, budget, trace, &out) {
        // Set-up (unrolling every row) is repeated before each pass, so
        // its samples spread over the run like the queries' do.
        let (pool, setup_s) = timed_setup(|| {
            Ok(oneshot_rows()
                .into_iter()
                .map(|(c, p, k)| unroll_row(c, p, k))
                .collect::<Vec<_>>())
        })?;
        out.setup_s.push(setup_s);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        Rng::new(seed, pass).shuffle(&mut order);
        let (mut plain_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
        for (n, &i) in order.iter().enumerate() {
            let inst = &pool[i];
            if !trace {
                let plain = solve(inst, &opts, None)?;
                let (verdict, certified, work) = read_result(&plain.result);
                out.tally
                    .answer(&reference, &inst.name, verdict, certified, work);
                out.latency(&inst.name, plain.wall);
                continue;
            }
            // The traced run solves every query twice, plain and traced,
            // alternating which goes first, so the tracing overhead is
            // measured on the same inputs.
            let handle = ObsHandle::armed(ObsConfig::profiled());
            let (plain, traced) = if (n as u64 + pass).is_multiple_of(2) {
                let plain = solve(inst, &opts, None)?;
                (plain, solve(inst, &opts, Some(&handle))?)
            } else {
                let traced = solve(inst, &opts, Some(&handle))?;
                (solve(inst, &opts, None)?, traced)
            };
            for s in [&plain, &traced] {
                let (verdict, certified, work) = read_result(&s.result);
                out.tally
                    .answer(&reference, &inst.name, verdict, certified, work);
            }
            out.latency(&inst.name, plain.wall);
            plain_wall += plain.wall;
            traced_wall += traced.wall;
            layers.time("supervisor.build", traced.build);
            layers.add_query_wall(traced.wall);
            trace_result(&mut layers, &traced.result, &handle);
        }
        if trace {
            layers.add_pass_pair(plain_wall, traced_wall);
            layers.end_pass();
        }
        out.passes += 1;
        pass += 1;
    }
    out.layers = trace.then_some(layers);
    Ok(out)
}
