//! What one run of a workload measured, and the checks every answer
//! goes through before it counts.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::harness::{
    check_verdict, fastest, kept_per_item, median, percentile, Checked, Digest, Reference, Verdict,
    Work,
};
use crate::layers::Layers;

/// Everything a workload reports back to `main`. Each timing is kept
/// per item (a query, or the set-up), one sample per ask, so each
/// item's slower asks can be dropped.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up times in seconds.
    pub setup_s: Vec<f64>,
    /// Time to a verdict of each query, in ms, by query name.
    pub latency_ms: BTreeMap<String, Vec<f64>>,
    /// Busy time of the server per request, in ms, where it differs
    /// from the latency (the open loop); empty for closed loops.
    pub service_ms: BTreeMap<String, Vec<f64>>,
    /// Complete passes measured.
    pub passes: usize,
    /// The open loop's backlog-free rate ceiling over the whole run.
    pub max_rate_rps: Option<f64>,
    /// Answer accounting.
    pub tally: Tally,
    /// The traced run's layer figures.
    pub layers: Option<Layers>,
}

impl Outcome {
    /// Records one ask of query `name`.
    pub fn latency(&mut self, name: &str, d: Duration) {
        self.latency_ms
            .entry(name.to_string())
            .or_default()
            .push(d.as_secs_f64() * 1e3);
    }

    /// Every query's fastest [`kept_per_item`] latencies, pooled: the
    /// fewest asks per query that still give the p90 its tail.
    #[must_use]
    pub fn quiet_latencies(&self) -> Vec<f64> {
        let m = kept_per_item(self.latency_ms.len());
        self.latency_ms
            .values()
            .flat_map(|v| fastest(v, m))
            .collect()
    }

    /// Busy time of one pass over the pool, in seconds: the sum over
    /// queries of each query's fastest ask (its fastest service time on
    /// the open loop).
    #[must_use]
    pub fn pass_busy_s(&self) -> f64 {
        let busy = if self.service_ms.is_empty() {
            &self.latency_ms
        } else {
            &self.service_ms
        };
        busy.values()
            .map(|v| fastest(v, 1).first().copied().unwrap_or(0.0))
            .sum::<f64>()
            / 1e3
    }

    /// The set-up time: the median of the set-ups, which each workload
    /// spreads over its run.
    #[must_use]
    pub fn setup(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// Counts answers, checks each against its reference, and digests the
/// work of each query's first ask.
#[derive(Debug, Default)]
pub struct Tally {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries answered with the reference verdict.
    pub decided: u64,
    /// Decided queries with a replayed model or a checked proof.
    pub certified: u64,
    /// Wrong verdicts (each fails the run).
    pub errors: Vec<String>,
    /// Digest of the work of each query's first ask, in the order of
    /// first asks.
    pub digest: Digest,
    /// Queries whose work differed from an earlier ask of the same
    /// instance in this run.
    pub work_changed: u64,
    seen: HashMap<String, Work>,
}

impl Tally {
    /// Checks and counts one answer.
    pub fn answer(
        &mut self,
        reference: &Reference,
        name: &str,
        verdict: Verdict,
        certified: bool,
        work: Work,
    ) {
        self.attempted += 1;
        match self.seen.get(name) {
            None => {
                self.digest.add(name, verdict, work);
                self.seen.insert(name.to_string(), work);
            }
            Some(first) if *first != work => self.work_changed += 1,
            Some(_) => {}
        }
        let checked = reference
            .get(name)
            .and_then(|expected| check_verdict(name, expected, verdict, certified));
        match checked {
            Ok(Checked::Decided) => {
                self.decided += 1;
                self.certified += u64::from(certified);
            }
            Ok(Checked::Undecided) => {}
            Err(e) => self.errors.push(e),
        }
    }

    /// Counts a request that produced no answer at all.
    pub fn missing(&mut self, detail: String) {
        self.attempted += 1;
        eprintln!("no answer: {detail}");
    }
}

/// Runs `build` and returns its result with its time in seconds.
///
/// # Errors
///
/// Whatever `build` fails with.
pub fn timed_setup<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let built = build()?;
    Ok((built, t.elapsed().as_secs_f64()))
}

/// `true` once a closed-loop run has measured for `budget` and, unless
/// it is the traced run, holds enough quiet samples for its p90.
#[must_use]
pub fn closed_loop_done(start: Instant, budget: Duration, trace: bool, out: &Outcome) -> bool {
    start.elapsed() >= budget && (trace || percentile(&out.quiet_latencies(), 0.9).is_some())
}
