//! Per-layer figures of the traced run: the profiler's self times
//! inside each solve, the harness's own timings of the calls it makes
//! into the other layers, and the engine's work counters.

use std::collections::BTreeMap;
use std::time::Duration;

use rtl_hdpll::SolverStats;
use rtl_obs::{ObsHandle, ProfileSnapshot};

/// Layer self times in microseconds, keyed by the metric stem
/// (`search.analyze`, `serve.parse_line`, …).
#[derive(Debug, Default)]
pub struct Layers {
    self_us: BTreeMap<&'static str, f64>,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    restarts: u64,
    fm_calls: u64,
    relations: u64,
    fallbacks: u64,
    mem_peak: u64,
    unsat: u64,
    unsat_checked: u64,
    preproc_before: u64,
    preproc_removed: u64,
    parsed_bytes: u64,
    wait_us: f64,
    late_us: f64,
    paced: u64,
    query_wall_us: f64,
    plain_wall_us: f64,
    traced_wall_us: f64,
    passes: f64,
}

/// Every timed layer, reported as `<stem>.self_ms`. Only these count
/// as attributed when the layers are held against the query wall time.
const TIMED: [&str; 18] = [
    "search.analyze",
    "search.proof",
    "certify",
    "search.propagate",
    "search.decide",
    "search.final_check",
    "search.restart",
    "predlearn",
    "preproc",
    "compile",
    "solve.other",
    "supervisor.build",
    "serve.parse_line",
    "ir.text_parse",
    "serve.record",
    "session.extend",
    "ir.push_frame",
    "session.open",
];

/// Maps a profiler span to its metric stem; `None` for the spans that
/// only group others (stage, query, search), whose self time is
/// reported as `solve.other`.
fn stem(leaf: &str) -> Option<&'static str> {
    Some(match leaf {
        "propagate" => "search.propagate",
        "decide" => "search.decide",
        "analyze" => "search.analyze",
        "restart" => "search.restart",
        "proof" => "search.proof",
        "final_check" => "search.final_check",
        "preproc" => "preproc",
        "compile" => "compile",
        "predlearn" => "predlearn",
        "certify" => "certify",
        _ => return None,
    })
}

impl Layers {
    /// Adds `d` to the harness-timed layer `stem`.
    pub fn time(&mut self, stem: &'static str, d: Duration) {
        *self.self_us.entry(stem).or_default() += d.as_secs_f64() * 1e6;
    }

    /// Folds in one query's profile and event trace, read from the
    /// handle the query ran under.
    pub fn add_handle(&mut self, handle: &ObsHandle) {
        if let Some(snap) = handle.profile_snapshot() {
            self.add_profile(&snap);
        }
        if let Some(jsonl) = handle.export_jsonl() {
            self.relations += learned_relations(&jsonl);
        }
    }

    fn add_profile(&mut self, snap: &ProfileSnapshot) {
        for row in &snap.rows {
            let leaf = row.path.rsplit(';').next().unwrap_or(&row.path);
            let stem = stem(leaf).unwrap_or("solve.other");
            *self.self_us.entry(stem).or_default() += row.self_us as f64;
        }
    }

    /// Folds in one query's engine counters.
    pub fn add_stats(&mut self, stats: &SolverStats) {
        let e = &stats.engine;
        self.decisions += e.decisions;
        self.conflicts += e.conflicts;
        self.propagations += e.propagations;
        self.restarts += e.restarts;
        self.fm_calls += e.fm_calls;
        self.mem_peak = self.mem_peak.max(e.mem_peak);
    }

    /// Counts rungs or retries abandoned while answering.
    pub fn add_fallbacks(&mut self, n: u64) {
        self.fallbacks += n;
    }

    /// Counts an UNSAT answer and whether its proof was checked.
    pub fn add_unsat(&mut self, checked: bool) {
        self.unsat += 1;
        self.unsat_checked += u64::from(checked);
    }

    /// Counts the signals preprocessing saw and removed.
    pub fn add_preproc(&mut self, before: usize, removed: usize) {
        self.preproc_before += before as u64;
        self.preproc_removed += removed as u64;
    }

    /// Counts netlist text handed to the text parser.
    pub fn add_parsed_bytes(&mut self, n: usize) {
        self.parsed_bytes += n as u64;
    }

    /// Records one paced request's queueing wait and generator lateness.
    pub fn add_pacing(&mut self, wait: Duration, late: Duration) {
        self.wait_us += wait.as_secs_f64() * 1e6;
        self.late_us += late.as_secs_f64() * 1e6;
        self.paced += 1;
    }

    /// Records one traced query's wall time, which the layer self times
    /// should account for.
    pub fn add_query_wall(&mut self, d: Duration) {
        self.query_wall_us += d.as_secs_f64() * 1e6;
    }

    /// Records one pass run untraced and one run traced, for the
    /// tracing overhead.
    pub fn add_pass_pair(&mut self, plain: Duration, traced: Duration) {
        self.plain_wall_us += plain.as_secs_f64() * 1e6;
        self.traced_wall_us += traced.as_secs_f64() * 1e6;
    }

    /// Counts one traced pass over the pool; totals are reported per
    /// pass.
    pub fn end_pass(&mut self) {
        self.passes += 1.0;
    }

    /// Every per-layer metric as `(name, value, unit)`.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let passes = self.passes.max(1.0);
        let us = |stem: &str| self.self_us.get(stem).copied().unwrap_or(0.0);
        let per_pass = |v: u64| v as f64 / passes;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let attributed: f64 = TIMED.iter().map(|s| us(s)).sum();
        let mut m: Vec<(String, f64, &'static str)> = TIMED
            .iter()
            .map(|s| (format!("{s}.self_ms"), us(s) / 1e3 / passes, "ms"))
            .collect();
        let counts: [(&str, f64, &'static str); 16] = [
            (
                "search.analyze.us_per_conflict",
                ratio(us("search.analyze"), self.conflicts as f64),
                "us",
            ),
            (
                "proof.unsat_checked_share",
                ratio(self.unsat_checked as f64, self.unsat as f64),
                "share",
            ),
            ("fm.calls", per_pass(self.fm_calls), "count"),
            ("predlearn.relations", per_pass(self.relations), "count"),
            (
                "preproc.removed_share",
                ratio(self.preproc_removed as f64, self.preproc_before as f64),
                "share",
            ),
            (
                "ir.text_parse.mb_per_s",
                ratio(self.parsed_bytes as f64, us("ir.text_parse")),
                "MB/s",
            ),
            (
                "serve.wait_ms",
                ratio(self.wait_us, self.paced as f64) / 1e3,
                "ms",
            ),
            (
                "loadgen.late_ms",
                ratio(self.late_us, self.paced as f64) / 1e3,
                "ms",
            ),
            ("search.decisions", per_pass(self.decisions), "count"),
            ("search.conflicts", per_pass(self.conflicts), "count"),
            ("search.propagations", per_pass(self.propagations), "count"),
            ("search.restarts", per_pass(self.restarts), "count"),
            ("ladder.fallbacks", per_pass(self.fallbacks), "count"),
            (
                "engine.mem_peak_mb",
                self.mem_peak as f64 / (1024.0 * 1024.0),
                "MB",
            ),
            (
                "trace.overhead_share",
                ratio(self.traced_wall_us, self.plain_wall_us) - 1.0,
                "share",
            ),
            (
                "trace.unattributed_share",
                ratio(self.query_wall_us - attributed, self.query_wall_us),
                "share",
            ),
        ];
        m.extend(counts.into_iter().map(|(n, v, u)| (n.to_string(), v, u)));
        m
    }
}

/// Relations predicate learning derived, summed from the trace's
/// `waysplit` events (a lower bound if the trace ring dropped events).
fn learned_relations(jsonl: &str) -> u64 {
    jsonl
        .lines()
        .filter(|l| l.contains("\"e\":\"waysplit\""))
        .filter_map(|l| {
            let rest = &l[l.find("\"learned\":")? + "\"learned\":".len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_are_summed_from_waysplit_events() {
        let jsonl = "{\"e\":\"decision\",\"learned\":9}\n\
                     {\"e\":\"waysplit\",\"sig\":1,\"value\":true,\"ways\":2,\"learned\":3}\n\
                     {\"e\":\"waysplit\",\"sig\":2,\"value\":false,\"ways\":2,\"learned\":0}\n\
                     {\"e\":\"waysplit\",\"sig\":4,\"value\":true,\"ways\":3,\"learned\":12}\n";
        assert_eq!(learned_relations(jsonl), 15);
    }

    #[test]
    fn only_reported_layers_account_for_the_wall() {
        let mut l = Layers::default();
        l.time("serve.parse_line", Duration::from_millis(3));
        l.time("ir.text_parse", Duration::from_millis(1));
        l.time("not.reported", Duration::from_millis(1));
        l.add_query_wall(Duration::from_millis(5));
        l.end_pass();
        let m: BTreeMap<_, _> = l.metrics().into_iter().map(|(n, v, _)| (n, v)).collect();
        assert!((m["trace.unattributed_share"] - 0.2).abs() < 1e-9);
        assert!((m["serve.parse_line.self_ms"] - 3.0).abs() < 1e-9);
        assert!(!m.contains_key("not.reported.self_ms"));
        for stem in TIMED {
            assert!(m.contains_key(&format!("{stem}.self_ms")), "{stem}");
        }
    }
}
