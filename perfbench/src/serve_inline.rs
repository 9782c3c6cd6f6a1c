//! `serve_inline`: `rtl_serve::serve` in this process with the default
//! `ServeConfig` (one worker, so requests run inline on the reader
//! thread). An open loop offers JSONL requests with inline netlist text
//! at a fixed rate; each request's latency runs from its due time to
//! its record.

use std::time::{Duration, Instant};

use rtl_hdpll::{ObsConfig, ObsHandle};
use rtl_obs::json::{self, Value};
use rtl_serve::{
    build_supervisor, parse_line, record, serve, stats_json_record, NetlistSource, RequestLine,
    ServeConfig, SolveMeta, SolveOptions,
};

use crate::harness::{
    max_rate, service_times, Clock, PacingReader, Reference, Rng, StampingWriter, Verdict,
    WallClock, Work,
};
use crate::layers::Layers;
use crate::oneshot::{read_result, trace_result};
use crate::outcome::{timed_setup, Outcome};
use crate::pool::{golden_requests, serve_rows, unroll_row, REFERENCE};

/// The offered rate, fixed for every commit: about a third of the
/// single inline worker's capacity (about 40 requests/s) when the
/// benchmark was defined, so queues form only behind the slowest
/// requests.
pub const RATE_RPS: f64 = 13.0;

/// One pool request: its reference name and its JSONL body minus the
/// `id`, which the schedule fills in.
struct Request {
    name: String,
    goal: String,
    text: String,
}

impl Request {
    fn line(&self, seq: usize) -> String {
        format!(
            "{{\"id\":\"{}#{seq}\",\"goal\":\"{}\",\"netlist\":\"{}\"}}",
            json::escape(&self.name),
            json::escape(&self.goal),
            json::escape(&self.text)
        )
    }
}

fn build_pool() -> Vec<Request> {
    let mut pool: Vec<Request> = golden_requests()
        .into_iter()
        .map(|(name, text, goal, _)| Request {
            name,
            goal,
            text: text.to_string(),
        })
        .collect();
    for (c, p, k) in serve_rows() {
        let inst = unroll_row(c, p, k);
        pool.push(Request {
            name: inst.name,
            goal: format!("bad_{p}"),
            text: rtl_ir::text::to_text(&inst.netlist),
        });
    }
    pool
}

/// The request name a result record answers (its id minus `#seq`).
fn record_name(rec: &Value) -> Option<&str> {
    let id = rec.get("id")?.as_str()?;
    Some(id.rsplit_once('#').map_or(id, |(n, _)| n))
}

fn read_record(rec: &Value) -> (Verdict, bool, Work) {
    let verdict = match rec.get("verdict").and_then(Value::as_str) {
        Some("SAT") => Verdict::Sat,
        Some("UNSAT") => Verdict::Unsat,
        _ => Verdict::Unknown,
    };
    let certified = matches!(
        rec.get("certification").and_then(Value::as_str),
        Some("model certified" | "proof checked")
    );
    let counter = |k: &str| {
        rec.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let work = Work {
        decisions: counter("decisions"),
        conflicts: counter("conflicts"),
        propagations: counter("propagations"),
        fm_calls: counter("fm_calls"),
    };
    (verdict, certified, work)
}

/// The traced replay of one request: the calls `serve` makes for it,
/// made here one by one and timed.
fn replay(
    line: &str,
    opts: &SolveOptions,
    layers: &mut Layers,
) -> Result<(Verdict, bool, Work), String> {
    let t0 = Instant::now();
    let parsed = parse_line(line)?;
    layers.time("serve.parse_line", t0.elapsed());
    let RequestLine::Solve(req) = parsed else {
        return Err("replay expects solve requests".to_string());
    };
    let NetlistSource::Inline(text) = &req.source else {
        return Err("replay expects inline netlists".to_string());
    };
    let t1 = Instant::now();
    let netlist = rtl_ir::text::parse(text).map_err(|e| e.to_string())?;
    layers.time("ir.text_parse", t1.elapsed());
    layers.add_parsed_bytes(text.len());
    let goal = rtl_proof::resolve_goal(&netlist, &req.goal).ok_or("unknown goal")?;
    let t2 = Instant::now();
    let handle = ObsHandle::armed(ObsConfig::profiled());
    let sup = build_supervisor(opts, &netlist)?;
    layers.time("supervisor.build", t2.elapsed());
    let result = sup.with_obs(handle.clone()).solve(&netlist, goal);
    let t3 = Instant::now();
    let meta = SolveMeta {
        case: req.id.clone(),
        file: "<inline>".to_string(),
        goal: req.goal.clone(),
        engine: opts.engine.clone(),
    };
    let rec = stats_json_record(
        &meta,
        &result,
        &handle,
        &record::result_prefix(&req.id, 1, 1),
    );
    std::hint::black_box(rec);
    layers.time("serve.record", t3.elapsed());
    layers.add_query_wall(t0.elapsed());
    trace_result(layers, &result, &handle);
    Ok(read_result(&result))
}

/// Runs the workload.
///
/// # Errors
///
/// Fails on a bad reference file or an I/O error of the serve loop.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let reference = Reference::parse(REFERENCE)?;
    let mut out = Outcome::default();
    // Set-up (building every request line) runs this many times before
    // each pass, so its samples spread over the run like the requests.
    const SETUPS: usize = 3;
    let build = |out: &mut Outcome| -> Result<Vec<Request>, String> {
        let mut pool = Vec::new();
        for _ in 0..SETUPS {
            let (built, setup_s) = timed_setup(|| Ok(build_pool()))?;
            out.setup_s.push(setup_s);
            pool = built;
        }
        Ok(pool)
    };
    let mut pool = build(&mut out)?;

    // Whole passes over the pool, each in its own seeded order and its
    // own `serve` session, one request due every 1/RATE_RPS seconds from
    // the pass's start; at least four passes, so each request's fastest
    // asks are a choice.
    let passes = ((budget.as_secs_f64() * RATE_RPS) as usize / pool.len()).max(4);
    let clock = WallClock::start();
    let config = ServeConfig::default();
    let (mut order, mut due, mut done) = (vec![], vec![], vec![]);
    let (mut asked, mut released) = (vec![], vec![]);
    // Only the first pass's lines are kept (the traced run replays
    // them), so the harness's own memory does not grow with the run.
    let mut first_pass: Vec<String> = vec![];
    for pass in 0..passes {
        if pass > 0 {
            pool = build(&mut out)?;
        }
        let mut perm: Vec<usize> = (0..pool.len()).collect();
        Rng::new(seed, pass as u64).shuffle(&mut perm);
        let first = order.len();
        let lines: Vec<String> = perm
            .iter()
            .enumerate()
            .map(|(k, &i)| pool[i].line(first + k))
            .collect();
        let base = clock.now();
        due.extend((0..perm.len()).map(|k| base + Duration::from_secs_f64(k as f64 / RATE_RPS)));
        order.extend(perm);
        let mut reader = PacingReader::new(&clock, &lines, &due[first..]);
        let mut writer = StampingWriter::new(&clock);
        serve(&mut reader, &mut writer, &config).map_err(|e| format!("serve: {e}"))?;
        asked.extend(reader.asked);
        released.extend(reader.released);
        if pass == 0 {
            first_pass = lines;
        }
        let mut answered = writer.lines.into_iter().filter_map(|(text, at)| {
            let rec = json::parse(&text).ok()?;
            (rec.get("type")?.as_str()? != "summary").then_some((rec, at))
        });
        for (seq, &i) in order.iter().enumerate().skip(first) {
            let expected = &pool[i].name;
            let Some((rec, at)) = answered.next() else {
                out.tally.missing(format!("{expected}: no record"));
                done.push(clock.now());
                continue;
            };
            done.push(at);
            match (rec.get("type").and_then(Value::as_str), record_name(&rec)) {
                (Some("result"), Some(name)) if name == expected => {
                    let (verdict, certified, work) = read_record(&rec);
                    out.tally
                        .answer(&reference, expected, verdict, certified, work);
                }
                _ => out
                    .tally
                    .missing(format!("{expected} (request {seq}): unexpected record")),
            }
        }
    }
    let service = service_times(&due, &done);
    for (seq, &i) in order.iter().enumerate() {
        let name = &pool[i].name;
        out.latency(name, done[seq].saturating_sub(due[seq]));
        out.service_ms
            .entry(name.clone())
            .or_default()
            .push(service[seq].as_secs_f64() * 1e3);
    }
    out.passes = passes;
    out.max_rate_rps = Some(max_rate(&due, &done));

    if trace {
        let mut layers = Layers::default();
        for ((&due, &asked), &released) in due.iter().zip(&asked).zip(&released) {
            layers.add_pacing(
                asked.saturating_sub(due),
                released.saturating_sub(due.max(asked)),
            );
        }
        // Replay one seeded pass over the pool through the same public
        // calls, timing each layer; its total against the mean pass's
        // service time in the paced run is the tracing overhead.
        let opts = SolveOptions::default();
        let t0 = Instant::now();
        for (seq, &i) in order.iter().take(pool.len()).enumerate() {
            let name = &pool[i].name;
            let (verdict, certified, work) =
                replay(&first_pass[seq], &opts, &mut layers).map_err(|e| format!("{name}: {e}"))?;
            out.tally.answer(&reference, name, verdict, certified, work);
        }
        let replayed = t0.elapsed();
        let plain = service.iter().sum::<Duration>() / passes as u32;
        layers.add_pass_pair(plain, replayed);
        layers.end_pass();
        out.layers = Some(layers);
    }
    Ok(out)
}
