//! Measurement primitives shared by the workloads: the seeded order,
//! the percentile rule, the open-loop pacing reader and completion
//! stamper, the single-server rate ceiling, the reference-verdict check,
//! the work digest and the host-speed probe.

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` always yields the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for one `stream` (a round or a pass) of `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, its value would be set by a handful of
/// outliers.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `p`-quantile of `samples` (`0 < p < 1`), or `None`
/// when fewer than [`MIN_TAIL`] samples lie above its rank.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `m` fastest of `samples`, in ascending order (all of them when
/// there are fewer). The host shares its memory system with other
/// tenants, whose busy phases slow a solve by up to 2x for seconds to
/// minutes at a time while the program's work stays the same; an item's
/// fastest asks are the ones such a phase touched least.
#[must_use]
pub fn fastest(samples: &[f64], m: usize) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(m);
    sorted
}

/// How many of each item's fastest asks a pooled percentile keeps: the
/// fewest that still leave [`MIN_TAIL`] samples beyond a p90 when
/// `items` items are pooled.
#[must_use]
pub fn kept_per_item(items: usize) -> usize {
    (10 * MIN_TAIL).div_ceil(items.max(1))
}

/// Time as the pacing reader and the stamper see it: an offset from the
/// start of the schedule. Tests substitute a manual clock.
pub trait Clock: Sync {
    /// The current offset.
    fn now(&self) -> Duration;
    /// Blocks until the offset `t` has passed.
    fn sleep_until(&self, t: Duration);
}

/// The real clock, started when constructed.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    #[must_use]
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// A clock that moves only when told to (tests).
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::SeqCst))
    }

    fn sleep_until(&self, t: Duration) {
        self.0.fetch_max(t.as_nanos() as u64, Ordering::SeqCst);
    }
}

/// An open-loop load generator on the server's own thread: a `BufRead`
/// that hands out line `i` no earlier than its due time `due[i]`.
///
/// `asked[i]` is when the server asked for line `i` (it was busy until
/// then) and `released[i]` when the line was handed over; the gap
/// between the later of `due[i]` and `asked[i]` and `released[i]` is the
/// generator's own lateness.
pub struct PacingReader<'a, C: Clock> {
    clock: &'a C,
    lines: &'a [String],
    due: &'a [Duration],
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    /// When the server asked for each released line.
    pub asked: Vec<Duration>,
    /// When each line was released.
    pub released: Vec<Duration>,
}

impl<'a, C: Clock> PacingReader<'a, C> {
    /// A reader releasing `lines[i]` (without its newline) at `due[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    #[must_use]
    pub fn new(clock: &'a C, lines: &'a [String], due: &'a [Duration]) -> Self {
        assert_eq!(lines.len(), due.len(), "one due time per line");
        PacingReader {
            clock,
            lines,
            due,
            next: 0,
            buf: Vec::new(),
            pos: 0,
            asked: Vec::with_capacity(lines.len()),
            released: Vec::with_capacity(lines.len()),
        }
    }
}

impl<C: Clock> Read for PacingReader<'_, C> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl<C: Clock> BufRead for PacingReader<'_, C> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.lines.len() {
            self.asked.push(self.clock.now());
            self.clock.sleep_until(self.due[self.next]);
            self.released.push(self.clock.now());
            self.buf.clear();
            self.buf.extend_from_slice(self.lines[self.next].as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// A `Write` that splits the server's output into lines and stamps each
/// with the clock when its newline arrives.
pub struct StampingWriter<'a, C: Clock> {
    clock: &'a C,
    partial: Vec<u8>,
    /// Every complete output line with its completion time.
    pub lines: Vec<(String, Duration)>,
}

impl<'a, C: Clock> StampingWriter<'a, C> {
    /// An empty stamper reading `clock`.
    #[must_use]
    pub fn new(clock: &'a C) -> Self {
        StampingWriter {
            clock,
            partial: Vec::new(),
            lines: Vec::new(),
        }
    }
}

impl<C: Clock> Write for StampingWriter<'_, C> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let at = self.clock.now();
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                self.lines.push((line, at));
            } else {
                self.partial.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Per-request service time of a single in-order server:
/// `done[i] − max(due[i], done[i−1])`, the time the server was busy
/// with request `i` alone.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn service_times(due: &[Duration], done: &[Duration]) -> Vec<Duration> {
    assert_eq!(due.len(), done.len(), "one completion per request");
    let mut prev = Duration::ZERO;
    due.iter()
        .zip(done)
        .map(|(&d, &c)| {
            let start = d.max(prev);
            prev = c;
            c.saturating_sub(start)
        })
        .collect()
}

/// The backlog-free rate ceiling of a single server, in requests per
/// second: N / Σ service.
#[must_use]
pub fn max_rate(due: &[Duration], done: &[Duration]) -> f64 {
    let busy: f64 = service_times(due, done)
        .iter()
        .map(Duration::as_secs_f64)
        .sum();
    due.len() as f64 / busy
}

/// A verdict as the benchmark compares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// No verdict (budget, cancellation or certification failure).
    Unknown,
}

impl Verdict {
    /// Parses `sat` / `unsat` (any case).
    #[must_use]
    pub fn parse(s: &str) -> Option<Verdict> {
        match s.to_ascii_lowercase().as_str() {
            "sat" => Some(Verdict::Sat),
            "unsat" => Some(Verdict::Unsat),
            _ => None,
        }
    }

    /// The lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown => "unknown",
        }
    }
}

/// What the check made of one answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checked {
    /// The verdict matches its reference.
    Decided,
    /// No verdict: counted against `decided_share`, not an error.
    Undecided,
}

/// Compares an answer with its pinned reference verdict. A flipped
/// verdict, or a SAT whose model was not replayed, is an error that
/// fails the run.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_verdict(
    name: &str,
    expected: Verdict,
    got: Verdict,
    certified: bool,
) -> Result<Checked, String> {
    match got {
        Verdict::Unknown => Ok(Checked::Undecided),
        _ if got != expected => Err(format!(
            "{name}: answered {} but the reference verdict is {}",
            got.name(),
            expected.name()
        )),
        Verdict::Sat if !certified => Err(format!("{name}: SAT without a replayed model")),
        _ => Ok(Checked::Decided),
    }
}

/// The pinned reference verdicts (`reference.txt`): one
/// `<instance> <sat|unsat>` line per instance, `#` comments.
#[derive(Debug)]
pub struct Reference(std::collections::HashMap<String, Verdict>);

impl Reference {
    /// Parses the reference file.
    ///
    /// # Errors
    ///
    /// Names the first malformed or duplicated line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut map = std::collections::HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(name), Some(v), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("reference line {}: `{line}`", i + 1));
            };
            let v = Verdict::parse(v).ok_or(format!("reference line {}: bad verdict", i + 1))?;
            if map.insert(name.to_string(), v).is_some() {
                return Err(format!("reference line {}: duplicate `{name}`", i + 1));
            }
        }
        Ok(Reference(map))
    }

    /// The pinned verdict of `name`.
    ///
    /// # Errors
    ///
    /// An instance without a reference may not be benchmarked.
    pub fn get(&self, name: &str) -> Result<Verdict, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("no reference verdict for `{name}`"))
    }
}

/// The search work one query did, as the engine counts it. Two runs of
/// one commit on one seed must count the same work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Decisions.
    pub decisions: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Propagation steps.
    pub propagations: u64,
    /// Fourier–Motzkin final checks.
    pub fm_calls: u64,
}

/// FNV-1a over each query's name, verdict and [`Work`], in query order.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in one query.
    pub fn add(&mut self, name: &str, verdict: Verdict, work: Work) {
        self.bytes(name.as_bytes());
        self.bytes(verdict.name().as_bytes());
        for v in [
            work.decisions,
            work.conflicts,
            work.propagations,
            work.fm_calls,
        ] {
            self.bytes(&v.to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Times a fixed integer loop: a reading of the host's current speed,
/// reported beside the metrics and never used to scale them.
#[must_use]
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set in MB (`VmHWM`), or `None` where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten beyond it.
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        // Rank 91 leaves nine.
        assert_eq!(percentile(&samples, 0.91), None);
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn fastest_keeps_the_smallest_asks() {
        assert_eq!(fastest(&[5.0, 1.0, 9.0, 3.0], 2), vec![1.0, 3.0]);
        assert_eq!(fastest(&[5.0, 1.0, 9.0], 1), vec![1.0]);
        assert_eq!(fastest(&[5.0, 1.0], 4), vec![1.0, 5.0]);
        assert!(fastest(&[], 3).is_empty());
    }

    #[test]
    fn kept_asks_leave_ten_beyond_the_p90() {
        for items in [1, 15, 64, 99, 100, 223, 1000] {
            let m = kept_per_item(items);
            let pooled: Vec<f64> = (0..items * m).map(|i| i as f64).collect();
            assert!(percentile(&pooled, 0.9).is_some(), "{items} items");
        }
        assert_eq!(kept_per_item(15), 7);
        assert_eq!(kept_per_item(223), 1);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn pacing_reader_releases_at_due_time_and_latency_counts_from_it() {
        let clock = ManualClock::default();
        let lines: Vec<String> = ["a", "b", "c"].iter().map(|s| (*s).to_string()).collect();
        let due = [ms(0), ms(10), ms(20)];
        let mut reader = PacingReader::new(&clock, &lines, &due);
        let mut out = StampingWriter::new(&clock);
        let mut line = String::new();

        // Due at 0, asked at 0: released at once; served in 15 ms.
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "a\n");
        clock.advance(ms(15));
        out.write_all(b"A\n").unwrap();
        // Due at 10 but the server was busy until 15: released at 15.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "b\n");
        clock.advance(ms(2));
        out.write_all(b"B\n").unwrap();
        // Asked at 17, due at 20: the reader waits for the due time.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "c\n");
        assert_eq!(clock.now(), ms(20));
        clock.advance(ms(1));
        out.write_all(b"C\n").unwrap();
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "EOF after the schedule"
        );

        assert_eq!(reader.asked, vec![ms(0), ms(15), ms(17)]);
        assert_eq!(reader.released, vec![ms(0), ms(15), ms(20)]);
        let done: Vec<Duration> = out.lines.iter().map(|(_, t)| *t).collect();
        assert_eq!(done, vec![ms(15), ms(17), ms(21)]);
        // Latency is measured from the due time, so the 5 ms request
        // "b" spent queued behind "a" counts against it.
        let latency: Vec<Duration> = done.iter().zip(&due).map(|(c, d)| *c - *d).collect();
        assert_eq!(latency, vec![ms(15), ms(7), ms(1)]);
    }

    #[test]
    fn max_rate_on_a_synthetic_schedule() {
        let due = [ms(0), ms(10), ms(20), ms(30)];
        let done = [ms(5), ms(25), ms(30), ms(34)];
        // Busy 5 + (25−10) + (30−25) + (34−30) = 29 ms for 4 requests.
        assert_eq!(
            service_times(&due, &done),
            vec![ms(5), ms(15), ms(5), ms(4)]
        );
        let rate = max_rate(&due, &done);
        assert!((rate - 4.0 / 0.029).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn verdict_check_rejects_a_flipped_or_unreplayed_verdict() {
        use Verdict::{Sat, Unknown, Unsat};
        assert_eq!(check_verdict("x", Sat, Sat, true), Ok(Checked::Decided));
        assert_eq!(
            check_verdict("x", Unsat, Unsat, false),
            Ok(Checked::Decided)
        );
        assert_eq!(
            check_verdict("x", Unsat, Unknown, false),
            Ok(Checked::Undecided)
        );
        assert!(check_verdict("x", Sat, Unsat, true).is_err());
        assert!(check_verdict("x", Unsat, Sat, true).is_err());
        assert!(check_verdict("x", Sat, Sat, false).is_err());
    }

    #[test]
    fn reference_file_rejects_duplicates_and_unknown_names() {
        let r = Reference::parse("# c\na sat\nb UNSAT\n").unwrap();
        assert_eq!(r.get("a"), Ok(Verdict::Sat));
        assert_eq!(r.get("b"), Ok(Verdict::Unsat));
        assert!(r.get("c").is_err());
        assert!(Reference::parse("a sat\na unsat\n").is_err());
        assert!(Reference::parse("a maybe\n").is_err());
    }

    #[test]
    fn digest_is_order_and_work_sensitive() {
        let w = Work {
            decisions: 1,
            conflicts: 2,
            propagations: 3,
            fm_calls: 4,
        };
        let mut a = Digest::default();
        a.add("p", Verdict::Sat, w);
        a.add("q", Verdict::Unsat, w);
        let mut b = Digest::default();
        b.add("p", Verdict::Sat, w);
        b.add("q", Verdict::Unsat, w);
        assert_eq!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.add("p", Verdict::Sat, Work { conflicts: 3, ..w });
        c.add("q", Verdict::Unsat, w);
        assert_ne!(a.hex(), c.hex());
    }

    #[test]
    fn seeded_shuffle_repeats() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7, 1).shuffle(&mut a);
        Rng::new(7, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(8, 1).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
