//! Regenerates `reference.txt`, the pinned verdicts the benchmark
//! checks every answer against, with the eager bit-blast baseline —
//! never with the default path the benchmark measures.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin reference > perfbench/reference.txt
//! ```

use rtl_baselines::{BaselineLimits, EagerSolver};
use rtl_ir::{Netlist, SignalId};

use perfbench::pool::{
    bmc_query_name, golden_requests, oneshot_rows, row_name, serve_rows, unroll_row, BMC_TRACKS,
};

fn eager(netlist: &Netlist, goal: SignalId) -> &'static str {
    let result = EagerSolver::new(BaselineLimits::default()).solve(netlist, goal);
    if result.is_sat() {
        "sat"
    } else if result.is_unsat() {
        "unsat"
    } else {
        panic!("the eager baseline gave up; no reference can be pinned")
    }
}

fn main() {
    println!("# Reference verdicts: <instance> <sat|unsat>, one run of the eager");
    println!("# bit-blast baseline (src/bin/reference.rs). Golden rows agree with");
    println!("# corpus/MANIFEST (checked by the pool tests).");
    println!("#");
    println!("# <circuit>_<p>(<k>): property p unrolled for k frames, one-shot.");
    println!("# <circuit>_<p>@<d>: session query at depth d, the same problem as (d+1).");
    let mut rows = oneshot_rows();
    for row in serve_rows() {
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    for (c, p, k) in rows {
        let inst = unroll_row(c, p, k);
        println!("{} {}", row_name(c, p, k), eager(&inst.netlist, inst.goal));
    }
    for track in BMC_TRACKS {
        for p in track.properties {
            for depth in 0..track.depths {
                let inst = unroll_row(track.circuit, p, depth + 1);
                let name = bmc_query_name(track.circuit, p, depth);
                println!("{name} {}", eager(&inst.netlist, inst.goal));
            }
        }
    }
    for (name, text, goal, _) in golden_requests() {
        let netlist = rtl_ir::text::parse(text).expect("the corpus parses");
        let goal = rtl_proof::resolve_goal(&netlist, &goal).expect("the goal exists");
        println!("{name} {}", eager(&netlist, goal));
    }
}
