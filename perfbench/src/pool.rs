//! The instances each workload draws from. The seed orders them; it
//! never changes which instances a pass holds, so every seed asks for
//! the same work and the figures of two seeds compare.

use rtl_ir::{Netlist, SignalId};
use rtl_itc99::cases::Circuit;

/// The pinned reference verdicts of every instance below.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// One solve input: a combinational netlist and the goal to assert.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The name its reference verdict is pinned under.
    pub name: String,
    /// The netlist.
    pub netlist: Netlist,
    /// The Boolean goal signal.
    pub goal: SignalId,
}

/// `b13_8(50)`: property 8 of b13 unrolled for 50 frames, the paper's
/// row notation.
#[must_use]
pub fn row_name(circuit: Circuit, property: &str, frames: usize) -> String {
    format!("{}_{}({frames})", circuit.name(), &property[1..])
}

/// Unrolls one paper-style row.
///
/// # Panics
///
/// Panics if the circuit has no such property (a bug in the tables
/// below).
#[must_use]
pub fn unroll_row(circuit: Circuit, property: &str, frames: usize) -> Instance {
    let bmc = circuit
        .build()
        .unroll(property, frames)
        .expect("the pool names existing properties");
    Instance {
        name: row_name(circuit, property, frames),
        netlist: bmc.netlist,
        goal: bmc.bad,
    }
}

/// `search_oneshot`: rows that search. b04_1 at 4–9 frames is SAT and
/// spends its time in conflict analysis; b13_8 at 20–36 frames is UNSAT
/// (uncertified) and spends it in proof logging. A pass takes about
/// 2 s, so a run asks every row often enough that its percentiles keep
/// well under half of each row's asks.
#[must_use]
pub fn oneshot_rows() -> Vec<(Circuit, &'static str, usize)> {
    let mut rows: Vec<_> = (4..=9).map(|k| (Circuit::B04, "p1", k)).collect();
    rows.extend((20..=36).step_by(2).map(|k| (Circuit::B13, "p8", k)));
    rows
}

/// One incremental BMC track: a circuit deepened one frame at a time in
/// its own session, with each property queried at every depth.
#[derive(Clone, Copy, Debug)]
pub struct Track {
    /// The circuit.
    pub circuit: Circuit,
    /// Properties queried at each depth, in this order.
    pub properties: &'static [&'static str],
    /// Depths 0..depths are queried.
    pub depths: usize,
}

/// `bmc_incremental`: the b13 safety properties and b02 to 40 frames,
/// b13 p8 (which searches from depth 12, 0.3–0.5 s per depth) to 14,
/// and b01/b04 up to their first SAT depth. A pass stays near 1.5 s,
/// so a run asks every query often enough to keep only its fastest
/// ask. p8 has a track of its own: in a shared session its learned
/// state slows every later b13 query a hundredfold.
pub const BMC_TRACKS: [Track; 5] = [
    Track {
        circuit: Circuit::B13,
        properties: &["p1", "p2", "p3", "p5"],
        depths: 40,
    },
    Track {
        circuit: Circuit::B13,
        properties: &["p8"],
        depths: 14,
    },
    Track {
        circuit: Circuit::B02,
        properties: &["p1"],
        depths: 40,
    },
    Track {
        circuit: Circuit::B01,
        properties: &["p1"],
        depths: 6,
    },
    Track {
        circuit: Circuit::B04,
        properties: &["p1"],
        depths: 3,
    },
];

/// `b13_1@12`: the session query "is property 1 of b13 violated exactly
/// at depth 12 (frame 13)". Its reference is that of `b13_1(13)`.
#[must_use]
pub fn bmc_query_name(circuit: Circuit, property: &str, depth: usize) -> String {
    format!("{}_{}@{depth}", circuit.name(), &property[1..])
}

/// `serve_inline`: small unrollings each decided with at most two
/// conflicts, from 3 KB to 100 KB of netlist text. The b13 rows at 4–6
/// frames (about 10 ms each) put the median request in a cluster of
/// like ones rather than on the step between the sub-millisecond golden
/// requests and the rest.
#[must_use]
pub fn serve_rows() -> Vec<(Circuit, &'static str, usize)> {
    let mut rows: Vec<_> = [4, 8, 10, 12, 16, 20]
        .into_iter()
        .map(|k| (Circuit::B01, "p1", k))
        .collect();
    rows.extend(
        [4, 10, 12, 16, 20]
            .into_iter()
            .map(|k| (Circuit::B02, "p1", k)),
    );
    rows.extend([2, 3].into_iter().map(|k| (Circuit::B04, "p1", k)));
    for p in ["p1", "p2", "p3", "p5"] {
        rows.extend(
            [4, 5, 6, 10, 15, 20]
                .into_iter()
                .map(|k| (Circuit::B13, p, k)),
        );
    }
    rows.push((Circuit::B13, "p8", 5));
    rows
}

/// The frozen golden corpus: file name and text.
const CORPUS: [(&str, &str); 20] = [
    (
        "adder_even_unsat.rtl",
        include_str!("../corpus/adder_even_unsat.rtl"),
    ),
    ("adder_sat.rtl", include_str!("../corpus/adder_sat.rtl")),
    ("adder_unsat.rtl", include_str!("../corpus/adder_unsat.rtl")),
    (
        "adder_wide_sat.rtl",
        include_str!("../corpus/adder_wide_sat.rtl"),
    ),
    ("b01_p1_20.rtl", include_str!("../corpus/b01_p1_20.rtl")),
    ("b02_p1_10.rtl", include_str!("../corpus/b02_p1_10.rtl")),
    (
        "cmp_cycle_unsat.rtl",
        include_str!("../corpus/cmp_cycle_unsat.rtl"),
    ),
    (
        "cmp_ladder_sat.rtl",
        include_str!("../corpus/cmp_ladder_sat.rtl"),
    ),
    (
        "cmp_ladder_unsat.rtl",
        include_str!("../corpus/cmp_ladder_unsat.rtl"),
    ),
    (
        "extract_unsat.rtl",
        include_str!("../corpus/extract_unsat.rtl"),
    ),
    (
        "ite_const_unsat.rtl",
        include_str!("../corpus/ite_const_unsat.rtl"),
    ),
    (
        "minmax_unsat.rtl",
        include_str!("../corpus/minmax_unsat.rtl"),
    ),
    ("multi_adder.rtl", include_str!("../corpus/multi_adder.rtl")),
    ("multi_mulc.rtl", include_str!("../corpus/multi_mulc.rtl")),
    ("multi_range.rtl", include_str!("../corpus/multi_range.rtl")),
    (
        "mux_chain_unsat.rtl",
        include_str!("../corpus/mux_chain_unsat.rtl"),
    ),
    (
        "mux_tree_sat.rtl",
        include_str!("../corpus/mux_tree_sat.rtl"),
    ),
    (
        "mux_tree_unsat.rtl",
        include_str!("../corpus/mux_tree_unsat.rtl"),
    ),
    (
        "parity_unsat.rtl",
        include_str!("../corpus/parity_unsat.rtl"),
    ),
    ("range_unsat.rtl", include_str!("../corpus/range_unsat.rtl")),
];

/// The corpus manifest, with the verdicts the test suite pins.
pub const MANIFEST: &str = include_str!("../corpus/MANIFEST");

/// One golden request: `(name, netlist text, goal, manifest verdict)`.
/// Multi-goal manifest lines give one request per goal.
#[must_use]
pub fn golden_requests() -> Vec<(String, &'static str, String, String)> {
    let mut out = Vec::new();
    for line in MANIFEST.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let file = parts.next().expect("a manifest line starts with a file");
        let text = CORPUS
            .iter()
            .find(|(f, _)| *f == file)
            .map(|(_, t)| *t)
            .expect("every manifest file is in the corpus");
        let rest: Vec<&str> = parts.collect();
        let goals: Vec<(&str, &str)> = if rest.iter().any(|p| p.contains('=')) {
            rest.iter()
                .map(|p| {
                    p.split_once('=')
                        .expect("multi-goal entries are goal=verdict")
                })
                .collect()
        } else {
            vec![(rest[0], rest[1])]
        };
        for (goal, verdict) in goals {
            out.push((
                format!("golden:{file}:{goal}"),
                text,
                goal.to_string(),
                verdict.to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Reference, Verdict};

    #[test]
    fn every_instance_has_a_reference_and_golden_ones_match_the_manifest() {
        let reference = Reference::parse(REFERENCE).unwrap();
        for (c, p, k) in oneshot_rows().into_iter().chain(serve_rows()) {
            reference.get(&row_name(c, p, k)).unwrap();
        }
        for track in BMC_TRACKS {
            for p in track.properties {
                for d in 0..track.depths {
                    reference.get(&bmc_query_name(track.circuit, p, d)).unwrap();
                }
            }
        }
        let golden = golden_requests();
        assert_eq!(golden.len(), 26);
        for (name, _, _, manifest) in golden {
            assert_eq!(
                Some(reference.get(&name).unwrap()),
                Verdict::parse(&manifest),
                "{name}"
            );
        }
    }

    #[test]
    fn references_of_paper_rows_match_the_paper() {
        use rtl_itc99::cases::{table1_cases, table2_cases, Expected};
        let reference = Reference::parse(REFERENCE).unwrap();
        let mut matched = 0;
        for case in table1_cases().into_iter().chain(table2_cases()) {
            if let Ok(v) = reference.get(&case.name()) {
                let paper = match case.expected {
                    Expected::Sat => Verdict::Sat,
                    Expected::Unsat => Verdict::Unsat,
                };
                assert_eq!(v, paper, "{}", case.name());
                matched += 1;
            }
        }
        assert!(matched >= 8, "only {matched} paper rows in the pools");
    }

    #[test]
    fn bmc_tracks_stop_at_the_first_sat_depth() {
        let reference = Reference::parse(REFERENCE).unwrap();
        for track in BMC_TRACKS {
            let first_sat = track.properties.iter().find_map(|p| {
                (0..track.depths).find(|&d| {
                    reference.get(&bmc_query_name(track.circuit, p, d)) == Ok(Verdict::Sat)
                })
            });
            if let Some(d) = first_sat {
                assert_eq!(d + 1, track.depths, "{}", track.circuit.name());
            }
        }
    }
}
