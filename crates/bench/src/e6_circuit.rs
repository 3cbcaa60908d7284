//! E6 — depth of hand-built circuits: the mod-2^k `V ⊎ ΔV` adder against
//! hand-built re-evaluation circuits.
//!
//! The refresh circuit (`V ⊎ ΔV` on the mod-2^k bit representation of
//! shredded views) must have depth and per-output input-support independent
//! of the domain size — the defining property of an NC⁰ family. The
//! re-evaluation circuit for `flatten` must not: its outputs sum
//! multiplicities from across the input, forcing `Θ(log n)` depth with
//! bounded fan-in (constant depth would need TC⁰'s unbounded-fan-in
//! majority gates).
//!
//! No query's derived delta enters either circuit. The adder is only the
//! last step of Theorem 9's claim, that the shredded delta of a query is
//! computable in NC⁰; that claim is not checked here and stays open (see
//! `ROADMAP.md`).

use crate::report::Table;
use nrc_circuit::{flatten_circuit, refresh_circuit, BagLayout};

/// Domain sizes swept.
pub fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 8, 16]
    } else {
        vec![4, 8, 16, 32, 64, 128]
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let k = 4;
    let mut t = Table::new(
        "E6",
        "hand-built circuits: NC⁰ `V ⊎ ΔV` adder vs non-NC⁰ re-evaluation \
         (k = 4 bits/multiplicity; no query delta, so not Thm. 9)",
        &[
            "domain n",
            "refresh depth",
            "refresh support",
            "flatten depth",
            "flatten support",
            "refresh gates/slot",
        ],
    );
    let mut refresh_depths = vec![];
    let mut flatten_depths = vec![];
    for n in sizes(quick) {
        let layout = BagLayout::int_domain(n, k);
        let refresh = refresh_circuit(&layout);
        // flatten over n inner bags on a small element domain.
        let elem = BagLayout::int_domain(4, k);
        let flat = flatten_circuit(&elem, n);
        refresh_depths.push(refresh.depth());
        flatten_depths.push(flat.depth());
        t.row(vec![
            n.to_string(),
            refresh.depth().to_string(),
            refresh.max_output_support().to_string(),
            flat.depth().to_string(),
            flat.max_output_support().to_string(),
            format!("{:.1}", refresh.gate_count() as f64 / layout.slots() as f64),
        ]);
    }
    let refresh_const = refresh_depths.windows(2).all(|w| w[0] == w[1]);
    let flatten_grows = flatten_depths.windows(2).all(|w| w[1] > w[0]);
    t.note(format!(
        "refresh depth constant across domain sizes: {refresh_const} (NC⁰); flatten depth strictly \
         growing: {flatten_grows} (Θ(log n) with fan-in 2 — TC⁰ counting power needed for constant depth)"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separation_shape_holds() {
        let t = run(true);
        // Column 1 (refresh depth) constant, column 3 (flatten depth)
        // strictly increasing.
        let rd: Vec<&String> = t.rows.iter().map(|r| &r[1]).collect();
        assert!(
            rd.windows(2).all(|w| w[0] == w[1]),
            "refresh depth varies: {rd:?}"
        );
        let fd: Vec<usize> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(
            fd.windows(2).all(|w| w[1] > w[0]),
            "flatten depth flat: {fd:?}"
        );
    }

    #[test]
    fn refresh_support_is_constant_2k() {
        let t = run(true);
        for r in &t.rows {
            assert_eq!(r[2], "8"); // 2k with k = 4
        }
    }
}
