//! Ablation — lookup mechanism: RVMA's single-lookup table vs. a
//! Portals-style ordered wildcard match list (paper Secs. II / IV-A).
//!
//! The paper's argument: MPI-style matching "involves significantly more
//! complex message matching hardware than a known single lookup resolution
//! in RVMA". We quantify the software analogue: entries examined (and wall
//! time) per lookup as the posted-list depth grows, with the matching
//! entry placed at the list tail (the adversarial-but-common case of a
//! receiver servicing its oldest posts first).

use rvma_bench::matching::{MatchEntry, MatchList};
use rvma_bench::{print_table, write_csv};
use rvma_core::{NodeAddr, RvmaEndpoint, Threshold, VirtAddr};
use std::time::Instant;

fn lut_lookup_cost(entries: u64, lookups: u64) -> f64 {
    let ep = RvmaEndpoint::new(NodeAddr::node(0));
    let mut keep = Vec::new();
    for i in 0..entries {
        keep.push(
            ep.init_window(VirtAddr::new(i), Threshold::bytes(64))
                .expect("window"),
        );
    }
    let t0 = Instant::now();
    let mut found = 0u64;
    for k in 0..lookups {
        if ep.mailbox(VirtAddr::new(k % entries)).is_some() {
            found += 1;
        }
    }
    let dt = t0.elapsed();
    assert_eq!(found, lookups);
    dt.as_nanos() as f64 / lookups as f64
}

fn matchlist_lookup_cost(entries: u64, lookups: u64) -> (f64, f64) {
    // Re-fill and resolve the tail entry each round (entries are use-once).
    let mut total_ns = 0.0;
    let mut list = MatchList::new();
    let rounds = lookups.min(256);
    for _ in 0..rounds {
        for i in 0..entries {
            list.post(MatchEntry {
                source: Some(NodeAddr::node(1)),
                match_bits: i,
                ignore_bits: 0,
                buffer_id: i,
            });
        }
        let t0 = Instant::now();
        let hit = list.resolve(NodeAddr::node(1), entries - 1);
        total_ns += t0.elapsed().as_nanos() as f64;
        assert!(hit.is_some());
        // Drain the rest so the next round starts clean.
        while list.resolve(NodeAddr::node(1), u64::MAX).is_some() {}
        list = MatchList::new();
    }
    (total_ns / rounds as f64, entries as f64)
}

fn main() {
    println!("Ablation — single-lookup LUT vs Portals-style ordered matching\n");
    let headers = [
        "posted entries",
        "LUT ns/lookup",
        "matchlist ns/lookup",
        "entries scanned",
    ];
    let mut rows = Vec::new();
    for entries in [16u64, 64, 256, 1024, 4096] {
        let lut = lut_lookup_cost(entries, 100_000);
        let (ml, scanned) = matchlist_lookup_cost(entries, 100_000);
        rows.push(vec![
            entries.to_string(),
            format!("{lut:.1}"),
            format!("{ml:.1}"),
            format!("{scanned:.0}"),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\nLUT cost is flat (hash lookup); match-list cost grows linearly with\n\
         posted depth — the hardware-complexity contrast of paper Sec. IV-A."
    );
    match write_csv("ablation_lookup", &headers, &rows) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
