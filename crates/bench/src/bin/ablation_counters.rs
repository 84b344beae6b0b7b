//! Ablation — RVMA NIC threshold-counter capacity.
//!
//! The paper (Sec. III-B): completion counters live on the NIC, one per
//! virtual address with an active buffer; "in cases where the NIC counters
//! are fully occupied, host memory can be used, albeit with a potentially
//! significant performance penalty" (~200 ns host-bus round trip today,
//! ~10 ns with PCIe Gen 6).
//!
//! Workload: an incast — 15 senders each stream 32 messages at one
//! receiver, so up to 15 messages are concurrently tracked. Sweeping the
//! counter capacity shows the spill penalty appearing as capacity drops
//! below the concurrency.

use rvma_bench::{print_table, write_csv};
use rvma_motifs::MOTIF_DONE_HIST;
use rvma_net::fabric::FabricConfig;
use rvma_net::router::RoutingKind;
use rvma_net::topology::star;
use rvma_nic::{build_cluster, HostLogic, NicConfig, Protocol, RecvInfo, TermApi};
use rvma_sim::{ParEngine, SimConfig, SimTime};

const SENDERS: u32 = 15;
const MSGS_PER_SENDER: usize = 32;
const MSG_BYTES: u64 = 8192;

struct IncastSender;
impl HostLogic for IncastSender {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        for _ in 0..MSGS_PER_SENDER {
            api.send(0, 0x1000, MSG_BYTES);
        }
        let now = api.now();
        api.record_time(MOTIF_DONE_HIST, now);
        api.count("motif.nodes_done");
    }
    fn on_recv(&mut self, _m: RecvInfo, _api: &mut TermApi<'_, '_>) {}
}

struct IncastReceiver {
    got: usize,
}
impl HostLogic for IncastReceiver {
    fn on_start(&mut self, _api: &mut TermApi<'_, '_>) {}
    fn on_recv(&mut self, _m: RecvInfo, api: &mut TermApi<'_, '_>) {
        self.got += 1;
        if self.got == SENDERS as usize * MSGS_PER_SENDER {
            let now = api.now();
            api.record("incast.done_us", now.as_us_f64());
        }
    }
}

fn run(capacity: Option<usize>) -> (f64, u64) {
    let spec = star(SENDERS + 1, RoutingKind::Adaptive);
    let ncfg = NicConfig {
        rvma_counter_capacity: capacity,
        ..Default::default()
    };
    let mut engine = ParEngine::new(11, SimConfig::default());
    build_cluster(
        &mut engine,
        &spec,
        &FabricConfig::at_gbps(100),
        ncfg,
        Protocol::Rvma,
        |n| {
            if n == 0 {
                Box::new(IncastReceiver { got: 0 }) as Box<dyn HostLogic>
            } else {
                Box::new(IncastSender) as Box<dyn HostLogic>
            }
        },
    );
    engine.run_to_completion();
    let done = engine
        .stats()
        .get_histogram("incast.done_us")
        .and_then(|h| h.max())
        .expect("incast completed");
    (done, engine.stats().counter_value("nic.counter_spills"))
}

fn main() {
    println!(
        "Ablation — RVMA counter capacity ({} senders x {} msgs of {} B incast)\n",
        SENDERS, MSGS_PER_SENDER, MSG_BYTES
    );
    let headers = ["capacity", "incast-finish(us)", "spilled-completions"];
    let mut rows = Vec::new();
    for cap in [None, Some(64usize), Some(16), Some(8), Some(4), Some(0)] {
        let (done, spills) = run(cap);
        rows.push(vec![
            cap.map_or("unbounded".to_string(), |c| c.to_string()),
            format!("{done:.1}"),
            spills.to_string(),
        ]);
    }
    print_table(&headers, &rows);
    println!(
        "\n(penalty per spilled completion: one host-bus round trip = {})",
        SimTime::from_ns(300)
    );
    match write_csv("ablation_counters", &headers, &rows) {
        Ok(p) => println!("csv: {p}"),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
