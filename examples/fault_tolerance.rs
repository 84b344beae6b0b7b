//! Fault-tolerant RDMA via multi-epoch rewind (paper Sec. IV-F).
//!
//! A timestep simulation receives one boundary buffer per step into an
//! RVMA mailbox. The mailbox's bucket retains retired buffers, so when a
//! "node failure" corrupts the computation at step 3, the application
//! rewinds communication to the last known-good epoch — the paper's
//! `MPIX_Rewind(MPI_Win)` sketch — and resumes from there. No sender
//! cooperation is needed; the buffers are already on the receiver.
//!
//! Run with: `cargo run --example fault_tolerance`

use rvma::core::api::{rvma_win_get_epoch, rvma_win_rewind};
use rvma::core::{FaultModel, LossyNetwork, NodeAddr, Threshold, VirtAddr, DEFAULT_MTU};

const STEP_BYTES: u64 = 256;

fn main() -> Result<(), rvma::core::RvmaError> {
    let net = LossyNetwork::new(DEFAULT_MTU, FaultModel::NONE, 0);
    let server = net.add_endpoint(NodeAddr::node(0));
    let peer = net.initiator(NodeAddr::node(1));
    let mailbox = VirtAddr::new(0x7157); // "TIST": timestep boundary data

    let win = server.init_window(mailbox, Threshold::bytes(STEP_BYTES))?;

    // Simulate 5 timesteps: the peer sends boundary data stamped with the
    // step number; the application folds it into its state.
    let mut state: u64 = 0;
    let mut checkpoints = vec![state];
    for step in 1..=5u8 {
        let mut note = win.post_buffer(vec![0u8; STEP_BYTES as usize])?;
        peer.put(NodeAddr::node(0), mailbox, &vec![step; STEP_BYTES as usize])?;
        let buf = note.wait();
        state += buf.data().iter().map(|&b| b as u64).sum::<u64>();
        checkpoints.push(state);
        println!(
            "step {step}: consumed epoch {}, state = {state}",
            buf.epoch()
        );
    }

    // Disaster: the node "fails" and loses the results of steps 4 and 5.
    println!("\n*** failure! local state lost — rolling back two steps ***\n");
    let lost_state = checkpoints[3];

    // Hardware rewind: retrieve the boundary buffers of the two previous
    // epochs straight from the NIC's retired list and replay them.
    let epoch_now = rvma_win_get_epoch(&win);
    let replay4 = rvma_win_rewind(&win, 2)?; // epoch 3 (step 4)
    let replay5 = rvma_win_rewind(&win, 1)?; // epoch 4 (step 5)
    println!(
        "rewind from epoch {epoch_now}: recovered buffers for epochs {} and {}",
        replay4.epoch(),
        replay5.epoch()
    );

    let mut recovered = lost_state;
    for buf in [&replay4, &replay5] {
        recovered += buf.data().iter().map(|&b| b as u64).sum::<u64>();
    }
    println!(
        "replayed state = {recovered}, original = {}",
        checkpoints[5]
    );
    assert_eq!(recovered, checkpoints[5]);

    // Rewinding past the retained ring is a clean error, not a surprise.
    match rvma_win_rewind(&win, 99) {
        Err(e) => println!("rewind(99) correctly refused: {e}"),
        Ok(_) => unreachable!(),
    }
    Ok(())
}
