//! Case study II substrate: multi-hop packet forwarding
//! (`BlinkToRadio`-style) with the busy-flag active-drop bug.
//!
//! A source node sends sequence-numbered packets to a relay with
//! randomized gaps (occasionally back-to-back); the relay's packet-arrival
//! event procedure forwards each packet to the sink. The bug, as in the
//! paper: instead of queueing while a previous transmission (RTS/CTS/data/
//! ACK exchange) is still in flight, the relay **actively drops** the
//! packet when its software busy flag is set. The drop is silent and looks
//! exactly like an ordinary wireless loss from the outside.
//!
//! The *fixed* relay holds one pending packet and transmits it from the
//! send-done handler, closing the loss window.

use crate::experiments::record_sim;
use netsim::{LinkConfig, NetSim, Topology};
use sentomist_trace::Trace;
use std::error::Error;
use std::sync::Arc;
use tinyvm::asm::AsmError;
use tinyvm::devices::{NodeConfig, RadioConfig};
use tinyvm::Program;

/// Node ids of the three-node chain.
pub mod nodes {
    /// The data sink.
    pub const SINK: u16 = 0;
    /// The intermediate (analyzed) relay.
    pub const RELAY: u16 = 1;
    /// The traffic source.
    pub const SOURCE: u16 = 2;
}

/// Workload parameters for the forwarding experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwarderParams {
    /// Base inter-send gap in timer ticks (~0.256 ms each).
    pub gap_base_ticks: u16,
    /// Mask for the uniform random extra gap (`rand & mask` ticks).
    pub gap_jitter_mask: u16,
    /// A back-to-back (quick) gap occurs when `rand & burst_mask == 0`.
    pub burst_mask: u16,
    /// The quick gap, in ticks (must undercut the relay's TX duration).
    pub quick_gap_ticks: u16,
}

impl Default for ForwarderParams {
    fn default() -> Self {
        ForwarderParams {
            gap_base_ticks: 250,  // 64 ms
            gap_jitter_mask: 255, // + 0..65 ms
            burst_mask: 63,       // ~1/64 of gaps are quick
            quick_gap_ticks: 24,  // 6.1 ms
        }
    }
}

/// Radio timing of the source: fast enough that a quick gap does not
/// overrun its own transmitter.
pub fn source_radio() -> RadioConfig {
    RadioConfig {
        overhead_cycles: 1_000,
        per_word_cycles: 200,
        handshake_cycles: 3_000,
    }
}

/// Radio timing of the relay: the full CSMA control exchange makes its
/// forward transmissions long enough for quick arrivals to find the busy
/// flag set.
pub fn relay_radio() -> RadioConfig {
    RadioConfig {
        overhead_cycles: 2_000,
        per_word_cycles: 500,
        handshake_cycles: 8_000,
    }
}

/// Node configuration for each chain member, with per-role radio timing.
pub fn node_config(id: u16, seed: u64) -> NodeConfig {
    let radio = match id {
        x if x == nodes::SOURCE => source_radio(),
        x if x == nodes::RELAY => relay_radio(),
        _ => RadioConfig::default(),
    };
    NodeConfig {
        node_id: id,
        seed,
        radio,
        ..NodeConfig::default()
    }
}

/// Assembles the traffic source.
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted.
pub fn source_program(params: &ForwarderParams) -> Result<Arc<Program>, AsmError> {
    let ForwarderParams {
        gap_base_ticks,
        gap_jitter_mask,
        burst_mask,
        quick_gap_ticks,
    } = *params;
    let relay = nodes::RELAY;
    let src = format!(
        "\
; Traffic source: randomized inter-send gaps, occasionally back-to-back.
.data seq 1
.handler TIMER0 on_gap
main:
 ldi r1, {gap_base_ticks}
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
on_gap:
 lda r1, seq
 out RADIO_TX_PUSH, r1
 addi r1, 1
 sta seq, r1
 ldi r2, {relay}
 out RADIO_SEND, r2
 in r3, RAND
 ldi r4, {burst_mask}
 and r3, r4
 cmpi r3, 0
 breq quick_gap
 in r3, RAND
 ldi r4, {gap_jitter_mask}
 and r3, r4
 addi r3, {gap_base_ticks}
 jmp arm_timer
quick_gap:
 ldi r3, {quick_gap_ticks}
arm_timer:
 out TIMER0_PERIOD, r3
 ldi r4, 1
 out TIMER0_CTRL, r4
 reti
"
    );
    tinyvm::assemble(&src).map(Arc::new)
}

fn relay_source(buggy: bool) -> String {
    let sink = nodes::SINK;
    if buggy {
        format!(
            "\
; Relay with the busy-flag active-drop bug (paper case study II).
.data buf 1
.data busy 1
.data drops 1
.task fwd_task
.handler RX on_rx
.handler TXDONE on_txdone
main:
 ret
on_rx:
 in r1, RADIO_RX_POP
 sta buf, r1
 post fwd_task
 reti
fwd_task:
 lda r1, busy
 cmpi r1, 0
 brne fwd_drop
 lda r1, buf
 out RADIO_TX_PUSH, r1
 ldi r2, {sink}
 out RADIO_SEND, r2
 ldi r1, 1
 sta busy, r1
 ret
fwd_drop:
; BUG: the protocol should queue the packet until the busy flag clears;
; instead it actively drops it (AMSend.send rejected, packet gone).
 lda r2, drops
 addi r2, 1
 sta drops, r2
 ret
on_txdone:
 ldi r1, 0
 sta busy, r1
 reti
"
        )
    } else {
        format!(
            "\
; Fixed relay: one-deep pending buffer drained from sendDone.
.data buf 1
.data busy 1
.data pending 1
.data pending_val 1
.data drops 1
.task fwd_task
.handler RX on_rx
.handler TXDONE on_txdone
main:
 ret
on_rx:
 in r1, RADIO_RX_POP
 sta buf, r1
 post fwd_task
 reti
fwd_task:
 lda r1, busy
 cmpi r1, 0
 brne fwd_defer
 lda r1, buf
 out RADIO_TX_PUSH, r1
 ldi r2, {sink}
 out RADIO_SEND, r2
 ldi r1, 1
 sta busy, r1
 ret
fwd_defer:
 lda r2, buf
 sta pending_val, r2
 ldi r2, 1
 sta pending, r2
 ret
on_txdone:
 lda r1, pending
 cmpi r1, 0
 breq txd_idle
 ldi r1, 0
 sta pending, r1
 lda r2, pending_val
 out RADIO_TX_PUSH, r2
 ldi r3, {sink}
 out RADIO_SEND, r3
 reti
txd_idle:
 ldi r1, 0
 sta busy, r1
 reti
"
        )
    }
}

/// Assembles the buggy relay.
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted.
pub fn relay_program_buggy() -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(&relay_source(true)).map(Arc::new)
}

/// Assembles the fixed relay (defers instead of dropping).
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted.
pub fn relay_program_fixed() -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(&relay_source(false)).map(Arc::new)
}

/// Assembles the sink, which logs every received word to its UART.
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted.
pub fn sink_program() -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(
        "\
.handler RX on_rx
main:
 ret
on_rx:
 in r1, RADIO_RX_POP
 out UART_OUT, r1
 reti
",
    )
    .map(Arc::new)
}

/// Records the three-node chain — sink, `relay`, and a source driven by
/// `params` — for `run_seconds` simulated seconds: the one emulation entry
/// point of case study II and the hunt's forwarder scenarios. `downlink`
/// joins sink and relay, `uplink` relay and source (case II passes its
/// lossy link twice); node seeds derive from `seed`. Returns the traces in
/// node-id order.
///
/// # Errors
///
/// Assembly, topology and simulation errors.
pub fn record_chain(
    relay: &Arc<Program>,
    params: &ForwarderParams,
    downlink: LinkConfig,
    uplink: LinkConfig,
    seed: u64,
    run_seconds: u64,
) -> Result<Vec<Trace>, Box<dyn Error>> {
    let mut sim = NetSim::new(Topology::chain_with(&[downlink, uplink])?, seed);
    sim.add_node(sink_program()?, node_config(nodes::SINK, seed))?;
    sim.add_node(
        Arc::clone(relay),
        node_config(nodes::RELAY, seed.wrapping_add(1)),
    )?;
    sim.add_node(
        source_program(params)?,
        node_config(nodes::SOURCE, seed.wrapping_add(2)),
    )?;
    Ok(record_sim(sim, run_seconds)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyvm::NullSink;

    fn chain() -> Topology {
        Topology::chain(3, LinkConfig::default()).unwrap()
    }

    fn run_chain(relay: Arc<Program>, seed: u64, cycles: u64) -> NetSim {
        let mut sim = NetSim::new(chain(), seed);
        sim.add_node(sink_program().unwrap(), node_config(nodes::SINK, seed))
            .unwrap();
        sim.add_node(relay, node_config(nodes::RELAY, seed + 1))
            .unwrap();
        sim.add_node(
            source_program(&ForwarderParams::default()).unwrap(),
            node_config(nodes::SOURCE, seed + 2),
        )
        .unwrap();
        let mut sinks = vec![NullSink, NullSink, NullSink];
        sim.run(cycles, &mut sinks).unwrap();
        sim
    }

    fn drops_of(sim: &NetSim) -> u16 {
        let node = sim.node(nodes::RELAY);
        let addr = node.program().label("drops").unwrap();
        node.mem()[addr as usize]
    }

    #[test]
    fn programs_assemble() {
        source_program(&ForwarderParams::default()).unwrap();
        relay_program_buggy().unwrap();
        relay_program_fixed().unwrap();
        sink_program().unwrap();
    }

    #[test]
    fn buggy_relay_drops_on_bursts() {
        let mut total_drops = 0u32;
        for seed in 0..3 {
            let sim = run_chain(relay_program_buggy().unwrap(), seed, 20_000_000);
            total_drops += u32::from(drops_of(&sim));
        }
        assert!(total_drops > 0, "the drop bug never triggered");
        assert!(total_drops < 60, "drops should be rare, got {total_drops}");
    }

    #[test]
    fn fixed_relay_forwards_everything() {
        let sim = run_chain(relay_program_fixed().unwrap(), 5, 20_000_000);
        assert_eq!(drops_of(&sim), 0);
        // Every packet the relay heard eventually reaches the sink
        // (except boundary stragglers at the horizon).
        let relay_heard = sim
            .deliveries()
            .iter()
            .filter(|d| d.to == nodes::RELAY && !d.dropped)
            .count();
        let sink_heard = sim.node(nodes::SINK).uart().len();
        assert!(
            sink_heard + 3 >= relay_heard,
            "sink got {sink_heard}, relay heard {relay_heard}"
        );
    }

    #[test]
    fn buggy_relay_loses_exactly_the_dropped_seqs() {
        let sim = run_chain(relay_program_buggy().unwrap(), 9, 20_000_000);
        let drops = drops_of(&sim) as usize;
        let relay_heard = sim
            .deliveries()
            .iter()
            .filter(|d| d.to == nodes::RELAY && !d.dropped)
            .count();
        let sink_heard = sim.node(nodes::SINK).uart().len();
        // heard = forwarded + dropped (± horizon stragglers).
        assert!(
            sink_heard + drops <= relay_heard && sink_heard + drops + 3 >= relay_heard,
            "heard {relay_heard}, forwarded {sink_heard}, dropped {drops}"
        );
    }

    #[test]
    fn traffic_volume_matches_paper_scale() {
        // ~195 packet arrivals at the relay in 20 simulated seconds.
        let sim = run_chain(relay_program_buggy().unwrap(), 1, 20_000_000);
        let relay_heard = sim
            .deliveries()
            .iter()
            .filter(|d| d.to == nodes::RELAY && !d.dropped)
            .count();
        assert!(
            (140..280).contains(&relay_heard),
            "got {relay_heard} arrivals"
        );
    }
}
