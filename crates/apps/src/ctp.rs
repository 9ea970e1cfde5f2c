//! Case study III substrate: tree data collection (CTP-style) co-existing
//! with a heartbeat protocol, with the unhandled-send-failure hang.
//!
//! Nine nodes form a binary tree rooted at node 0. Source nodes report a
//! sensor reading toward the root during a random "event of interest"
//! window, driven by a report timer; every node also broadcasts a
//! heartbeat beacon each 500 ms, driven by a second timer. Both protocols
//! share the single radio chip.
//!
//! The bug, as in the paper (and the real `tinyos-devel` thread it cites):
//! the collection protocol assumes it is the only radio client, marks its
//! link busy *before* asking the chip to transmit, and does not handle the
//! `FAIL` status returned when the chip is already occupied by a heartbeat
//! transmission — the busy mark is never cleared, no retry is scheduled,
//! and the node's collection path silently hangs for the rest of the run.
//!
//! The *fixed* variant clears the busy mark on failure so the next timer
//! tick retries.

use crate::experiments::record_sim;
use sentomist_trace::Trace;
use std::error::Error;
use std::sync::Arc;
use tinyvm::asm::AsmError;
use tinyvm::devices::NodeConfig;
use tinyvm::Program;

/// Number of nodes in the experiment.
pub const NODE_COUNT: u16 = 9;

/// The collection root.
pub const ROOT: u16 = 0;

/// The four reporting (source) nodes — leaves of the tree, so their data
/// travels multiple hops.
pub const SOURCES: [u16; 4] = [4, 5, 7, 8];

/// Parent of a node in the binary collection tree.
pub fn parent_of(node: u16) -> u16 {
    if node == 0 {
        0
    } else {
        (node - 1) / 2
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtpParams {
    /// Heartbeat period in timer ticks (1953 ≈ 500 ms).
    pub hb_period_ticks: u16,
    /// Base report period in ticks; each node adds `rand & 127`.
    pub report_base_ticks: u16,
    /// Heartbeat padding words (beacon airtime ≈ `2 + pad` words).
    pub hb_pad_words: u16,
}

impl Default for CtpParams {
    fn default() -> Self {
        CtpParams {
            hb_period_ticks: 1953,   // 500 ms
            report_base_ticks: 2300, // ~589 ms + per-node jitter
            hb_pad_words: 22,
        }
    }
}

fn source(params: &CtpParams, buggy: bool) -> String {
    let CtpParams {
        hb_period_ticks,
        report_base_ticks,
        hb_pad_words,
    } = *params;
    let fail_handling = if buggy {
        "\
ctp_fail:
; BUG (unhandled failure): the chip was busy — here transmitting a
; heartbeat — and rejected the send. CTP assumes it is the sole radio
; client and never checks for this: ctp_busy stays set forever, no retry
; is scheduled, and this node's collection protocol hangs.
 lda r12, fails
 addi r12, 1
 sta fails, r12
 ret"
    } else {
        "\
ctp_fail:
; FIXED: clear the busy mark so the next report-timer tick retries.
 lda r12, fails
 addi r12, 1
 sta fails, r12
 ldi r12, 0
 sta ctp_busy, r12
 ret"
    };
    format!(
        "\
; CTP-style collection + heartbeat protocol sharing one radio chip.
.const HB_PERIOD {hb_period_ticks}
.data rpt_start 1
.data rpt_end 1
.data fire_cnt 1
.data ctp_busy 1
.data hb_busy 1
.data tx_owner 1
.data fails 1
.data seq 1
.data fwd_buf 3
.data hb_seen 1
.data is_source 1
.data parent 1
.task ctp_task
.task hb_task
.task fwd_task
.handler TIMER0 on_report_timer
.handler TIMER1 on_hb_timer
.handler RX on_rx
.handler TXDONE on_txdone

main:
 in r1, NODE_ID
 cmpi r1, 0
 breq parent_done
 mov r2, r1
 subi r2, 1
 shr r2, 1
 sta parent, r2
parent_done:
 ldi r3, 0
 cmpi r1, 4
 breq src_yes
 cmpi r1, 5
 breq src_yes
 cmpi r1, 7
 breq src_yes
 cmpi r1, 8
 breq src_yes
 jmp src_done
src_yes:
 ldi r3, 1
src_done:
 sta is_source, r3
 in r4, RAND
 ldi r5, 7
 and r4, r5
 sta rpt_start, r4
 in r6, RAND
 ldi r5, 7
 and r6, r5
 addi r6, 10
 add r6, r4
 sta rpt_end, r6
 in r7, RAND
 ldi r5, 127
 and r7, r5
 addi r7, {report_base_ticks}
 out TIMER0_PERIOD, r7
 ldi r5, 1
 out TIMER0_CTRL, r5
 ldi r7, HB_PERIOD
 out TIMER1_PERIOD, r7
 out TIMER1_CTRL, r5
 ret

on_report_timer:
 post ctp_task
 reti

on_hb_timer:
 post hb_task
 reti

; The analyzed event procedure: CTP's periodic report path.
ctp_task:
 lda r1, is_source
 cmpi r1, 0
 breq ctp_ret
 lda r1, fire_cnt
 mov r2, r1
 addi r2, 1
 sta fire_cnt, r2
 lda r3, rpt_start
 cmp r1, r3
 brltu ctp_ret
 lda r3, rpt_end
 cmp r1, r3
 brgeu ctp_ret
 lda r4, ctp_busy
 cmpi r4, 0
 brne ctp_ret
 ldi r5, 1
 out RADIO_TX_PUSH, r5
 in r6, NODE_ID
 out RADIO_TX_PUSH, r6
 lda r7, seq
 out RADIO_TX_PUSH, r7
 addi r7, 1
 sta seq, r7
 in r8, RAND
 out RADIO_TX_PUSH, r8
 ldi r4, 1
 sta ctp_busy, r4
 lda r9, parent
 out RADIO_SEND, r9
 in r10, RADIO_STATUS
 ldi r11, 2
 and r10, r11
 cmpi r10, 0
 breq ctp_ok
{fail_handling}
ctp_ok:
 ldi r10, 1
 sta tx_owner, r10
 ret
ctp_ret:
 ret

hb_task:
 lda r1, hb_busy
 cmpi r1, 0
 brne hb_ret
 ldi r2, 2
 out RADIO_TX_PUSH, r2
 in r3, NODE_ID
 out RADIO_TX_PUSH, r3
 ldi r4, {hb_pad_words}
hb_pad_loop:
 out RADIO_TX_PUSH, r4
 subi r4, 1
 brne hb_pad_loop
 ldi r5, 1
 sta hb_busy, r5
 ldi r6, 0xFFFF
 out RADIO_SEND, r6
 in r7, RADIO_STATUS
 ldi r8, 2
 and r7, r8
 cmpi r7, 0
 breq hb_ok
 ldi r5, 0
 sta hb_busy, r5
 ret
hb_ok:
 ldi r7, 2
 sta tx_owner, r7
 ret
hb_ret:
 ret

on_txdone:
 lda r1, tx_owner
 cmpi r1, 1
 brne txd_hb
 ldi r2, 0
 sta ctp_busy, r2
 jmp txd_done
txd_hb:
 cmpi r1, 2
 brne txd_done
 ldi r2, 0
 sta hb_busy, r2
txd_done:
 ldi r1, 0
 sta tx_owner, r1
 reti

on_rx:
 in r1, RADIO_RX_POP
 cmpi r1, 2
 breq rx_hb
 in r2, RADIO_RX_POP
 in r3, RADIO_RX_POP
 in r4, RADIO_RX_POP
 sta fwd_buf, r2
 sta fwd_buf+1, r3
 sta fwd_buf+2, r4
 in r5, NODE_ID
 cmpi r5, 0
 brne rx_relay
 out UART_OUT, r2
 out UART_OUT, r3
 reti
rx_relay:
 post fwd_task
 reti
rx_hb:
 in r2, RADIO_RX_POP
 out RADIO_RX_DROP, r0
 lda r3, hb_seen
 addi r3, 1
 sta hb_seen, r3
 reti

; Well-behaved forwarding toward the root (not the analyzed procedure;
; chip-busy losses here look like ordinary wireless losses).
fwd_task:
 in r1, RADIO_STATUS
 ldi r2, 1
 and r1, r2
 cmpi r1, 0
 brne fwd_skip
 ldi r3, 1
 out RADIO_TX_PUSH, r3
 lda r4, fwd_buf
 out RADIO_TX_PUSH, r4
 lda r4, fwd_buf+1
 out RADIO_TX_PUSH, r4
 lda r4, fwd_buf+2
 out RADIO_TX_PUSH, r4
 lda r5, parent
 out RADIO_SEND, r5
fwd_skip:
 ret
"
    )
}

/// Assembles the buggy collection node program.
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted.
pub fn buggy(params: &CtpParams) -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(&source(params, true)).map(Arc::new)
}

/// Assembles the fixed variant (clears the busy mark on send failure).
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted.
pub fn fixed(params: &CtpParams) -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(&source(params, false)).map(Arc::new)
}

/// Builds the 9-node tree topology.
///
/// # Errors
///
/// [`netsim::TopologyError`] only if the compile-time tree constants are
/// corrupted (an out-of-range or self-referential parent id).
pub fn topology() -> Result<netsim::Topology, netsim::TopologyError> {
    let mut topo = netsim::Topology::new(NODE_COUNT);
    for n in 1..NODE_COUNT {
        topo.connect(n, parent_of(n), netsim::LinkConfig::default())?;
    }
    Ok(topo)
}

/// Node configuration for each tree member.
pub fn node_config(id: u16, seed: u64) -> NodeConfig {
    NodeConfig {
        node_id: id,
        seed: seed.wrapping_add(id as u64 * 7919),
        ..NodeConfig::default()
    }
}

/// Records every node of the tree running `program` for `run_seconds`
/// simulated seconds: the one emulation entry point of case study III
/// and the hunt's CTP scenarios. Returns one trace per node, in id order.
///
/// # Errors
///
/// Topology and simulation errors.
pub fn record(
    program: &Arc<Program>,
    seed: u64,
    run_seconds: u64,
) -> Result<Vec<Trace>, Box<dyn Error>> {
    let mut sim = netsim::NetSim::new(topology()?, seed);
    for id in 0..NODE_COUNT {
        sim.add_node(Arc::clone(program), node_config(id, seed))?;
    }
    Ok(record_sim(sim, run_seconds)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NetSim;
    use tinyvm::NullSink;

    fn run_tree(program: Arc<Program>, seed: u64, cycles: u64) -> NetSim {
        let mut sim = NetSim::new(topology().expect("static tree topology"), seed);
        for id in 0..NODE_COUNT {
            sim.add_node(program.clone(), node_config(id, seed))
                .unwrap();
        }
        let mut sinks = vec![NullSink; NODE_COUNT as usize];
        sim.run(cycles, &mut sinks).unwrap();
        sim
    }

    fn fails_of(sim: &NetSim, id: u16) -> u16 {
        let node = sim.node(id);
        let addr = node.program().label("fails").unwrap();
        node.mem()[addr as usize]
    }

    fn seq_of(sim: &NetSim, id: u16) -> u16 {
        let node = sim.node(id);
        let addr = node.program().label("seq").unwrap();
        node.mem()[addr as usize]
    }

    #[test]
    fn programs_assemble() {
        buggy(&CtpParams::default()).unwrap();
        fixed(&CtpParams::default()).unwrap();
    }

    #[test]
    fn tree_topology_shape() {
        assert_eq!(parent_of(8), 3);
        assert_eq!(parent_of(3), 1);
        assert_eq!(parent_of(1), 0);
        let t = topology().expect("static tree topology");
        assert!(t.link(8, 3).is_some());
        assert!(t.link(8, 0).is_none());
    }

    #[test]
    fn data_reaches_the_root() {
        let sim = run_tree(buggy(&CtpParams::default()).unwrap(), 3, 15_000_000);
        let root_log = sim.node(ROOT).uart();
        assert!(
            root_log.len() >= 20,
            "root logged only {} words",
            root_log.len()
        );
        // Origins logged at even offsets must be source ids.
        for pair in root_log.chunks(2) {
            assert!(
                SOURCES.contains(&pair[0]),
                "origin {} not a source",
                pair[0]
            );
        }
    }

    #[test]
    fn contention_eventually_hangs_a_buggy_node() {
        let mut hang_seen = false;
        for seed in 0..6u64 {
            let sim = run_tree(buggy(&CtpParams::default()).unwrap(), seed, 15_000_000);
            for &s in &SOURCES {
                if fails_of(&sim, s) > 0 {
                    hang_seen = true;
                    // Hung: exactly one failure, then the busy mark blocks
                    // every later attempt.
                    assert_eq!(fails_of(&sim, s), 1, "node {s} kept retrying?");
                }
            }
        }
        assert!(hang_seen, "no contention hang in 6 seeds");
    }

    #[test]
    fn fixed_variant_retries_and_keeps_reporting() {
        for seed in 0..6u64 {
            let buggy_sim = run_tree(buggy(&CtpParams::default()).unwrap(), seed, 15_000_000);
            let fixed_sim = run_tree(fixed(&CtpParams::default()).unwrap(), seed, 15_000_000);
            for &s in &SOURCES {
                if fails_of(&buggy_sim, s) > 0 {
                    // Same seed, same contention; the fixed node must send
                    // at least as many reports as the hung one.
                    assert!(
                        seq_of(&fixed_sim, s) >= seq_of(&buggy_sim, s),
                        "node {s}: fixed sent fewer reports than buggy"
                    );
                }
            }
        }
    }
}
