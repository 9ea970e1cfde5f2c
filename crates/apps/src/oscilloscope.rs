//! Case study I substrate: the `Oscilloscope`-style single-hop data
//! collection application with the paper's Figure-2 data-pollution race.
//!
//! A hardware timer requests a sensor reading every `D` ms; the ADC
//! data-ready handler stores it into `packet->data[dataItem++]` and, after
//! every third reading, posts a task that transmits the three readings.
//! The race: if the send task is delayed past the next ADC interrupt (here
//! by a housekeeping task of data-dependent length clogging the FIFO
//! queue), the fourth reading overwrites `packet->data[0]` before the
//! packet leaves — silent data pollution, no crash, values still sane.
//!
//! The *fixed* variant snapshots the three readings into a separate send
//! buffer at posting time, which closes the race.

use crate::experiments::CYCLES_PER_SECOND;
use sentomist_core::supervise::{RunContext, RunFailure};
use sentomist_trace::{Recorder, Trace};
use std::sync::Arc;
use tinyvm::asm::AsmError;
use tinyvm::devices::NodeConfig;
use tinyvm::node::Node;
use tinyvm::Program;

/// Marker word the application writes to the UART before logging the three
/// words of each transmitted packet (chosen to be outside the sensor
/// range, so readings can never alias it).
pub const PACKET_MARKER: u16 = 0xBEEF;

/// Workload parameters for one Oscilloscope run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OscilloscopeParams {
    /// Sampling period `D` in milliseconds (the paper sweeps 20..100).
    pub sample_period_ms: u32,
    /// Housekeeping timer period in milliseconds.
    pub hk_period_ms: u32,
    /// Busy-loop iterations of a common (short) housekeeping run.
    pub hk_short_iters: u16,
    /// Iterations of an occasional long run (~25 ms at 1 MHz).
    pub hk_long_iters: u16,
    /// Iterations of a rare very long run (~65 ms at 1 MHz).
    pub hk_very_long_iters: u16,
}

impl Default for OscilloscopeParams {
    fn default() -> Self {
        OscilloscopeParams {
            sample_period_ms: 20,
            hk_period_ms: 33,
            hk_short_iters: 700,
            hk_long_iters: 8_400,
            hk_very_long_iters: 21_700,
        }
    }
}

impl OscilloscopeParams {
    /// Parameters for a given sampling period, other knobs default.
    pub fn with_period_ms(sample_period_ms: u32) -> OscilloscopeParams {
        OscilloscopeParams {
            sample_period_ms,
            ..OscilloscopeParams::default()
        }
    }

    fn period_ticks(ms: u32) -> u32 {
        // 1 tick = 256 cycles = 0.256 ms at the 1 MHz default clock.
        ms * 1_000 / tinyvm::isa::port::TIMER_TICK_CYCLES as u32
    }
}

fn source(params: &OscilloscopeParams, buggy: bool) -> String {
    let period = OscilloscopeParams::period_ticks(params.sample_period_ms);
    let hk_period = OscilloscopeParams::period_ticks(params.hk_period_ms);
    let OscilloscopeParams {
        hk_short_iters,
        hk_long_iters,
        hk_very_long_iters,
        ..
    } = *params;
    // The buggy readDone stores into the live packet buffer; the fixed one
    // additionally snapshots the triple into sendbuf when posting, and the
    // send task reads the snapshot.
    let (store_target, send_source, send_epilogue) = if buggy {
        ("", "packet", "")
    } else {
        (
            "\
 lda r4, send_pending
 cmpi r4, 0
 brne rd_done          ; previous packet still queued: apply backpressure
 lda r4, packet
 sta sendbuf, r4
 lda r4, packet+1
 sta sendbuf+1, r4
 lda r4, packet+2
 sta sendbuf+2, r4
 ldi r4, 1
 sta send_pending, r4
",
            "sendbuf",
            "\
 ldi r4, 0
 sta send_pending, r4
",
        )
    };
    format!(
        "\
; Oscilloscope: single-hop data collection (paper Figure 2{variant})
.const PERIOD {period}
.const HK_PERIOD {hk_period}
.data packet 3
.data sendbuf 3
.data send_pending 1
.data dataItem 1
.data seq 1
.task send_task
.task hk_task
.handler TIMER0 on_sample_timer
.handler TIMER1 on_hk_timer
.handler ADC on_read_done

main:
 ldi r1, PERIOD
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ldi r1, HK_PERIOD
 out TIMER1_PERIOD, r1
 ldi r1, 1
 out TIMER1_CTRL, r1
 ret

on_sample_timer:
 ldi r1, 1
 out ADC_CTRL, r1
 reti

; ADC data-ready event: Read.readDone of the paper's Figure 2.
on_read_done:
 in r1, ADC_DATA
 out UART_OUT, r1
 lda r2, dataItem
 ldi r3, packet
 add r3, r2
 st [r3], r1
 addi r2, 1
 sta dataItem, r2
 cmpi r2, 3
 brne rd_done
 ldi r2, 0
 sta dataItem, r2
{store_target} post send_task
rd_done:
 reti

; Deferred packet transmission (prepareAndSendPacket).
send_task:
 ldi r9, {marker}
 out UART_OUT, r9
 lda r1, {send_source}
 out RADIO_TX_PUSH, r1
 out UART_OUT, r1
 lda r1, {send_source}+1
 out RADIO_TX_PUSH, r1
 out UART_OUT, r1
 lda r1, {send_source}+2
 out RADIO_TX_PUSH, r1
 out UART_OUT, r1
 lda r1, seq
 out RADIO_TX_PUSH, r1
 addi r1, 1
 sta seq, r1
 ldi r2, 0xFFFF
 out RADIO_SEND, r2
{send_epilogue} ret

on_hk_timer:
 post hk_task
 reti

; Housekeeping of data-dependent length: usually short, occasionally long
; enough to delay the queued send task past the next ADC interrupt.
hk_task:
 in r1, RAND
 ldi r2, 15
 and r1, r2
 cmpi r1, 0
 breq hk_maybe_long
 ldi r3, {hk_short_iters}
 jmp hk_loop
hk_maybe_long:
 in r1, RAND
 ldi r2, 3
 and r1, r2
 cmpi r1, 0
 breq hk_very_long
 ldi r3, {hk_long_iters}
 jmp hk_loop
hk_very_long:
 ldi r3, {hk_very_long_iters}
hk_loop:
 subi r3, 1
 brne hk_loop
 ret
",
        variant = if buggy { "" } else { ", fixed" },
        marker = PACKET_MARKER,
    )
}

/// Assembles the buggy Oscilloscope application.
///
/// # Errors
///
/// Returns [`AsmError`] only if the template is corrupted (covered by
/// tests; practically infallible).
pub fn buggy(params: &OscilloscopeParams) -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(&source(params, true)).map(Arc::new)
}

/// Assembles the race-free variant (send buffer snapshotted at post time).
///
/// # Errors
///
/// See [`buggy`].
pub fn fixed(params: &OscilloscopeParams) -> Result<Arc<Program>, AsmError> {
    tinyvm::assemble(&source(params, false)).map(Arc::new)
}

/// Cycles emulated between supervisor checks in [`record`]. Small enough
/// that a watchdog cancellation or cycle-budget exhaustion is honored
/// promptly, large enough that the checks cost nothing against real
/// emulation work.
const SLICE_CYCLES: u64 = 1_000_000;

/// Records one node running `program` for `run_seconds` simulated
/// seconds — the one emulation entry point of case study I: its sampling
/// periods, the trigger job, the fidelity study (via
/// [`NodeConfig::timing`]) and the hunt's scenarios (via
/// [`NodeConfig::adc`]). Returns the trace and the node, whose UART log
/// carries the packet oracle.
///
/// The emulation advances in `SLICE_CYCLES` slices. With a `ctx`, the
/// [`RunContext`] is checked between slices, so a watchdog cancellation
/// stops a runaway run mid-flight and its cycle budget caps how long the
/// run may emulate. Slicing does not change the machine state: the trace
/// is bit-identical to a single `Node::run` call.
///
/// # Errors
///
/// Machine faults are deterministic for a given seed, so they are
/// [`RunFailure::Fatal`] (retrying cannot help); budget and cancellation
/// stops are [`RunFailure::TimedOut`].
pub fn record(
    program: &Arc<Program>,
    config: NodeConfig,
    run_seconds: u64,
    ctx: Option<&RunContext>,
) -> Result<(Trace, Node), RunFailure> {
    let limit = run_seconds * CYCLES_PER_SECOND;
    let cap = ctx
        .and_then(RunContext::cycle_budget)
        .unwrap_or(u64::MAX)
        .min(limit);
    let mut node = Node::new(Arc::clone(program), config);
    let mut recorder = Recorder::new(program.len());
    loop {
        if ctx.is_some_and(RunContext::cancelled) {
            return Err(RunFailure::TimedOut(format!(
                "cancelled by the watchdog at cycle {}",
                node.cycle()
            )));
        }
        let next = node.cycle().saturating_add(SLICE_CYCLES).min(cap);
        node.advance(next, &mut recorder)
            .map_err(|e| RunFailure::Fatal(e.to_string()))?;
        if node.cycle() >= cap || node.halted() {
            break;
        }
    }
    if cap < limit && !node.halted() {
        return Err(RunFailure::TimedOut(format!(
            "cycle budget {cap} exhausted before the {limit}-cycle run finished"
        )));
    }
    node.finish(&mut recorder);
    Ok((recorder.into_trace(), node))
}

/// A packet reconstructed from the node's UART log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedPacket {
    /// The three data words actually transmitted.
    pub sent: [u16; 3],
    /// The three readings that *should* have been transmitted (the k-th
    /// consecutive triple of the reading stream).
    pub expected: [u16; 3],
}

impl LoggedPacket {
    /// Whether the transmitted packet differs from the sensed triple.
    pub fn polluted(&self) -> bool {
        self.sent != self.expected
    }
}

/// Parses the UART stream into readings and packets and pairs each packet
/// with its expected triple — the external, data-level pollution oracle.
pub fn parse_uart(uart: &[u16]) -> Vec<LoggedPacket> {
    let mut readings: Vec<u16> = Vec::new();
    let mut packets = Vec::new();
    let mut i = 0;
    while i < uart.len() {
        if uart[i] == PACKET_MARKER && i + 3 < uart.len() {
            let sent = [uart[i + 1], uart[i + 2], uart[i + 3]];
            let k = packets.len();
            if readings.len() >= 3 * (k + 1) {
                let expected = [readings[3 * k], readings[3 * k + 1], readings[3 * k + 2]];
                packets.push(LoggedPacket { sent, expected });
            }
            i += 4;
        } else {
            readings.push(uart[i]);
            i += 1;
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyvm::NullSink;

    #[test]
    fn both_variants_assemble() {
        for p in [20, 40, 60, 80, 100] {
            let params = OscilloscopeParams::with_period_ms(p);
            buggy(&params).unwrap();
            fixed(&params).unwrap();
        }
    }

    #[test]
    fn fixed_variant_never_sends_torn_packets() {
        // Under heavy delay the fixed app may *skip* a triple
        // (backpressure), so positional pairing is not meaningful; the
        // correctness property is that every transmitted triple is a
        // consecutive window of the reading stream — never a mix of old
        // and new readings.
        let params = OscilloscopeParams::with_period_ms(20);
        let program = fixed(&params).unwrap();
        for seed in [11u64, 12, 13] {
            let mut node = Node::new(
                program.clone(),
                NodeConfig {
                    seed,
                    ..NodeConfig::default()
                },
            );
            node.run(10_000_000, &mut NullSink).unwrap();
            let (readings, sent) = split_uart(node.uart());
            assert!(sent.len() > 100, "got {} packets", sent.len());
            for triple in &sent {
                assert!(
                    readings.windows(3).any(|w| w == triple),
                    "torn packet {triple:?} (seed {seed})"
                );
            }
        }
    }

    /// Splits a UART stream into the reading log and the sent triples.
    fn split_uart(uart: &[u16]) -> (Vec<u16>, Vec<[u16; 3]>) {
        let mut readings = Vec::new();
        let mut sent = Vec::new();
        let mut i = 0;
        while i < uart.len() {
            if uart[i] == PACKET_MARKER && i + 3 < uart.len() {
                sent.push([uart[i + 1], uart[i + 2], uart[i + 3]]);
                i += 4;
            } else {
                readings.push(uart[i]);
                i += 1;
            }
        }
        (readings, sent)
    }

    #[test]
    fn buggy_variant_pollutes_occasionally() {
        let params = OscilloscopeParams::with_period_ms(20);
        let program = buggy(&params).unwrap();
        let mut total = 0usize;
        let mut polluted = 0usize;
        for seed in 0..4u64 {
            let mut node = Node::new(
                program.clone(),
                NodeConfig {
                    seed,
                    ..NodeConfig::default()
                },
            );
            node.run(10_000_000, &mut NullSink).unwrap();
            let packets = parse_uart(node.uart());
            total += packets.len();
            polluted += packets.iter().filter(|p| p.polluted()).count();
        }
        assert!(total > 500);
        assert!(polluted > 0, "the race never triggered in 4 runs");
        assert!(
            polluted * 20 < total,
            "pollution should be transient, got {polluted}/{total}"
        );
    }

    #[test]
    fn pollution_keeps_values_in_sensor_range() {
        // The paper stresses that polluted data are "not senseless": a
        // sanity check cannot catch them.
        let params = OscilloscopeParams::with_period_ms(20);
        let program = buggy(&params).unwrap();
        let mut node = Node::new(
            program,
            NodeConfig {
                seed: 2,
                ..NodeConfig::default()
            },
        );
        node.run(10_000_000, &mut NullSink).unwrap();
        for p in parse_uart(node.uart()) {
            for w in p.sent {
                assert!((100..200).contains(&w), "sent word {w} out of range");
            }
        }
    }

    #[test]
    fn parse_uart_reconstructs_triples() {
        let uart = [
            101,
            102,
            103,
            PACKET_MARKER,
            101,
            102,
            103, // clean packet
            104,
            105,
            106,
            107,
            PACKET_MARKER,
            107,
            105,
            106, // polluted
        ];
        let packets = parse_uart(&uart);
        assert_eq!(packets.len(), 2);
        assert!(!packets[0].polluted());
        assert!(packets[1].polluted());
        assert_eq!(packets[1].expected, [104, 105, 106]);
        assert_eq!(packets[1].sent, [107, 105, 106]);
    }
}
