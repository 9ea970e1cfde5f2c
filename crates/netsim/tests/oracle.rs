//! Oracle for the conservative scheduler: [`NetSim::run`] skips the steps
//! in which a parked node only moves its clock and leaps over whole
//! periods of them. This test keeps a copy of the plain lockstep loop —
//! every step advances the laggard node — and checks that both produce
//! the same lifecycle and segment streams per node, the same deliveries
//! (order and drop flags), the same final clocks and the same fault.

use netsim::{Delivery, LinkConfig, NetSim, SimError, Topology, MIN_LINK_LATENCY};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tinyvm::devices::{NodeConfig, TimingModel};
use tinyvm::node::Node;
use tinyvm::{LifecycleItem, Packet, Program, TraceSink, VmError};

/// Mirrors the simulator's slack and loss-stream seeding.
const LOOKAHEAD_SLACK: u64 = 16;
const LOSS_SEED_MIX: u64 = 0x5EED_CAFE;

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct VecSink {
    events: Vec<(u64, LifecycleItem)>,
    segments: Vec<Vec<u32>>,
}

impl TraceSink for VecSink {
    fn lifecycle(&mut self, cycle: u64, item: LifecycleItem) {
        self.events.push((cycle, item));
    }
    fn segment(&mut self, counts: &[u32]) {
        self.segments.push(counts.to_vec());
    }
}

/// How a node's beacon handler ends its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Beacon,
    /// Executes `halt` on its n-th beacon.
    Halts(u16),
    /// Reads an unmapped port on its n-th beacon.
    Faults(u16),
}

/// A node that beacons on TIMER0, relays what it hears from a task, and
/// starts an unvectored ADC conversion now and then (a pending line that
/// the dispatcher drops).
fn program(period_ticks: u16, dest: u16, work: u16, role: Role) -> Arc<Program> {
    let (stop_after, stop) = match role {
        Role::Beacon => (0, "nop"),
        Role::Halts(n) => (n, "halt"),
        Role::Faults(n) => (n, "in r1, 0x7F"),
    };
    let src = format!(
        "\
.handler TIMER0 beat
.handler RX on_rx
.task relay
.data fires 1
.data heard 1
main:
 ldi r1, {period_ticks}
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
beat:
 lda r2, fires
 addi r2, 1
 sta fires, r2
 cmpi r2, {stop_after}
 brne send
 {stop}
send:
 in r2, NODE_ID
 out RADIO_TX_PUSH, r2
 in r3, RAND
 out RADIO_TX_PUSH, r3
 ldi r3, {dest}
 out RADIO_SEND, r3
 reti
on_rx:
 in r1, RADIO_RX_POP
 lda r2, heard
 addi r2, 1
 sta heard, r2
 post relay
 reti
relay:
 ldi r4, {work}
spin:
 subi r4, 1
 brne spin
 lda r2, heard
 ldi r5, 3
 and r2, r5
 brne done
 ldi r1, 1
 out ADC_CTRL, r1
done:
 ret
"
    );
    Arc::new(tinyvm::assemble(&src).unwrap())
}

/// One randomized network: topology, programs and node configurations.
#[derive(Debug, Clone)]
struct Scenario {
    topology: Topology,
    nodes: Vec<(Arc<Program>, NodeConfig)>,
    seed: u64,
}

fn scenario(
    n: u16,
    timing: TimingModel,
    halter: Option<u16>,
    faulter: Option<u16>,
    seed: u64,
) -> Scenario {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let link = |rng: &mut ChaCha8Rng| LinkConfig {
        latency_cycles: rng.gen_range(MIN_LINK_LATENCY..=400),
        loss_prob: if rng.gen_range(0..3) == 0 {
            0.0
        } else {
            rng.gen_range(0.0..0.5)
        },
    };
    let mut topology = Topology::new(n);
    for b in 1..n {
        let a = rng.gen_range(0..b);
        topology.connect(a, b, link(&mut rng)).unwrap();
    }
    for _ in 0..rng.gen_range(0..n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            topology.connect(a, b, link(&mut rng)).unwrap();
        }
    }
    let nodes = (0..n)
        .map(|id| {
            let role = if Some(id) == halter {
                Role::Halts(rng.gen_range(1..6))
            } else if Some(id) == faulter {
                Role::Faults(rng.gen_range(2..8))
            } else {
                Role::Beacon
            };
            let dest = if rng.gen_range(0..2) == 0 {
                tinyvm::isa::port::BROADCAST
            } else {
                rng.gen_range(0..n)
            };
            let program = program(rng.gen_range(4..80), dest, rng.gen_range(1..300), role);
            let config = NodeConfig {
                node_id: id,
                seed: rng.gen(),
                timing,
                ..NodeConfig::default()
            };
            (program, config)
        })
        .collect();
    Scenario {
        topology,
        nodes,
        seed,
    }
}

/// Everything a run can be compared on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    result: Result<(), SimError>,
    sinks: Vec<VecSink>,
    deliveries: Vec<Delivery>,
    clocks: Vec<u64>,
    faults: Vec<Option<VmError>>,
    retired: Vec<u64>,
    uart: Vec<Vec<u16>>,
}

fn outcome(
    result: Result<(), SimError>,
    sinks: Vec<VecSink>,
    deliveries: Vec<Delivery>,
    nodes: &[&Node],
) -> Outcome {
    Outcome {
        result,
        sinks,
        deliveries,
        clocks: nodes.iter().map(|n| n.cycle()).collect(),
        faults: nodes.iter().map(|n| n.fault().cloned()).collect(),
        retired: nodes.iter().map(|n| n.instructions_retired()).collect(),
        uart: nodes.iter().map(|n| n.uart().to_vec()).collect(),
    }
}

fn run_netsim(s: &Scenario, until: u64) -> Outcome {
    let mut sim = NetSim::new(s.topology.clone(), s.seed);
    for (program, config) in &s.nodes {
        sim.add_node(program.clone(), *config).unwrap();
    }
    let mut sinks = vec![VecSink::default(); s.nodes.len()];
    let result = sim.run(until, &mut sinks);
    let nodes: Vec<&Node> = (0..s.nodes.len() as u16).map(|id| sim.node(id)).collect();
    outcome(result, sinks, sim.deliveries().to_vec(), &nodes)
}

/// The reference: the plain lockstep loop, one `advance` per step.
fn run_reference(s: &Scenario, until: u64) -> Outcome {
    let topology = &s.topology;
    let lookahead = topology
        .min_latency()
        .unwrap_or(u64::MAX / 4)
        .saturating_sub(LOOKAHEAD_SLACK)
        .max(1);
    let mut loss_rng = ChaCha8Rng::seed_from_u64(s.seed ^ LOSS_SEED_MIX);
    let mut nodes: Vec<Node> = s
        .nodes
        .iter()
        .map(|(program, config)| Node::new(program.clone(), *config))
        .collect();
    let mut sinks = vec![VecSink::default(); nodes.len()];
    let mut deliveries = Vec::new();
    let result = loop {
        let mut laggard: Option<(usize, u64)> = None;
        let mut second = until;
        for (i, n) in nodes.iter().enumerate() {
            if n.halted() || n.cycle() >= until {
                continue;
            }
            match laggard {
                None => laggard = Some((i, n.cycle())),
                Some((_, c)) if n.cycle() < c => {
                    second = c;
                    laggard = Some((i, n.cycle()));
                }
                Some(_) => second = second.min(n.cycle()),
            }
        }
        let Some((idx, _)) = laggard else {
            break Ok(());
        };
        let cap = second.saturating_add(lookahead).min(until);
        if let Err(error) = nodes[idx].advance(cap, &mut sinks[idx]) {
            break Err(SimError::NodeFault {
                node: idx as u16,
                error,
            });
        }
        let src = idx as u16;
        for out in nodes[idx].drain_outbox() {
            let end_of_air = out.sent_at + out.duration;
            let receivers: Vec<(u16, u64, f64)> = topology
                .neighbors(src)
                .filter(|(to, _)| {
                    out.packet.dest == tinyvm::isa::port::BROADCAST || out.packet.dest == *to
                })
                .map(|(to, link)| (to, end_of_air + link.latency_cycles, link.loss_prob))
                .collect();
            for (to, at_cycle, loss_prob) in receivers {
                let dropped = loss_prob > 0.0 && loss_rng.gen::<f64>() < loss_prob;
                deliveries.push(Delivery {
                    src,
                    to,
                    at_cycle,
                    dropped,
                    payload: out.packet.payload.clone(),
                });
                if !dropped {
                    nodes[to as usize].inject_rx(
                        at_cycle,
                        Packet {
                            src,
                            dest: out.packet.dest,
                            payload: out.packet.payload.clone(),
                        },
                    );
                }
            }
        }
    };
    if result.is_ok() {
        for (node, sink) in nodes.iter_mut().zip(sinks.iter_mut()) {
            node.finish(sink);
        }
    }
    let refs: Vec<&Node> = nodes.iter().collect();
    outcome(result, sinks, deliveries, &refs)
}

fn assert_same(s: &Scenario, until: u64) -> Result<(), TestCaseError> {
    let reference = run_reference(s, until);
    let fast = run_netsim(s, until);
    prop_assert_eq!(&fast.result, &reference.result);
    prop_assert_eq!(&fast.clocks, &reference.clocks);
    prop_assert_eq!(&fast.faults, &reference.faults);
    prop_assert_eq!(&fast.deliveries, &reference.deliveries);
    for (node, (f, r)) in fast.sinks.iter().zip(&reference.sinks).enumerate() {
        prop_assert!(
            f.events == r.events,
            "lifecycle stream of node {} differs",
            node
        );
        prop_assert!(
            f.segments == r.segments,
            "segment stream of node {} differs",
            node
        );
    }
    prop_assert_eq!(&fast, &reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn skipping_scheduler_matches_the_lockstep_loop(
        n in 1u16..=12,
        until in 20_000u64..300_000,
        zero_cost in 0u8..4,
        halter in 0u16..16,
        faulter in 0u16..24,
        seed in any::<u64>(),
    ) {
        let timing = if zero_cost == 0 {
            TimingModel::ZeroCostEvents
        } else {
            TimingModel::CycleAccurate
        };
        let s = scenario(n, timing, Some(halter).filter(|&h| h < n), Some(faulter).filter(|&f| f < n), seed);
        assert_same(&s, until)?;
    }
}

#[test]
fn fault_and_halt_outcomes_are_exercised() {
    // The proptest above must actually reach both stop paths.
    let faulted = (0..32u64).any(|seed| {
        let s = scenario(4, TimingModel::CycleAccurate, None, Some(1), seed);
        matches!(
            run_netsim(&s, 300_000).result,
            Err(SimError::NodeFault { node: 1, .. })
        )
    });
    assert!(faulted, "no scenario faulted");
    let halted = (0..32u64).any(|seed| {
        let s = scenario(4, TimingModel::CycleAccurate, Some(2), None, seed);
        let out = run_netsim(&s, 300_000);
        out.result.is_ok() && out.clocks[2] < 300_000
    });
    assert!(halted, "no scenario halted a node");
}

#[test]
fn long_idle_horizons_match_the_lockstep_loop() {
    // Long stretches in which every node is parked: the period leap does
    // most of the work here.
    for seed in 0..4 {
        let s = scenario(9, TimingModel::CycleAccurate, None, None, seed);
        assert_same(&s, 2_000_003).unwrap();
    }
}
