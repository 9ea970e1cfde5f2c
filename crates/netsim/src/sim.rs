//! The multi-node simulation engine.
//!
//! Nodes are synchronized conservatively: only the node with the smallest
//! local cycle advances, and only up to `second_smallest + lookahead`,
//! where the lookahead is bounded by the smallest link latency. Packets a
//! node transmits are collected after each advance window and scheduled
//! into the receivers' device queues at `send + airtime + link latency`,
//! which the lookahead guarantees is never in a receiver's past.

use crate::topology::{Topology, TopologyError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use tinyvm::devices::NodeConfig;
use tinyvm::node::Node;
use tinyvm::{Packet, Program, TraceSink, VmError};

/// Slack subtracted from the lookahead to absorb a node finishing its last
/// instruction slightly past its advance limit.
const LOOKAHEAD_SLACK: u64 = 16;

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node's program faulted.
    NodeFault {
        /// The faulting node.
        node: u16,
        /// The machine fault.
        error: VmError,
    },
    /// The number of sinks did not match the number of nodes.
    SinkCountMismatch {
        /// Nodes in the simulation.
        nodes: usize,
        /// Sinks supplied.
        sinks: usize,
    },
    /// A node was added with an id that does not equal its index.
    NodeOrder {
        /// The id the next node must carry.
        expected: u16,
        /// The id it actually carried.
        got: u16,
    },
    /// A node was added beyond the topology's declared node count.
    NodeOutOfTopology {
        /// The offending node id.
        node: u16,
        /// Nodes the topology declares.
        count: u16,
    },
    /// A node id was looked up that was never added.
    UnknownNode {
        /// The requested id.
        node: u16,
        /// Nodes added so far.
        count: usize,
    },
    /// The underlying topology was invalid.
    Topology(TopologyError),
}

impl From<TopologyError> for SimError {
    fn from(e: TopologyError) -> SimError {
        SimError::Topology(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeFault { node, error } => write!(f, "node {node} faulted: {error}"),
            SimError::SinkCountMismatch { nodes, sinks } => {
                write!(f, "{nodes} nodes but {sinks} trace sinks")
            }
            SimError::NodeOrder { expected, got } => write!(
                f,
                "node ids must be assigned in index order (expected {expected}, got {got})"
            ),
            SimError::NodeOutOfTopology { node, count } => write!(
                f,
                "node {node} exceeds the topology's declared {count} nodes"
            ),
            SimError::UnknownNode { node, count } => {
                write!(f, "no node {node} (only {count} added)")
            }
            SimError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

/// Record of one attempted packet delivery (for oracles and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender node.
    pub src: u16,
    /// Receiver node this record concerns (one record per receiver).
    pub to: u16,
    /// Arrival cycle at the receiver.
    pub at_cycle: u64,
    /// Whether the link dropped the packet.
    pub dropped: bool,
    /// The payload.
    pub payload: Vec<u16>,
}

/// A deterministic multi-node WSN simulation.
///
/// # Examples
///
/// ```
/// # use std::sync::Arc;
/// # use netsim::{NetSim, topology::{LinkConfig, Topology}};
/// # use tinyvm::devices::NodeConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = Arc::new(tinyvm::assemble("main:\n ret\n")?);
/// let topo = Topology::chain(2, LinkConfig::default())?;
/// let mut sim = NetSim::new(topo, 42);
/// sim.add_node(program.clone(), NodeConfig::default())?;
/// sim.add_node(program, NodeConfig { node_id: 1, ..NodeConfig::default() })?;
/// let mut sinks = vec![tinyvm::NullSink, tinyvm::NullSink];
/// sim.run(10_000, &mut sinks)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetSim {
    topology: Topology,
    nodes: Vec<Node>,
    loss_rng: ChaCha8Rng,
    deliveries: Vec<Delivery>,
    lookahead: u64,
}

impl NetSim {
    /// Creates a simulation over `topology`; `seed` drives link-loss draws.
    pub fn new(topology: Topology, seed: u64) -> NetSim {
        let lookahead = topology
            .min_latency()
            .unwrap_or(u64::MAX / 4)
            .saturating_sub(LOOKAHEAD_SLACK)
            .max(1);
        NetSim {
            topology,
            nodes: Vec::new(),
            loss_rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_CAFE),
            deliveries: Vec::new(),
            lookahead,
        }
    }

    /// Adds a node running `program`. The node's id must equal its index
    /// (set `config.node_id` accordingly).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeOrder`] if `config.node_id` differs from the
    /// node's index, [`SimError::NodeOutOfTopology`] if it exceeds the
    /// topology's node count.
    pub fn add_node(
        &mut self,
        program: Arc<Program>,
        config: NodeConfig,
    ) -> Result<&mut Self, SimError> {
        if config.node_id as usize != self.nodes.len() {
            return Err(SimError::NodeOrder {
                expected: self.nodes.len() as u16,
                got: config.node_id,
            });
        }
        if config.node_id >= self.topology.node_count() {
            return Err(SimError::NodeOutOfTopology {
                node: config.node_id,
                count: self.topology.node_count(),
            });
        }
        self.nodes.push(Node::new(program, config));
        Ok(self)
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`NetSim::try_node`] for a
    /// fallible lookup.
    pub fn node(&self, id: u16) -> &Node {
        &self.nodes[id as usize]
    }

    /// The node with id `id`, or [`SimError::UnknownNode`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownNode`] if no node with that id was added.
    pub fn try_node(&self, id: u16) -> Result<&Node, SimError> {
        self.nodes.get(id as usize).ok_or(SimError::UnknownNode {
            node: id,
            count: self.nodes.len(),
        })
    }

    /// Mutable access to the node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`NetSim::try_node_mut`] for a
    /// fallible lookup.
    pub fn node_mut(&mut self, id: u16) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// Mutable access to the node with id `id`, or
    /// [`SimError::UnknownNode`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownNode`] if no node with that id was added.
    pub fn try_node_mut(&mut self, id: u16) -> Result<&mut Node, SimError> {
        let count = self.nodes.len();
        self.nodes
            .get_mut(id as usize)
            .ok_or(SimError::UnknownNode { node: id, count })
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All attempted deliveries so far (including dropped ones).
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// Runs the simulation until every node reaches `until` (or halts),
    /// then flushes every node's final trace segment. Call once per
    /// simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SinkCountMismatch`] if `sinks.len()` differs
    /// from the node count, or [`SimError::NodeFault`] if a program
    /// faults (remaining nodes stop where they are).
    pub fn run<S: TraceSink>(&mut self, until: u64, sinks: &mut [S]) -> Result<(), SimError> {
        if sinks.len() != self.nodes.len() {
            return Err(SimError::SinkCountMismatch {
                nodes: self.nodes.len(),
                sinks: sinks.len(),
            });
        }
        let mut sched = Lockstep::new(&self.nodes, until, self.lookahead);
        let result = self.drive(&mut sched, sinks);
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            sched.sync(idx, node);
        }
        result?;
        for (node, sink) in self.nodes.iter_mut().zip(sinks.iter_mut()) {
            node.finish(sink);
        }
        Ok(())
    }

    /// The scheduler loop: parked steps only move a clock; every other
    /// step advances the laggard node and routes what it transmitted.
    fn drive<S: TraceSink>(
        &mut self,
        sched: &mut Lockstep,
        sinks: &mut [S],
    ) -> Result<(), SimError> {
        while let Some(step) = sched.next_step() {
            if sched.parked_through(step.idx, step.cap) {
                sched.clock[step.idx] = step.cap;
                if step.all_parked {
                    sched.leap();
                }
                continue;
            }
            let node = &mut self.nodes[step.idx];
            sched.sync(step.idx, node);
            let advanced = node.advance(step.cap, &mut sinks[step.idx]);
            sched.refresh(step.idx, node);
            if let Err(error) = advanced {
                return Err(SimError::NodeFault {
                    node: step.idx as u16,
                    error,
                });
            }
            self.route_outbox(step.idx, sched);
        }
        Ok(())
    }

    /// Routes packets transmitted by node `idx` to their receivers.
    fn route_outbox(&mut self, idx: usize, sched: &mut Lockstep) {
        let src = idx as u16;
        for mut out in self.nodes[idx].drain_outbox() {
            let end_of_air = out.sent_at + out.duration;
            let dest = out.packet.dest;
            let mut receivers = self
                .topology
                .neighbors(src)
                .filter(|&(to, _)| dest == tinyvm::isa::port::BROADCAST || dest == to)
                .peekable();
            while let Some((to, link)) = receivers.next() {
                let at_cycle = end_of_air + link.latency_cycles;
                let dropped = link.loss_prob > 0.0 && self.loss_rng.gen::<f64>() < link.loss_prob;
                self.deliveries.push(Delivery {
                    src,
                    to,
                    at_cycle,
                    dropped,
                    payload: out.packet.payload.clone(),
                });
                if dropped {
                    continue;
                }
                let receiver = &mut self.nodes[to as usize];
                sched.sync(to as usize, receiver);
                debug_assert!(
                    at_cycle + LOOKAHEAD_SLACK >= receiver.cycle(),
                    "causality: delivery at {at_cycle} behind receiver {}",
                    receiver.cycle()
                );
                let payload = if receivers.peek().is_some() {
                    out.packet.payload.clone()
                } else {
                    std::mem::take(&mut out.packet.payload)
                };
                receiver.inject_rx(at_cycle, Packet { src, dest, payload });
                sched.refresh(to as usize, receiver);
            }
        }
    }
}

/// One scheduler step: the laggard node and the cycle it may advance to.
#[derive(Debug, Clone, Copy)]
struct Step {
    idx: usize,
    cap: u64,
    /// Whether every node still running is parked.
    all_parked: bool,
}

/// The conservative scheduler's state: one clock per node, and what it
/// knows of each node without touching it.
///
/// A parked node's clock runs ahead of [`Node::cycle`] while the scheduler
/// moves it in parked steps; [`Lockstep::sync`] writes it back before the
/// node is advanced, receives a packet, or the run ends.
#[derive(Debug)]
struct Lockstep {
    until: u64,
    lookahead: u64,
    clock: Vec<u64>,
    /// The wake cycle of a parked node (see [`Node::parked_until`]).
    wake: Vec<Option<u64>>,
    halted: Vec<bool>,
    /// Scratch for [`Lockstep::leap`]: live node indices, the relative
    /// clock configuration after each step (flattened), and the first step
    /// at which each configuration hash was seen, with the smallest clock
    /// at that step.
    live: Vec<usize>,
    configs: Vec<u64>,
    seen: HashMap<u64, (usize, u64)>,
}

impl Lockstep {
    fn new(nodes: &[Node], until: u64, lookahead: u64) -> Lockstep {
        Lockstep {
            until,
            lookahead,
            clock: nodes.iter().map(Node::cycle).collect(),
            wake: nodes.iter().map(Node::parked_until).collect(),
            halted: nodes.iter().map(Node::halted).collect(),
            live: Vec::new(),
            configs: Vec::new(),
            seen: HashMap::new(),
        }
    }

    /// The laggard among nodes still below `until` and not halted (ties go
    /// to the lowest index), and its cap: the second-smallest clock plus
    /// the lookahead, at most `until`.
    fn next_step(&self) -> Option<Step> {
        let mut laggard: Option<(usize, u64)> = None;
        let mut second = self.until;
        let mut all_parked = true;
        for (i, &c) in self.clock.iter().enumerate() {
            if self.halted[i] || c >= self.until {
                continue;
            }
            all_parked &= self.wake[i].is_some();
            match laggard {
                None => laggard = Some((i, c)),
                Some((_, l)) if c < l => {
                    second = l;
                    laggard = Some((i, c));
                }
                Some(_) => second = second.min(c),
            }
        }
        let (idx, _) = laggard?;
        Some(Step {
            idx,
            cap: second.saturating_add(self.lookahead).min(self.until),
            all_parked,
        })
    }

    /// Whether advancing node `idx` to `cap` would only move its clock.
    fn parked_through(&self, idx: usize, cap: u64) -> bool {
        self.wake[idx].is_some_and(|wake| wake >= cap)
    }

    /// Writes the scheduler's clock for node `idx` back into the node.
    fn sync(&self, idx: usize, node: &mut Node) {
        if node.cycle() != self.clock[idx] {
            node.skip_to(self.clock[idx]);
        }
    }

    /// Re-reads node `idx` after it advanced or received a packet.
    fn refresh(&mut self, idx: usize, node: &Node) {
        self.clock[idx] = node.cycle();
        self.wake[idx] = node.parked_until();
        self.halted[idx] = node.halted();
    }

    /// Jumps over whole periods of parked steps. Call only when every node
    /// still running is parked.
    ///
    /// Then the scheduler's state is just its clocks, and the steps depend
    /// only on their relative configuration: shifting every clock by the
    /// same amount shifts every later cap by it too, until some cap would
    /// pass a node's wake cycle or reach `until`. So the configuration
    /// recurs with a fixed period. This simulates parked steps until it
    /// sees a configuration recur (applying each one), then moves every
    /// clock forward by as many whole periods as fit below every node's
    /// wake cycle and `until`. It stops early, leaving the step to the
    /// caller, at the first step that would bind.
    fn leap(&mut self) {
        self.live.clear();
        self.live.extend(
            (0..self.clock.len()).filter(|&i| !self.halted[i] && self.clock[i] < self.until),
        );
        let m = self.live.len();
        self.configs.clear();
        self.seen.clear();
        for step in 0..=4 * m * m {
            let base = self.live.iter().map(|&i| self.clock[i]).min().unwrap_or(0);
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for &i in &self.live {
                let rel = self.clock[i] - base;
                self.configs.push(rel);
                hash = (hash ^ rel).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let current = step * m..(step + 1) * m;
            match self.seen.get(&hash) {
                Some(&(first, first_base))
                    if self.configs[first * m..(first + 1) * m] == self.configs[current] =>
                {
                    let shift = base - first_base;
                    let periods = self
                        .live
                        .iter()
                        .map(|&i| {
                            let bound = self.wake[i].expect("parked").min(self.until - 1);
                            (bound - self.clock[i]) / shift
                        })
                        .min()
                        .unwrap_or(0);
                    for &i in &self.live {
                        self.clock[i] += periods * shift;
                    }
                    return;
                }
                _ => {
                    self.seen.insert(hash, (step, base));
                }
            }
            let Some(next) = self.next_step() else { return };
            if next.cap >= self.until || !self.parked_through(next.idx, next.cap) {
                return;
            }
            self.clock[next.idx] = next.cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkConfig;
    use tinyvm::NullSink;

    fn sender_program() -> Arc<Program> {
        Arc::new(
            tinyvm::assemble(
                "\
.handler TIMER0 fire
main:
 ldi r1, 20
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
fire:
 in r2, NODE_ID
 out RADIO_TX_PUSH, r2
 ldi r3, 1          ; dest: node 1
 out RADIO_SEND, r3
 reti
",
            )
            .unwrap(),
        )
    }

    fn receiver_program() -> Arc<Program> {
        Arc::new(
            tinyvm::assemble(
                "\
.handler RX on_rx
.data count 1
main:
 ret
on_rx:
 in r1, RADIO_RX_POP
 out UART_OUT, r1
 lda r2, count
 addi r2, 1
 sta count, r2
 reti
",
            )
            .unwrap(),
        )
    }

    fn two_node_sim(loss: f64) -> NetSim {
        let mut topo = Topology::new(2);
        topo.connect(
            0,
            1,
            LinkConfig {
                latency_cycles: 128,
                loss_prob: loss,
            },
        )
        .unwrap();
        let mut sim = NetSim::new(topo, 7);
        sim.add_node(sender_program(), NodeConfig::default())
            .unwrap();
        sim.add_node(
            receiver_program(),
            NodeConfig {
                node_id: 1,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        sim
    }

    #[test]
    fn packets_flow_between_nodes() {
        let mut sim = two_node_sim(0.0);
        let mut sinks = vec![NullSink, NullSink];
        sim.run(500_000, &mut sinks).unwrap();
        let uart = sim.node(1).uart();
        assert!(!uart.is_empty(), "receiver heard nothing");
        assert!(uart.iter().all(|&w| w == 0), "payload carries sender id 0");
        let delivered = sim.deliveries().iter().filter(|d| !d.dropped).count();
        // Packets landing at the very horizon may go unprocessed.
        assert!(uart.len() <= delivered && uart.len() + 2 >= delivered);
    }

    #[test]
    fn lossy_link_drops_packets() {
        let mut sim = two_node_sim(0.5);
        let mut sinks = vec![NullSink, NullSink];
        sim.run(500_000, &mut sinks).unwrap();
        let total = sim.deliveries().len();
        let dropped = sim.deliveries().iter().filter(|d| d.dropped).count();
        assert!(total > 20);
        assert!(dropped > 0, "no losses at p=0.5");
        assert!(dropped < total, "everything lost at p=0.5");
        let heard = sim.node(1).uart().len();
        let delivered = total - dropped;
        assert!(heard <= delivered && heard + 2 >= delivered);
    }

    #[test]
    fn unicast_to_non_neighbor_is_lost() {
        // Node 0 sends to id 1, but only a 0-2 link exists.
        let mut topo = Topology::new(3);
        topo.connect(0, 2, LinkConfig::default()).unwrap();
        let mut sim = NetSim::new(topo, 1);
        sim.add_node(sender_program(), NodeConfig::default())
            .unwrap();
        sim.add_node(
            receiver_program(),
            NodeConfig {
                node_id: 1,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        sim.add_node(
            receiver_program(),
            NodeConfig {
                node_id: 2,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let mut sinks = vec![NullSink, NullSink, NullSink];
        sim.run(100_000, &mut sinks).unwrap();
        assert!(sim.deliveries().is_empty());
        assert!(sim.node(1).uart().is_empty());
        assert!(sim.node(2).uart().is_empty());
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let bcast = Arc::new(
            tinyvm::assemble(
                "\
.handler TIMER0 fire
main:
 ldi r1, 50
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
fire:
 ldi r2, 99
 out RADIO_TX_PUSH, r2
 ldi r3, 0xFFFF
 out RADIO_SEND, r3
 out TIMER0_CTRL, r0
 reti
",
            )
            .unwrap(),
        );
        let topo = Topology::star(3, LinkConfig::default()).unwrap();
        let mut sim = NetSim::new(topo, 3);
        sim.add_node(bcast, NodeConfig::default()).unwrap();
        for id in 1..3 {
            sim.add_node(
                receiver_program(),
                NodeConfig {
                    node_id: id,
                    ..NodeConfig::default()
                },
            )
            .unwrap();
        }
        let mut sinks = vec![NullSink, NullSink, NullSink];
        sim.run(200_000, &mut sinks).unwrap();
        assert_eq!(sim.node(1).uart(), &[99]);
        assert_eq!(sim.node(2).uart(), &[99]);
    }

    #[test]
    fn sink_count_mismatch_rejected() {
        let mut sim = two_node_sim(0.0);
        let mut sinks = vec![NullSink];
        assert!(matches!(
            sim.run(1_000, &mut sinks),
            Err(SimError::SinkCountMismatch { nodes: 2, sinks: 1 })
        ));
    }

    #[test]
    fn node_fault_reports_id() {
        let bad = Arc::new(tinyvm::assemble("main:\n in r1, 0x7F\n ret\n").unwrap());
        let topo = Topology::new(1);
        let mut sim = NetSim::new(topo, 0);
        sim.add_node(bad, NodeConfig::default()).unwrap();
        let mut sinks = vec![NullSink];
        match sim.run(1_000, &mut sinks) {
            Err(SimError::NodeFault { node: 0, .. }) => {}
            other => panic!("expected node fault, got {other:?}"),
        }
    }

    #[test]
    fn bad_node_registration_is_a_typed_error() {
        let mut sim = NetSim::new(Topology::new(1), 0);
        assert_eq!(
            sim.add_node(
                sender_program(),
                NodeConfig {
                    node_id: 3,
                    ..NodeConfig::default()
                }
            )
            .unwrap_err(),
            SimError::NodeOrder {
                expected: 0,
                got: 3
            }
        );
        sim.add_node(sender_program(), NodeConfig::default())
            .unwrap();
        assert_eq!(
            sim.add_node(
                sender_program(),
                NodeConfig {
                    node_id: 1,
                    ..NodeConfig::default()
                }
            )
            .unwrap_err(),
            SimError::NodeOutOfTopology { node: 1, count: 1 }
        );
        assert!(sim.try_node(0).is_ok());
        assert_eq!(
            sim.try_node(9).unwrap_err(),
            SimError::UnknownNode { node: 9, count: 1 }
        );
        assert_eq!(
            sim.try_node_mut(9).unwrap_err(),
            SimError::UnknownNode { node: 9, count: 1 }
        );
        let topo_err: SimError = crate::topology::TopologyError::SelfLink { node: 2 }.into();
        assert!(topo_err.to_string().contains("self-link"));
    }

    #[test]
    fn deterministic_multi_node_replay() {
        let run = || {
            let mut sim = two_node_sim(0.3);
            let mut sinks = vec![NullSink, NullSink];
            sim.run(300_000, &mut sinks).unwrap();
            (
                sim.deliveries().to_vec(),
                sim.node(1).uart().to_vec(),
                sim.node(0).instructions_retired(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_nodes_reach_the_horizon() {
        let mut sim = two_node_sim(0.0);
        let mut sinks = vec![NullSink, NullSink];
        sim.run(123_456, &mut sinks).unwrap();
        for id in 0..2 {
            assert!(sim.node(id).cycle() >= 123_456);
        }
    }
}
