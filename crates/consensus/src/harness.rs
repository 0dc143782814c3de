//! A miniature deterministic scheduler for driving [`ConsensusProtocol`]
//! state machines directly — no network crate, no bandwidth model.
//!
//! Used by this crate's unit and property tests to exercise protocols under
//! controlled (including adversarial) message schedules: fixed or per-link
//! latencies, message drops via a filter, crashed nodes. The full-fidelity
//! WAN runs live in `moonshot-sim`; this harness is for protocol logic.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use moonshot_telemetry::TraceSink;
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{NodeId, View};

use crate::message::Message;
use crate::observer::ProtocolObserver;
use crate::protocol::{CommittedBlock, ConsensusProtocol, Output, TimerToken};

/// Decides the fate of each message: `None` = drop, `Some(delay)` = deliver
/// after `delay`.
pub type LinkPolicy = Box<dyn FnMut(NodeId, NodeId, &Message, SimTime) -> Option<SimDuration>>;

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum PendingKind {
    // Variant order is the tie-break order at equal times.
    Deliver,
    Timer,
}

/// A deterministic in-memory network of protocol instances.
pub struct LocalNet {
    nodes: Vec<Box<dyn ConsensusProtocol>>,
    crashed: HashSet<NodeId>,
    committed: Vec<Vec<CommittedBlock>>,
    queue: BinaryHeap<Reverse<(SimTime, u64, PendingKind, usize)>>,
    deliveries: Vec<Option<(NodeId, NodeId, Message)>>,
    timers: Vec<Option<(NodeId, TimerToken)>>,
    policy: LinkPolicy,
    tracer: Option<Tracer>,
    now: SimTime,
    seq: u64,
    started: bool,
}

struct Tracer {
    observers: Vec<ProtocolObserver>,
    sink: Box<dyn TraceSink>,
}

impl std::fmt::Debug for LocalNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalNet")
            .field("n", &self.nodes.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl LocalNet {
    /// A network with a constant `latency` on every link.
    pub fn with_uniform_latency(
        nodes: Vec<Box<dyn ConsensusProtocol>>,
        latency: SimDuration,
    ) -> Self {
        Self::with_policy(nodes, Box::new(move |_, _, _, _| Some(latency)))
    }

    /// A network governed by an arbitrary link policy.
    pub fn with_policy(nodes: Vec<Box<dyn ConsensusProtocol>>, policy: LinkPolicy) -> Self {
        let n = nodes.len();
        LocalNet {
            nodes,
            crashed: HashSet::new(),
            committed: vec![Vec::new(); n],
            queue: BinaryHeap::new(),
            deliveries: Vec::new(),
            timers: Vec::new(),
            policy,
            tracer: None,
            now: SimTime::ZERO,
            seq: 0,
            started: false,
        }
    }

    /// Traces every node's protocol actions into `sink` (see
    /// [`ProtocolObserver`] for the event taxonomy). Share the sink — e.g.
    /// an `Rc<RefCell<RingBufferSink>>` — to inspect the trace afterwards.
    pub fn trace_into(&mut self, sink: Box<dyn TraceSink>) {
        let observers =
            (0..self.nodes.len()).map(|i| ProtocolObserver::new(NodeId::from_index(i))).collect();
        self.tracer = Some(Tracer { observers, sink });
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the net has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Marks `node` crashed: it stops receiving and emitting.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The blocks committed by `node`, in commit order.
    pub fn committed(&self, node: NodeId) -> &[CommittedBlock] {
        &self.committed[node.as_usize()]
    }

    /// The current view of `node`.
    pub fn view_of(&self, node: NodeId) -> View {
        self.nodes[node.as_usize()].current_view()
    }

    fn push_delivery(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: Message) {
        let idx = self.deliveries.len();
        self.deliveries.push(Some((from, to, msg)));
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, PendingKind::Deliver, idx)));
    }

    fn push_timer(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        let idx = self.timers.len();
        self.timers.push(Some((node, token)));
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, PendingKind::Timer, idx)));
    }

    fn apply(&mut self, node: NodeId, outputs: Vec<Output>) {
        if let Some(tracer) = &mut self.tracer {
            let view = self.nodes[node.as_usize()].current_view();
            tracer.observers[node.as_usize()].on_outputs(
                &outputs,
                view,
                self.now,
                &mut tracer.sink,
            );
        }
        for out in outputs {
            match out {
                Output::Send(to, msg) => {
                    if let Some(delay) = (self.policy)(node, to, &msg, self.now) {
                        self.push_delivery(self.now + delay, node, to, msg);
                    }
                }
                Output::Multicast(msg) => {
                    for i in 0..self.nodes.len() {
                        let to = NodeId::from_index(i);
                        if let Some(delay) = (self.policy)(node, to, &msg, self.now) {
                            self.push_delivery(self.now + delay, node, to, msg.clone());
                        }
                    }
                }
                Output::SetTimer { token, after } => {
                    self.push_timer(self.now + after, node, token);
                }
                Output::Commit(c) => self.committed[node.as_usize()].push(c),
            }
        }
    }

    fn start(&mut self) {
        self.started = true;
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if self.crashed.contains(&node) {
                continue;
            }
            let outs = self.nodes[i].start(SimTime::ZERO);
            self.apply(node, outs);
        }
    }

    /// Runs until the queue drains or `deadline` passes.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            self.start();
        }
        while let Some(Reverse((at, _, _, _))) = self.queue.peek() {
            if *at > deadline {
                break;
            }
            let Reverse((at, _, kind, idx)) = self.queue.pop().unwrap();
            self.now = at;
            match kind {
                PendingKind::Deliver => {
                    if let Some((from, to, msg)) = self.deliveries[idx].take() {
                        if !self.crashed.contains(&to) {
                            if let Some(tracer) = &mut self.tracer {
                                tracer.observers[to.as_usize()].on_message_received(
                                    from,
                                    &msg,
                                    at,
                                    &mut tracer.sink,
                                );
                            }
                            let outs = self.nodes[to.as_usize()].handle_message(from, msg, at);
                            self.apply(to, outs);
                        }
                    }
                }
                PendingKind::Timer => {
                    if let Some((node, token)) = self.timers[idx].take() {
                        if !self.crashed.contains(&node) {
                            if let Some(tracer) = &mut self.tracer {
                                tracer.observers[node.as_usize()].on_timer_fired(
                                    token,
                                    self.nodes[node.as_usize()].current_view(),
                                    at,
                                    &mut tracer.sink,
                                );
                            }
                            let outs = self.nodes[node.as_usize()].handle_timer(token, at);
                            self.apply(node, outs);
                        }
                    }
                }
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `duration` from the current time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }
}
