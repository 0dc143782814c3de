//! The benchmark's single-thread load generator.
//!
//! Two shapes, both submitting straight into the nodes' mempools through
//! `Mempool::submit_from`, one owner node per transaction, round-robin over
//! the nodes that are up:
//!
//! * **open loop** — arrivals are a seeded Poisson process at a fixed
//!   rate. Every transaction is stamped with its *due* time, not the time
//!   it was actually sent, and a wake sends every transaction that has
//!   come due: a stall never skips a send, so the wait it imposes shows in
//!   the latency of everything due during it. How late the generator ran
//!   is recorded per transaction.
//! * **saturating** — the next transaction is sent as soon as admission
//!   accepted the previous one; a refusal is backpressure, the refused
//!   transaction is dropped and the generator backs off briefly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_mempool::{make_tx, Mempool};
use moonshot_rng::DetRng;

use crate::spans::Tracer;

/// One generated transaction.
#[derive(Clone, Copy, Debug)]
pub struct TxRec {
    /// Due time, µs since the cluster epoch (also the stamp inside the tx).
    pub due_us: u64,
    /// How much later than due it was handed to `submit_from`, µs.
    pub late_us: u64,
    /// The node whose mempool got it.
    pub node: u16,
    /// Whether admission accepted it.
    pub accepted: bool,
}

/// How long the saturating generator sleeps after a refusal.
const BACKOFF: Duration = Duration::from_micros(200);

/// The generator state: every transaction it made, indexed by sequence
/// number, plus each node's accepted sequence numbers in acceptance order.
#[derive(Debug)]
pub struct Generator {
    /// Client id written into every transaction (derived from the seed).
    pub client: u32,
    /// Bytes per transaction.
    pub tx_bytes: usize,
    /// Open-loop rate in tx/s; `None` saturates.
    rate: Option<f64>,
    rng: DetRng,
    next_due_us: f64,
    rr: usize,
    /// Every transaction made, by sequence number.
    pub txs: Vec<TxRec>,
    /// Per node: accepted sequence numbers, in the order admitted.
    pub accepted: Vec<Vec<u64>>,
    /// Per node: `submit_from` calls made.
    pub attempts: Vec<u64>,
    /// Raw `submit_from` durations in ns (traced runs only).
    pub submit_ns: Vec<u64>,
}

impl Generator {
    /// A generator for `n` nodes starting its schedule at `start_us`.
    pub fn new(n: usize, seed: u64, tx_bytes: usize, rate: Option<f64>, start_us: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let client = (rng.next_u64() >> 33) as u32;
        let rr = rng.gen_below(n as u64) as usize;
        Generator {
            client,
            tx_bytes,
            rate,
            rng,
            next_due_us: start_us as f64,
            rr,
            txs: Vec::new(),
            accepted: vec![Vec::new(); n],
            attempts: vec![0; n],
            submit_ns: Vec::new(),
        }
    }

    /// The sequence number's transaction bytes — what the generator sent,
    /// rebuilt for checking committed batches.
    pub fn tx_bytes_of(&self, seq: u64) -> Vec<u8> {
        make_tx(
            self.txs[seq as usize].due_us,
            self.client,
            seq,
            self.tx_bytes,
        )
    }

    /// Sends whatever is due at `now_us` (open loop) or one burst of up to
    /// `burst` (saturating). Returns how long the caller may sleep before
    /// the next call.
    pub fn pump(
        &mut self,
        pools: &[Arc<Mempool>],
        live: &[bool],
        epoch: Instant,
        tracer: &mut Tracer,
    ) -> Duration {
        let now_us = || epoch.elapsed().as_micros() as u64;
        match self.rate {
            Some(rate) => {
                let mut now = now_us();
                while self.next_due_us <= now as f64 {
                    let due = self.next_due_us as u64;
                    self.submit(pools, live, due, now, tracer);
                    // Exponential gaps: independent users at a fixed mean rate.
                    let u = self.rng.gen_f64();
                    self.next_due_us += -(1.0 - u).ln() * 1e6 / rate;
                    now = now_us();
                }
                Duration::from_micros((self.next_due_us as u64).saturating_sub(now).min(1_000))
            }
            None => {
                for _ in 0..64 {
                    let now = now_us();
                    if !self.submit(pools, live, now, now, tracer) {
                        return BACKOFF;
                    }
                }
                Duration::ZERO
            }
        }
    }

    fn submit(
        &mut self,
        pools: &[Arc<Mempool>],
        live: &[bool],
        due_us: u64,
        now_us: u64,
        tracer: &mut Tracer,
    ) -> bool {
        let n = pools.len();
        let node = (0..n)
            .map(|k| (self.rr + k) % n)
            .find(|&i| live[i])
            .expect("a live node");
        self.rr = node + 1;
        let seq = self.txs.len() as u64;
        let tx = make_tx(due_us, self.client, seq, self.tx_bytes);
        self.attempts[node] += 1;
        let ok = if tracer.enabled() {
            let t0 = Instant::now();
            let ok = pools[node].submit_from(self.client, tx).is_ok();
            let t1 = Instant::now();
            tracer.record("submit_from", t0, t1);
            self.submit_ns.push((t1 - t0).as_nanos() as u64);
            ok
        } else {
            pools[node].submit_from(self.client, tx).is_ok()
        };
        if ok {
            self.accepted[node].push(seq);
        }
        self.txs.push(TxRec {
            due_us,
            late_us: now_us.saturating_sub(due_us),
            node: node as u16,
            accepted: ok,
        });
        ok
    }
}
