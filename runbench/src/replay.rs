//! Per-layer replays: each layer's public functions called in a loop, from
//! outside, with inputs shaped like the workload that just ran (its
//! transaction size, mean sealed batch size and mean refs per proposal).
//! Each replay loop is one span.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use moonshot_consensus::protocol::Persist;
use moonshot_consensus::Message;
use moonshot_crypto::{batch_verify, BatchItem, Digest, KeyPair, Keyring, Sha256};
use moonshot_ledger::{Ledger, LedgerOptions};
use moonshot_mempool::{
    batch_digest, encode_batch, make_tx, BatchStore, DissemCounters, Mempool, MempoolConfig,
};
use moonshot_reactor::{Interest, Poller};
use moonshot_types::{
    BatchRef, Block, NodeId, Payload, QuorumCertificate, SignedVote, View, Vote, VoteKind,
};
use moonshot_wire::{encode_frame, Frame, FrameReader};

use crate::spans::Tracer;
use crate::stats::percentile;

/// The input shape of the workload being replayed.
#[derive(Debug)]
pub struct Shape {
    /// Validators.
    pub n: usize,
    /// Bytes per transaction.
    pub tx_bytes: usize,
    /// Mean sealed batch size in the run, bytes.
    pub batch_bytes: usize,
    /// Mean batch refs per committed proposal in the run.
    pub refs_per_block: usize,
    /// Directory for the ledger replay (removed afterwards).
    pub ledger_dir: PathBuf,
}

/// A replay result: name, value, unit.
pub type LayerValue = (&'static str, f64, &'static str);

/// Bytes the byte-rate replays push through their layer.
const REPLAY_BYTES: usize = 32 << 20;

/// Median ns per call of `op`, timed in `groups` groups of `per_group`
/// calls each.
fn ns_per_call(groups: usize, per_group: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<u64> = (0..groups)
        .map(|g| {
            let t = Instant::now();
            for i in 0..per_group {
                op(g * per_group + i);
            }
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    percentile(&samples, 0.5).unwrap_or(0) as f64 / per_group as f64
}

fn digest_of(i: u64) -> Digest {
    Digest::hash(&i.to_le_bytes())
}

/// Runs every replay; I/O failures (ledger dir, socketpair) are errors.
pub fn replay(shape: &Shape, tr: &mut Tracer) -> std::io::Result<Vec<LayerValue>> {
    let mut out = Vec::new();
    tr.span("replay.mempool", || mempool(shape, &mut out));
    tr.span("replay.dissem", || dissem(shape, &mut out));
    tr.span("replay.wire", || wire(shape, &mut out));
    tr.span("replay.netpool", || netpool(&mut out))?;
    tr.span("replay.crypto", || crypto(shape, &mut out));
    tr.span("replay.ledger", || ledger(shape, &mut out))?;
    Ok(out)
}

/// Ingest into one pool, then seal it out batch by batch the way the
/// assembler does: `drain_for_batch` + `encode_batch` + `batch_digest`.
fn mempool(shape: &Shape, out: &mut Vec<LayerValue>) {
    let count = REPLAY_BYTES / shape.tx_bytes;
    let pool = Mempool::new(MempoolConfig {
        shards: 1,
        max_txs: count,
        max_bytes: REPLAY_BYTES * 2,
        delay_target_multiple: 0,
        ..MempoolConfig::default()
    });
    for seq in 0..count as u64 {
        pool.submit_from(1, make_tx(seq, 1, seq, shape.tx_bytes))
            .expect("replay pool admits");
    }
    let (mut drain_ns, mut seal_ns, mut framed, mut drained) = (0u128, 0u128, 0usize, 0usize);
    while !pool.is_empty() {
        let t0 = Instant::now();
        let txs = pool.drain_for_batch(shape.batch_bytes);
        let t1 = Instant::now();
        let bytes = encode_batch(&txs);
        std::hint::black_box(batch_digest(&bytes));
        let t2 = Instant::now();
        drain_ns += (t1 - t0).as_nanos();
        seal_ns += (t2 - t0).as_nanos();
        framed += bytes.len();
        drained += txs.len();
    }
    out.push((
        "mempool.drain_ns_per_tx",
        drain_ns as f64 / drained.max(1) as f64,
        "ns",
    ));
    out.push((
        "mempool.seal_MBps",
        framed as f64 / (seal_ns as f64 / 1e9) / 1e6,
        "MBps",
    ));
}

/// `BatchStore::insert` / `get` at the workload's batch size, with the
/// runtime's 64 MiB budget so large batches pay FIFO eviction as they do
/// in the cluster.
fn dissem(shape: &Shape, out: &mut Vec<LayerValue>) {
    let store = BatchStore::new(64 << 20, Arc::new(DissemCounters::default()));
    let bytes: Arc<[u8]> = vec![0xA5u8; shape.batch_bytes].into();
    let (groups, per) = (64, 64);
    let digests: Vec<Digest> = (0..(groups * per) as u64).map(digest_of).collect();
    let insert = ns_per_call(groups, per, |i| {
        std::hint::black_box(store.insert(digests[i], bytes.clone()));
    });
    let get = ns_per_call(groups, per, |i| {
        std::hint::black_box(store.get(&digests[i]));
    });
    out.push(("dissem.store_insert_ns", insert, "ns"));
    out.push(("dissem.store_get_ns", get, "ns"));
}

fn vote_frame() -> Frame {
    let block = Block::build(View(2), NodeId(1), &Block::genesis(), Payload::empty());
    let vote = Vote {
        kind: VoteKind::Optimistic,
        block_id: block.id(),
        block_height: block.height(),
        view: block.view(),
    };
    Frame::Consensus(Message::Vote(SignedVote::sign(
        vote,
        NodeId(0),
        &KeyPair::from_seed(0),
    )))
}

/// Encode + decode round trips of a vote and of a proposal with the
/// workload's mean ref count; decode rate of a `BatchPush` of its batch.
fn wire(shape: &Shape, out: &mut Vec<LayerValue>) {
    let refs: Vec<BatchRef> = (0..shape.refs_per_block as u64)
        .map(|i| BatchRef {
            digest: digest_of(i),
            bytes: shape.batch_bytes as u64,
        })
        .collect();
    let block = Block::build(
        View(2),
        NodeId(1),
        &Block::genesis(),
        Payload::batches(refs),
    );
    let proposal = Frame::Consensus(Message::OptPropose {
        block,
        view: View(2),
    });
    for (name, frame) in [
        ("wire.vote_roundtrip_ns", vote_frame()),
        ("wire.proposal_roundtrip_ns", proposal),
    ] {
        let mut reader = FrameReader::new();
        let ns = ns_per_call(64, 64, |_| {
            reader.extend(&encode_frame(&frame));
            std::hint::black_box(reader.next_frame().expect("decodes").expect("complete"));
        });
        out.push((name, ns, "ns"));
    }
    let push = encode_frame(&Frame::BatchPush {
        digest: digest_of(0),
        bytes: vec![0xA5u8; shape.batch_bytes].into(),
    });
    let rounds = (REPLAY_BYTES / push.len()).max(16);
    let mut reader = FrameReader::new();
    let mut decode_ns = 0u128;
    for _ in 0..rounds {
        reader.extend(&push);
        let t = Instant::now();
        std::hint::black_box(reader.next_frame().expect("decodes").expect("complete"));
        decode_ns += t.elapsed().as_nanos();
    }
    let mbps = (rounds * push.len()) as f64 / (decode_ns as f64 / 1e9) / 1e6;
    out.push(("wire.push_decode_MBps", mbps, "MBps"));
}

/// Vote frames written by one thread into a socketpair and read back
/// through a `Poller` and a `FrameReader`, the event loop's receive path.
fn netpool(out: &mut Vec<LayerValue>) -> std::io::Result<()> {
    const FRAMES: usize = 100_000;
    let (mut rx, mut tx) = std::os::unix::net::UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(rx.as_raw_fd(), 0, Interest::READABLE)?;
    let frame = encode_frame(&vote_frame());
    let start = Instant::now();
    let frames = std::thread::scope(|s| -> std::io::Result<usize> {
        let writer = s.spawn(move || -> std::io::Result<()> {
            let chunk: Vec<u8> = frame
                .iter()
                .copied()
                .cycle()
                .take(frame.len() * 64)
                .collect();
            for _ in 0..FRAMES / 64 {
                tx.write_all(&chunk)?;
            }
            Ok(())
        });
        let mut reader = FrameReader::new();
        let mut buf = vec![0u8; 256 << 10];
        let mut events = Vec::new();
        let mut got = 0usize;
        let want = FRAMES / 64 * 64;
        while got < want {
            poller.wait(&mut events, Some(std::time::Duration::from_secs(5)))?;
            if events.is_empty() {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "socketpair went quiet",
                ));
            }
            loop {
                match rx.read(&mut buf) {
                    Ok(0) => break,
                    Ok(k) => reader.extend(&buf[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            while let Some(f) = reader.next_frame().map_err(std::io::Error::other)? {
                std::hint::black_box(f);
                got += 1;
            }
        }
        writer.join().expect("socketpair writer panicked")?;
        Ok(got)
    })?;
    out.push((
        "netpool.socketpair_frames_per_s",
        frames as f64 / start.elapsed().as_secs_f64(),
        "1/s",
    ));
    Ok(())
}

/// Sign, verify, a quorum-sized `batch_verify`, and SHA-256 throughput.
fn crypto(shape: &Shape, out: &mut Vec<LayerValue>) {
    let kp = KeyPair::from_seed(1);
    let msg = [0x5Au8; 64];
    let sig = kp.sign(&msg);
    let public = kp.public();
    out.push((
        "crypto.sign_ns",
        ns_per_call(64, 64, |_| {
            std::hint::black_box(kp.sign(std::hint::black_box(&msg)));
        }),
        "ns",
    ));
    out.push((
        "crypto.verify_ns",
        ns_per_call(64, 64, |_| {
            assert!(public.verify(std::hint::black_box(&msg), &sig));
        }),
        "ns",
    ));
    let ring = Keyring::simulated(shape.n);
    let quorum = ring.quorum_threshold();
    let sigs: Vec<_> = (0..quorum)
        .map(|i| KeyPair::from_seed(i as u64).sign(&msg))
        .collect();
    let items: Vec<BatchItem<'_>> = sigs
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u16, &msg[..], s))
        .collect();
    let per_batch = ns_per_call(64, 16, |_| {
        assert!(batch_verify(&ring, std::hint::black_box(&items)).is_ok());
    });
    out.push((
        "crypto.batch_verify_ns_per_sig",
        per_batch / quorum as f64,
        "ns",
    ));
    let buf = vec![0x3Cu8; 1 << 20];
    let t = Instant::now();
    for _ in 0..REPLAY_BYTES >> 20 {
        let mut h = Sha256::new();
        h.update(&buf);
        std::hint::black_box(h.finalize());
    }
    out.push((
        "crypto.sha256_MBps",
        REPLAY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e6,
        "MBps",
    ));
}

/// `persist_vote` (WAL append + fdatasync) and `append_committed` with
/// blocks carrying the workload's mean ref count, in a fresh ledger on the
/// filesystem the cluster used.
fn ledger(shape: &Shape, out: &mut Vec<LayerValue>) -> std::io::Result<()> {
    const CALLS: usize = 200;
    let _ = std::fs::remove_dir_all(&shape.ledger_dir);
    let (ledger, _) = Ledger::open(&shape.ledger_dir, LedgerOptions::default())?;
    let ring = Keyring::simulated(shape.n);
    let mut parent = Block::genesis();
    let mut vote_ns = Vec::with_capacity(CALLS);
    let mut append_ns = Vec::with_capacity(CALLS);
    for v in 1..=CALLS as u64 {
        let refs: Vec<BatchRef> = (0..shape.refs_per_block as u64)
            .map(|i| BatchRef {
                digest: digest_of(v << 16 | i),
                bytes: shape.batch_bytes as u64,
            })
            .collect();
        let block = Block::build(View(v), NodeId(0), &parent, Payload::batches(refs));
        let vote = Vote {
            kind: VoteKind::Optimistic,
            block_id: block.id(),
            block_height: block.height(),
            view: block.view(),
        };
        let votes: Vec<SignedVote> = (0..ring.quorum_threshold() as u16)
            .map(|i| SignedVote::sign(vote, NodeId(i), &KeyPair::from_seed(i as u64)))
            .collect();
        let qc = QuorumCertificate::from_votes(&votes, &ring).expect("quorum of votes");
        let t = Instant::now();
        ledger.persist_vote(View(v), &qc);
        vote_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        ledger.append_committed(&block)?;
        append_ns.push(t.elapsed().as_nanos() as u64);
        parent = block;
    }
    drop(ledger);
    std::fs::remove_dir_all(&shape.ledger_dir)?;
    vote_ns.sort_unstable();
    append_ns.sort_unstable();
    let p50_us = |v: &[u64]| percentile(v, 0.5).unwrap_or(0) as f64 / 1e3;
    out.push(("ledger.persist_vote_us", p50_us(&vote_ns), "us"));
    out.push(("ledger.append_us", p50_us(&append_ns), "us"));
    Ok(())
}
