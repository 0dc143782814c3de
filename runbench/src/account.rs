//! Post-run accounting and output checks.
//!
//! Committed digest-only blocks carry batch refs, and the nodes prune a
//! committed batch's bytes 512 blocks after commit, so the stop-time batch
//! directory in `ClusterReport` resolves only the last second of a LAN run.
//! The benchmark therefore resolves refs itself: each node's mempool has one
//! shard and one client (this generator), so its batch assembler drains the
//! accepted transactions in admission order, and the node's `BatchSealed`
//! records (one per batch, in seal order, with a tx count) cut that order
//! into batches. Every reconstructed batch is re-framed and re-hashed and
//! must match the sealed digest, so a wrong reconstruction fails the run
//! instead of skewing a number.

use std::collections::{HashMap, HashSet};

use moonshot_crypto::Digest;
use moonshot_mempool::{batch_digest, MempoolCounters, BATCH_TX_OVERHEAD};
use moonshot_node::ClusterReport;
use moonshot_telemetry::{TraceEvent, Violation};
use moonshot_types::{Block, BlockId, NodeId};

use crate::generator::Generator;
use crate::spans::Tracer;

/// One named output check.
#[derive(Debug)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// What one run measured, before it is turned into named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks, all of which must hold.
    pub checks: Vec<Check>,
    /// Transactions due in the window (open loop: scheduled; saturating:
    /// admitted).
    pub due: u64,
    /// Due transactions not committed by the end of the drain grace.
    pub failed: u64,
    /// Of `failed`: refused by admission (open loop only).
    pub refused: u64,
    /// Of `failed`: inside a batch some node committed without its bytes.
    pub in_unavailable_batches: u64,
    /// Of `failed`: drained into a proposal (a `BatchSealed` record covers
    /// it) that never committed.
    pub lost_after_proposal: u64,
    /// Of `failed`: admitted but never drained into a proposal.
    pub never_proposed: u64,
    /// `failed`, split by the node whose mempool admitted or refused it.
    pub failed_by_node: Vec<u64>,
    /// Due → first commit of the carrying block, µs, sorted, for committed
    /// due txs.
    pub tx_latency_us: Vec<u64>,
    /// Block commit latency as `ClusterReport::commit_latencies_us` defines
    /// it (first proposal anywhere → each node's first commit), for commits
    /// inside the window, µs, sorted.
    pub commit_latency_us: Vec<u64>,
    /// `(quorum commit time, referenced bytes)` of every quorum-committed
    /// block, sorted by time.
    pub quorum_commits: Vec<(u64, u64)>,
    /// Per committed due tx, µs, sorted: batch seal → first proposal,
    /// proposal → first QC, QC → first commit, and due → seal.
    pub propose_wait_us: Vec<u64>,
    /// See `propose_wait_us`.
    pub vote_to_qc_us: Vec<u64>,
    /// See `propose_wait_us`.
    pub qc_to_commit_us: Vec<u64>,
    /// See `propose_wait_us`.
    pub queue_us: Vec<u64>,
    /// Referenced bytes of every quorum-committed block.
    pub committed_bytes: u64,
    /// Batch bytes hashed on insert into any node's batch store (the seal
    /// hash on the sealing node, the push re-hash on every receiver).
    pub stored_bytes: u64,
    /// Mean sealed batch size, bytes.
    pub mean_batch_bytes: f64,
    /// Mean batch refs per committed block that carries any.
    pub mean_refs_per_block: f64,
    /// Distinct batches some node committed unavailable.
    pub unavailable_batches: u64,
    /// `CommittedBatchUnavailable` records.
    pub unavailable_records: u64,
    /// `TimeoutFired` / `TcFormed` trace records.
    pub timeouts_fired: u64,
    /// See `timeouts_fired`.
    pub tcs_formed: u64,
}

/// The window and fault timing of a run, µs since the cluster epoch.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Measurement window start.
    pub window_start_us: u64,
    /// Measurement window end.
    pub window_end_us: u64,
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// Framing of a batch exactly as the documented payload format defines it
/// (`u32` LE length, then the transaction), rebuilt independently of the
/// assembler so the digest comparison checks both.
fn frame_batch(txs: impl Iterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    for tx in txs {
        out.extend_from_slice(&(tx.len() as u32).to_le_bytes());
        out.extend_from_slice(&tx);
    }
    out
}

#[derive(Clone, Copy, Debug)]
struct SealedInfo {
    node: usize,
    /// Index of the batch's first tx in that node's accepted list.
    first: usize,
    count: usize,
    sealed_at_us: u64,
    bytes: u64,
}

/// Accounts one stopped run. `counters` are the mempool counters read
/// after stop, one per node.
pub fn account(
    report: &ClusterReport,
    generator: &Generator,
    counters: &[MempoolCounters],
    open_loop: bool,
    timing: Timing,
    tr: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let n = report.n;
    let quorum = 2 * ((n - 1) / 3) + 1;

    // Ring overflow would hide commits and seals from everything below.
    let dropped: u64 = report
        .reports
        .iter()
        .map(|r| r.metrics.counter("telemetry.dropped_events"))
        .sum();
    check(
        &mut out.checks,
        "no_dropped_trace_events",
        dropped == 0,
        format!("dropped={dropped}"),
    );

    // Safety. Committing a batch the node's store no longer holds is a known
    // dissemination defect: it is counted (its txs fail), not hidden.
    let mut unavailable: HashSet<Digest> = HashSet::new();
    match tr.span("check_invariants", || report.check_invariants()) {
        Ok(_) => check(&mut out.checks, "invariants", true, "ok".into()),
        Err(violations) => {
            let mut other = Vec::new();
            for v in violations {
                match v {
                    Violation::CommittedBatchUnavailable { batch, .. } => {
                        out.unavailable_records += 1;
                        unavailable.insert(batch);
                    }
                    v => other.push(v.to_string()),
                }
            }
            let detail = match other.first() {
                Some(first) => format!("{} violations, first: {first}", other.len()),
                None => "ok".into(),
            };
            check(&mut out.checks, "invariants", other.is_empty(), detail);
        }
    }
    out.unavailable_batches = unavailable.len() as u64;
    let dups = report.duplicate_committed_txs();
    check(
        &mut out.checks,
        "no_duplicate_committed_txs",
        dups == 0,
        format!("report={dups}"),
    );

    let broken: Vec<String> = counters
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            c.accepted + c.rejected + c.deduped != c.submitted
                || c.submitted != generator.attempts[*i]
                || c.accepted != generator.accepted[*i].len() as u64
        })
        .map(|(i, c)| {
            format!(
                "node {i}: {c:?}, generator attempts={} accepted={}",
                generator.attempts[i],
                generator.accepted[i].len()
            )
        })
        .collect();
    check(
        &mut out.checks,
        "mempool_counter_identity",
        broken.is_empty(),
        if broken.is_empty() {
            "all nodes".into()
        } else {
            broken.join("; ")
        },
    );

    // One pass over the merged trace.
    let mut sealed_by_node: Vec<Vec<(u64, Digest, u64, u64)>> = vec![Vec::new(); n];
    let mut stored_count: HashMap<Digest, u64> = HashMap::new();
    let mut proposed_at: HashMap<BlockId, u64> = HashMap::new();
    let mut qc_at: HashMap<BlockId, u64> = HashMap::new();
    let mut committed_at: HashMap<BlockId, HashMap<NodeId, u64>> = HashMap::new();
    for rec in &report.records {
        let at = rec.at.0;
        match rec.event {
            TraceEvent::BatchSealed {
                node,
                batch,
                txs,
                bytes,
            } => {
                sealed_by_node[node.0 as usize].push((at, batch, txs, bytes));
            }
            TraceEvent::BatchStored { batch, .. } => *stored_count.entry(batch).or_default() += 1,
            TraceEvent::ProposalSent { block, .. } => {
                proposed_at.entry(block).or_insert(at);
            }
            TraceEvent::QcFormed { block, .. } => {
                qc_at.entry(block).or_insert(at);
            }
            TraceEvent::BlockCommitted { node, block, .. } => {
                committed_at
                    .entry(block)
                    .or_default()
                    .entry(node)
                    .or_insert(at);
            }
            TraceEvent::TimeoutFired { .. } => out.timeouts_fired += 1,
            TraceEvent::TcFormed { .. } => out.tcs_formed += 1,
            _ => {}
        }
    }

    // Rebuild every sealed batch from the generator's records and verify it
    // against the sealed digest.
    let mut sealed: HashMap<Digest, SealedInfo> = HashMap::new();
    let mut mismatches = 0u64;
    let mut first_mismatch = String::new();
    let mut sealed_bytes_total = 0u64;
    let mut proposed_upto = vec![0usize; n];
    for (node, list) in sealed_by_node.iter().enumerate() {
        let accepted = &generator.accepted[node];
        let mut cursor = 0usize;
        for &(at, digest, txs, bytes) in list {
            let count = txs as usize;
            let ok = cursor + count <= accepted.len() && {
                let framed = frame_batch(
                    accepted[cursor..cursor + count]
                        .iter()
                        .map(|&s| generator.tx_bytes_of(s)),
                );
                framed.len() as u64 == bytes && batch_digest(&framed) == digest
            };
            if !ok {
                mismatches += 1;
                if first_mismatch.is_empty() {
                    first_mismatch = format!(
                        "node {node} batch {} ({txs} txs at {at} µs)",
                        digest.short()
                    );
                }
            }
            sealed.insert(
                digest,
                SealedInfo {
                    node,
                    first: cursor,
                    count,
                    sealed_at_us: at,
                    bytes,
                },
            );
            sealed_bytes_total += bytes;
            cursor += count;
        }
        proposed_upto[node] = cursor;
    }
    let sealed_batches = sealed.len() as u64;
    check(
        &mut out.checks,
        "sealed_batches_rebuilt",
        mismatches == 0,
        format!("{sealed_batches} batches, {mismatches} mismatched {first_mismatch}"),
    );
    out.mean_batch_bytes = if sealed_batches > 0 {
        sealed_bytes_total as f64 / sealed_batches as f64
    } else {
        0.0
    };
    out.stored_bytes = stored_count
        .iter()
        .filter_map(|(d, c)| sealed.get(d).map(|s| s.bytes * c))
        .sum();

    // Quorum-committed blocks with their payloads.
    let mut blocks: HashMap<BlockId, &Block> = HashMap::new();
    for r in &report.reports {
        for c in &r.commits {
            blocks.entry(c.block.id()).or_insert(&c.block);
        }
    }
    // (first commit anywhere, quorum commit, block id)
    let mut quorum_blocks: Vec<(u64, u64, BlockId)> = committed_at
        .iter()
        .filter(|(_, nodes)| nodes.len() >= quorum)
        .map(|(id, nodes)| {
            let mut times: Vec<u64> = nodes.values().copied().collect();
            times.sort_unstable();
            (times[0], times[quorum - 1], *id)
        })
        .collect();
    quorum_blocks.sort_unstable_by_key(|&(_, at_quorum, _)| at_quorum);

    let (w0, w1) = (timing.window_start_us, timing.window_end_us);
    // The drain and setup phases commit empty blocks fast; only window
    // commits are the workload's. Whole-run counts tie this to the public
    // accessor.
    let whole_run = report.commit_latencies_us().len();
    let mut pairs = 0usize;
    for (block, nodes) in &committed_at {
        let Some(&proposed) = proposed_at.get(block) else {
            continue;
        };
        pairs += nodes.len();
        for &at in nodes.values().filter(|at| (w0..w1).contains(*at)) {
            out.commit_latency_us.push(at.saturating_sub(proposed));
        }
    }
    check(
        &mut out.checks,
        "commit_latency_samples",
        pairs == whole_run,
        format!("{pairs} (node, block) commits vs commit_latencies_us {whole_run}"),
    );
    let mut commit_of: Vec<Option<u64>> = vec![None; generator.txs.len()];
    let mut own_dups = 0u64;
    let mut missing_payloads = 0u64;
    let mut unresolved_refs = 0u64;
    let mut available_ref_bytes = 0u64;
    let mut committed_txs = 0u64;
    let mut in_unavailable: HashSet<u64> = HashSet::new();
    let (mut ref_blocks, mut refs_total) = (0u64, 0u64);
    for &(first, at_quorum, id) in &quorum_blocks {
        let Some(block) = blocks.get(&id) else {
            missing_payloads += 1;
            continue;
        };
        let refs = block.payload().batch_refs().unwrap_or(&[]);
        if !refs.is_empty() {
            ref_blocks += 1;
            refs_total += refs.len() as u64;
        }
        let bytes: u64 = refs.iter().map(|r| r.bytes).sum();
        out.committed_bytes += bytes;
        out.quorum_commits.push((at_quorum, bytes));
        for r in refs {
            let Some(info) = sealed.get(&r.digest) else {
                unresolved_refs += 1;
                continue;
            };
            let seqs = &generator.accepted[info.node][info.first..info.first + info.count];
            if unavailable.contains(&r.digest) {
                in_unavailable.extend(seqs.iter().copied());
                continue;
            }
            available_ref_bytes += r.bytes;
            for &seq in seqs {
                let slot = &mut commit_of[seq as usize];
                if slot.is_some() {
                    own_dups += 1;
                    continue;
                }
                *slot = Some(first);
                committed_txs += 1;
                let due = generator.txs[seq as usize].due_us;
                if (w0..w1).contains(&due) {
                    let proposed = proposed_at.get(&id).copied().unwrap_or(first);
                    let qc = qc_at.get(&id).copied().unwrap_or(first);
                    out.queue_us.push(info.sealed_at_us.saturating_sub(due));
                    out.propose_wait_us
                        .push(proposed.saturating_sub(info.sealed_at_us));
                    out.vote_to_qc_us.push(qc.saturating_sub(proposed));
                    out.qc_to_commit_us.push(first.saturating_sub(qc));
                }
            }
        }
    }
    out.mean_refs_per_block = if ref_blocks > 0 {
        refs_total as f64 / ref_blocks as f64
    } else {
        0.0
    };
    check(
        &mut out.checks,
        "committed_refs_resolve",
        missing_payloads == 0 && unresolved_refs == 0 && own_dups == 0,
        format!(
            "{missing_payloads} blocks without payload, {unresolved_refs} refs without a seal, \
             {own_dups} txs committed twice"
        ),
    );
    // Every generated tx has the same size, so committed bytes fix the count.
    let per_tx = (generator.tx_bytes + BATCH_TX_OVERHEAD) as u64;
    check(
        &mut out.checks,
        "committed_tx_count_matches_ref_bytes",
        available_ref_bytes.is_multiple_of(per_tx) && available_ref_bytes / per_tx == committed_txs,
        format!("{committed_txs} txs, {available_ref_bytes} B / {per_tx} B"),
    );

    // seq -> (node, index in that node's accepted list) for admitted txs.
    let mut slot_of: HashMap<u64, (usize, usize)> = HashMap::new();
    for (node, accepted) in generator.accepted.iter().enumerate() {
        slot_of.extend(
            accepted
                .iter()
                .enumerate()
                .map(|(i, &seq)| (seq, (node, i))),
        );
    }
    out.failed_by_node = vec![0; n];
    for (seq, tx) in generator.txs.iter().enumerate() {
        if !(w0..w1).contains(&tx.due_us) || (!open_loop && !tx.accepted) {
            continue;
        }
        out.due += 1;
        match commit_of[seq] {
            Some(at) => out.tx_latency_us.push(at.saturating_sub(tx.due_us)),
            None => {
                out.failed += 1;
                out.failed_by_node[tx.node as usize] += 1;
                if !tx.accepted {
                    out.refused += 1;
                } else if in_unavailable.contains(&(seq as u64)) {
                    out.in_unavailable_batches += 1;
                } else if slot_of[&(seq as u64)].1 < proposed_upto[tx.node as usize] {
                    out.lost_after_proposal += 1;
                } else {
                    out.never_proposed += 1;
                }
            }
        }
    }
    check(
        &mut out.checks,
        "window_committed_txs",
        !out.tx_latency_us.is_empty(),
        format!(
            "{} of {} due txs committed",
            out.tx_latency_us.len(),
            out.due
        ),
    );

    for v in [
        &mut out.tx_latency_us,
        &mut out.commit_latency_us,
        &mut out.propose_wait_us,
        &mut out.vote_to_qc_us,
        &mut out.qc_to_commit_us,
        &mut out.queue_us,
    ] {
        v.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_mempool::{encode_batch, make_tx, Tx};

    #[test]
    fn independent_framing_matches_the_assembler() {
        let raw: Vec<Vec<u8>> = (0..5u64).map(|s| make_tx(100 + s, 3, s, 180)).collect();
        let txs: Vec<Tx> = raw.iter().map(|b| Tx::new(b.clone())).collect();
        assert_eq!(frame_batch(raw.into_iter()), encode_batch(&txs));
    }
}
