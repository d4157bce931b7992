// Pipelined async epochs: the double-buffered front end over the epoch
// engine. Client batches are submitted while the previous epoch's merge
// runs as a detached fork-join task; while a `Put` is still mid-merge, a
// `read_now` consult answers through the in-flight epoch's *padded* op
// log — strict read-your-writes with a shape-only trace. `try_commit`
// coalesces batches while the engine is busy (group commit), which is
// where the steady-state throughput win over synchronous commits comes
// from.
//
// ```sh
// cargo run --release --example pipelined_epochs
// ```

use dob::prelude::*;
use std::time::Instant;

fn client_batch(n: usize, round: u64, universe: u64) -> Vec<Op> {
    (0..n as u64)
        .map(|i| {
            let key = (i * 17 + round * 29 + 1) % universe;
            match i % 3 {
                0 | 1 => Op::Put {
                    key,
                    val: round * 1_000 + i,
                },
                _ => Op::Get { key },
            }
        })
        .collect()
}

fn main() {
    let n = dob::env_size("DOB_PIPELINE_N", 256);
    let rounds = dob::env_size("DOB_PIPELINE_ROUNDS", 12) as u64;
    let universe = 509u64;
    let pool = Pool::with_default_threads();

    // --- Synchronous reference: one blocking commit per client batch.
    let scratch = ScratchPool::new();
    let mut sync = Store::new(StoreConfig::default());
    let t0 = Instant::now();
    for round in 0..rounds {
        let ops = client_batch(n, round, universe);
        let _ = pool
            .run(|c| sync.execute_epoch(c, &scratch, &ops))
            .expect("in-memory epoch cannot fail");
    }
    let sync_wall = t0.elapsed();

    // --- Pipelined: submissions never wait for a merge; batches coalesce
    // while the engine is busy.
    let mut p = PipelinedStore::new(Store::new(StoreConfig::default())).with_open_limit(4 * n);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for round in 0..rounds {
        for op in client_batch(n, round, universe) {
            p.submit(op);
        }
        if round == 0 {
            // Mid-stream read-your-writes: this round's writes are visible
            // even though no commit for them has been joined yet. (The
            // consult is not a replay: it sorts the un-merged log with the
            // queries and merges the query window into each table copy, so
            // it costs one table-sized merge pass, not an epoch — here it
            // runs once, to show it works.)
            let probe = (round * 29 + 1) % universe; // this round's i = 0 put
            let seen = p.read_now(&pool, &[probe]);
            assert_eq!(seen[0], Some(round * 1_000), "read_now missed an open put");
        }
        if let Some(h) = p.try_commit(&pool) {
            handles.push(h);
        }
    }
    p.drain(&pool);
    let pipe_wall = t0.elapsed();
    for h in &handles {
        let _ = p.wait(h).expect("in-memory epoch cannot fail"); // redeemable in any order
    }

    let (started, retired) = p.epoch_counts();
    assert_eq!(started, retired);
    let inner = p.into_inner(&pool);
    assert_eq!(inner.stats(), sync.stats(), "pipelined state diverged");

    println!("pipelined epochs — {rounds} client batches of {n} ops");
    println!("  synchronous : {sync_wall:>10.2?}  ({rounds} merges)");
    println!("  pipelined   : {pipe_wall:>10.2?}  ({retired} merges after group commit)");
    let speedup = sync_wall.as_secs_f64() / pipe_wall.as_secs_f64().max(1e-9);
    println!("  speedup     : {speedup:.2}x");
}
