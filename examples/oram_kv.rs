// An oblivious key-value store: `dob-store`'s batched epoch engine with
// the tree-ORAM point-lookup path (§4.2) enabled by a bounded key space.
//
// Clients submit Get/Put/Delete/Aggregate ops into epochs; the path each
// epoch takes — full §F merge against the resident table, or one OPRAM
// step of one walk per op — is selected by *public* sizes alone: an epoch
// merges when its padded class would take the pending log of ORAM-path
// ops past `pending_limit`.
//
// ```sh
// cargo run --release --example oram_kv
// ```

use dob::prelude::*;

fn main() {
    let c = SeqCtx::new();
    let space = dob::env_size("DOB_ORAM_SPACE", 4096);
    let scratch = ScratchPool::new();
    let mut cfg = StoreConfig::with_oram(space);
    cfg.pending_limit = 64;
    let mut store = Store::new(cfg);

    // Bulk load: a batch past the pending limit takes the merge path. Keys
    // may collide for small DOB_ORAM_SPACE values — last writer wins, like
    // any KV map.
    let load_keys: Vec<u64> = (0..128u64).map(|i| (i * 61) % space as u64).collect();
    let distinct: std::collections::HashSet<u64> = load_keys.iter().copied().collect();
    let mut epoch = store.epoch();
    for (i, &key) in load_keys.iter().enumerate() {
        epoch.submit(Op::Put {
            key,
            val: 1000 + i as u64,
        });
    }
    let n = epoch.len();
    epoch
        .commit(&c, &scratch, &mut store)
        .expect("in-memory epoch cannot fail");
    assert_eq!(store.last_path(), Some(EpochPath::Merge));
    println!(
        "loaded {n} puts ({} distinct keys) in one merge epoch (capacity {})",
        distinct.len(),
        store.capacity()
    );

    // Point lookups: a batch within the limit walks the ORAM instead of
    // merging.
    let (k1, k2, k3) = (61 % space as u64, 122 % space as u64, 183 % space as u64);
    let reqs = vec![
        Op::Get { key: k1 },
        Op::Get { key: k2 },
        Op::Get { key: k1 }, // duplicate read
        Op::Put { key: k3, val: 9999 },
        Op::Get { key: k3 },
    ];
    let res = store
        .execute_epoch(&c, &scratch, &reqs)
        .expect("in-memory epoch cannot fail");
    assert_eq!(store.last_path(), Some(EpochPath::Oram));
    println!(
        "oram-path batch read back: {:?}",
        res.iter().map(|r| r.value()).collect::<Vec<_>>()
    );
    assert_eq!(res[0].value(), res[2].value(), "duplicate reads agree");
    assert_eq!(res[4].value(), Some(9999), "read-your-own-epoch-write");

    // Aggregates observe the analytics snapshot of the last merge.
    let res = store
        .execute_epoch(&c, &scratch, &[Op::Aggregate])
        .expect("in-memory epoch cannot fail");
    if let OpResult::Stats(stats) = res[0] {
        println!(
            "analytics snapshot: {} records, value sum {}",
            stats.count, stats.sum
        );
        assert_eq!(stats.count, distinct.len() as u64);
    }

    // What does the host see? Fix the workload *shape*, swap the stored
    // values, and compare the full traces: identical.
    let trace = |scale: u64| {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let sp = ScratchPool::new();
            let mut s = Store::new(cfg);
            let load: Vec<Op> = (0..96u64)
                .map(|i| Op::Put {
                    key: (i * 97) % space as u64,
                    val: scale * i,
                })
                .collect();
            s.execute_epoch(c, &sp, &load).unwrap();
            let gets: Vec<Op> = (0..8u64)
                .map(|i| Op::Get {
                    key: (i * 97) % space as u64,
                })
                .collect();
            s.execute_epoch(c, &sp, &gets).unwrap();
        });
        (rep.trace_hash, rep.trace_len)
    };
    let a = trace(1);
    let b = trace(1_000_000);
    println!("host trace, values x1 vs x1e6: identical = {}", a == b);
    assert_eq!(a, b);
}
