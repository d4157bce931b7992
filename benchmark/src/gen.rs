//! Seeded load generation. All load comes from one thread and one
//! `--seed`; the program under test receives only the generated inputs.
//! Cost in this system is a function of public shape only, so the
//! generator varies contents (keys, values, op kinds) and the workloads
//! vary shape.

use crate::api::Op;

/// SplitMix64: small, seedable, and good enough to draw uniform keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over the op stream — the fingerprint the determinism test and
/// the result file carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl StreamHash {
    pub fn new() -> StreamHash {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn op(&mut self, op: &Op) {
        let (tag, key, val) = match *op {
            Op::Get { key } => (0, key, 0),
            Op::Put { key, val } => (1, key, val),
            Op::Delete { key } => (2, key, 0),
            Op::Aggregate => (3, 0, 0),
        };
        self.word(tag);
        self.word(key);
        self.word(val);
    }
}

/// The closed-loop client's op stream over a resident key set: each
/// batch opens with one `Aggregate` (so the analytics path is checked
/// every epoch) and continues ½ get, ⅜ put, ⅛ delete on keys drawn
/// uniformly from the set.
pub struct OpStream {
    rng: Rng,
    keys: Vec<u64>,
    pub hash: StreamHash,
}

impl OpStream {
    pub fn new(seed: u64, keys: Vec<u64>) -> OpStream {
        assert!(!keys.is_empty());
        OpStream {
            rng: Rng::new(seed),
            keys,
            hash: StreamHash::new(),
        }
    }

    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The bulk load: one put per resident key, in key-set order.
    pub fn bulk_load(&mut self) -> Vec<Op> {
        let ops: Vec<Op> = self
            .keys
            .iter()
            .map(|&key| Op::Put {
                key,
                val: self.rng.next_u64() >> 1,
            })
            .collect();
        ops.iter().for_each(|op| self.hash.op(op));
        ops
    }

    pub fn next_batch(&mut self, n: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        for i in 0..n {
            let key = self.keys[self.rng.below(self.keys.len() as u64) as usize];
            let op = if i == 0 {
                Op::Aggregate
            } else {
                match self.rng.next_u64() & 7 {
                    0..=3 => Op::Get { key },
                    // Values stay below u64::MAX, which the store reserves.
                    4..=6 => Op::Put {
                        key,
                        val: self.rng.next_u64() >> 1,
                    },
                    _ => Op::Delete { key },
                }
            };
            self.hash.op(&op);
            ops.push(op);
        }
        ops
    }

    /// `n` keys of the resident set, for `read_now`.
    pub fn read_keys(&mut self, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let key = self.keys[self.rng.below(self.keys.len() as u64) as usize];
                self.hash.word(key);
                key
            })
            .collect()
    }
}

/// Input of one `sort-paper` sort: `n` uniform keys and the sort's coin.
pub fn sort_input(rng: &mut Rng, n: usize, hash: &mut StreamHash) -> (Vec<u64>, u64) {
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let coin = rng.next_u64();
    keys.iter().for_each(|&k| hash.word(k));
    hash.word(coin);
    (keys, coin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> (u64, Vec<Op>) {
        let mut s = OpStream::new(seed, (0..512).collect());
        let load = s.bulk_load();
        assert_eq!(load.len(), 512);
        let mut last = Vec::new();
        for _ in 0..20 {
            last = s.next_batch(64);
        }
        s.read_keys(16);
        (s.hash.0, last)
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(fingerprint(7), fingerprint(7));
        assert_ne!(fingerprint(7).0, fingerprint(8).0);
        assert_ne!(fingerprint(7).1, fingerprint(8).1);
    }

    #[test]
    fn batches_have_the_stated_mix_over_the_resident_keys() {
        let mut s = OpStream::new(3, (100..164).collect());
        let (mut gets, mut puts, mut dels, mut aggs) = (0, 0, 0, 0);
        for _ in 0..100 {
            for op in s.next_batch(256) {
                match op {
                    Op::Get { key } | Op::Delete { key } | Op::Put { key, .. }
                        if !(100..164).contains(&key) =>
                    {
                        panic!("key {key} outside the resident set")
                    }
                    Op::Get { .. } => gets += 1,
                    Op::Put { val, .. } => {
                        assert!(val < u64::MAX);
                        puts += 1
                    }
                    Op::Delete { .. } => dels += 1,
                    Op::Aggregate => aggs += 1,
                }
            }
        }
        assert_eq!(aggs, 100, "one aggregate opens each batch");
        let total = (gets + puts + dels) as f64;
        assert!((gets as f64 / total - 0.5).abs() < 0.02);
        assert!((puts as f64 / total - 0.375).abs() < 0.02);
        assert!((dels as f64 / total - 0.125).abs() < 0.02);
    }

    #[test]
    fn sort_inputs_are_seeded() {
        let draw = |seed| {
            let mut h = StreamHash::new();
            let (keys, coin) = sort_input(&mut Rng::new(seed), 100, &mut h);
            (keys, coin, h)
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1).2, draw(2).2);
    }
}
