//! The seeded load generator: every input the system sees is a function
//! of `--seed`, and the generator keeps the reference tallies the run's
//! results are checked against.

/// SplitMix64: small, seedable, and good enough to shape a workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Skewed index in `[0, n)`: `P(idx < x) = (x / n)^(1/3)`, so the
    /// first eighth of the indices draws half of the traffic.
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.next_f64();
        ((u * u * u) * n as f64) as usize
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub const CLIENTS: usize = 64;
pub const KEYS: usize = 1024;
pub const SHARDS: usize = 2;
/// One request in ten is a put.
const PUT_ONE_IN: u64 = 10;
/// Requests a worker cycles through; a power of two.
const STREAM_LEN: usize = 1 << 16;

/// One KV request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub client: u8,
    pub key: u16,
    /// Bytes written by a put; 0 for a get.
    pub put_len: u16,
}

/// One worker's request stream: `STREAM_LEN` seeded requests, replayed
/// in a cycle for as long as the run lasts.
pub struct RequestStream {
    requests: Vec<Request>,
}

impl RequestStream {
    pub fn new(seed: u64, worker: usize) -> RequestStream {
        let mut rng = Rng::new(seed ^ (worker as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let requests = (0..STREAM_LEN)
            .map(|_| Request {
                client: rng.skewed(CLIENTS) as u8,
                key: rng.skewed(KEYS) as u16,
                put_len: if rng.below(PUT_ONE_IN) == 0 {
                    64 + rng.below(192) as u16
                } else {
                    0
                },
            })
            .collect();
        RequestStream { requests }
    }

    #[inline]
    pub fn get(&self, n: u64) -> Request {
        self.requests[n as usize & (STREAM_LEN - 1)]
    }

    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in &self.requests {
            fnv(&mut h, &[r.client]);
            fnv(&mut h, &r.key.to_le_bytes());
            fnv(&mut h, &r.put_len.to_le_bytes());
        }
        h
    }
}

/// Reference tallies of the `svc_*` workloads, kept by each worker from
/// the values it hands to the tracepoints and summed at the end.
pub struct SvcTally {
    pub requests: u64,
    /// Per client: requests and shard bytes (Q1's `COUNT`, `SUM`).
    pub per_client: [(u64, u64); CLIENTS],
    /// Per shard: requests and bytes.
    pub per_shard: [(u64, u64); SHARDS],
    /// Gets and puts: requests and largest `bytes`.
    pub per_op: [(u64, u64); 2],
    /// Per shard: executions that touched no bytes (missed gets).
    pub misses: [u64; SHARDS],
    /// Headers that failed strict deserialization.
    pub header_failures: u64,
    /// Serialized baggage bytes over both RPC edges.
    pub header_bytes: u64,
    /// `trigger_retro` calls made and the events they claimed.
    pub retro_triggers: u64,
}

impl SvcTally {
    pub fn new() -> SvcTally {
        SvcTally {
            requests: 0,
            per_client: [(0, 0); CLIENTS],
            per_shard: [(0, 0); SHARDS],
            per_op: [(0, 0); 2],
            misses: [0; SHARDS],
            header_failures: 0,
            header_bytes: 0,
            retro_triggers: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, req: Request, shard: usize, bytes: u64) {
        self.requests += 1;
        let c = &mut self.per_client[req.client as usize];
        c.0 += 1;
        c.1 += bytes;
        let s = &mut self.per_shard[shard];
        s.0 += 1;
        s.1 += bytes;
        let op = &mut self.per_op[usize::from(req.put_len > 0)];
        op.0 += 1;
        op.1 = op.1.max(bytes);
        if bytes == 0 {
            self.misses[shard] += 1;
        }
    }

    pub fn merge(&mut self, other: &SvcTally) {
        self.requests += other.requests;
        for (a, b) in self.per_client.iter_mut().zip(&other.per_client) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.per_shard.iter_mut().zip(&other.per_shard) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.0 += b.0;
            a.1 = a.1.max(b.1);
        }
        for (a, b) in self.misses.iter_mut().zip(&other.misses) {
            *a += b;
        }
        self.header_failures += other.header_failures;
        self.header_bytes += other.header_bytes;
        self.retro_triggers += other.retro_triggers;
    }

    pub fn total_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.1).sum()
    }
}

pub const FANIN_AGENTS: usize = 16;
pub const FANIN_EVENTS: usize = 256;
/// The streaming query keeps events whose `tag` is below this: a quarter
/// of them (`tag` is uniform in `[0, 256)`), so every agent flush carries
/// about 64 raw rows. Below `pivot_core::agent::ENCODE_MIN_ROWS` (32) rows
/// per flush the agents would ship plain rows and the columnar block
/// encoding would never run.
pub const FANIN_TAG_CUT: u64 = 64;

/// One `Fanin.event` invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaninEvent {
    pub key: u16,
    pub val: u64,
    pub tag: u64,
}

/// The report path's event stream: batches come out in (round, agent)
/// order and depend on the seed alone.
pub struct FaninGen {
    rng: Rng,
}

impl FaninGen {
    pub fn new(seed: u64) -> FaninGen {
        FaninGen {
            rng: Rng::new(seed ^ 0x5bd1_e995_9d1c_0f3b),
        }
    }

    /// The next agent's batch of one round, appended to `out`.
    pub fn batch(&mut self, out: &mut Vec<FaninEvent>) {
        out.clear();
        out.extend((0..FANIN_EVENTS).map(|_| FaninEvent {
            key: self.rng.skewed(KEYS) as u16,
            val: 1 + self.rng.below(4096),
            tag: self.rng.below(256),
        }));
    }

    /// Digest of the first `rounds` rounds from a fresh generator.
    pub fn digest(seed: u64, rounds: usize) -> u64 {
        let mut gen = FaninGen::new(seed);
        let mut batch = Vec::new();
        let mut h = FNV_OFFSET;
        for _ in 0..rounds * FANIN_AGENTS {
            gen.batch(&mut batch);
            for e in &batch {
                fnv(&mut h, &e.key.to_le_bytes());
                fnv(&mut h, &e.val.to_le_bytes());
                fnv(&mut h, &e.tag.to_le_bytes());
            }
        }
        h
    }
}

/// Reference tallies of `report_fanin`.
pub struct FaninTally {
    /// Per key: `COUNT`, `SUM(val)`, `MAX(val)`.
    pub per_key: Vec<(u64, u64, u64)>,
    pub events: u64,
    /// Rows the streaming filter keeps, and the sum of their `val`.
    pub kept: u64,
    pub kept_val: u64,
}

impl FaninTally {
    pub fn new() -> FaninTally {
        FaninTally {
            per_key: vec![(0, 0, 0); KEYS],
            events: 0,
            kept: 0,
            kept_val: 0,
        }
    }

    pub fn record(&mut self, batch: &[FaninEvent]) {
        for e in batch {
            let k = &mut self.per_key[e.key as usize];
            k.0 += 1;
            k.1 += e.val;
            k.2 = k.2.max(e.val);
            if e.tag < FANIN_TAG_CUT {
                self.kept += 1;
                self.kept_val += e.val;
            }
        }
        self.events += batch.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_stream() {
        for worker in 0..2 {
            let a = RequestStream::new(42, worker);
            let b = RequestStream::new(42, worker);
            assert_eq!(a.digest(), b.digest());
            assert_ne!(a.digest(), RequestStream::new(43, worker).digest());
        }
        assert_ne!(
            RequestStream::new(42, 0).digest(),
            RequestStream::new(42, 1).digest()
        );
        assert_eq!(FaninGen::digest(7, 3), FaninGen::digest(7, 3));
        assert_ne!(FaninGen::digest(7, 3), FaninGen::digest(8, 3));
    }

    #[test]
    fn request_mix_matches_the_stated_shape() {
        let s = RequestStream::new(1, 0);
        let puts = s.requests.iter().filter(|r| r.put_len > 0).count();
        let share = puts as f64 / s.requests.len() as f64;
        assert!((share - 0.10).abs() < 0.01, "put share {share}");
        assert!(s.requests.iter().all(|r| (r.client as usize) < CLIENTS));
        assert!(s.requests.iter().all(|r| (r.key as usize) < KEYS));
        let hot = s
            .requests
            .iter()
            .filter(|r| (r.key as usize) < KEYS / 8)
            .count();
        let hot_share = hot as f64 / s.requests.len() as f64;
        assert!((hot_share - 0.5).abs() < 0.02, "hot share {hot_share}");
    }

    #[test]
    fn tallies_merge_like_one_stream() {
        let s = RequestStream::new(9, 0);
        let mut whole = SvcTally::new();
        let mut halves = [SvcTally::new(), SvcTally::new()];
        for n in 0..1000u64 {
            let r = s.get(n);
            let shard = r.key as usize % SHARDS;
            let bytes = u64::from(r.put_len);
            whole.record(r, shard, bytes);
            halves[(n % 2) as usize].record(r, shard, bytes);
        }
        let [mut a, b] = halves;
        a.merge(&b);
        assert_eq!(a.requests, whole.requests);
        assert_eq!(a.per_client, whole.per_client);
        assert_eq!(a.per_op, whole.per_op);
        assert_eq!(a.misses, whole.misses);
        assert_eq!(a.total_bytes(), whole.total_bytes());
    }
}
