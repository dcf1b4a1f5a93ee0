//! Simulated HDFS: NameNode, DataNodes, and the DFS client.
//!
//! Faithful to the protocol behaviours the paper's case studies exercise:
//!
//! - `GetBlockLocations` returns replica lists ordered by
//!   `pseudoSortByDistance`; with [`ClusterConfig::replica_bug`] enabled,
//!   rack-local replicas keep a **global static ordering** and the client
//!   always takes the first entry — the two conflicting behaviours of
//!   HDFS-6268 (paper §6.1).
//! - DataNode reads move chunk-by-chunk through the disk and both NICs,
//!   invoking `DataNodeMetrics.incrBytesRead`, `FileInputStream`, and the
//!   timing tracepoints along the way.
//! - Writes pipeline through all replicas.
//! - The NameNode serializes metadata operations through a lock whose
//!   write operations are far more expensive than reads (the §6.2
//!   "exclusive write locking" case study).
//!
//! [`ClusterConfig::replica_bug`]: crate::cluster::ClusterConfig

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use pivot_core::Agent;
use pivot_model::Value;
use pivot_simrt::{FifoResource, Nanos, NANOS_PER_SEC};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::cluster::{transfer, Cluster, Host, MB};
use crate::ctx::Ctx;
use crate::gc::Gc;
use crate::tracepoints as tp;

/// HDFS block size (the paper's clusters use 128 MB).
pub const BLOCK_SIZE: f64 = 128.0 * MB;

/// Size of a control-plane RPC message, excluding baggage.
const RPC_BYTES: f64 = 512.0;

/// One replicated block.
#[derive(Clone, Debug)]
pub struct BlockMeta {
    /// Globally unique block id.
    pub id: u64,
    /// Bytes stored in this block.
    pub size: f64,
    /// Hosts holding replicas (unordered).
    pub replicas: Vec<usize>,
}

/// A located block as returned by `GetBlockLocations`: replicas ordered by
/// the NameNode's distance sort.
#[derive(Clone, Debug)]
pub struct LocatedBlock {
    /// The block.
    pub block: BlockMeta,
    /// Replica hosts in selection order.
    pub order: Vec<usize>,
}

#[derive(Clone, Debug, Default)]
struct FileMeta {
    blocks: Vec<BlockMeta>,
}

/// The HDFS NameNode.
pub struct NameNode {
    cluster: Rc<Cluster>,
    /// The host the NameNode runs on.
    pub host: Rc<Host>,
    /// The NameNode process's agent.
    pub agent: Arc<Agent>,
    /// Namespace lock: reads cost 1 unit, writes cost [`Self::WRITE_COST`].
    lock: FifoResource,
    files: RefCell<HashMap<String, FileMeta>>,
    next_block: Cell<u64>,
}

impl NameNode {
    /// Lock units consumed by a mutating metadata operation (exclusive
    /// write locking; reads cost 1).
    pub const WRITE_COST: f64 = 40.0;

    /// Lock service rate in units per second.
    pub const LOCK_RATE: f64 = 20_000.0;

    fn new(cluster: &Rc<Cluster>) -> Rc<NameNode> {
        let host = Rc::clone(cluster.nn_host());
        let agent = cluster.new_agent(&host, "NameNode");
        Rc::new(NameNode {
            cluster: Rc::clone(cluster),
            lock: FifoResource::new(cluster.clock.clone(), Self::LOCK_RATE),
            host,
            agent,
            files: RefCell::new(HashMap::new()),
            next_block: Cell::new(1),
        })
    }

    /// Creates a file with pre-placed blocks and **no simulated IO** —
    /// bootstrap for pre-existing datasets.
    pub fn bootstrap_file(&self, name: &str, size: f64, replication: usize) {
        let meta = self.allocate(size, replication, None);
        self.files.borrow_mut().insert(name.to_owned(), meta);
    }

    fn allocate(&self, size: f64, replication: usize, local_hint: Option<usize>) -> FileMeta {
        let workers = self.cluster.cfg.workers;
        let replication = replication.min(workers);
        let mut rng = self.cluster.rng.borrow_mut();
        let mut blocks = Vec::new();
        let mut remaining = size;
        while remaining > 0.0 {
            let bsize = remaining.min(BLOCK_SIZE);
            remaining -= bsize;
            let mut hosts: Vec<usize> = (0..workers).collect();
            hosts.shuffle(&mut *rng);
            let mut replicas: Vec<usize> = Vec::new();
            if let Some(local) = local_hint {
                replicas.push(local);
            }
            for h in hosts {
                if replicas.len() >= replication {
                    break;
                }
                if !replicas.contains(&h) {
                    replicas.push(h);
                }
            }
            let id = self.next_block.get();
            self.next_block.set(id + 1);
            blocks.push(BlockMeta {
                id,
                size: bsize,
                replicas,
            });
        }
        FileMeta { blocks }
    }

    /// Orders a block's replicas for `client` — the faulty
    /// `pseudoSortByDistance` when the HDFS-6268 bug is enabled.
    fn order_replicas(&self, replicas: &[usize], client: usize) -> Vec<usize> {
        let mut order: Vec<usize> = replicas.to_vec();
        // A local replica always sorts first.
        if let Some(pos) = order.iter().position(|&h| h == client) {
            order.swap(0, pos);
            let rest = &mut order[1..];
            self.order_rest(rest);
        } else {
            self.order_rest(&mut order[..]);
        }
        order
    }

    fn order_rest(&self, rest: &mut [usize]) {
        if self.cluster.cfg.replica_bug {
            // HDFS-6268: rack-local replicas follow a global static
            // ordering instead of being randomized.
            rest.sort_unstable();
        } else {
            rest.shuffle(&mut *self.cluster.rng.borrow_mut());
        }
    }

    /// Server-side `GetBlockLocations`: looks up the blocks overlapping
    /// `[offset, offset + len)` and orders each block's replicas.
    pub async fn get_block_locations(
        &self,
        ctx: &mut Ctx,
        src: &str,
        offset: f64,
        len: f64,
        client_host: usize,
    ) -> Vec<LocatedBlock> {
        let lock_nanos = self.lock.acquire(1.0).await;
        let files = self.files.borrow();
        let Some(meta) = files.get(src) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut pos = 0.0;
        for b in &meta.blocks {
            let end = pos + b.size;
            if end > offset && pos < offset + len {
                out.push(LocatedBlock {
                    block: b.clone(),
                    order: self.order_replicas(&b.replicas, client_host),
                });
            }
            pos = end;
        }
        drop(files);
        let replicas_str = out
            .first()
            .map(|lb| {
                lb.order
                    .iter()
                    .map(|&h| self.cluster.hosts[h].name.clone())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        self.agent.invoke(
            tp::NN_GET_BLOCK_LOCATIONS,
            &mut ctx.bag,
            self.cluster.clock.now(),
            &[
                ("src", Value::str(src)),
                ("replicas", Value::str(replicas_str)),
                ("lockNanos", Value::U64(lock_nanos)),
            ],
        );
        out
    }

    /// Server-side metadata operation (`open` / `create` / `rename` / …).
    /// Mutating operations hold the namespace lock exclusively.
    pub async fn metadata_op(&self, ctx: &mut Ctx, op: &str, mutating: bool) {
        let cost = if mutating { Self::WRITE_COST } else { 1.0 };
        let lock_nanos = self.lock.acquire(cost).await;
        self.agent.invoke(
            tp::NN_CLIENT_PROTOCOL,
            &mut ctx.bag,
            self.cluster.clock.now(),
            &[
                ("op", Value::str(op)),
                ("lockNanos", Value::U64(lock_nanos)),
            ],
        );
    }

    /// Registers a freshly written file.
    pub fn commit_file(&self, name: &str, meta_blocks: Vec<BlockMeta>) {
        self.files.borrow_mut().insert(
            name.to_owned(),
            FileMeta {
                blocks: meta_blocks,
            },
        );
    }

    /// Allocates blocks for a new file being written.
    pub fn allocate_for_write(
        &self,
        size: f64,
        replication: usize,
        local_hint: Option<usize>,
    ) -> Vec<BlockMeta> {
        self.allocate(size, replication, local_hint).blocks
    }

    /// Returns `(offset, size, replica hosts)` for each block of a file —
    /// the split layout MapReduce schedules against.
    pub fn block_layout(&self, name: &str) -> Vec<(f64, f64, Vec<usize>)> {
        let files = self.files.borrow();
        let Some(meta) = files.get(name) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut pos = 0.0;
        for b in &meta.blocks {
            out.push((pos, b.size, b.replicas.clone()));
            pos += b.size;
        }
        out
    }

    /// Returns the file's size, if it exists.
    pub fn file_size(&self, name: &str) -> Option<f64> {
        self.files
            .borrow()
            .get(name)
            .map(|m| m.blocks.iter().map(|b| b.size).sum())
    }

    /// Instantaneous namespace-lock backlog (used to verify the §6.2
    /// write-lock overload case).
    pub fn lock_backlog(&self) -> Nanos {
        self.lock.backlog()
    }
}

/// A DataNode process.
pub struct DataNode {
    cluster: Rc<Cluster>,
    /// The host this DataNode runs on.
    pub host: Rc<Host>,
    /// The DataNode process's agent.
    pub agent: Arc<Agent>,
    /// Optional GC injection.
    pub gc: RefCell<Option<Rc<Gc>>>,
}

impl DataNode {
    /// Serves a block read of `size` bytes, streaming chunks to `client`.
    ///
    /// Invokes `DN.DataTransferProtocol` at arrival, then per chunk:
    /// `FileInputStream` + `DataNodeMetrics.incrBytesRead` after the disk
    /// read, counting queueing on the NICs as blocked time; finally
    /// `DN.Transfer` with the timing decomposition (Figure 9b).
    pub async fn read_block(
        &self,
        ctx: &mut Ctx,
        size: f64,
        client: &Rc<Host>,
        setup_lat: Nanos,
        setup_blocked: Nanos,
    ) {
        let clock = &self.cluster.clock;
        self.agent.invoke(
            tp::DN_DATA_TRANSFER,
            &mut ctx.bag,
            clock.now(),
            &[("op", Value::str("READ")), ("size", Value::F64(size))],
        );
        let start = clock.now();
        // Connection setup that queued behind a saturated link counts as
        // network blocking for this operation (Figure 9b attribution).
        let mut blocked: Nanos = setup_blocked;
        let mut gc_total: Nanos = 0;
        let chunk = self.cluster.cfg.chunk;
        let mut remaining = size;
        let mut first = true;
        while remaining > 0.0 {
            let c = remaining.min(chunk);
            remaining -= c;
            let gc = self.gc.borrow().clone();
            if let Some(gc) = gc {
                let waited = gc.wait().await;
                if waited > 0 {
                    self.agent.invoke(
                        tp::GC_PAUSE,
                        &mut ctx.bag,
                        clock.now(),
                        &[("gcNanos", Value::U64(waited))],
                    );
                }
                gc_total += waited;
            }
            // Random-IO positioning cost on the first chunk of the op.
            let seek = if first {
                self.cluster.cfg.seek_bytes
            } else {
                0.0
            };
            first = false;
            self.host.disk.acquire(c + seek).await;
            self.host.disk_read.add(c);
            self.agent.invoke(
                tp::FILE_INPUT_STREAM,
                &mut ctx.bag,
                clock.now(),
                &[("delta", Value::F64(c)), ("phase", Value::str("HDFS"))],
            );
            self.agent.invoke(
                tp::DN_INCR_BYTES_READ,
                &mut ctx.bag,
                clock.now(),
                &[("delta", Value::F64(c))],
            );
            let lat = transfer(clock, &self.host, client, c).await;
            // "Blocked" is measured against the *nominal* link rate: on a
            // limping link the anomalous extra service time counts as
            // blocking, as in the paper's Figure 9b.
            let ideal = (c / self.cluster.cfg.nic_rate * NANOS_PER_SEC as f64) as Nanos + 100_000;
            blocked += lat.saturating_sub(ideal);
        }
        self.agent.invoke(
            tp::DN_TRANSFER_TIMING,
            &mut ctx.bag,
            clock.now(),
            &[
                // The connection setup belongs to this operation's
                // transfer window so the Figure 9b components add up.
                ("xferNanos", Value::U64(clock.now() - start + setup_lat)),
                ("blockedNanos", Value::U64(blocked)),
                ("gcNanos", Value::U64(gc_total)),
            ],
        );
    }

    /// Receives a block write of `size` bytes from `from` and forwards it
    /// down the replication `pipeline`.
    pub async fn write_block(
        &self,
        ctx: &mut Ctx,
        size: f64,
        from: &Rc<Host>,
        pipeline: &[Rc<DataNode>],
    ) {
        let clock = &self.cluster.clock;
        self.agent.invoke(
            tp::DN_DATA_TRANSFER,
            &mut ctx.bag,
            clock.now(),
            &[("op", Value::str("WRITE")), ("size", Value::F64(size))],
        );
        let chunk = self.cluster.cfg.chunk;
        let mut remaining = size;
        let mut first = true;
        while remaining > 0.0 {
            let c = remaining.min(chunk);
            remaining -= c;
            transfer(clock, from, &self.host, c).await;
            let seek = if first {
                self.cluster.cfg.seek_bytes
            } else {
                0.0
            };
            first = false;
            self.host.disk.acquire(c + seek).await;
            self.host.disk_write.add(c);
            self.agent.invoke(
                tp::FILE_OUTPUT_STREAM,
                &mut ctx.bag,
                clock.now(),
                &[("delta", Value::F64(c)), ("phase", Value::str("HDFS"))],
            );
            self.agent.invoke(
                tp::DN_INCR_BYTES_WRITTEN,
                &mut ctx.bag,
                clock.now(),
                &[("delta", Value::F64(c))],
            );
            // Forward through the rest of the pipeline, chunk by chunk.
            if let Some((next, rest)) = pipeline.split_first() {
                // Box the recursion: async fn cannot be directly recursive.
                let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> =
                    Box::pin(next.write_block_chunkless(ctx, c, &self.host, rest));
                fut.await;
            }
        }
    }

    /// One forwarded chunk of a pipelined write (no per-block tracepoint).
    async fn write_block_chunkless(
        &self,
        ctx: &mut Ctx,
        c: f64,
        from: &Rc<Host>,
        pipeline: &[Rc<DataNode>],
    ) {
        let clock = &self.cluster.clock;
        transfer(clock, from, &self.host, c).await;
        self.host.disk.acquire(c).await;
        self.host.disk_write.add(c);
        self.agent.invoke(
            tp::FILE_OUTPUT_STREAM,
            &mut ctx.bag,
            clock.now(),
            &[("delta", Value::F64(c)), ("phase", Value::str("HDFS"))],
        );
        self.agent.invoke(
            tp::DN_INCR_BYTES_WRITTEN,
            &mut ctx.bag,
            clock.now(),
            &[("delta", Value::F64(c))],
        );
        if let Some((next, rest)) = pipeline.split_first() {
            let fut: std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> =
                Box::pin(next.write_block_chunkless(ctx, c, &self.host, rest));
            fut.await;
        }
    }
}

/// The assembled HDFS service.
pub struct Hdfs {
    /// The NameNode.
    pub namenode: Rc<NameNode>,
    /// One DataNode per worker host.
    pub datanodes: Vec<Rc<DataNode>>,
    cluster: Rc<Cluster>,
}

impl Hdfs {
    /// Starts HDFS on the cluster: one DataNode per worker, the NameNode
    /// on the dedicated host.
    pub fn start(cluster: &Rc<Cluster>) -> Rc<Hdfs> {
        let namenode = NameNode::new(cluster);
        let datanodes = cluster
            .workers()
            .iter()
            .map(|h| {
                Rc::new(DataNode {
                    cluster: Rc::clone(cluster),
                    host: Rc::clone(h),
                    agent: cluster.new_agent(h, "DataNode"),
                    gc: RefCell::new(None),
                })
            })
            .collect();
        Rc::new(Hdfs {
            namenode,
            datanodes,
            cluster: Rc::clone(cluster),
        })
    }

    /// Builds a client bound to a process (its host and agent).
    pub fn client(
        self: &Rc<Hdfs>,
        host: &Rc<Host>,
        agent: &Arc<Agent>,
        procname: &str,
    ) -> DfsClient {
        DfsClient {
            hdfs: Rc::clone(self),
            host: Rc::clone(host),
            agent: Arc::clone(agent),
            procname: procname.to_owned(),
        }
    }
}

/// An HDFS client library instance embedded in some process.
pub struct DfsClient {
    hdfs: Rc<Hdfs>,
    /// The process's host.
    pub host: Rc<Host>,
    /// The process's agent.
    pub agent: Arc<Agent>,
    /// The process name exported at `ClientProtocols`.
    pub procname: String,
}

impl DfsClient {
    fn clock(&self) -> &pivot_simrt::Clock {
        &self.hdfs.cluster.clock
    }

    /// Invokes the `ClientProtocols` tracepoint (the paper records the
    /// process name the first time a request passes any client protocol).
    pub fn client_protocols(&self, ctx: &mut Ctx) {
        self.agent.invoke(
            tp::CLIENT_PROTOCOLS,
            &mut ctx.bag,
            self.clock().now(),
            &[("procName", Value::str(&self.procname))],
        );
    }

    /// A control RPC to the NameNode: ships the baggage both ways.
    async fn nn_rpc<'a, R, F, Fut>(&'a self, ctx: &'a mut Ctx, f: F) -> R
    where
        F: FnOnce(Rc<NameNode>, Ctx) -> Fut,
        Fut: std::future::Future<Output = (Ctx, R)> + 'a,
        R: 'a,
    {
        let nn = Rc::clone(&self.hdfs.namenode);
        let clock = self.clock().clone();
        let wire = ctx.to_wire();
        self.hdfs.cluster.baggage_bytes.add(wire.len() as f64);
        transfer(&clock, &self.host, &nn.host, RPC_BYTES + wire.len() as f64).await;
        let server_ctx = Ctx::from_wire(&wire);
        let (mut server_ctx, out) = f(Rc::clone(&nn), server_ctx).await;
        let back = server_ctx.to_wire();
        transfer(&clock, &nn.host, &self.host, RPC_BYTES + back.len() as f64).await;
        ctx.adopt_response(&back);
        out
    }

    /// Reads `size` bytes at `offset` from `file`, choosing replicas the
    /// way the HDFS client does (always the first location returned).
    pub async fn read_at(&self, ctx: &mut Ctx, file: &str, offset: f64, size: f64) {
        self.client_protocols(ctx);
        let client_idx = self.host.idx;
        let file_owned = file.to_owned();
        let located = self
            .nn_rpc(ctx, move |nn, mut sctx| async move {
                let out = nn
                    .get_block_locations(&mut sctx, &file_owned, offset, size, client_idx)
                    .await;
                (sctx, out)
            })
            .await;
        let mut remaining = size;
        for lb in located {
            if remaining <= 0.0 {
                break;
            }
            let take = remaining.min(lb.block.size);
            remaining -= take;
            // The HDFS client bug: always select the first location.
            let Some(&replica) = lb.order.first() else {
                continue;
            };
            let dn = Rc::clone(&self.hdfs.datanodes[replica]);
            let clock = self.clock().clone();
            // Data-transfer connection: request out, stream back.
            let wire = ctx.to_wire();
            self.hdfs.cluster.baggage_bytes.add(wire.len() as f64);
            let env_bytes = RPC_BYTES + wire.len() as f64;
            let env_lat = transfer(&clock, &self.host, &dn.host, env_bytes).await;
            let env_ideal = (env_bytes / self.hdfs.cluster.cfg.nic_rate * NANOS_PER_SEC as f64)
                as Nanos
                + 100_000;
            let mut sctx = Ctx::from_wire(&wire);
            dn.read_block(
                &mut sctx,
                take,
                &self.host,
                env_lat,
                env_lat.saturating_sub(env_ideal),
            )
            .await;
            let back = sctx.to_wire();
            ctx.adopt_response(&back);
        }
    }

    /// Reads `size` bytes starting at a uniformly random block of `file`.
    pub async fn read_random(&self, ctx: &mut Ctx, file: &str, size: f64) {
        let total = self.hdfs.namenode.file_size(file).unwrap_or(BLOCK_SIZE);
        let max_off = (total - size).max(0.0);
        let offset = if max_off > 0.0 {
            self.hdfs.cluster.rng.borrow_mut().gen_range(0.0..max_off)
        } else {
            0.0
        };
        self.read_at(ctx, file, offset, size).await;
    }

    /// Creates `file` of `size` bytes, writing through the replication
    /// pipeline.
    pub async fn write(&self, ctx: &mut Ctx, file: &str, size: f64, replication: usize) {
        self.client_protocols(ctx);
        self.nn_rpc(ctx, move |nn, mut sctx| async move {
            nn.metadata_op(&mut sctx, "create", true).await;
            (sctx, ())
        })
        .await;
        let local = self.host.idx;
        let blocks = self.hdfs.namenode.allocate_for_write(
            size,
            replication,
            // Local-first placement only when the writer is a worker.
            (local < self.hdfs.cluster.cfg.workers).then_some(local),
        );
        for b in &blocks {
            let Some((&first, rest)) = b.replicas.split_first() else {
                continue;
            };
            let dn = Rc::clone(&self.hdfs.datanodes[first]);
            let pipeline: Vec<Rc<DataNode>> = rest
                .iter()
                .map(|&r| Rc::clone(&self.hdfs.datanodes[r]))
                .collect();
            let clock = self.clock().clone();
            let wire = ctx.to_wire();
            transfer(&clock, &self.host, &dn.host, RPC_BYTES + wire.len() as f64).await;
            let mut sctx = Ctx::from_wire(&wire);
            dn.write_block(&mut sctx, b.size, &self.host, &pipeline)
                .await;
            let back = sctx.to_wire();
            ctx.adopt_response(&back);
        }
        self.hdfs.namenode.commit_file(file, blocks);
    }

    /// A pure metadata operation (NNBench's open / create / rename).
    pub async fn metadata(&self, ctx: &mut Ctx, op: &str, mutating: bool) {
        self.client_protocols(ctx);
        let op_owned = op.to_owned();
        self.nn_rpc(ctx, move |nn, mut sctx| async move {
            nn.metadata_op(&mut sctx, &op_owned, mutating).await;
            (sctx, ())
        })
        .await;
    }
}
