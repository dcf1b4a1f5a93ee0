//! Simulated HBase: RegionServers over HDFS.
//!
//! Each worker host runs one RegionServer holding a slice of the table's
//! key space. Gets and scans arrive over the simulated network, queue for
//! a handler, read their region's HFile data through HDFS (so DataNode
//! metrics attribute to the *original* client via baggage — the paper's
//! cross-tier analysis), and stream results back. RegionServers support
//! stop-the-world GC injection for the §6.2 rogue-GC case study.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pivot_core::Agent;
use pivot_model::Value;
use pivot_simrt::FifoResource;
use rand::Rng;

use crate::cluster::{transfer, Cluster, Host, MB};
use crate::ctx::Ctx;
use crate::gc::Gc;
use crate::hdfs::{DfsClient, Hdfs};
use crate::tracepoints as tp;

/// Size of an HFile backing one region.
pub const HFILE_SIZE: f64 = 256.0 * MB;

/// Control message size.
const RPC_BYTES: f64 = 512.0;

/// One RegionServer process.
pub struct RegionServer {
    cluster: Rc<Cluster>,
    /// The host it runs on.
    pub host: Rc<Host>,
    /// The RegionServer process's agent.
    pub agent: Arc<Agent>,
    /// Request handler admission (queueing shows up as `queueNanos`).
    handler: FifoResource,
    dfs: DfsClient,
    /// Optional GC injection (rogue-GC case study).
    pub gc: RefCell<Option<Rc<Gc>>>,
    /// Regions hosted here (indices into the table's region list).
    pub regions: RefCell<Vec<usize>>,
}

impl RegionServer {
    /// Handles one client operation: queue, read through HDFS, respond.
    pub async fn handle(
        &self,
        ctx: &mut Ctx,
        op: &str,
        region: usize,
        size: f64,
        client: &Rc<Host>,
    ) {
        let clock = self.cluster.clock.clone();
        self.agent.invoke(
            tp::RS_RECEIVE_REQUEST,
            &mut ctx.bag,
            clock.now(),
            &[("op", Value::str(op))],
        );
        let arrive = clock.now();
        let gc = self.gc.borrow().clone();
        let mut gc_waited = 0u64;
        if let Some(gc) = gc {
            gc_waited = gc.wait().await;
            if gc_waited > 0 {
                self.agent.invoke(
                    tp::GC_PAUSE,
                    &mut ctx.bag,
                    clock.now(),
                    &[("gcNanos", Value::U64(gc_waited))],
                );
            }
        }
        self.handler.acquire(1.0).await;
        let queue = clock.now() - arrive;
        let start = clock.now();
        let file = region_file(region);
        self.dfs.read_random(ctx, &file, size).await;
        // Result assembly CPU time.
        clock
            .sleep(50_000 + (size / (500.0 * MB) * 1e9) as u64)
            .await;
        let process = clock.now() - start;
        self.agent.invoke(
            tp::RS_SEND_RESPONSE,
            &mut ctx.bag,
            clock.now(),
            &[
                ("op", Value::str(op)),
                ("queueNanos", Value::U64(queue)),
                ("processNanos", Value::U64(process)),
                ("gcNanos", Value::U64(gc_waited)),
            ],
        );
        transfer(&clock, &self.host, client, size).await;
    }
}

/// Returns the HDFS file backing a region.
pub fn region_file(region: usize) -> String {
    format!("hbase/region-{region}")
}

/// The assembled HBase service.
pub struct HBase {
    cluster: Rc<Cluster>,
    /// One RegionServer per worker host.
    pub regionservers: Vec<Rc<RegionServer>>,
    /// Total number of regions.
    pub regions: usize,
}

impl HBase {
    /// Starts HBase: one RegionServer per worker and `regions_per_server`
    /// regions each, with HFiles bootstrapped into HDFS.
    pub fn start(cluster: &Rc<Cluster>, hdfs: &Rc<Hdfs>, regions_per_server: usize) -> Rc<HBase> {
        let mut regionservers = Vec::new();
        for h in cluster.workers() {
            let agent = cluster.new_agent(h, "RegionServer");
            regionservers.push(Rc::new(RegionServer {
                cluster: Rc::clone(cluster),
                host: Rc::clone(h),
                agent: Arc::clone(&agent),
                handler: FifoResource::new(cluster.clock.clone(), 5_000.0),
                dfs: hdfs.client(h, &agent, "RegionServer"),
                gc: RefCell::new(None),
                regions: RefCell::new(Vec::new()),
            }));
        }
        let regions = regions_per_server * regionservers.len();
        for r in 0..regions {
            let rs = r % regionservers.len();
            regionservers[rs].regions.borrow_mut().push(r);
            hdfs.namenode.bootstrap_file(&region_file(r), HFILE_SIZE, 3);
        }
        Rc::new(HBase {
            cluster: Rc::clone(cluster),
            regionservers,
            regions,
        })
    }

    /// Maps a key in `[0, 1)` to its region.
    pub fn region_for(&self, key: f64) -> usize {
        ((key.clamp(0.0, 0.999_999) * self.regions as f64) as usize).min(self.regions - 1)
    }

    /// Builds a client bound to a process.
    pub fn client(
        self: &Rc<HBase>,
        host: &Rc<Host>,
        agent: &Arc<Agent>,
        procname: &str,
    ) -> HBaseClient {
        HBaseClient {
            hbase: Rc::clone(self),
            host: Rc::clone(host),
            agent: Arc::clone(agent),
            procname: procname.to_owned(),
        }
    }
}

/// An HBase client library instance.
pub struct HBaseClient {
    hbase: Rc<HBase>,
    /// The process's host.
    pub host: Rc<Host>,
    /// The process's agent.
    pub agent: Arc<Agent>,
    /// Process name exported at `ClientProtocols`.
    pub procname: String,
}

impl HBaseClient {
    /// A 10 kB row lookup at a random key (the paper's `HGet`).
    pub async fn get_random(&self, ctx: &mut Ctx) {
        let key = self.hbase.cluster.rng.borrow_mut().gen::<f64>();
        self.request(ctx, "get", key, 10.0 * 1024.0).await;
    }

    /// A 4 MB table scan starting at a random key (the paper's `HScan`).
    pub async fn scan_random(&self, ctx: &mut Ctx) {
        let key = self.hbase.cluster.rng.borrow_mut().gen::<f64>();
        self.request(ctx, "scan", key, 4.0 * MB).await;
    }

    /// Issues one operation against the responsible RegionServer.
    pub async fn request(&self, ctx: &mut Ctx, op: &str, key: f64, size: f64) {
        let clock = self.hbase.cluster.clock.clone();
        self.agent.invoke(
            tp::CLIENT_PROTOCOLS,
            &mut ctx.bag,
            clock.now(),
            &[("procName", Value::str(&self.procname))],
        );
        let region = self.hbase.region_for(key);
        let rs = Rc::clone(&self.hbase.regionservers[region % self.hbase.regionservers.len()]);
        let wire = ctx.to_wire();
        self.hbase.cluster.baggage_bytes.add(wire.len() as f64);
        transfer(&clock, &self.host, &rs.host, RPC_BYTES + wire.len() as f64).await;
        let mut sctx = Ctx::from_wire(&wire);
        rs.handle(&mut sctx, op, region, size, &self.host).await;
        let back = sctx.to_wire();
        ctx.adopt_response(&back);
    }
}
