//! Mean-value load analysis (Steps 2 and 3 of the paper's
//! methodology).
//!
//! For one network instance `I` the engine computes, for every peer
//! `T`, the expected load `E[M_T | I]` of Equation (1): the sum over
//! all action sources `S` of action cost × action rate, for the three
//! macro-actions (query, join, update), along three resources. It also
//! computes the expected results per query `E[R_S | I]` of Equation (2)
//! and the expected path length (EPL) of responses.
//!
//! # How queries are charged
//!
//! For each source cluster `i` the engine floods the overlay
//! (counting redundant transmissions over cycle edges) and charges,
//! per query:
//!
//! 1. **Query propagation** — every transmission costs the sending
//!    cluster an outgoing query message and the receiving cluster an
//!    incoming one (plus packet-multiplex processing on both ends);
//!    redundant copies are received and dropped but still paid for.
//! 2. **Query processing** — every reached cluster probes its index:
//!    `14 + 0.1·E[N_T]` units.
//! 3. **Responses** — every reached cluster `T` responds with
//!    probability `p_T = P(N_T ≥ 1)`; the expected message
//!    (`p_T`-weighted fixed overhead + `28·E[K_T]` address bytes +
//!    `76·E[N_T]` result bytes) travels up the BFS predecessor tree,
//!    charging every intermediate cluster. A cluster's descendants all
//!    come after it in BFS order, so one deepest-first pass over the
//!    visit order completes every subtree sum before it is read, and a
//!    whole source's response accounting is O(reach) instead of
//!    O(reach × depth).
//! 4. **Cluster-local legs** — for client-submitted queries, the
//!    client→super-peer submission and the super-peer→client delivery
//!    of every response.
//!
//! All clients of one cluster are exchangeable, and all `k` partners of
//! a virtual super-peer split the cluster's query work evenly
//! (round-robin, Section 3.2), so the engine floods **once per
//! cluster** and scales by user counts and rates.
//!
//! # Engines
//!
//! Two interchangeable implementations of the query-charging loop are
//! provided (selected by [`AnalysisOptions::engine`]):
//!
//! * [`Engine::Fast`] (default) — floods into a reusable
//!   [`sp_graph::FloodScratch`] (zero per-source heap allocation) and
//!   charges each source in two passes over the flood's **touched
//!   list**: a forward pass in BFS order (propagation, index probe, the
//!   cluster's own response, results and EPL) and a reverse pass,
//!   deepest first (responses out and in, then the subtree sum into the
//!   parent). Each visit reads one per-cluster table record and writes
//!   one accumulator record, making one source O(reach + local edges)
//!   instead of O(n). The source loop is split into a **fixed number
//!   of shards** ([`AnalysisOptions::shards`], independent of the
//!   thread count) that are processed by up to
//!   [`AnalysisOptions::threads`] scoped worker threads, each with its
//!   own scratch and accumulators. Shard accumulators are merged in
//!   shard order, so the result is **bitwise identical for any thread
//!   count**; changing the shard count only reassociates
//!   floating-point sums (≤ 1e-12 relative).
//! * [`Engine::Reference`] — the original single-threaded algorithm:
//!   a freshly allocated flood and message counts per source, the O(n)
//!   propagation scan, and one deepest-first accumulation pass per
//!   response quantity. Kept as the correctness oracle and benchmark
//!   baseline; with `shards: 1` the Fast engine reproduces it bitwise.
//!   Both engines read one per-cluster table and write one accumulator
//!   layout, so their agreement cannot see a mistake in either; the
//!   pinned outputs in `tests/engine_determinism.rs` can.
//!
//! Join and update loads are charged directly from each peer's own
//! rate (join rate = 1/lifespan; Table 1 update rate) to itself and its
//! cluster's partners; with redundancy each partner receives a full
//! copy of metadata and updates (this is the "aggregate cost of a
//! client join is k times greater" of Section 3.2).

use sp_graph::FloodScratch;
use sp_stats::{GroupedStats, OnlineStats, SpRng};

use crate::costs::{BITS_PER_BYTE, UNIT_CYCLES};
use crate::instance::{NetworkInstance, Role};
use crate::load::Load;
use crate::query_model::{MatchCache, QueryModel};
use crate::trials::{fan_out, shard_spans};

/// Default number of source shards for [`Engine::Fast`]. Fixed (not
/// derived from the thread count) so that results are bitwise
/// reproducible on any machine; large enough to keep 32 cores busy
/// with good load balance.
pub const DEFAULT_SHARDS: usize = 32;

/// Which query-charging implementation [`analyze`] runs. See the
/// module docs for the contract between the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Allocation-free, source-parallel O(total-reach) engine.
    #[default]
    Fast,
    /// Original sequential O(n per source) engine (oracle/baseline).
    Reference,
}

/// Options controlling one analysis pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions {
    /// If set and smaller than the number of clusters, only this many
    /// (randomly chosen) source clusters are flooded and all per-query
    /// charges are scaled by `n / sample` — an unbiased estimator of
    /// the **aggregate and per-role-mean** metrics that cuts the O(n²)
    /// source loop for large sweeps. Per-peer outputs (`loads`,
    /// `sp_max`, rank curves) are distorted under sampling — clients of
    /// unsampled clusters miss their query traffic entirely — so use
    /// `None` (exact) for anything that reads individual peers, as the
    /// Figure 12 experiment does.
    pub max_sources: Option<usize>,
    /// Worker threads for the source loop (Fast engine only).
    /// `0` = all available cores. Has **no effect on the numbers**:
    /// results are bitwise identical for every value.
    pub threads: usize,
    /// Number of source shards (Fast engine only). `0` =
    /// [`DEFAULT_SHARDS`]. Part of the determinism contract: the same
    /// shard count gives bitwise-identical results at any thread
    /// count; different shard counts agree to ≤ 1e-12 relative
    /// (float-sum reassociation only). `1` reproduces the Reference
    /// engine bitwise.
    pub shards: usize,
    /// Which charging implementation to run.
    pub engine: Engine,
}

/// Per-instance scalar metrics (the quantities the paper's figures
/// average over trials).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceMetrics {
    /// Aggregate load: the sum over **all** peers (Equation 4).
    pub aggregate: Load,
    /// Mean load over super-peer partners (Equation 3 with Q = the
    /// partners).
    pub sp_mean: Load,
    /// Component-wise maximum partner load.
    pub sp_max: Load,
    /// Mean load over clients.
    pub client_mean: Load,
    /// Expected results per query, averaged over users (Equation 2).
    pub results_per_query: f64,
    /// Expected path length of responses (super-peer hops), weighted by
    /// expected response messages.
    pub epl: f64,
    /// Mean number of clusters reached per query (incl. the source).
    pub mean_reach_clusters: f64,
    /// Clusters in the instance.
    pub num_clusters: usize,
    /// Total peers.
    pub num_peers: usize,
    /// Super-peer partner peers.
    pub num_partners: usize,
    /// Client peers.
    pub num_clients: usize,
    /// Realized mean outdegree of the overlay.
    pub mean_outdegree: f64,
}

/// Full analysis output: per-peer loads plus summary metrics.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Per-peer expected load, indexed by `PeerId`.
    pub loads: Vec<Load>,
    /// Scalar summary metrics.
    pub metrics: InstanceMetrics,
    /// Partner outgoing bandwidth grouped by cluster outdegree — the
    /// Figure 7 histogram.
    pub sp_out_bw_by_outdegree: GroupedStats,
    /// Results per query grouped by source-cluster outdegree — the
    /// Figure 8 histogram.
    pub results_by_outdegree: GroupedStats,
}

impl AnalysisResult {
    /// Outgoing-bandwidth loads of every peer, for Figure 12 rank
    /// curves.
    pub fn out_bw_loads(&self) -> Vec<f64> {
        self.loads.iter().map(|l| l.out_bw).collect()
    }
}

/// A cluster's expected response to one query, or the sum of these
/// over a BFS subtree.
#[derive(Clone, Copy, Default)]
struct Response {
    /// Expected response bytes.
    bytes: f64,
    /// Expected processing units to send it.
    send_units: f64,
    /// Expected processing units to receive it.
    recv_units: f64,
    /// Expected response messages: `P(N_T ≥ 1)` for one cluster.
    msgs: f64,
}

impl std::ops::AddAssign for Response {
    fn add_assign(&mut self, o: Response) {
        self.bytes += o.bytes;
        self.send_units += o.send_units;
        self.recv_units += o.recv_units;
        self.msgs += o.msgs;
    }
}

/// One cluster's record in the per-instance table that both engines
/// and the join/update pass read. Built once per instance, shared
/// read-only by all source-loop workers.
struct ClusterRow {
    /// The cluster's own expected response.
    resp: Response,
    /// `E[N_T]`, expected results from the cluster's index.
    n_results: f64,
    /// Users in the cluster: clients plus partners.
    users: f64,
    /// `multiplex_units` of a partner's open connections.
    mux: f64,
}

/// Bytes in, bytes out and processing units charged to one cluster.
#[derive(Clone, Copy, Default)]
struct Charge {
    bytes_in: f64,
    bytes_out: f64,
    units: f64,
}

/// Everything the query-charging loop accumulates. One per shard in
/// the Fast engine; merged in fixed shard order.
struct QueryCharges {
    /// Cluster-level partner charges, split /k over partners at the end.
    sp: Vec<Charge>,
    /// Per-client charges (each client of cluster i pays these).
    cl: Vec<Charge>,
    results_stats: OnlineStats,
    results_weight: f64,
    results_weighted_sum: f64,
    epl_num: f64,
    epl_den: f64,
    reach_stats: OnlineStats,
    results_by_outdeg: GroupedStats,
}

impl QueryCharges {
    fn new(n: usize) -> Self {
        QueryCharges {
            sp: vec![Charge::default(); n],
            cl: vec![Charge::default(); n],
            results_stats: OnlineStats::new(),
            results_weight: 0.0,
            results_weighted_sum: 0.0,
            epl_num: 0.0,
            epl_den: 0.0,
            reach_stats: OnlineStats::new(),
            results_by_outdeg: GroupedStats::new(),
        }
    }

    fn merge(&mut self, other: &QueryCharges) {
        let pairs = self.sp.iter_mut().zip(&other.sp);
        for (a, b) in pairs.chain(self.cl.iter_mut().zip(&other.cl)) {
            a.bytes_in += b.bytes_in;
            a.bytes_out += b.bytes_out;
            a.units += b.units;
        }
        self.results_stats.merge(&other.results_stats);
        self.results_weight += other.results_weight;
        self.results_weighted_sum += other.results_weighted_sum;
        self.epl_num += other.epl_num;
        self.epl_den += other.epl_den;
        self.reach_stats.merge(&other.reach_stats);
        self.results_by_outdeg.merge(&other.results_by_outdeg);
    }
}

/// Reusable per-worker buffers: the flood scratch plus one subtree
/// response record per cluster. Allocated once per worker thread,
/// reused for every source — the flood path performs **zero heap
/// allocation per source**.
struct WorkerScratch {
    flood: FloodScratch,
    sub: Vec<Response>,
}

impl WorkerScratch {
    fn new(n: usize) -> Self {
        WorkerScratch {
            flood: FloodScratch::new(),
            sub: vec![Response::default(); n],
        }
    }
}

/// Charges one shard of sources into `acc` using the allocation-free
/// scratch flood, in two passes over each flood's touched list.
///
/// The forward pass, in BFS order, charges query propagation and the
/// index probe, seeds the cluster's subtree record with its own
/// response, and adds the result and EPL terms. The reverse pass,
/// deepest first, finds each subtree record complete (every descendant
/// comes later in BFS order and has already added into it), charges the
/// cluster's response out and in, and adds the record into its
/// parent's. Every accumulator index receives its additions in the
/// Reference engine's order, so a single-shard run is bitwise identical
/// to it.
fn charge_shard(
    inst: &NetworkInstance,
    t: &[ClusterRow],
    sources: &[u32],
    src_weight: f64,
    ws: &mut WorkerScratch,
    acc: &mut QueryCharges,
) {
    let cm = &inst.config.costs;
    let qr = inst.config.query_rate;
    let ttl = inst.config.ttl;
    let mux_c = cm.multiplex_units(inst.config.redundancy_k as f64);
    let qbytes = cm.query_bytes();
    let send_q = cm.send_query_units();
    let recv_q = cm.recv_query_units();

    for &i in sources {
        let iu = i as usize;
        inst.topology.flood_into(&mut ws.flood, i, ttl);
        let fs = &ws.flood;
        let sub = &mut ws.sub;
        let src = &t[iu];
        let num_clients = inst.clusters[iu].clients.len() as f64;
        // Queries per second originating in cluster i (scaled if
        // sources are sampled).
        let w_all = src.users * qr * src_weight;
        let w_client_total = num_clients * qr * src_weight;

        // Forward: query propagation, index probe, own response,
        // results and EPL. O(reach), not O(n): a cluster with zero sent
        // and received copies was not reached, contributes nothing, and
        // is not on the touched list. The result total starts at 0.0
        // where the Reference's `Iterator::sum` starts at -0.0; the
        // first term, the source's own E[N_T] ≥ 0, makes them equal.
        let mut total_results = 0.0;
        for &v in fs.order() {
            let vu = v as usize;
            let c = &t[vu];
            let a = &mut acc.sp[vu];
            let s = fs.sent(v) as f64;
            if s > 0.0 {
                a.bytes_out += w_all * s * qbytes;
                a.units += w_all * s * (send_q + c.mux);
            }
            let r = fs.recv(v) as f64;
            if r > 0.0 {
                a.bytes_in += w_all * r * qbytes;
                a.units += w_all * r * (recv_q + c.mux);
            }
            a.units += w_all * cm.process_query_units(c.n_results);
            // Assigned, not added: this overwrites the previous source's
            // sum in every slot the reverse pass reads, so nothing is
            // cleared between sources.
            sub[vu] = c.resp;
            total_results += c.n_results;
            if v != i {
                acc.epl_num += src.users * c.resp.msgs * fs.depth(v) as f64;
                acc.epl_den += src.users * c.resp.msgs;
            }
        }

        // Reverse: responses up the predecessor tree.
        for &v in fs.order().iter().rev() {
            let vu = v as usize;
            let c = &t[vu];
            let a = &mut acc.sp[vu];
            let up = sub[vu];
            if v != i {
                // v forwards its whole subtree's responses to its
                // parent (incl. its own response).
                a.bytes_out += w_all * up.bytes;
                a.units += w_all * (up.send_units + c.mux * up.msgs);
            }
            // v receives its children's subtrees.
            let in_b = up.bytes - c.resp.bytes;
            if in_b > 0.0 {
                a.bytes_in += w_all * in_b;
                a.units +=
                    w_all * ((up.recv_units - c.resp.recv_units) + c.mux * (up.msgs - c.resp.msgs));
            }
            if v != i {
                sub[fs.parent(v) as usize] += up;
            }
        }

        // Cluster-local legs for client-submitted queries. sub[i] is
        // now the whole reach's expected response (own cluster
        // included).
        if num_clients > 0.0 {
            let all = sub[iu];
            let cw = qr * src_weight; // per client
            let cl = &mut acc.cl[iu];
            cl.bytes_out += cw * qbytes;
            cl.units += cw * (send_q + mux_c);
            cl.bytes_in += cw * all.bytes;
            cl.units += cw * (all.recv_units + mux_c * all.msgs);

            let a = &mut acc.sp[iu];
            a.bytes_in += w_client_total * qbytes;
            a.units += w_client_total * (recv_q + src.mux);
            a.bytes_out += w_client_total * all.bytes;
            a.units += w_client_total * (all.send_units + src.mux * all.msgs);
        }

        acc.results_stats.push(total_results);
        acc.results_weighted_sum += src.users * total_results;
        acc.results_weight += src.users;
        acc.results_by_outdeg
            .push(inst.topology.degree(i) as u64, total_results);
        acc.reach_stats.push(fs.reach() as f64);
    }
}

/// Fast engine: shard the source list, fan the shards out over worker
/// threads ([`fan_out`], one [`WorkerScratch`] per worker), merge the
/// per-shard accumulators in shard order.
fn charge_queries_fast(
    inst: &NetworkInstance,
    t: &[ClusterRow],
    sources: &[u32],
    src_weight: f64,
    opts: &AnalysisOptions,
) -> QueryCharges {
    let n = inst.num_clusters();
    let shards = if opts.shards > 0 {
        opts.shards
    } else {
        DEFAULT_SHARDS
    };
    let spans = &shard_spans(sources.len(), shards);
    let mut total = QueryCharges::new(n);
    fan_out(
        spans.len(),
        opts.threads,
        |s| format!("analysis shard {s}"),
        || {
            let mut ws = WorkerScratch::new(n);
            move |s: usize, _| {
                let (start, end) = spans[s];
                let mut acc = QueryCharges::new(n);
                charge_shard(inst, t, &sources[start..end], src_weight, &mut ws, &mut acc);
                acc
            }
        },
        |acc| total.merge(&acc),
    );
    total
}

/// Reference engine: the original sequential algorithm — one fresh
/// flood and message-count allocation set per source, an O(n)
/// propagation scan, and one deepest-first
/// [`FloodResult::accumulate_up`](sp_graph::FloodResult::accumulate_up)
/// pass per response quantity. It reads the same per-cluster table and
/// writes the same accumulators as the Fast engine. Kept as the oracle
/// the Fast engine is tested against and the baseline the benchmarks
/// measure speedup from.
fn charge_queries_reference(
    inst: &NetworkInstance,
    t: &[ClusterRow],
    sources: &[u32],
    src_weight: f64,
) -> QueryCharges {
    let n = inst.num_clusters();
    let cm = &inst.config.costs;
    let qr = inst.config.query_rate;
    let ttl = inst.config.ttl;
    let client_conn = inst.config.redundancy_k as f64;
    let qbytes = cm.query_bytes();
    let send_q = cm.send_query_units();
    let recv_q = cm.recv_query_units();

    let mut acc = QueryCharges::new(n);
    // Response-accumulation scratch, cleared per source via the BFS
    // order.
    let mut rb = vec![0.0f64; n];
    let mut su = vec![0.0f64; n];
    let mut ru = vec![0.0f64; n];
    let mut msgs = vec![0.0f64; n];

    for &i in sources {
        let iu = i as usize;
        let (fl, mc) = inst.topology.flood(i, ttl);
        let num_clients = inst.clusters[iu].clients.len() as f64;
        let w_all = t[iu].users * qr * src_weight;
        let w_client_total = num_clients * qr * src_weight;

        // 1. Query propagation (including redundant copies).
        for (v, c) in t.iter().enumerate() {
            let s = mc.sent[v] as f64;
            if s > 0.0 {
                acc.sp[v].bytes_out += w_all * s * qbytes;
                acc.sp[v].units += w_all * s * (send_q + c.mux);
            }
            let r = mc.recv[v] as f64;
            if r > 0.0 {
                acc.sp[v].bytes_in += w_all * r * qbytes;
                acc.sp[v].units += w_all * r * (recv_q + c.mux);
            }
        }

        // 2. Index probe at every reached cluster.
        for &v in &fl.order {
            acc.sp[v as usize].units += w_all * cm.process_query_units(t[v as usize].n_results);
        }

        // 3. Responses up the predecessor tree.
        for &v in &fl.order {
            let vu = v as usize;
            rb[vu] = t[vu].resp.bytes;
            su[vu] = t[vu].resp.send_units;
            ru[vu] = t[vu].resp.recv_units;
            msgs[vu] = t[vu].resp.msgs;
        }
        fl.accumulate_up(&mut rb);
        fl.accumulate_up(&mut su);
        fl.accumulate_up(&mut ru);
        fl.accumulate_up(&mut msgs);
        for &v in &fl.order {
            let vu = v as usize;
            let own = &t[vu].resp;
            let mux = t[vu].mux;
            if v != i {
                acc.sp[vu].bytes_out += w_all * rb[vu];
                acc.sp[vu].units += w_all * (su[vu] + mux * msgs[vu]);
            }
            let in_b = rb[vu] - own.bytes;
            if in_b > 0.0 {
                acc.sp[vu].bytes_in += w_all * in_b;
                acc.sp[vu].units +=
                    w_all * ((ru[vu] - own.recv_units) + mux * (msgs[vu] - own.msgs));
            }
        }

        // 4. Cluster-local legs for client-submitted queries.
        if num_clients > 0.0 {
            let cw = qr * src_weight; // per client
            acc.cl[iu].bytes_out += cw * qbytes;
            acc.cl[iu].units += cw * (send_q + cm.multiplex_units(client_conn));
            acc.cl[iu].bytes_in += cw * rb[iu];
            acc.cl[iu].units += cw * (ru[iu] + cm.multiplex_units(client_conn) * msgs[iu]);

            let mux = t[iu].mux;
            acc.sp[iu].bytes_in += w_client_total * qbytes;
            acc.sp[iu].units += w_client_total * (recv_q + mux);
            acc.sp[iu].bytes_out += w_client_total * rb[iu];
            acc.sp[iu].units += w_client_total * (su[iu] + mux * msgs[iu]);
        }

        // Results, EPL, reach.
        let total_results: f64 = fl.order.iter().map(|&v| t[v as usize].n_results).sum();
        acc.results_stats.push(total_results);
        acc.results_weighted_sum += t[iu].users * total_results;
        acc.results_weight += t[iu].users;
        acc.results_by_outdeg
            .push(inst.topology.degree(i) as u64, total_results);
        for &v in &fl.order {
            if v != i {
                let vu = v as usize;
                acc.epl_num += t[iu].users * t[vu].resp.msgs * fl.depth[vu] as f64;
                acc.epl_den += t[iu].users * t[vu].resp.msgs;
            }
        }
        acc.reach_stats.push(fl.reach() as f64);

        for &v in &fl.order {
            let vu = v as usize;
            rb[vu] = 0.0;
            su[vu] = 0.0;
            ru[vu] = 0.0;
            msgs[vu] = 0.0;
        }
    }
    acc
}

/// Analyzes one instance. See the module docs for the charging rules.
///
/// `rng` is only used when `opts.max_sources` triggers source
/// sampling.
pub fn analyze(
    inst: &NetworkInstance,
    model: &QueryModel,
    opts: &AnalysisOptions,
    rng: &mut SpRng,
) -> AnalysisResult {
    let n = inst.num_clusters();
    let k = inst.config.redundancy_k;
    let kf = k as f64;
    let cm = &inst.config.costs;
    let ur = inst.config.update_rate;

    // ---- Per-cluster precomputation -------------------------------
    let mut cache = MatchCache::new();
    let table: Vec<ClusterRow> = (0..n)
        .map(|i| {
            let n_results = model.expected_results(inst.cluster_files(i) as f64);
            let p =
                cache.prob_some_match(model, inst.cluster_files(i).min(u64::from(u32::MAX)) as u32);
            let k_addrs =
                cache.expected_responding_collections(model, inst.cluster_member_files(i));
            let cluster = &inst.clusters[i];
            ClusterRow {
                resp: Response {
                    bytes: cm.expected_response_bytes(p, k_addrs, n_results),
                    send_units: cm.expected_send_response_units(p, k_addrs, n_results),
                    recv_units: cm.expected_recv_response_units(p, k_addrs, n_results),
                    msgs: p,
                },
                n_results,
                users: (cluster.clients.len() + cluster.partners.len()) as f64,
                mux: cm.multiplex_units(inst.connections(cluster.partners[0])),
            }
        })
        .collect();
    let client_conn = kf;

    // ---- Source selection ------------------------------------------
    let all_sources: Vec<u32>;
    let (sources, src_weight): (&[u32], f64) = match opts.max_sources {
        Some(s) if s > 0 && s < n => {
            all_sources = rng
                .sample_distinct(n, s)
                .into_iter()
                .map(|x| x as u32)
                .collect();
            (&all_sources, n as f64 / s as f64)
        }
        _ => {
            all_sources = (0..n as u32).collect();
            (&all_sources, 1.0)
        }
    };

    // ---- Query charges, one flood per source cluster ---------------
    let q = match opts.engine {
        Engine::Fast => charge_queries_fast(inst, &table, sources, src_weight, opts),
        Engine::Reference => charge_queries_reference(inst, &table, sources, src_weight),
    };
    let QueryCharges {
        mut sp,
        cl,
        results_stats,
        results_weight,
        results_weighted_sum,
        epl_num,
        epl_den,
        reach_stats,
        results_by_outdeg,
    } = q;

    // ---- Join and update charges (exact, per peer) ------------------
    // Direct per-peer extras (own-rate costs that differ per peer).
    // Peers only *send* on their own behalf — everything a peer
    // receives is already charged through the cluster-level
    // accumulators — so there is no per-peer incoming buffer.
    let num_peers = inst.num_peers();
    let mut peer_out = vec![0.0f64; num_peers];
    let mut peer_units = vec![0.0f64; num_peers];

    for i in 0..n {
        let cluster = &inst.clusters[i];
        let mux_p = table[i].mux;
        let mux_c = cm.multiplex_units(client_conn);
        for &c in &cluster.clients {
            let peer = &inst.peers[c as usize];
            let x = peer.files as f64;
            let jr = 1.0 / peer.lifespan_secs;
            // Join: metadata to every partner.
            peer_out[c as usize] += jr * kf * cm.join_bytes(x);
            peer_units[c as usize] += jr * kf * (cm.send_join_units(x) + mux_c);
            sp[i].bytes_in += jr * kf * cm.join_bytes(x);
            sp[i].units += jr * kf * (cm.recv_join_units(x) + cm.process_join_units(x) + mux_p);
            // Updates: one per partner per update.
            peer_out[c as usize] += ur * kf * cm.update_bytes();
            peer_units[c as usize] += ur * kf * (cm.send_update_units() + mux_c);
            sp[i].bytes_in += ur * kf * cm.update_bytes();
            sp[i].units += ur * kf * (cm.recv_update_units() + cm.process_update_units() + mux_p);
        }
        for &p in &cluster.partners {
            let peer = &inst.peers[p as usize];
            let x = peer.files as f64;
            let jr = 1.0 / peer.lifespan_secs;
            // A (re)joining partner indexes its own collection.
            peer_units[p as usize] += jr * cm.process_join_units(x);
            // Its own updates hit its own index.
            peer_units[p as usize] += ur * cm.process_update_units();
            if k > 1 {
                let co = kf - 1.0;
                // Share own collection metadata with co-partners.
                peer_out[p as usize] += jr * co * cm.join_bytes(x);
                peer_units[p as usize] += jr * co * (cm.send_join_units(x) + mux_p);
                sp[i].bytes_in += jr * co * cm.join_bytes(x);
                sp[i].units += jr * co * (cm.recv_join_units(x) + cm.process_join_units(x) + mux_p);
                // Propagate own updates to co-partners.
                peer_out[p as usize] += ur * co * cm.update_bytes();
                peer_units[p as usize] += ur * co * (cm.send_update_units() + mux_p);
                sp[i].bytes_in += ur * co * cm.update_bytes();
                sp[i].units +=
                    ur * co * (cm.recv_update_units() + cm.process_update_units() + mux_p);
            }
        }
    }

    // ---- Distribute cluster-level charges and convert units ---------
    let mut loads = vec![Load::ZERO; num_peers];
    for i in 0..n {
        let cluster = &inst.clusters[i];
        let share = 1.0 / kf;
        for &p in &cluster.partners {
            let pu = p as usize;
            loads[pu].in_bw = sp[i].bytes_in * share * BITS_PER_BYTE;
            loads[pu].out_bw = (peer_out[pu] + sp[i].bytes_out * share) * BITS_PER_BYTE;
            loads[pu].proc = (peer_units[pu] + sp[i].units * share) * UNIT_CYCLES;
        }
        for &c in &cluster.clients {
            let cu = c as usize;
            loads[cu].in_bw = cl[i].bytes_in * BITS_PER_BYTE;
            loads[cu].out_bw = (peer_out[cu] + cl[i].bytes_out) * BITS_PER_BYTE;
            loads[cu].proc = (peer_units[cu] + cl[i].units) * UNIT_CYCLES;
        }
    }

    // ---- Summaries ---------------------------------------------------
    let mut aggregate = Load::ZERO;
    let mut sp_sum = Load::ZERO;
    let mut sp_max = Load::ZERO;
    let mut client_sum = Load::ZERO;
    let mut num_partners = 0usize;
    let mut num_clients = 0usize;
    let mut sp_out_bw_by_outdeg = GroupedStats::new();
    for (idx, l) in loads.iter().enumerate() {
        aggregate += *l;
        match inst.peers[idx].role {
            Role::Partner { cluster } => {
                sp_sum += *l;
                sp_max = sp_max.max(l);
                num_partners += 1;
                sp_out_bw_by_outdeg.push(inst.topology.degree(cluster) as u64, l.out_bw);
            }
            Role::Client { .. } => {
                client_sum += *l;
                num_clients += 1;
            }
        }
    }
    let metrics = InstanceMetrics {
        aggregate,
        sp_mean: sp_sum.scaled(1.0 / num_partners.max(1) as f64),
        sp_max,
        client_mean: client_sum.scaled(1.0 / num_clients.max(1) as f64),
        results_per_query: if results_weight > 0.0 {
            results_weighted_sum / results_weight
        } else {
            results_stats.mean()
        },
        epl: if epl_den > 0.0 {
            epl_num / epl_den
        } else {
            0.0
        },
        mean_reach_clusters: reach_stats.mean(),
        num_clusters: n,
        num_peers,
        num_partners,
        num_clients,
        mean_outdegree: inst.topology.mean_degree(),
    };
    AnalysisResult {
        loads,
        metrics,
        sp_out_bw_by_outdegree: sp_out_bw_by_outdeg,
        results_by_outdegree: results_by_outdeg,
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "R1b exempts tests: each test mints its own root"
)]
mod tests {
    use super::*;
    use crate::config::{Config, GraphType};

    fn analyze_config(cfg: &Config, seed: u64) -> AnalysisResult {
        let mut rng = SpRng::seed_from_u64(seed);
        let inst = NetworkInstance::generate(cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        analyze(&inst, &model, &AnalysisOptions::default(), &mut rng)
    }

    fn strong_cfg(graph_size: usize, cluster: usize) -> Config {
        Config {
            graph_type: GraphType::StronglyConnected,
            graph_size,
            cluster_size: cluster,
            ttl: 1,
            ..Config::default()
        }
    }

    #[test]
    fn bandwidth_is_conserved() {
        // Every byte sent is a byte received somewhere: aggregate
        // incoming == aggregate outgoing bandwidth.
        for cfg in [
            strong_cfg(200, 10),
            Config {
                graph_size: 300,
                cluster_size: 10,
                ..Config::default()
            },
            Config {
                graph_size: 300,
                cluster_size: 10,
                ..Config::default()
            }
            .with_redundancy(true),
        ] {
            let r = analyze_config(&cfg, 42);
            let rel = (r.metrics.aggregate.in_bw - r.metrics.aggregate.out_bw).abs()
                / r.metrics.aggregate.in_bw;
            assert!(
                rel < 1e-9,
                "in {} vs out {}",
                r.metrics.aggregate.in_bw,
                r.metrics.aggregate.out_bw
            );
        }
    }

    #[test]
    fn strong_ttl1_reaches_everyone_and_epl_is_one() {
        let r = analyze_config(&strong_cfg(200, 10), 1);
        assert!((r.metrics.mean_reach_clusters - 20.0).abs() < 1e-9);
        assert!((r.metrics.epl - 1.0).abs() < 1e-9);
    }

    #[test]
    fn super_peers_carry_far_more_load_than_clients() {
        let r = analyze_config(&strong_cfg(400, 20), 2);
        assert!(
            r.metrics.sp_mean.total_bw() > 20.0 * r.metrics.client_mean.total_bw(),
            "sp {} vs client {}",
            r.metrics.sp_mean.total_bw(),
            r.metrics.client_mean.total_bw()
        );
        assert!(r.metrics.sp_mean.proc > r.metrics.client_mean.proc);
    }

    #[test]
    fn results_match_query_model_linearity() {
        // With full reach, expected results per query = match_rate ×
        // total files in the network, independent of clustering.
        let cfg = strong_cfg(300, 10);
        let mut rng = SpRng::seed_from_u64(7);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let total_files: f64 = (0..inst.num_clusters())
            .map(|i| inst.cluster_files(i) as f64)
            .sum();
        let r = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let expect = model.expected_results(total_files);
        assert!(
            (r.metrics.results_per_query - expect).abs() / expect < 1e-9,
            "{} vs {expect}",
            r.metrics.results_per_query
        );
    }

    #[test]
    fn rule_1_cluster_size_tradeoff_on_strong_network() {
        // Rule of thumb #1: larger clusters lower aggregate load but
        // raise individual super-peer load.
        let small = analyze_config(&strong_cfg(1000, 5), 3);
        let large = analyze_config(&strong_cfg(1000, 50), 3);
        assert!(
            large.metrics.aggregate.total_bw() < small.metrics.aggregate.total_bw(),
            "aggregate: large {} vs small {}",
            large.metrics.aggregate.total_bw(),
            small.metrics.aggregate.total_bw()
        );
        assert!(
            large.metrics.sp_mean.total_bw() > small.metrics.sp_mean.total_bw(),
            "individual: large {} vs small {}",
            large.metrics.sp_mean.total_bw(),
            small.metrics.sp_mean.total_bw()
        );
    }

    #[test]
    fn rule_2_redundancy_halves_individual_sp_bandwidth() {
        let base = strong_cfg(1000, 20);
        let plain = analyze_config(&base, 4);
        let red = analyze_config(&base.clone().with_redundancy(true), 4);
        // Individual partner bandwidth drops sharply (paper: ~48% at
        // cluster 100; direction is what matters here).
        assert!(
            red.metrics.sp_mean.total_bw() < 0.75 * plain.metrics.sp_mean.total_bw(),
            "red {} vs plain {}",
            red.metrics.sp_mean.total_bw(),
            plain.metrics.sp_mean.total_bw()
        );
        // Aggregate bandwidth barely moves (paper: +2.5%).
        let rel = (red.metrics.aggregate.total_bw() - plain.metrics.aggregate.total_bw())
            / plain.metrics.aggregate.total_bw();
        assert!(rel.abs() < 0.15, "aggregate moved {rel}");
    }

    #[test]
    fn sampled_sources_approximate_full_analysis() {
        let cfg = Config {
            graph_size: 600,
            cluster_size: 10,
            ..Config::default()
        };
        let mut rng = SpRng::seed_from_u64(9);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let full = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let sampled = analyze(
            &inst,
            &model,
            &AnalysisOptions {
                max_sources: Some(30),
                ..AnalysisOptions::default()
            },
            &mut rng,
        );
        let rel = (sampled.metrics.aggregate.total_bw() - full.metrics.aggregate.total_bw())
            / full.metrics.aggregate.total_bw();
        assert!(rel.abs() < 0.25, "sampled aggregate off by {rel}");
    }

    #[test]
    fn ttl_zero_means_local_results_only() {
        let cfg = Config {
            ttl: 0,
            graph_size: 100,
            cluster_size: 10,
            ..Config::default()
        };
        let r = analyze_config(&cfg, 5);
        assert!((r.metrics.mean_reach_clusters - 1.0).abs() < 1e-9);
        assert_eq!(r.metrics.epl, 0.0);
        // Results come only from the own cluster: far fewer than the
        // full network's.
        assert!(r.metrics.results_per_query < 5.0);
    }

    #[test]
    fn pure_network_all_loads_on_super_peers() {
        let cfg = Config {
            graph_size: 100,
            cluster_size: 1,
            ..Config::default()
        };
        let r = analyze_config(&cfg, 6);
        assert_eq!(r.metrics.num_clients, 0);
        assert_eq!(r.metrics.num_partners, 100);
        assert!(r.metrics.aggregate.total_bw() > 0.0);
    }

    #[test]
    fn redundant_queries_make_higher_ttl_cost_more_at_full_reach() {
        // Rule #4: once reach saturates, extra TTL only adds redundant
        // transmissions.
        let lo = analyze_config(
            &Config {
                graph_size: 400,
                cluster_size: 10,
                avg_outdegree: 10.0,
                ttl: 3,
                ..Config::default()
            },
            8,
        );
        let hi = analyze_config(
            &Config {
                graph_size: 400,
                cluster_size: 10,
                avg_outdegree: 10.0,
                ttl: 7,
                ..Config::default()
            },
            8,
        );
        assert!((lo.metrics.mean_reach_clusters - 40.0).abs() < 1.0);
        assert!((hi.metrics.mean_reach_clusters - 40.0).abs() < 1.0);
        assert!(
            hi.metrics.aggregate.total_bw() > lo.metrics.aggregate.total_bw(),
            "ttl 7 {} not above ttl 3 {}",
            hi.metrics.aggregate.total_bw(),
            lo.metrics.aggregate.total_bw()
        );
    }

    #[test]
    fn reference_engine_matches_fast_engine() {
        // The in-crate smoke check; the full matrix lives in
        // tests/engine_determinism.rs.
        let cfg = Config {
            graph_size: 300,
            cluster_size: 10,
            ..Config::default()
        };
        let mut rng = SpRng::seed_from_u64(11);
        let inst = NetworkInstance::generate(&cfg, &mut rng).unwrap();
        let model = QueryModel::from_config(&cfg.query_model);
        let fast = analyze(&inst, &model, &AnalysisOptions::default(), &mut rng);
        let reference = analyze(
            &inst,
            &model,
            &AnalysisOptions {
                engine: Engine::Reference,
                ..AnalysisOptions::default()
            },
            &mut rng,
        );
        let rel = (fast.metrics.aggregate.total_bw() - reference.metrics.aggregate.total_bw())
            .abs()
            / reference.metrics.aggregate.total_bw();
        assert!(rel < 1e-12, "engines disagree: rel {rel}");
    }
}
