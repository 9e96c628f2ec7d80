//! Shared snapshot codecs for checkpoint/restore.
//!
//! The container format and primitives live in
//! [`sp_model::snapshot`]; this module encodes the *configuration*
//! half of an engine snapshot — [`Config`], [`SimOptions`], and the
//! public metrics structs — so the fast, reference, and sharded
//! engines can all embed a self-describing header and a restored run
//! needs no flags beyond `--resume <file>`. A churn run's faults,
//! repair policy, and overload policy are not options: they travel
//! once, inside the scenario plan's JSON.
//!
//! Everything here is a straight field-by-field binary codec: floats
//! travel as bits, enums as explicit tags, and every reader validates
//! tags so a snapshot from a newer build fails with a named
//! [`SnapshotError`] instead of misdecoding.

use sp_model::config::{Config, GraphType};
use sp_model::costs::{CostModel, GeneralStats};
use sp_model::load::Load;
use sp_model::population::{FileTail, PopulationModel};
use sp_model::query_model::QueryModelConfig;
use sp_model::snapshot::{SnapReader, SnapWriter, SnapshotError};
use sp_stats::OnlineStats;

use crate::engine::{AdaptSettings, ForwardPolicy, RawMetrics, SimOptions, TimelinePoint};
use crate::faults::FaultMetrics;
use crate::metrics::{SimMetrics, NUM_EVENT_KINDS};
use crate::overload::OverloadMetrics;
use crate::repair::{ReachPoint, RepairMetrics, RepairPending};

/// Writes a [`Config`] (including its nested cost / population / query
/// sub-models) into a snapshot payload.
pub(crate) fn snap_config(c: &Config, w: &mut SnapWriter) {
    w.u8(match c.graph_type {
        GraphType::StronglyConnected => 0,
        GraphType::PowerLaw => 1,
        GraphType::ErdosRenyi => 2,
        GraphType::RandomRegular => 3,
    });
    w.len(c.graph_size);
    w.len(c.cluster_size);
    w.len(c.redundancy_k);
    w.f64(c.avg_outdegree);
    w.u16(c.ttl);
    w.f64(c.query_rate);
    w.f64(c.update_rate);
    w.f64(c.costs.stats.query_length);
    w.f64(c.costs.stats.result_record);
    w.f64(c.costs.stats.metadata_record);
    w.f64(c.costs.multiplex_per_connection);
    w.f64(c.population.free_rider_fraction);
    w.f64(c.population.files_median);
    w.f64(c.population.files_sigma);
    match c.population.file_tail {
        FileTail::LogNormal => w.u8(0),
        FileTail::BoundedPareto { alpha, max_files } => {
            w.u8(1);
            w.f64(alpha);
            w.f64(max_files);
        }
    }
    w.f64(c.population.lifespan_mean_secs);
    w.f64(c.population.lifespan_sigma);
    w.len(c.query_model.num_classes);
    w.f64(c.query_model.popularity_exponent);
    w.f64(c.query_model.selection_exponent);
    w.f64(c.query_model.match_per_file);
}

/// Reads a [`Config`] written by [`snap_config`].
pub(crate) fn unsnap_config(r: &mut SnapReader<'_>) -> Result<Config, SnapshotError> {
    let graph_type = match r.u8("config graph_type")? {
        0 => GraphType::StronglyConnected,
        1 => GraphType::PowerLaw,
        2 => GraphType::ErdosRenyi,
        3 => GraphType::RandomRegular,
        tag => {
            return Err(SnapshotError::Malformed(format!(
                "unknown graph type tag {tag}"
            )))
        }
    };
    Ok(Config {
        graph_type,
        graph_size: r.len("config graph_size")?,
        cluster_size: r.len("config cluster_size")?,
        redundancy_k: r.len("config redundancy_k")?,
        avg_outdegree: r.f64("config avg_outdegree")?,
        ttl: r.u16("config ttl")?,
        query_rate: r.f64("config query_rate")?,
        update_rate: r.f64("config update_rate")?,
        costs: CostModel {
            stats: GeneralStats {
                query_length: r.f64("config query_length")?,
                result_record: r.f64("config result_record")?,
                metadata_record: r.f64("config metadata_record")?,
            },
            multiplex_per_connection: r.f64("config multiplex_per_connection")?,
        },
        population: PopulationModel {
            free_rider_fraction: r.f64("config free_rider_fraction")?,
            files_median: r.f64("config files_median")?,
            files_sigma: r.f64("config files_sigma")?,
            file_tail: match r.u8("config file_tail tag")? {
                0 => FileTail::LogNormal,
                1 => FileTail::BoundedPareto {
                    alpha: r.f64("config pareto alpha")?,
                    max_files: r.f64("config pareto max_files")?,
                },
                tag => {
                    return Err(SnapshotError::Malformed(format!(
                        "unknown file tail tag {tag}"
                    )))
                }
            },
            lifespan_mean_secs: r.f64("config lifespan_mean_secs")?,
            lifespan_sigma: r.f64("config lifespan_sigma")?,
        },
        query_model: QueryModelConfig {
            num_classes: r.len("config num_classes")?,
            popularity_exponent: r.f64("config popularity_exponent")?,
            selection_exponent: r.f64("config selection_exponent")?,
            match_per_file: r.f64("config match_per_file")?,
        },
    })
}

/// Writes [`SimOptions`] into a snapshot payload.
pub(crate) fn snap_opts(o: &SimOptions, w: &mut SnapWriter) {
    w.f64(o.duration_secs);
    w.u64(o.seed);
    match o.adapt {
        None => w.bool(false),
        Some(a) => {
            w.bool(true);
            w.f64(a.interval_secs);
            w.f64(a.limit.in_bw);
            w.f64(a.limit.out_bw);
            w.f64(a.limit.proc);
        }
    }
    match o.forward_policy {
        ForwardPolicy::FloodAll => w.u8(0),
        ForwardPolicy::RandomSubset { fanout } => {
            w.u8(1);
            w.len(fanout);
        }
    }
    w.u64(o.fault_seed);
    w.u64(o.scenario_seed);
    w.bool(o.profile);
}

/// Reads [`SimOptions`] written by [`snap_opts`].
pub(crate) fn unsnap_opts(r: &mut SnapReader<'_>) -> Result<SimOptions, SnapshotError> {
    Ok(SimOptions {
        duration_secs: r.f64("opts duration_secs")?,
        seed: r.u64("opts seed")?,
        adapt: if r.bool("opts has adapt")? {
            Some(AdaptSettings {
                interval_secs: r.f64("opts adapt interval")?,
                limit: Load {
                    in_bw: r.f64("opts adapt in_bw")?,
                    out_bw: r.f64("opts adapt out_bw")?,
                    proc: r.f64("opts adapt proc")?,
                },
            })
        } else {
            None
        },
        forward_policy: match r.u8("opts forward tag")? {
            0 => ForwardPolicy::FloodAll,
            1 => ForwardPolicy::RandomSubset {
                fanout: r.len("opts fanout")?,
            },
            tag => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown forward policy tag {tag}"
                )))
            }
        },
        fault_seed: r.u64("opts fault_seed")?,
        scenario_seed: r.u64("opts scenario_seed")?,
        profile: r.bool("opts profile")?,
    })
}

/// Writes an [`OnlineStats`] accumulator bit-exactly.
pub(crate) fn snap_stats(s: &OnlineStats, w: &mut SnapWriter) {
    let (count, mean, m2, min, max) = s.state();
    w.u64(count);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

/// Reads an accumulator written by [`snap_stats`].
pub(crate) fn unsnap_stats(r: &mut SnapReader<'_>) -> Result<OnlineStats, SnapshotError> {
    let count = r.u64("stats count")?;
    let mean = r.f64("stats mean")?;
    let m2 = r.f64("stats m2")?;
    let min = r.f64("stats min")?;
    let max = r.f64("stats max")?;
    Ok(OnlineStats::from_state(count, mean, m2, min, max))
}

/// Writes [`RepairMetrics`] into a snapshot payload.
pub(crate) fn snap_repair_metrics(m: &RepairMetrics, w: &mut SnapWriter) {
    w.u64(m.promotions);
    w.u64(m.partner_recruitments);
    w.u64(m.reindexed_clients);
    w.f64(m.reindex_bytes);
    w.u64(m.abandoned);
    w.u64(m.queries_during_outage);
    m.time_to_repair.snap(w);
    w.len(m.reachability.len());
    for p in &m.reachability {
        w.f64(p.time);
        w.u32(p.components);
        w.f64(p.reachable_fraction);
    }
    w.u32(m.final_components);
    w.f64(m.final_reachable_fraction);
}

/// Reads metrics written by [`snap_repair_metrics`].
pub(crate) fn unsnap_repair_metrics(
    r: &mut SnapReader<'_>,
) -> Result<RepairMetrics, SnapshotError> {
    let promotions = r.u64("repair promotions")?;
    let partner_recruitments = r.u64("repair partner_recruitments")?;
    let reindexed_clients = r.u64("repair reindexed_clients")?;
    let reindex_bytes = r.f64("repair reindex_bytes")?;
    let abandoned = r.u64("repair abandoned")?;
    let queries_during_outage = r.u64("repair queries_during_outage")?;
    let time_to_repair = crate::faults::ReconnectHistogram::unsnap(r)?;
    let n = r.len("repair reachability len")?;
    let mut reachability = Vec::with_capacity(n);
    for _ in 0..n {
        reachability.push(ReachPoint {
            time: r.f64("reach time")?,
            components: r.u32("reach components")?,
            reachable_fraction: r.f64("reach fraction")?,
        });
    }
    Ok(RepairMetrics {
        promotions,
        partner_recruitments,
        reindexed_clients,
        reindex_bytes,
        abandoned,
        queries_during_outage,
        time_to_repair,
        reachability,
        final_components: r.u32("repair final_components")?,
        final_reachable_fraction: r.f64("repair final_reachable_fraction")?,
    })
}

/// Writes [`RawMetrics`] into a snapshot payload.
pub(crate) fn snap_raw_metrics(m: &RawMetrics, w: &mut SnapWriter) {
    snap_stats(&m.sp_in, w);
    snap_stats(&m.sp_out, w);
    snap_stats(&m.sp_proc, w);
    snap_stats(&m.client_in, w);
    snap_stats(&m.client_out, w);
    snap_stats(&m.client_proc, w);
    snap_stats(&m.results, w);
    w.u64(m.queries);
    w.u64(m.cluster_failures);
    w.u64(m.orphan_events);
    snap_stats(&m.downtime, w);
    w.f64(m.client_connected_secs);
    w.f64(m.client_disconnected_secs);
    w.len(m.timeline.len());
    for p in &m.timeline {
        w.f64(p.time);
        w.len(p.clusters);
        w.len(p.peers);
        w.f64(p.mean_cluster_size);
        w.f64(p.mean_ttl);
        w.f64(p.mean_outdegree);
    }
    w.u64(m.adapt_actions);
    m.faults.snap(w);
    snap_repair_metrics(&m.repair, w);
    m.overload.snap(w);
}

/// Reads metrics written by [`snap_raw_metrics`].
pub(crate) fn unsnap_raw_metrics(r: &mut SnapReader<'_>) -> Result<RawMetrics, SnapshotError> {
    let sp_in = unsnap_stats(r)?;
    let sp_out = unsnap_stats(r)?;
    let sp_proc = unsnap_stats(r)?;
    let client_in = unsnap_stats(r)?;
    let client_out = unsnap_stats(r)?;
    let client_proc = unsnap_stats(r)?;
    let results = unsnap_stats(r)?;
    let queries = r.u64("metrics queries")?;
    let cluster_failures = r.u64("metrics cluster_failures")?;
    let orphan_events = r.u64("metrics orphan_events")?;
    let downtime = unsnap_stats(r)?;
    let client_connected_secs = r.f64("metrics client_connected_secs")?;
    let client_disconnected_secs = r.f64("metrics client_disconnected_secs")?;
    let n = r.len("metrics timeline len")?;
    let mut timeline = Vec::with_capacity(n);
    for _ in 0..n {
        timeline.push(TimelinePoint {
            time: r.f64("timeline time")?,
            clusters: r.len("timeline clusters")?,
            peers: r.len("timeline peers")?,
            mean_cluster_size: r.f64("timeline mean_cluster_size")?,
            mean_ttl: r.f64("timeline mean_ttl")?,
            mean_outdegree: r.f64("timeline mean_outdegree")?,
        });
    }
    Ok(RawMetrics {
        sp_in,
        sp_out,
        sp_proc,
        client_in,
        client_out,
        client_proc,
        results,
        queries,
        cluster_failures,
        orphan_events,
        downtime,
        client_connected_secs,
        client_disconnected_secs,
        timeline,
        adapt_actions: r.u64("metrics adapt_actions")?,
        faults: FaultMetrics::unsnap(r)?,
        repair: unsnap_repair_metrics(r)?,
        overload: OverloadMetrics::unsnap(r)?,
    })
}

/// Writes the deterministic half of [`SimMetrics`] — the wall-time
/// histograms are host-clock measurements, inherently nondeterministic,
/// and restart empty in a restored run.
pub(crate) fn snap_sim_metrics(m: &SimMetrics, w: &mut SnapWriter) {
    for &d in &m.delivered {
        w.u64(d);
    }
    w.u64(m.cancelled);
    w.u64(m.stale);
    w.len(m.queue_high_water);
    w.bool(m.profiled);
}

/// Reads counters written by [`snap_sim_metrics`] (wall histograms stay
/// at their default).
pub(crate) fn unsnap_sim_metrics(r: &mut SnapReader<'_>) -> Result<SimMetrics, SnapshotError> {
    let mut m = SimMetrics::default();
    for d in &mut m.delivered {
        *d = r.u64("obs delivered")?;
    }
    debug_assert_eq!(m.delivered.len(), NUM_EVENT_KINDS);
    m.cancelled = r.u64("obs cancelled")?;
    m.stale = r.u64("obs stale")?;
    m.queue_high_water = r.len("obs queue_high_water")?;
    m.profiled = r.bool("obs profiled")?;
    Ok(m)
}

/// Writes a `Vec<RepairPending>` (parallel to the cluster slab).
pub(crate) fn snap_repair_pending(v: &[RepairPending], w: &mut SnapWriter) {
    w.len(v.len());
    for p in v {
        w.bool(p.active);
        w.f64(p.down_since);
        w.bool(p.adapt_stalled);
    }
}

/// Reads a vector written by [`snap_repair_pending`] into room for at
/// least `capacity` cluster slots.
pub(crate) fn unsnap_repair_pending(
    r: &mut SnapReader<'_>,
    capacity: usize,
) -> Result<Vec<RepairPending>, SnapshotError> {
    let n = r.len("repair_pending len")?;
    let mut v = Vec::with_capacity(n.max(capacity));
    for _ in 0..n {
        v.push(RepairPending {
            active: r.bool("repair_pending active")?,
            down_since: r.f64("repair_pending down_since")?,
            adapt_stalled: r.bool("repair_pending adapt_stalled")?,
        });
    }
    Ok(v)
}
