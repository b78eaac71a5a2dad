//! Folding a traced run's measurements into the per-layer metrics.

use crate::drive::WindowLayers;
use vigil_fabric::flowsim::RouteCacheStats;

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("fabric.faults_build_ms", "ms"),
    ("fabric.open_ms", "ms"),
    ("fabric.simulate_ns_per_flow", "ns"),
    ("fabric.materialize_ns_per_record", "ns"),
    ("fabric.records_per_window", "count"),
    ("fabric.path_memo_hit_rate", "ratio"),
    ("fabric.interned_paths", "count"),
    ("fabric.route_compiles", "count"),
    ("fabric.route_table_hit_rate", "ratio"),
    ("agents.trace_ns_per_event", "ns"),
    ("agents.admit_ratio", "ratio"),
    ("agents.tick_ms_per_window", "ms"),
    ("hub.drain_ns_per_event", "ns"),
    ("hub.shed", "count"),
    ("analysis.absorb_ns_per_evidence", "ns"),
    ("analysis.close_window_ms", "ms"),
    ("analysis.evidence_per_window", "count"),
    ("optim.integer_ms_per_window", "ms"),
    ("optim.rows_per_window", "count"),
    ("optim.optimal_ratio", "ratio"),
    ("evaluate.ms_per_window", "ms"),
    ("session.window_ms", "ms"),
    ("layers.unattributed_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("pool.busy_share", "ratio"),
    ("agent.busy_s", "s"),
    ("collector.seq_gaps", "count"),
    ("collector.shed", "count"),
    ("wire.frames_per_window", "count"),
    ("wire.bytes_per_window", "B"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.write_ms_per_window", "ms"),
    ("memory.rss_growth_mb", "MB"),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Least-squares slope of `y` over `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    ratio(sxy, sxx)
}

/// Wire-layer totals, from a captured socket stream or from a
/// workload's hub events framed in memory.
#[derive(Debug, Clone, Default)]
pub struct WireTotals {
    /// Windows the totals cover.
    pub windows: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// `emit_frame` time.
    pub encode_ns: u64,
    /// `parse_frame` time.
    pub decode_ns: u64,
    /// Time inside the sink's writes.
    pub write_ns: u64,
}

/// Everything a traced run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// One entry per driven window or cell.
    pub windows: Vec<WindowLayers>,
    /// `ClosTopology::new` times.
    pub topology_build_ms: Vec<f64>,
    /// `FaultPlan::build` / `CompositeFaultPlan::compile` times.
    pub faults_build_ms: Vec<f64>,
    /// `evaluate_epoch` times.
    pub evaluate_ms: Vec<f64>,
    /// `StreamSession::run_window` times on the reference windows.
    pub session_ms: Vec<f64>,
    /// Driven window time outside every layer span.
    pub unattributed_ms: Vec<f64>,
    /// Driven window time over reference window time, minus one.
    pub overhead: Vec<f64>,
    /// Integer-program times measured off the workload's path (the
    /// workload runs with the baselines off).
    pub optim_offpath_ms: Vec<f64>,
    /// Route-cache counters accumulated over the drive's scratches.
    pub route: RouteCacheStats,
    /// Interned paths per drive scratch at its last window.
    pub interned_paths: Vec<f64>,
    /// Summed trial wall over (threads × wall) of the pooled call.
    pub pool_busy_share: f64,
    /// Seconds of host-agent work.
    pub agent_busy_s: f64,
    /// Collector sequence gaps.
    pub collector_seq_gaps: u64,
    /// Collector hub sheds.
    pub collector_shed: u64,
    /// Wire totals.
    pub wire: WireTotals,
    /// `(window, VmRSS MB)` samples.
    pub rss: Vec<(f64, f64)>,
    /// Layers measured off the workload's own path.
    pub off_path: Vec<&'static str>,
}

impl LayerReport {
    /// Adds the route-cache counters a drive scratch accumulated.
    pub fn add_route(&mut self, s: RouteCacheStats, interned: usize) {
        self.route.table_hits += s.table_hits;
        self.route.table_misses += s.table_misses;
        self.route.compiles += s.compiles;
        self.route.path_hits += s.path_hits;
        self.route.path_misses += s.path_misses;
        self.interned_paths.push(interned as f64);
    }

    /// Records one driven window.
    pub fn add_window(&mut self, driven: WindowLayers) {
        self.unattributed_ms
            .push(driven.window_ns.saturating_sub(driven.attributed_ns()) as f64 / 1e6);
        self.windows.push(driven);
    }

    /// Records one reference window against its driven twin.
    pub fn add_reference(&mut self, session_ms: f64, driven: &WindowLayers) {
        self.session_ms.push(session_ms);
        self.overhead
            .push(ratio(driven.window_ns as f64 / 1e6, session_ms) - 1.0);
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let w = &self.windows;
        let sum = |f: fn(&WindowLayers) -> u64| w.iter().map(f).sum::<u64>() as f64;
        let per_window_ms =
            |f: fn(&WindowLayers) -> u64| w.iter().map(|x| f(x) as f64 / 1e6).collect::<Vec<_>>();
        let n = w.len() as f64;
        let optim_on: Vec<f64> = w
            .iter()
            .filter(|x| x.optim_optimal.is_some())
            .map(|x| x.optim_ns as f64 / 1e6)
            .collect();
        let optim_ms = if optim_on.is_empty() {
            median(&self.optim_offpath_ms)
        } else {
            median(&optim_on)
        };
        let solved = w.iter().filter(|x| x.optim_optimal.is_some()).count() as f64;
        let optimal = w.iter().filter(|x| x.optim_optimal == Some(true)).count() as f64;
        let r = &self.route;
        let wire = &self.wire;
        let wire_windows = wire.windows as f64;
        let values: Vec<f64> = vec![
            median(&self.topology_build_ms),
            median(&self.faults_build_ms),
            median(&per_window_ms(|x| x.open_ns)),
            ratio(sum(|x| x.simulate_ns), sum(|x| x.flows)),
            ratio(sum(|x| x.materialize_ns), sum(|x| x.records)),
            ratio(sum(|x| x.records), n),
            ratio(r.path_hits as f64, (r.path_hits + r.path_misses) as f64),
            median(&self.interned_paths),
            r.compiles as f64,
            ratio(r.table_hits as f64, (r.table_hits + r.table_misses) as f64),
            ratio(sum(|x| x.trace_ns), sum(|x| x.flow_opens)),
            ratio(sum(|x| x.evidence), sum(|x| x.flow_opens)),
            median(&per_window_ms(|x| x.tick_ns)),
            ratio(sum(|x| x.drain_ns), sum(|x| x.drained)),
            sum(|x| x.shed),
            ratio(sum(|x| x.absorb_ns), sum(|x| x.evidence)),
            median(&per_window_ms(|x| x.close_ns)),
            ratio(sum(|x| x.evidence), n),
            optim_ms,
            ratio(sum(|x| x.optim_rows), n),
            if solved > 0.0 { optimal / solved } else { 1.0 },
            median(&self.evaluate_ms),
            median(&self.session_ms),
            median(&self.unattributed_ms),
            median(&self.overhead),
            self.pool_busy_share,
            self.agent_busy_s,
            self.collector_seq_gaps as f64,
            self.collector_shed as f64,
            ratio(wire.frames as f64, wire_windows),
            ratio(wire.bytes as f64, wire_windows),
            ratio(wire.encode_ns as f64, wire.frames as f64),
            ratio(wire.decode_ns as f64, wire.frames as f64),
            ratio(wire.write_ns as f64 / 1e6, wire_windows),
            slope(&self.rss) * 100.0,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }
}
