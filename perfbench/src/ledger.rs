//! The per-layer ledger: public counters read before and after the timed
//! phase, and the critical-path decomposition of the traced window.

use nob_ext4::FsStats;
use nob_server::ServerCore;
use nob_sim::Nanos;
use nob_store::StoreStats;
use nob_trace::critical::{CriticalPath, TraceNode};
use nob_trace::{EventClass, TraceSink};
use noblsm::DbStats;

/// Every shard's public counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    pub db: Vec<DbStats>,
    pub fs: Vec<FsStats>,
    pub io: Vec<nob_ssd::IoStats>,
    pub device_busy_ns: Vec<u64>,
    pub cache: Vec<(u64, u64)>,
    pub lane_busy_ns: Vec<u64>,
    pub lanes: usize,
    pub store: StoreStats,
    pub debt_bytes: u64,
}

impl Counters {
    pub fn read(core: &ServerCore) -> Counters {
        let store = core.store();
        let dbs: Vec<_> = (0..store.shards()).map(|i| store.shard_db(i)).collect();
        Counters {
            db: dbs.iter().map(|d| d.stats().clone()).collect(),
            fs: dbs.iter().map(|d| d.fs().stats()).collect(),
            io: dbs.iter().map(|d| d.fs().io_stats()).collect(),
            device_busy_ns: dbs.iter().map(|d| d.fs().device_busy_time().as_nanos()).collect(),
            cache: dbs.iter().map(|d| d.cache_hit_stats()).collect(),
            lane_busy_ns: dbs
                .iter()
                .map(|d| d.lane_stats().iter().map(|l| l.busy.as_nanos()).sum())
                .collect(),
            lanes: dbs.iter().map(|d| d.compaction_lanes()).sum(),
            store: store.stats(),
            debt_bytes: dbs.iter().map(|d| d.compaction_debt_bytes()).sum(),
        }
    }

    /// SSD bytes written by every shard, foreground and background.
    pub fn ssd_bytes_written(&self) -> u64 {
        self.io.iter().map(|s| s.bytes_written).sum()
    }
}

/// Sum over shards of `f(end) - f(start)`.
pub fn delta<T>(start: &[T], end: &[T], f: impl Fn(&T) -> u64) -> u64 {
    start.iter().zip(end).map(|(s, e)| f(e) - f(s)).sum()
}

/// What the critical-path analyzer found in the traced window.
#[derive(Debug, Default, Clone)]
pub struct TraceLedger {
    /// Traced SETs decomposed, and the nanoseconds each commit segment
    /// took across them.
    pub set_paths: u64,
    pub set_segment_ns: [u64; nob_trace::critical::N_SEGMENTS],
    /// All traced requests decomposed.
    pub paths: u64,
    /// Sum over requests of |sum of segments - request total|.
    pub segment_sum_err_ns: u64,
    /// Traced SETs whose tree never reached a group commit (a lost link
    /// or span would show here).
    pub incomplete_sets: u64,
    pub dropped_spans: u64,
    /// Sum over requests of how far their span trees reach past their
    /// reply (time the analyzer would otherwise charge to them).
    pub overhang_ns: u64,
    pub engine_get_p99_ns: u64,
    pub flush_mean_ns: f64,
}

impl TraceLedger {
    pub fn collect(sink: &TraceSink) -> TraceLedger {
        let forest = sink.forest();
        let mut t = TraceLedger { dropped_spans: sink.dropped(), ..TraceLedger::default() };
        for root in forest.roots() {
            let serving = matches!(
                root.class,
                EventClass::ServerWrite | EventClass::ServerRead | EventClass::ServerScan
            );
            if !serving {
                continue;
            }
            let Some(tree) = forest.tree(root.trace) else { continue };
            // Background work a request set off (a minor compaction, its
            // write-back) is parented under the request's spans but runs
            // past the request's reply; clip the tree to the request's own
            // window so the segments partition receipt -> reply.
            t.overhang_ns += (tree.max_end() - root.end).as_nanos();
            let path = CriticalPath::from_tree(&clip(&tree, root.end));
            let sum: u64 = path.segments.iter().sum();
            t.segment_sum_err_ns += sum.abs_diff(path.total_ns);
            t.paths += 1;
            if root.class == EventClass::ServerWrite {
                t.set_paths += 1;
                for (acc, v) in t.set_segment_ns.iter_mut().zip(path.segments) {
                    *acc += v;
                }
                if !reaches(&tree, EventClass::GroupCommit) {
                    t.incomplete_sets += 1;
                }
            }
        }
        let summary = sink.summary();
        t.engine_get_p99_ns = summary.class(EventClass::EngineGet).map_or(0, |c| c.p99_ns);
        let flushes = [EventClass::SsdFlush, EventClass::SsdBgFlush];
        let (n, ns) = flushes
            .iter()
            .filter_map(|&c| summary.class(c))
            .fold((0u64, 0u64), |(n, ns), c| (n + c.count, ns + c.total_ns));
        t.flush_mean_ns = ns as f64 / n.max(1) as f64;
        t
    }

    /// Mean microseconds per traced SET spent in commit segment `name`.
    pub fn set_segment_us(&self, name: &str) -> f64 {
        let i = nob_trace::critical::SEGMENTS
            .iter()
            .position(|&s| s == name)
            .expect("a known critical-path segment");
        self.set_segment_ns[i] as f64 / 1e3 / self.set_paths.max(1) as f64
    }
}

/// `node` with every span cut off at `end`; spans that start at or
/// after `end` are dropped.
fn clip(node: &TraceNode, end: Nanos) -> TraceNode {
    let mut event = node.event;
    event.end = event.end.min(end);
    let children =
        node.children.iter().filter(|c| c.event.start < end).map(|c| clip(c, end)).collect();
    TraceNode { event, grafted: node.grafted, children }
}

fn reaches(node: &TraceNode, class: EventClass) -> bool {
    node.event.class == class || node.children.iter().any(|c| reaches(c, class))
}
