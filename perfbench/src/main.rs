//! End-to-end benchmark of the NobLSM serving stack on two clocks.
//!
//! ```text
//! perfbench --workload <fill|read_zipf|scan_e|net_mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every request goes `nob-server` -> `nob-store` -> `noblsm` ->
//! `nob-compact` -> `nob-ext4` -> `nob-ssd`. A run is a few rounds
//! ([`Kind::shape`]); each round sets the stack up afresh, replays its own
//! seeded request stream, checks every reply and ends with a crash probe.
//! With `--trace 1` one more round replays round 0 with tracing on, for
//! the per-layer ledger, and must match it bit for bit on the virtual
//! clock. The last line of standard output is the JSON result; the lines
//! before it are a readable table of every metric. See
//! `perfbench/METRICS.md`.

mod driver;
mod ledger;
mod probe;
mod workload;

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use nob_baselines::Variant;
use nob_bench::{Scale, PAPER_TABLE_LARGE};
use nob_server::{shared, ServerCore, ServerOptions, SharedCore, TcpServer, TcpTransport};
use nob_store::StoreOptions;
use nob_trace::TraceSink;
use noblsm::{Result, WriteBatch, WriteOptions};

use driver::{Class, Driver, HostLedger, Outcome, TimedLoopback, CLASSES};
use ledger::{delta, Counters, TraceLedger};
use probe::{crash_probe, Probe};
use workload::{preload_order, rec_key, rec_value, Kind, Stream};

/// Connections driven by the one load-generating thread.
const CLIENTS: usize = 2;
/// Shards behind the server.
const SHARDS: usize = 2;
/// Requests at the end of a round that the traced round records.
const TRACE_WINDOW: u64 = 6_000;
/// Spans the trace ring keeps: enough for the whole window, so no span
/// of it is dropped (`trace.dropped_spans` reports any that were).
const TRACE_RING: usize = 1 << 20;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> std::result::Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let number = |name: &str| -> std::result::Result<u64, String> {
        flag(name)?.parse().map_err(|_| format!("{name} must be a whole number"))
    };
    let workload = flag("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { kind, seed: number("--seed")?, seconds, trace })
}

/// NobLSM at scale 64 (1 MiB tables, 1 MiB block cache per shard),
/// 2 shards, buffered client writes.
fn server_options() -> ServerOptions {
    let scale = Scale::new(64);
    ServerOptions {
        store: StoreOptions {
            shards: SHARDS,
            fs: scale.fs_config(),
            db: Variant::NobLsm.options(&scale.base_options(PAPER_TABLE_LARGE)),
            ..StoreOptions::default()
        },
        write: WriteOptions::buffered(),
        ..ServerOptions::default()
    }
}

/// Loads every preload record through the store and waits for the
/// compactions it caused, so the timed phase starts on a settled tree.
fn preload(core: &mut ServerCore) -> Result<()> {
    let store = core.store_mut();
    for chunk in preload_order().chunks(64) {
        let mut batch = WriteBatch::new();
        for &rec in chunk {
            batch.put(&rec_key(rec), &rec_value(rec, 0));
        }
        store.write(&WriteOptions::buffered(), batch)?;
    }
    store.wait_idle()?;
    Ok(())
}

/// The checks made after a round's timed phase, which cost no measured
/// time.
struct Checks {
    busy_rejections: u64,
    protocol_errors: u64,
    cursors_open_end: u64,
    probe: Probe,
}

impl Checks {
    /// Reads the server's own counters out of `info` (its `INFO` reply),
    /// counts open cursors and runs the crash probe.
    fn after(core: &ServerCore, info: &str, model: &workload::Model) -> Checks {
        let counter = |name: &str| {
            info.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
                .unwrap_or(0)
        };
        Checks {
            busy_rejections: counter("busy_rejections"),
            protocol_errors: counter("protocol_errors"),
            cursors_open_end: core.open_cursors() as u64,
            probe: crash_probe(core, model),
        }
    }
}

/// One round: set-up, timed phase, then the [`Checks`].
struct Round {
    setup_s: f64,
    /// Key + value bytes the set-up preloaded.
    preload_bytes: u64,
    /// `VmHWM` at the end of the timed phase.
    peak_rss_mib: f64,
    ops: u64,
    host_s: f64,
    window_host_s: f64,
    vt_ns: u64,
    outcome: Outcome,
    host: HostLedger,
    start: Counters,
    end: Counters,
    checks: Checks,
    trace: Option<TraceLedger>,
}

impl Round {
    /// Everything that must repeat bit for bit when the round is replayed
    /// on the virtual clock.
    fn fingerprint(&self) -> String {
        let hash = |v: &[u64]| {
            v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| (h ^ x).wrapping_mul(0x100_0000_01b3))
        };
        let vt: Vec<u64> = self.outcome.samples.vt.iter().map(|s| hash(s)).collect();
        format!(
            "vt_ns={} vt_samples={vt:?} ssd_written={} user_bytes={} probe={:?}",
            self.vt_ns,
            self.ssd_bytes_written(),
            self.user_bytes(),
            self.checks.probe,
        )
    }

    /// SSD bytes written since the store was opened, preload included.
    fn ssd_bytes_written(&self) -> u64 {
        self.end.ssd_bytes_written()
    }

    /// User key + value bytes accepted since the store was opened.
    fn user_bytes(&self) -> u64 {
        self.preload_bytes + self.outcome.user_bytes
    }
}

/// A timed phase common to both transports: `ops - window` requests,
/// a drained pipeline, then the window (traced when a sink is given).
fn timed_phase<T: nob_server::Transport>(
    driver: &mut Driver<T>,
    stream: &mut Stream,
    ops: u64,
    attach: impl FnOnce(),
) -> Result<(f64, f64)> {
    let window = TRACE_WINDOW.min(ops / 2);
    let t0 = Instant::now();
    driver.run(stream, ops - window)?;
    attach();
    let t1 = Instant::now();
    driver.run(stream, window)?;
    Ok((t0.elapsed().as_secs_f64(), t1.elapsed().as_secs_f64()))
}

/// A stack ready for the timed phase: server core (preloaded when the
/// workload asks for it), connected loopback clients and the round's
/// request stream. Returns the host seconds the set-up took.
#[allow(clippy::type_complexity)]
fn open_loopback(
    kind: Kind,
    seed: u64,
    ops: u64,
) -> Result<(f64, SharedCore, Rc<RefCell<HostLedger>>, Driver<TimedLoopback>, Stream)> {
    let t0 = Instant::now();
    let core = shared(ServerCore::open(server_options())?);
    if kind.preloads() {
        preload(&mut core.borrow_mut())?;
    }
    let ledger = Rc::new(RefCell::new(HostLedger::default()));
    let clock = core.borrow().clock().clone();
    let transports = (0..CLIENTS).map(|_| TimedLoopback::connect(&core, &ledger)).collect();
    let driver = Driver::new(transports, clock);
    let stream = Stream::new(kind, seed, ops);
    Ok((t0.elapsed().as_secs_f64(), core, ledger, driver, stream))
}

fn loopback_round(kind: Kind, seed: u64, ops: u64, traced: bool) -> Result<Round> {
    let (setup_s, core, ledger, mut driver, mut stream) = open_loopback(kind, seed, ops)?;
    let clock = core.borrow().clock().clone();
    let start = Counters::read(&core.borrow());
    let vt0 = clock.now();
    let sink = traced.then(|| TraceSink::with_ring_capacity(TRACE_RING));
    let (host_s, window_host_s) = timed_phase(&mut driver, &mut stream, ops, || {
        if let Some(s) = &sink {
            core.borrow_mut().set_trace_sink(s.clone());
        }
    })?;
    let vt_ns = (clock.now() - vt0).as_nanos();
    let peak_rss_mib = peak_rss_mib();
    let end = Counters::read(&core.borrow());
    let host = ledger.borrow().clone();
    let trace = sink.as_ref().map(TraceLedger::collect);

    let info = driver.client(0).info()?;
    let outcome = std::mem::take(&mut driver.outcome);
    drop(driver);
    let checks = Checks::after(&core.borrow(), &info, &stream.model);
    Ok(Round {
        setup_s,
        preload_bytes: kind.preload_bytes(),
        peak_rss_mib,
        ops,
        host_s,
        window_host_s,
        vt_ns,
        outcome,
        host,
        start,
        end,
        checks,
        trace,
    })
}

/// A TCP server on an ephemeral loopback port over a freshly preloaded
/// store, with connected clients and the round's request stream. Returns
/// the host seconds the set-up took.
fn open_tcp(
    kind: Kind,
    seed: u64,
    ops: u64,
) -> Result<(f64, TcpServer, Driver<TcpTransport>, Counters, Stream)> {
    let t0 = Instant::now();
    let mut core = ServerCore::open(server_options())?;
    preload(&mut core)?;
    let clock = core.clock().clone();
    let start = Counters::read(&core);
    let server = TcpServer::serve("127.0.0.1:0", core)?;
    let addr = server.local_addr().to_string();
    let transports =
        (0..CLIENTS).map(|_| TcpTransport::connect(&addr)).collect::<Result<Vec<_>>>()?;
    let stream = Stream::new(kind, seed, ops);
    Ok((t0.elapsed().as_secs_f64(), server, Driver::new(transports, clock), start, stream))
}

fn tcp_round(kind: Kind, seed: u64, ops: u64) -> Result<Round> {
    let (setup_s, server, mut driver, start, mut stream) = open_tcp(kind, seed, ops)?;
    let clock = driver.clock().clone();
    let vt0 = clock.now();
    let (host_s, window_host_s) = timed_phase(&mut driver, &mut stream, ops, || {})?;
    let vt_ns = (clock.now() - vt0).as_nanos();
    let peak_rss_mib = peak_rss_mib();

    let info = driver.client(0).info()?;
    let outcome = std::mem::take(&mut driver.outcome);
    drop(driver);
    let core = server.shutdown()?;
    let end = Counters::read(&core);
    Ok(Round {
        setup_s,
        preload_bytes: kind.preload_bytes(),
        peak_rss_mib,
        ops,
        host_s,
        window_host_s,
        vt_ns,
        outcome,
        host: HostLedger::default(),
        start,
        end,
        checks: Checks::after(&core, &info, &stream.model),
        trace: None,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `sorted`, only where at least ten samples
/// lie beyond it.
fn percentile(sorted: &[u64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + 10).then(|| sorted[rank - 1] as f64)
}

fn pooled(rounds: &[Round], pick: impl Fn(&Round) -> Vec<&Vec<u64>>) -> Vec<u64> {
    let mut all: Vec<u64> =
        rounds.iter().flat_map(|r| pick(r).into_iter().flatten().copied()).collect();
    all.sort_unstable();
    all
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// The end-to-end metrics the JSON result carries with `--trace 0`.
///
/// Every figure comes from the workload's own rounds. On `net_mixed`
/// the virtual-clock figures are measured, not deterministic: how the
/// server thread interleaves the two TCP connections moves them.
fn end_to_end(rounds: &[Round], setup_s: f64) -> Vec<Metric> {
    let vt = pooled(rounds, |r| r.outcome.samples.vt.iter().collect());
    let host_lat = pooled(rounds, |r| r.outcome.samples.host.iter().collect());
    let us = |ns: Option<f64>| ns.map_or(f64::NAN, |v| v / 1e3);
    let mean_us = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3;
    let ops = rounds.iter().map(|r| r.ops).sum::<u64>() as f64;
    vec![
        metric(
            "vt_ops_per_s",
            "1/s",
            ops * 1e9 / rounds.iter().map(|r| r.vt_ns).sum::<u64>() as f64,
        ),
        metric("vt_mean_us", "us", mean_us(&vt)),
        metric("vt_p99_us", "us", us(percentile(&vt, 0.99))),
        metric("host_ops_per_s", "1/s", ops / rounds.iter().map(|r| r.host_s).sum::<f64>()),
        metric("host_mean_us", "us", mean_us(&host_lat)),
        metric(
            "write_amp",
            "ratio",
            rounds.iter().map(Round::ssd_bytes_written).sum::<u64>() as f64
                / rounds.iter().map(Round::user_bytes).sum::<u64>().max(1) as f64,
        ),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mib", "MiB", rounds[0].peak_rss_mib),
    ]
}

/// Readable lines for every end-to-end figure, per request class, with
/// sample counts; a percentile without ten samples beyond it is `n/a`.
fn table(kind: Kind, rounds: &[Round]) -> Vec<String> {
    let mut out = vec![format!(
        "perfbench {}: {} rounds x {} requests, {} clients x {} pipelined, {} shards",
        kind.name(),
        rounds.len(),
        rounds[0].ops,
        CLIENTS,
        driver::WINDOW,
        SHARDS
    )];
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |ns| format!("{:.3}", ns / 1e3));
    let line = |name: &str, vt: &[u64], host: &[u64]| {
        format!(
            "  {name:<4} virtual us (n={}): p50 {} p99 {} p999 {} | host us (n={}): p50 {} p99 {} p999 {}",
            vt.len(),
            fmt(percentile(vt, 0.50)),
            fmt(percentile(vt, 0.99)),
            fmt(percentile(vt, 0.999)),
            host.len(),
            fmt(percentile(host, 0.50)),
            fmt(percentile(host, 0.99)),
            fmt(percentile(host, 0.999)),
        )
    };
    for class in CLASSES {
        let c = class as usize;
        let vt = pooled(rounds, |r| vec![&r.outcome.samples.vt[c]]);
        if !vt.is_empty() {
            out.push(line(
                class.name(),
                &vt,
                &pooled(rounds, |r| vec![&r.outcome.samples.host[c]]),
            ));
        }
    }
    out.push(line(
        "all",
        &pooled(rounds, |r| r.outcome.samples.vt.iter().collect()),
        &pooled(rounds, |r| r.outcome.samples.host.iter().collect()),
    ));
    let attempted: u64 = rounds.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.outcome.failed()).sum();
    let lost: u64 = rounds.iter().map(|r| r.checks.probe.lost).sum();
    let acked: u64 = rounds.iter().map(|r| r.checks.probe.acked).sum();
    let repaired: u64 = rounds.iter().map(|r| r.checks.probe.repaired).sum();
    out.push(format!(
        "  error_frac {} ({failed} of {attempted} requests); crash_loss_frac {} ({lost} of {acked} acked records lost); {repaired} shards needed Db::repair",
        failed as f64 / attempted.max(1) as f64,
        lost as f64 / acked.max(1) as f64,
    ));
    out
}

/// The per-layer ledger the JSON result carries with `--trace 1`.
///
/// Counters come from the last untraced round on the workload's own
/// transport, host times of the server entry points from the untraced
/// loopback rounds, and critical-path figures from the traced window.
/// The traced round replays `loopback[0]`, so the two windows ran the
/// same requests and their host times give the tracing overhead.
fn per_layer(rounds: &[Round], loopback: &[Round], traced: &Round, tcp: bool) -> Vec<Metric> {
    let r = rounds.last().expect("at least one round");
    let (s, e) = (&r.start, &r.end);
    let t = traced.trace.as_ref().expect("the traced round carries a trace");
    let vt_ns = r.vt_ns as f64;
    let db = |f: fn(&noblsm::DbStats) -> u64| delta(&s.db, &e.db, f) as f64;
    let fs = |f: fn(&nob_ext4::FsStats) -> u64| delta(&s.fs, &e.fs, f) as f64;
    let io = |f: fn(&nob_ssd::IoStats) -> u64| delta(&s.io, &e.io, f) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let host =
        |f: &dyn Fn(&HostLedger) -> f64| median(loopback.iter().map(|r| f(&r.host)).collect());
    let feed =
        |c: Class| host(&|h| per(h.feed_ns[c as usize] as f64, h.requests[c as usize] as f64));
    let host_us_per_op =
        |rs: &[Round]| median(rs.iter().map(|r| r.host_s * 1e6 / r.ops as f64).collect());
    let majors = db(|d| d.major_compactions);
    let (hits, misses) = (delta(&s.cache, &e.cache, |c| c.0), delta(&s.cache, &e.cache, |c| c.1));
    let attempted: u64 = rounds.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.outcome.failed()).sum();
    vec![
        metric("server.feed_host_ns.get", "ns", feed(Class::Get)),
        metric("server.feed_host_ns.set", "ns", feed(Class::Set)),
        metric("server.feed_host_ns.scan", "ns", feed(Class::Scan)),
        metric(
            "server.flush_host_ns.set",
            "ns",
            host(&|h| per(h.flush_ns as f64, h.requests[Class::Set as usize] as f64)),
        ),
        metric(
            "server.take_output_host_ns",
            "ns",
            host(&|h| per(h.take_output_ns as f64, h.requests.iter().sum::<u64>() as f64)),
        ),
        metric("server.admission_us", "us", t.set_segment_us("admission")),
        metric(
            "server.busy_rejections",
            "count",
            rounds.iter().map(|r| r.checks.busy_rejections).sum::<u64>() as f64,
        ),
        metric(
            "server.protocol_errors",
            "count",
            rounds.iter().map(|r| r.checks.protocol_errors).sum::<u64>() as f64,
        ),
        metric(
            "server.cursors_open_end",
            "count",
            rounds.iter().map(|r| r.checks.cursors_open_end).max().unwrap_or(0) as f64,
        ),
        metric(
            "tcp.overhead_us",
            "us",
            if tcp { host_us_per_op(rounds) - host_us_per_op(loopback) } else { 0.0 },
        ),
        metric(
            "store.batches_per_group",
            "ratio",
            per(
                (e.store.batches - s.store.batches) as f64,
                (e.store.groups - s.store.groups) as f64,
            ),
        ),
        metric("store.group_wait_us", "us", t.set_segment_us("group_wait")),
        metric("engine.wal_write_us", "us", t.set_segment_us("wal_write")),
        metric("engine.stall_us", "us", t.set_segment_us("stall")),
        metric("engine.stall_share", "fraction", per(db(|d| d.stall_time.as_nanos()), vt_ns)),
        metric("engine.stalls", "count", db(|d| d.stalls)),
        metric("engine.minor_compactions", "count", db(|d| d.minor_compactions)),
        metric("engine.major_compactions", "count", majors),
        metric(
            "engine.major_compactions_min_shard",
            "count",
            s.db.iter()
                .zip(&e.db)
                .map(|(a, b)| b.major_compactions - a.major_compactions)
                .min()
                .unwrap_or(0) as f64,
        ),
        metric("engine.seek_compactions", "count", db(|d| d.seek_compactions)),
        metric("engine.compaction_bytes_written", "bytes", db(|d| d.compaction_bytes_written)),
        metric(
            "engine.shadow_files",
            "count",
            e.db.iter().map(|d| d.shadow_files).sum::<u64>() as f64,
        ),
        metric("engine.reclaimed_files", "count", db(|d| d.reclaimed_files)),
        metric("engine.get_p99_us", "us", t.engine_get_p99_ns as f64 / 1e3),
        metric("engine.read_amp", "ratio", per(db(|d| d.files_read_per_get), db(|d| d.gets))),
        metric("engine.cache_hit_ratio", "fraction", per(hits as f64, (hits + misses) as f64)),
        metric(
            "compact.lane_busy_share",
            "fraction",
            per(delta(&s.lane_busy_ns, &e.lane_busy_ns, |&b| b) as f64, e.lanes as f64 * vt_ns),
        ),
        metric("compact.read_us", "us", per(db(|d| d.compact_read_time.as_nanos()) / 1e3, majors)),
        metric(
            "compact.merge_us",
            "us",
            per(db(|d| d.compact_merge_time.as_nanos()) / 1e3, majors),
        ),
        metric(
            "compact.write_us",
            "us",
            per(db(|d| d.compact_write_time.as_nanos()) / 1e3, majors),
        ),
        metric("compact.preempt_l0", "count", db(|d| d.l0_preempts)),
        metric("compact.backoffs", "count", db(|d| d.lane_backoffs)),
        metric("compact.debt_bytes_end", "bytes", e.debt_bytes as f64),
        metric("ext4.sync_calls", "count", fs(|f| f.sync_calls)),
        metric("ext4.sync_commits", "count", fs(|f| f.sync_commits)),
        metric("ext4.async_commits", "count", fs(|f| f.async_commits)),
        metric("ext4.bytes_synced", "bytes", fs(|f| f.bytes_synced)),
        metric("ext4.journal_bytes", "bytes", fs(|f| f.journal_bytes)),
        metric("ext4.bytes_written_back", "bytes", fs(|f| f.bytes_written_back)),
        metric("ext4.journal_wait_us", "us", t.set_segment_us("journal_wait")),
        metric("ssd.bytes_written", "bytes", io(|i| i.bytes_written)),
        metric("ssd.flush_commands", "count", io(|i| i.flush_commands)),
        metric(
            "ssd.busy_share",
            "fraction",
            per(delta(&s.device_busy_ns, &e.device_busy_ns, |&b| b) as f64, SHARDS as f64 * vt_ns),
        ),
        metric("ssd.flush_us", "us", t.flush_mean_ns / 1e3),
        metric("ssd.read_commands", "count", io(|i| i.read_commands)),
        metric("ssd.bytes_read", "bytes", io(|i| i.bytes_read)),
        metric(
            "trace.overhead_frac",
            "fraction",
            traced.window_host_s / loopback[0].window_host_s - 1.0,
        ),
        metric("trace.dropped_spans", "count", t.dropped_spans as f64),
        metric("trace.segment_sum_err_ns", "ns", t.segment_sum_err_ns as f64),
        metric("trace.paths", "count", t.paths as f64),
        metric("trace.incomplete_sets", "count", t.incomplete_sets as f64),
        metric("trace.overhang_us", "us", per(t.overhang_ns as f64 / 1e3, t.paths as f64)),
        metric(
            "crash_loss_frac",
            "fraction",
            per(
                rounds.iter().map(|r| r.checks.probe.lost).sum::<u64>() as f64,
                rounds.iter().map(|r| r.checks.probe.acked).sum::<u64>() as f64,
            ),
        ),
        metric(
            "crash_repaired_shards",
            "count",
            rounds.iter().map(|r| r.checks.probe.repaired).sum::<u64>() as f64,
        ),
        metric("error_frac", "fraction", per(failed as f64, attempted as f64)),
    ]
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The seed of round `i`: rounds replay different inputs, so one run
/// averages over several request streams.
fn round_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}

/// Extra set-ups per run when one is cheap (`fill` opens an empty store
/// and builds its request stream in about 0.5 ms): the median of many is
/// steadier than the median of the rounds alone.
const MIN_SETUPS: usize = 101;

fn run(args: &Args) -> Result<ExitCode> {
    let kind = args.kind;
    let (n_rounds, ops) = kind.shape(args.seconds);
    // Cheap set-ups are sampled first, on the fresh heap every run starts
    // with: after a round has freed hundreds of MiB, how fast an empty
    // store opens depends on what the allocator kept.
    let mut setups = Vec::new();
    if !kind.preloads() {
        for _ in 0..MIN_SETUPS {
            setups.push(open_loopback(kind, args.seed, ops)?.0);
        }
    }
    // A preloading workload's set-up grows the process heap before its
    // timed phase. fill has no preload, so its first round would pay for
    // that growth alone and run about 10% slower than the rest: one
    // unmeasured warm-up round on a seed no measured round uses goes
    // first.
    let warmup = if kind.preloads() {
        None
    } else {
        Some(loopback_round(kind, round_seed(args.seed, n_rounds), ops, false)?)
    };
    let mut rounds = Vec::new();
    for i in 0..n_rounds {
        let seed = round_seed(args.seed, i);
        rounds.push(match kind {
            Kind::NetMixed => tcp_round(kind, seed, ops)?,
            _ => loopback_round(kind, seed, ops, false)?,
        });
    }
    setups.extend(rounds.iter().map(|r| r.setup_s));
    let mut problems = Vec::new();
    // The traced round replays round 0 on the loopback transport. Its
    // virtual-clock results must equal round 0's bit for bit: the replay
    // is the determinism self-check, and it shows tracing does not
    // perturb virtual time. For net_mixed it replays round 0's loopback
    // twin, which also gives the TCP transport's host overhead.
    let mut twin = None;
    let mut traced = None;
    if args.trace {
        if kind == Kind::NetMixed {
            twin = Some(loopback_round(kind, round_seed(args.seed, 0), ops, false)?);
        }
        let t = loopback_round(kind, round_seed(args.seed, 0), ops, true)?;
        let reference = twin.as_ref().unwrap_or(&rounds[0]);
        if t.fingerprint() != reference.fingerprint() {
            problems.push(format!(
                "virtual-clock results differ between two rounds on one seed:\n  {}\n  {}",
                reference.fingerprint(),
                t.fingerprint()
            ));
        }
        traced = Some(t);
    }
    let all = || warmup.iter().chain(&rounds).chain(twin.iter()).chain(traced.iter());
    let wrong: u64 = all().map(|r| r.outcome.wrong).sum();
    let corrupt: u64 = all().map(|r| r.checks.probe.corrupt).sum();
    if wrong > 0 {
        problems.push(format!("{wrong} replies disagreed with the model"));
    }
    if corrupt > 0 {
        problems.push(format!("{corrupt} records were corrupt after the crash probe"));
    }
    let unrecoverable: u64 = all().map(|r| r.checks.probe.unrecoverable).sum();
    if unrecoverable > 0 {
        problems.push(format!(
            "{unrecoverable} shards could not be recovered after the crash probe, even by Db::repair"
        ));
    }
    if all().any(|r| r.checks.cursors_open_end > 0) {
        problems.push("scan cursors were left open".into());
    }
    let attempted: u64 = rounds.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.outcome.failed()).sum();

    for line in table(kind, &rounds) {
        println!("{line}");
    }
    let metrics = match &traced {
        Some(traced) => {
            let t = traced.trace.as_ref().expect("the traced round carries a trace");
            if t.dropped_spans > 0 || t.segment_sum_err_ns > 0 || t.incomplete_sets > 0 {
                problems.push(format!(
                    "trace ledger invalid: {} dropped spans, {} ns segment-sum error, \
                     {} incomplete SET trees",
                    t.dropped_spans, t.segment_sum_err_ns, t.incomplete_sets
                ));
            }
            let loopback = twin.as_ref().map_or(&rounds[..], std::slice::from_ref);
            per_layer(&rounds, loopback, traced, kind == Kind::NetMixed)
        }
        None => end_to_end(&rounds, median(setups)),
    };
    for m in &metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(if wrong + corrupt + unrecoverable > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fill|read_zipf|scan_e|net_mixed> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
