//! Workload shapes, their seeded request streams and the client-side
//! model every reply is checked against.
//!
//! Keys are the paper's 16-byte zero-padded record numbers, so key order
//! is record-number order and a range `[a, b)` of record numbers is a
//! range of keys. Values are 1 KiB and a pure function of `(record,
//! version)`, so the model only keeps version numbers and any reply can
//! be checked by recomputing the bytes it must equal.

use nob_workloads::keys::{key, shuffled, value};
use nob_workloads::ycsb::ScrambledZipfian;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Value size of every write (the paper's headline size).
pub const VALUE_LEN: usize = 1024;

/// Records preloaded before `read_zipf` and `scan_e` (64 MiB of user
/// data over 2 shards: 32x each shard's 1 MiB block cache).
pub const PRELOAD_RECORDS: u64 = 64_000;

/// Rows per SCAN / SCANNEXT page: a scan of U(1,100) rows takes one to
/// four pages, so the cursor lease path is exercised on most scans.
pub const SCAN_PAGE: u64 = 32;

/// The four workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// fillrandom through the server: every key written once, shuffled.
    Fill,
    /// 95% GET / 5% SET over a scrambled zipfian, after a preload.
    ReadZipf,
    /// 95% SCAN of U(1,100) rows / 5% insert of new keys, after a preload.
    ScanE,
    /// 7 SETs (updates of preloaded records) per GET over real TCP
    /// connections.
    NetMixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fill" => Some(Kind::Fill),
            "read_zipf" => Some(Kind::ReadZipf),
            "scan_e" => Some(Kind::ScanE),
            "net_mixed" => Some(Kind::NetMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fill => "fill",
            Kind::ReadZipf => "read_zipf",
            Kind::ScanE => "scan_e",
            Kind::NetMixed => "net_mixed",
        }
    }

    /// Whether the set-up preloads [`PRELOAD_RECORDS`] records (all but
    /// `fill`, which starts from an empty store).
    pub fn preloads(self) -> bool {
        self != Kind::Fill
    }

    /// User key + value bytes the set-up preloads.
    pub fn preload_bytes(self) -> u64 {
        if self.preloads() {
            PRELOAD_RECORDS * (16 + VALUE_LEN as u64)
        } else {
            0
        }
    }

    /// Requests per host second this harness sustains on a 2-core x86
    /// box, used to size a run so that it measures about `--seconds` of
    /// host time.
    fn ops_per_host_second(self) -> u64 {
        match self {
            Kind::Fill => 14_000,
            Kind::ReadZipf => 25_000,
            Kind::ScanE => 1_800,
            // Each round also pays for a preload.
            Kind::NetMixed => 11_000,
        }
    }

    /// Rounds per run and requests per round, a pure function of
    /// `--seconds` so one seed always replays the same inputs. Each round
    /// sets the stack up afresh and replays its own seeded stream.
    ///
    /// `fill` keeps a fixed round of 100 000 requests, so every round
    /// ends in the same regime of the tree; longer runs add rounds. A
    /// `fill` round leaves about 50 MiB of user data per shard, well past
    /// the first L2 -> L3 compactions: rounds that end mid-transition
    /// (20-25 MiB per shard) gave bimodal results. How much compaction a
    /// round does depends on its write order, so its virtual throughput
    /// varies by about 8% from seed to seed; a run pools at least three
    /// rounds to average that out. Preloading workloads
    /// lengthen their rounds instead, because each round pays for a
    /// preload. `net_mixed` only updates preloaded records, so its tree
    /// keeps its size and one long round stays in one regime; the two
    /// read-heavy workloads keep two rounds, so their set-up is a median.
    pub fn shape(self, seconds: u64) -> (usize, u64) {
        const WRITE_ROUND: u64 = 100_000;
        let budget = self.ops_per_host_second() * seconds;
        match self {
            Kind::Fill => ((budget / WRITE_ROUND).max(3) as usize, WRITE_ROUND),
            Kind::NetMixed => (1, budget.max(2_000)),
            Kind::ReadZipf | Kind::ScanE => (2, (budget / 2).max(2_000)),
        }
    }
}

/// One client operation. A SCAN is one operation however many pages it
/// takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Set { rec: u64, version: u32 },
    Get { rec: u64 },
    Scan { start: u64, end: u64 },
}

/// Per-record versions: the newest one sent and the newest one acked.
/// `NONE` means never.
#[derive(Debug, Clone, Copy)]
struct Slot {
    sent: i64,
    acked: i64,
}

const NONE: i64 = -1;

/// The generator's model of the store: key -> last acked value, plus
/// the newest version in flight. Replies are checked against it.
#[derive(Debug)]
pub struct Model {
    slots: Vec<Slot>,
}

/// How a recovered record compares with the model after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovered {
    Intact,
    Lost,
    Corrupt,
}

impl Model {
    fn new() -> Model {
        Model { slots: Vec::new() }
    }

    fn slot_mut(&mut self, rec: u64) -> &mut Slot {
        let i = rec as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot { sent: NONE, acked: NONE });
        }
        &mut self.slots[i]
    }

    fn slot(&self, rec: u64) -> Slot {
        self.slots.get(rec as usize).copied().unwrap_or(Slot { sent: NONE, acked: NONE })
    }

    /// Records that are written or being written (the dense key prefix).
    pub fn records(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Newest acked version of `rec`, or `None`.
    pub fn acked(&self, rec: u64) -> Option<u32> {
        let a = self.slot(rec).acked;
        (a != NONE).then_some(a as u32)
    }

    pub fn sent(&mut self, rec: u64, version: u32) {
        let s = self.slot_mut(rec);
        s.sent = s.sent.max(i64::from(version));
    }

    pub fn ack(&mut self, rec: u64, version: u32) {
        let s = self.slot_mut(rec);
        s.acked = s.acked.max(i64::from(version));
    }

    /// Whether `got` is a value a GET of `rec` may return, given the
    /// version acked when the GET was sent: that one, or any newer one
    /// sent since (the server may apply a write before its ack arrives).
    pub fn get_ok(&self, rec: u64, acked_at_send: Option<u32>, got: Option<&[u8]>) -> bool {
        let newest = self.slot(rec).sent;
        match got {
            None => acked_at_send.is_none(),
            Some(bytes) => {
                let oldest = acked_at_send.map_or(0, i64::from);
                (oldest..=newest).any(|v| bytes == value(rec, v as u64, VALUE_LEN).as_slice())
            }
        }
    }

    /// Checks one complete scan of records `[start, end)`: rows sorted,
    /// in range and carrying their record's only version; every record
    /// acked before the scan was sent is present, and every other row is
    /// a record whose write was sent by now.
    pub fn scan_ok(
        &self,
        start: u64,
        end: u64,
        acked_at_send: &[bool],
        rows: &crate::driver::Rows,
    ) -> bool {
        let mut expect = start;
        for (k, v) in rows {
            let Some(rec) = parse_key(k) else { return false };
            if rec < expect || rec >= end {
                return false;
            }
            if (expect..rec).any(|r| acked_at_send[(r - start) as usize]) {
                return false;
            }
            if self.slot(rec).sent == NONE || v.as_slice() != value(rec, 0, VALUE_LEN).as_slice() {
                return false;
            }
            expect = rec + 1;
        }
        !(expect..end).any(|r| acked_at_send[(r - start) as usize])
    }

    /// Classifies one record read back from a recovered store.
    pub fn classify(&self, rec: u64, got: Option<&[u8]>) -> Recovered {
        let s = self.slot(rec);
        match got {
            None if s.acked == NONE => Recovered::Intact,
            None => Recovered::Lost,
            Some(bytes) => {
                if s.acked != NONE && bytes == value(rec, s.acked as u64, VALUE_LEN).as_slice() {
                    Recovered::Intact
                } else if (0..s.acked.max(0))
                    .any(|v| bytes == value(rec, v as u64, VALUE_LEN).as_slice())
                {
                    // An older version: the newest acked write was lost.
                    Recovered::Lost
                } else {
                    Recovered::Corrupt
                }
            }
        }
    }

    /// Records with an acked write (the crash probe's denominator).
    pub fn acked_records(&self) -> u64 {
        self.slots.iter().filter(|s| s.acked != NONE).count() as u64
    }
}

/// Parses a 16-digit record key back to its record number.
pub fn parse_key(k: &[u8]) -> Option<u64> {
    if k.len() != 16 || !k.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(k).ok()?.parse().ok()
}

pub fn rec_key(rec: u64) -> Vec<u8> {
    key(rec)
}

pub fn rec_value(rec: u64, version: u32) -> Vec<u8> {
    value(rec, u64::from(version), VALUE_LEN)
}

/// The preload order: every record `0..PRELOAD_RECORDS` once, shuffled
/// the same way for every seed. The preloaded tree is part of the
/// workload's definition and the seed drives the requests. Scan cost
/// depends strongly on where table boundaries fall: with a tree shuffled
/// per seed, the quartile spread of `scan_e`'s virtual throughput over
/// seeds was 13%; with one fixed tree it is under 1%.
pub fn preload_order() -> Vec<u64> {
    shuffled(PRELOAD_RECORDS, PRELOAD_SEED)
}

const PRELOAD_SEED: u64 = 0x5eed_0001;

/// A seeded request stream plus the model it is checked against.
pub struct Stream {
    kind: Kind,
    rng: SmallRng,
    zipf: Option<ScrambledZipfian>,
    order: Vec<u64>,
    next: usize,
    issued: u64,
    pub model: Model,
}

impl Stream {
    /// A fresh stream for one round. Preloading workloads start with
    /// every preloaded record acked at version 0.
    pub fn new(kind: Kind, seed: u64, ops: u64) -> Stream {
        let mut model = Model::new();
        if kind.preloads() {
            for rec in 0..PRELOAD_RECORDS {
                model.sent(rec, 0);
                model.ack(rec, 0);
            }
        }
        let order = match kind {
            Kind::Fill => shuffled(ops, seed),
            // Updates of the preloaded records, so the tree stays in one
            // steady state however long the round is.
            Kind::NetMixed => shuffled(PRELOAD_RECORDS, seed),
            Kind::ReadZipf | Kind::ScanE => Vec::new(),
        };
        let zipf = matches!(kind, Kind::ReadZipf | Kind::ScanE)
            .then(|| ScrambledZipfian::new(PRELOAD_RECORDS));
        Stream { kind, rng: SmallRng::seed_from_u64(seed), zipf, order, next: 0, issued: 0, model }
    }

    /// The next operation, registered in the model as sent.
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let op = match self.kind {
            Kind::Fill => self.next_in_order(),
            Kind::NetMixed => {
                // bench-net's mix: every eighth request reads back the
                // record written just before it.
                if self.issued.is_multiple_of(8) && self.next > 0 {
                    Op::Get { rec: self.order[(self.next - 1) % self.order.len()] }
                } else {
                    self.next_in_order()
                }
            }
            Kind::ReadZipf => {
                let rec = self.zipf_rec();
                if self.rng.gen_bool(0.95) {
                    Op::Get { rec }
                } else {
                    let version = self.model.slot(rec).sent as u32 + 1;
                    Op::Set { rec, version }
                }
            }
            Kind::ScanE => {
                if self.rng.gen_bool(0.95) {
                    let start = self.zipf_rec() % self.model.records();
                    let len = self.rng.gen_range(1..=100u64);
                    Op::Scan { start, end: start + len }
                } else {
                    Op::Set { rec: self.model.records(), version: 0 }
                }
            }
        };
        if let Op::Set { rec, version } = op {
            self.model.sent(rec, version);
        }
        op
    }

    /// A SET of the next record of `order`, one version newer than the
    /// last one sent. `order` is a permutation, so a record is written
    /// again only a full pass later, long after its previous write was
    /// acked: no two writes of one record are ever in flight together.
    fn next_in_order(&mut self) -> Op {
        let rec = self.order[self.next % self.order.len()];
        self.next += 1;
        let version = (self.model.slot(rec).sent + 1) as u32;
        Op::Set { rec, version }
    }

    fn zipf_rec(&mut self) -> u64 {
        self.zipf.as_ref().expect("zipf workloads preload").next(&mut self.rng)
    }
}
