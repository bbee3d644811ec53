//! The closed-loop load generator and the benchmark's timed loopback
//! transport.
//!
//! One thread drives every connection: each client keeps
//! [`WINDOW`] requests pipelined, and the driver visits the clients in
//! turn, topping each window up and then taking one reply. Every reply
//! is checked against the [`Model`](crate::workload::Model) before the
//! next request is generated.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use nob_server::{Client, ConnId, Frame, Request, SharedCore, Transport};
use nob_sim::SharedClock;
use noblsm::Result;

use crate::workload::{rec_key, rec_value, Op, Stream, SCAN_PAGE};

/// Key/value rows of a scan, in order.
pub type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// Requests each client keeps in flight.
pub const WINDOW: usize = 16;

/// Request classes the ledger and the latency tables split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Set = 0,
    Get = 1,
    Scan = 2,
}

pub const CLASSES: [Class; 3] = [Class::Set, Class::Get, Class::Scan];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Set => "set",
            Class::Get => "get",
            Class::Scan => "scan",
        }
    }

    fn of(op: &Op) -> Class {
        match op {
            Op::Set { .. } => Class::Set,
            Op::Get { .. } => Class::Get,
            Op::Scan { .. } => Class::Scan,
        }
    }
}

/// Host time spent in each [`ServerCore`](nob_server::ServerCore) entry
/// point, as seen from the transport calling it.
#[derive(Debug, Default, Clone)]
pub struct HostLedger {
    /// `feed` nanoseconds and wire requests, by [`Class`].
    pub feed_ns: [u64; 3],
    pub requests: [u64; 3],
    pub flush_ns: u64,
    pub take_output_ns: u64,
}

/// The benchmark's own loopback transport: the same calls as
/// `nob_server::LoopbackTransport`, each timed on the host clock.
pub struct TimedLoopback {
    core: SharedCore,
    conn: ConnId,
    ledger: Rc<RefCell<HostLedger>>,
}

impl TimedLoopback {
    pub fn connect(core: &SharedCore, ledger: &Rc<RefCell<HostLedger>>) -> TimedLoopback {
        let conn = core.borrow_mut().connect();
        TimedLoopback { core: Rc::clone(core), conn, ledger: Rc::clone(ledger) }
    }
}

/// The class of one encoded request, from its RESP command name.
fn wire_class(bytes: &[u8]) -> Option<Class> {
    // `*<n>\r\n$<len>\r\n<NAME>\r\n...`
    let mut parts = bytes.split(|&b| b == b'\n');
    parts.next()?;
    parts.next()?;
    let name = parts.next()?.strip_suffix(b"\r")?;
    match name {
        b"SET" => Some(Class::Set),
        b"GET" => Some(Class::Get),
        b"SCAN" => Some(Class::Scan),
        _ => None,
    }
}

impl Transport for TimedLoopback {
    fn send(&mut self, bytes: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.core.borrow_mut().feed(self.conn, bytes);
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(class) = wire_class(bytes) {
            let mut l = self.ledger.borrow_mut();
            l.feed_ns[class as usize] += ns;
            l.requests[class as usize] += 1;
        }
        r
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize> {
        let mut core = self.core.borrow_mut();
        let mut ledger = self.ledger.borrow_mut();
        let t = Instant::now();
        let mut chunk = core.take_output(self.conn);
        ledger.take_output_ns += t.elapsed().as_nanos() as u64;
        if chunk.is_empty() {
            let t = Instant::now();
            core.flush()?;
            ledger.flush_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            chunk = core.take_output(self.conn);
            ledger.take_output_ns += t.elapsed().as_nanos() as u64;
        }
        out.extend_from_slice(&chunk);
        Ok(chunk.len())
    }
}

impl Drop for TimedLoopback {
    fn drop(&mut self) {
        self.core.borrow_mut().disconnect(self.conn);
    }
}

/// Latency samples (ns) of completed operations, by class and clock.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub vt: [Vec<u64>; 3],
    pub host: [Vec<u64>; 3],
}

/// What the driver observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Samples,
    /// Operations completed (successfully or not).
    pub attempted: u64,
    /// `-BUSY` replies.
    pub busy: u64,
    /// Other error replies.
    pub errors: u64,
    /// Replies whose content disagreed with the model.
    pub wrong: u64,
    /// Key + value bytes of acked writes.
    pub user_bytes: u64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.wrong
    }
}

/// One wire request awaiting its reply.
struct InFlight {
    op: Op,
    vt_start: u64,
    host_start: Instant,
    /// GET: the version acked when it was sent.
    acked_at_send: Option<u32>,
    /// SCAN: which records of the range were acked when it was sent,
    /// and the rows of the pages received so far.
    scan: Option<(Vec<bool>, Rows)>,
}

/// A closed loop of pipelining clients over one request stream.
pub struct Driver<T: Transport> {
    clients: Vec<Client<T>>,
    inflight: Vec<VecDeque<InFlight>>,
    clock: SharedClock,
    pub outcome: Outcome,
}

impl<T: Transport> Driver<T> {
    pub fn new(transports: Vec<T>, clock: SharedClock) -> Driver<T> {
        let inflight = transports.iter().map(|_| VecDeque::new()).collect();
        let clients = transports.into_iter().map(Client::new).collect();
        Driver { clients, inflight, clock, outcome: Outcome::default() }
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    pub fn client(&mut self, i: usize) -> &mut Client<T> {
        &mut self.clients[i]
    }

    /// Issues `ops` operations from `stream` and returns once every one
    /// of them has completed.
    pub fn run(&mut self, stream: &mut Stream, ops: u64) -> Result<()> {
        let mut issued = 0;
        loop {
            for c in 0..self.clients.len() {
                while self.inflight[c].len() < WINDOW && issued < ops {
                    let op = stream.next_op();
                    self.send(c, op, stream)?;
                    issued += 1;
                }
                if !self.inflight[c].is_empty() {
                    self.complete(c, stream)?;
                }
            }
            if issued == ops && self.inflight.iter().all(VecDeque::is_empty) {
                return Ok(());
            }
        }
    }

    fn send(&mut self, c: usize, op: Op, stream: &Stream) -> Result<()> {
        let (req, acked_at_send, scan) = match op {
            Op::Set { rec, version } => {
                (Request::Set(rec_key(rec), rec_value(rec, version)), None, None)
            }
            Op::Get { rec } => (Request::Get(rec_key(rec)), stream.model.acked(rec), None),
            Op::Scan { start, end } => {
                let acked = (start..end).map(|r| stream.model.acked(r).is_some()).collect();
                let req = Request::Scan {
                    start: rec_key(start),
                    end: rec_key(end),
                    limit: SCAN_PAGE,
                    prefix: None,
                    count_only: false,
                };
                (req, None, Some((acked, Vec::new())))
            }
        };
        let vt_start = self.clock.now().as_nanos();
        let host_start = Instant::now();
        self.clients[c].send(&req)?;
        self.inflight[c].push_back(InFlight { op, vt_start, host_start, acked_at_send, scan });
        Ok(())
    }

    fn complete(&mut self, c: usize, stream: &mut Stream) -> Result<()> {
        let reply = self.clients[c].recv_reply()?;
        let mut req = self.inflight[c].pop_front().expect("a reply answers an in-flight request");
        let out = &mut self.outcome;
        if let Frame::Error(msg) = &reply {
            if msg.starts_with("BUSY") {
                out.busy += 1;
            } else {
                out.errors += 1;
            }
            out.attempted += 1;
            return Ok(());
        }
        let ok = match (req.op, reply) {
            (Op::Set { rec, version }, Frame::Simple(s)) if s == "OK" => {
                stream.model.ack(rec, version);
                out.user_bytes += (rec_key(rec).len() + crate::workload::VALUE_LEN) as u64;
                true
            }
            (Op::Get { rec }, Frame::Bulk(v)) => {
                stream.model.get_ok(rec, req.acked_at_send, Some(&v))
            }
            (Op::Get { rec }, Frame::Nil) => stream.model.get_ok(rec, req.acked_at_send, None),
            (Op::Scan { start, end }, Frame::Array(items)) => {
                let (acked, mut rows) = req.scan.take().expect("scans carry their state");
                let Some((cursor, page)) = scan_page(items) else {
                    out.wrong += 1;
                    out.attempted += 1;
                    return Ok(());
                };
                rows.extend(page);
                if cursor != 0 {
                    // Not finished: the next page keeps the operation's
                    // start instants, so its latency spans every page.
                    self.clients[c].send(&Request::ScanNext(cursor))?;
                    req.scan = Some((acked, rows));
                    self.inflight[c].push_back(req);
                    return Ok(());
                }
                stream.model.scan_ok(start, end, &acked, &rows)
            }
            _ => false,
        };
        let out = &mut self.outcome;
        out.attempted += 1;
        if !ok {
            out.wrong += 1;
            return Ok(());
        }
        let class = Class::of(&req.op) as usize;
        out.samples.vt[class].push(self.clock.now().as_nanos() - req.vt_start);
        out.samples.host[class].push(req.host_start.elapsed().as_nanos() as u64);
        Ok(())
    }
}

/// Splits a SCAN page reply into its cursor and rows.
fn scan_page(items: Vec<Frame>) -> Option<(u64, Rows)> {
    let mut items = items.into_iter();
    let (Some(Frame::Integer(cursor)), Some(Frame::Array(flat)), None) =
        (items.next(), items.next(), items.next())
    else {
        return None;
    };
    if cursor < 0 || !flat.len().is_multiple_of(2) {
        return None;
    }
    let pairs = flat.len() / 2;
    let mut rows = Vec::with_capacity(pairs);
    let mut flat = flat.into_iter();
    while let (Some(Frame::Bulk(k)), Some(Frame::Bulk(v))) = (flat.next(), flat.next()) {
        rows.push((k, v));
    }
    (rows.len() == pairs).then_some((cursor as u64, rows))
}
