//! The crash probe: cut power to every shard at the run's last instant,
//! recover each shard from its crashed filesystem, and classify every
//! record of the model as intact, lost or corrupt.
//!
//! Recovery follows the engine's operator procedure, the one the chaos
//! harness validates against: the normal open first, and `Db::repair`
//! then a second open only if that fails. Shards that needed the repair
//! are counted, so the open failure stays visible.

use nob_ext4::Ext4Fs;
use nob_server::ServerCore;
use nob_sim::{Nanos, SharedClock};
use noblsm::{Db, Options, ReadOptions, Result};

use crate::workload::{parse_key, Model, Recovered};

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Records with an acked write.
    pub acked: u64,
    pub lost: u64,
    pub corrupt: u64,
    /// Shards whose normal open failed and that were recovered by
    /// `Db::repair`.
    pub repaired: u64,
    /// Shards whose repair failed too, or whose recovered tree broke its
    /// invariants; their records are not classified.
    pub unrecoverable: u64,
}

/// Recovers every shard as it would be after a power cut now, checks
/// the recovered trees' invariants and compares them with `model`.
pub fn crash_probe(core: &ServerCore, model: &Model) -> Probe {
    let store = core.store();
    let at = core.clock().now();
    let mut probe = Probe { acked: model.acked_records(), ..Probe::default() };
    let mut seen = vec![false; model.records() as usize];
    for shard in 0..store.shards() {
        if let Err(e) = recover_shard(core, shard, at, model, &mut probe, &mut seen) {
            eprintln!("perfbench: shard{shard} failed recovery after the crash probe: {e}");
            probe.unrecoverable += 1;
            // Nothing of the shard is classified: mark its records seen.
            for rec in 0..model.records() {
                if store.shard_of(&crate::workload::rec_key(rec)) == shard {
                    seen[rec as usize] = true;
                }
            }
        }
    }
    for rec in 0..model.records() {
        if !seen[rec as usize] {
            tally(&mut probe, model.classify(rec, None));
        }
    }
    probe
}

fn recover_shard(
    core: &ServerCore,
    shard: usize,
    at: Nanos,
    model: &Model,
    probe: &mut Probe,
    seen: &mut [bool],
) -> Result<()> {
    let store = core.store();
    let live = store.shard_db(shard);
    let crashed = live.fs().crashed_view(at);
    let dir = format!("shard{shard}");
    let opts = live.options().clone();
    // A failed first attempt classifies nothing: its tallies are dropped.
    let classify = |t: Nanos| {
        let (mut found, mut recs) = (Probe::default(), Vec::new());
        read_back(&crashed, &dir, &opts, t, &mut |key, value| {
            let routed = store.shard_of(key) == shard;
            match parse_key(key).filter(|&rec| routed && rec < model.records()) {
                Some(rec) => {
                    recs.push(rec);
                    tally(&mut found, model.classify(rec, Some(value)));
                }
                None => found.corrupt += 1,
            }
        })
        .map(|()| (found, recs))
    };
    let (found, recs) = match classify(at) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: shard{shard} failed to recover after the crash probe ({e}); repairing"
            );
            probe.repaired += 1;
            let (t, _) = Db::repair_with_report(&crashed, &dir, &opts, at)?;
            classify(t)?
        }
    };
    probe.lost += found.lost;
    probe.corrupt += found.corrupt;
    for rec in recs {
        seen[rec as usize] = true;
    }
    Ok(())
}

/// Opens a recovered shard, checks its invariants and visits every row.
fn read_back(
    fs: &Ext4Fs,
    dir: &str,
    opts: &Options,
    at: Nanos,
    visit: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<()> {
    let mut db = Db::open_with_clock(fs.clone(), dir, opts.clone(), SharedClock::at(at))?;
    db.check_invariants()?;
    let mut it = db.iter(&ReadOptions::default())?;
    it.seek_to_first()?;
    while it.valid() {
        visit(it.key(), it.value());
        it.next()?;
    }
    Ok(())
}

fn tally(probe: &mut Probe, r: Recovered) {
    match r {
        Recovered::Intact => {}
        Recovered::Lost => probe.lost += 1,
        Recovered::Corrupt => probe.corrupt += 1,
    }
}
