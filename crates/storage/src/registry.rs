//! Sharded per-source metadata registry.
//!
//! PR 1 striped the *buffers* sixteen ways, but every row still paid
//! lookups against five separate global-mutex maps for its metadata:
//! `sources` (class/structure/group), `sealed` and `mg_sealed` (replay
//! low-water marks), `watermarks` (late-row routing), and `late_sealed`
//! (side-path replay marks). At a million registered sources those maps
//! are both a contention ceiling — one `RwLock`/`Mutex` each, hit from
//! every ingest shard — and a leak: entries were never removed once TTL
//! retention dropped a source's last batch.
//!
//! `SourceRegistry` packs all per-source state into one
//! `SourceRecord` and stripes the records with the *same hash* as
//! [`crate::stripe::StripedBuffers`] (`shard_of`), so the metadata a
//! writer needs lives in the registry shard with the same index as the
//! buffer shard it already owns, and writers to different sources touch
//! disjoint locks end to end. MG-group seal marks are striped the same
//! way, keyed by group id.
//!
//! Sentinels keep the record `Copy`-cheap and allocation-free:
//! `sealed_lsn == 0` / `late_sealed_lsn == 0` mean "nothing sealed yet"
//! (WAL LSNs start at 1), and `watermark == i64::MIN` means "no seal has
//! established a watermark".
//!
//! **Lock order:** registry shard locks nest *inside* buffer shard locks
//! (ingest replay checks run while holding the buffer shard; pruning
//! locks open-buffer shard → side-buffer shard → registry shard). No
//! registry method takes a buffer lock, so the order cannot invert.

use crate::select::Structure;
use crate::stripe::{shard_of, SHARD_COUNT};
use crate::table::SourceMeta;
use odh_pager::stats::ConcurrencyStats;
use odh_types::{OdhError, Result, SourceClass, SourceId};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything the table tracks about one registered source, packed into
/// a single slot so a metadata lookup touches one cache line instead of
/// walking five maps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SourceRecord {
    pub meta: SourceMeta,
    /// Highest WAL LSN covered by a sealed per-source batch; 0 = none.
    pub sealed_lsn: u64,
    /// Max sealed timestamp (late-row boundary); `i64::MIN` = no seal yet.
    pub watermark: i64,
    /// Highest WAL LSN covered by a sealed side (late) batch; 0 = none.
    pub late_sealed_lsn: u64,
}

impl SourceRecord {
    fn new(meta: SourceMeta) -> SourceRecord {
        SourceRecord { meta, sealed_lsn: 0, watermark: i64::MIN, late_sealed_lsn: 0 }
    }
}

/// The per-source metadata store of one table, striped identically to
/// the ingest buffers.
pub(crate) struct SourceRegistry {
    shards: Vec<Mutex<HashMap<u64, SourceRecord>>>,
    /// MG-group seal low-water marks, sharded by group id. Group state is
    /// shared across the group's sources, so it cannot live in a
    /// [`SourceRecord`].
    mg_sealed: Vec<Mutex<HashMap<u32, u64>>>,
    /// Registry-lock accounting, separate from the buffers' stats so the
    /// ingest contention rate keeps meaning "buffer shard contention".
    stats: Arc<ConcurrencyStats>,
    count: AtomicUsize,
}

impl SourceRegistry {
    pub fn new(stats: Arc<ConcurrencyStats>) -> SourceRegistry {
        SourceRegistry {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            mg_sealed: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            stats,
            count: AtomicUsize::new(0),
        }
    }

    fn lock_counted<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        match m.try_lock() {
            Some(g) => {
                self.stats.note_shard_lock(false);
                g
            }
            None => {
                self.stats.note_shard_lock(true);
                m.lock()
            }
        }
    }

    fn shard(&self, source: u64) -> MutexGuard<'_, HashMap<u64, SourceRecord>> {
        self.lock_counted(&self.shards[shard_of(source)])
    }

    fn mg_shard(&self, group: u32) -> MutexGuard<'_, HashMap<u32, u64>> {
        self.lock_counted(&self.mg_sealed[shard_of(group as u64)])
    }

    /// Register a new source. `log` runs under the owning shard lock
    /// *before* the record becomes visible, so the WAL's source frame is
    /// ordered ahead of any point frame the source could produce.
    pub fn register(
        &self,
        id: SourceId,
        meta: SourceMeta,
        log: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let mut g = self.shard(id.0);
        if g.contains_key(&id.0) {
            return Err(OdhError::Config(format!("{id} already registered")));
        }
        log()?;
        g.insert(id.0, SourceRecord::new(meta));
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Idempotent registration for WAL replay / snapshot restore.
    pub fn adopt(&self, id: SourceId, meta: SourceMeta) -> bool {
        let mut g = self.shard(id.0);
        if g.contains_key(&id.0) {
            return false;
        }
        g.insert(id.0, SourceRecord::new(meta));
        self.count.fetch_add(1, Ordering::Relaxed);
        true
    }

    pub fn meta(&self, source: u64) -> Option<SourceMeta> {
        self.shard(source).get(&source).map(|r| r.meta)
    }

    pub fn require(&self, source: SourceId) -> Result<SourceMeta> {
        self.meta(source.0).ok_or_else(|| OdhError::NotFound(format!("{source} not registered")))
    }

    /// Meta plus watermark in one lock acquisition — the columnar put
    /// path needs both before touching the buffer shard.
    pub fn meta_and_watermark(&self, source: u64) -> Option<(SourceMeta, Option<i64>)> {
        self.shard(source)
            .get(&source)
            .map(|r| (r.meta, (r.watermark != i64::MIN).then_some(r.watermark)))
    }

    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    pub fn class_of(&self, source: u64) -> Option<SourceClass> {
        self.shard(source).get(&source).map(|r| r.meta.class)
    }

    /// All registered ids, ascending.
    pub fn ids(&self) -> Vec<SourceId> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(self.lock_counted(shard).keys().map(|&id| SourceId(id)));
        }
        out.sort_unstable();
        out
    }

    /// Raise `source`'s watermark to `ts` (called once per sealed batch
    /// with the batch max). A missing record (pruned mid-seal) is a
    /// no-op: with no record there is no watermark to route against.
    pub fn note_watermark(&self, source: u64, ts: i64) {
        if let Some(r) = self.shard(source).get_mut(&source) {
            r.watermark = r.watermark.max(ts);
        }
    }

    /// True when `ts` precedes `source`'s sealed watermark — the row
    /// would land behind a batch that is already immutable.
    pub fn is_late(&self, source: u64, ts: i64) -> bool {
        self.shard(source).get(&source).is_some_and(|r| r.watermark != i64::MIN && ts < r.watermark)
    }

    pub fn sealed_lsn(&self, source: u64) -> u64 {
        self.shard(source).get(&source).map_or(0, |r| r.sealed_lsn)
    }

    pub fn advance_sealed(&self, source: u64, lsn: u64) {
        if lsn == 0 {
            return;
        }
        if let Some(r) = self.shard(source).get_mut(&source) {
            r.sealed_lsn = r.sealed_lsn.max(lsn);
        }
    }

    pub fn late_sealed_lsn(&self, source: u64) -> u64 {
        self.shard(source).get(&source).map_or(0, |r| r.late_sealed_lsn)
    }

    pub fn advance_late_sealed(&self, source: u64, lsn: u64) {
        if lsn == 0 {
            return;
        }
        if let Some(r) = self.shard(source).get_mut(&source) {
            r.late_sealed_lsn = r.late_sealed_lsn.max(lsn);
        }
    }

    pub fn mg_sealed_lsn(&self, group: u32) -> u64 {
        self.mg_shard(group).get(&group).copied().unwrap_or(0)
    }

    pub fn advance_mg_sealed(&self, group: u32, lsn: u64) {
        if lsn == 0 {
            return;
        }
        let mut g = self.mg_shard(group);
        let e = g.entry(group).or_insert(0);
        *e = (*e).max(lsn);
    }

    /// Split the registered population for a scan: per-source ids to walk
    /// individually, and the distinct MG group ids. MG sources join
    /// `per_source` only when `reorganized` batches may hold their rows
    /// under per-source keys. With a `filter`, only the named ids are
    /// looked up — a small query against a million-source table never
    /// walks the full registry.
    pub fn partition(
        &self,
        filter: Option<&HashSet<SourceId>>,
        reorganized: bool,
    ) -> (Vec<SourceId>, Vec<u32>) {
        let mut per_source = Vec::new();
        let mut groups: HashSet<u32> = HashSet::new();
        let mut visit = |sid: SourceId, r: &SourceRecord| match r.meta.ingest {
            Structure::Mg => {
                groups.insert(r.meta.group.0);
                if reorganized {
                    per_source.push(sid);
                }
            }
            _ => per_source.push(sid),
        };
        match filter {
            Some(list) => {
                for &sid in list {
                    if let Some(r) = self.shard(sid.0).get(&sid.0) {
                        visit(sid, r);
                    }
                }
            }
            None => {
                for shard in &self.shards {
                    for (&id, r) in self.lock_counted(shard).iter() {
                        visit(SourceId(id), r);
                    }
                }
            }
        }
        per_source.sort_unstable();
        let mut groups: Vec<u32> = groups.into_iter().collect();
        groups.sort_unstable();
        (per_source, groups)
    }

    /// Non-MG sources whose watermark sits strictly below `floor`: every
    /// row they ever sealed has been dropped by TTL retention, making
    /// them prune candidates. Callers re-verify under [`Self::remove_if`].
    pub fn expired(&self, floor: i64) -> Vec<SourceId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (&id, r) in self.lock_counted(shard).iter() {
                if r.meta.ingest != Structure::Mg && r.watermark != i64::MIN && r.watermark < floor
                {
                    out.push(SourceId(id));
                }
            }
        }
        out
    }

    /// Remove `source`'s record if `check` still holds under the shard
    /// lock. Returns whether a record was removed.
    pub fn remove_if(&self, source: u64, check: impl FnOnce(&SourceRecord) -> bool) -> bool {
        let mut g = self.shard(source);
        if g.get(&source).is_some_and(check) {
            g.remove(&source);
            self.count.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Give mostly-empty shard tables their slack back. `HashMap` never
    /// shrinks on removal, so without this a churn spike (a fleet of
    /// short-lived sources aging out through TTL) would pin its
    /// high-water capacity forever. Called after a prune pass; a shard
    /// under a quarter full is shrunk to fit.
    pub fn shrink_idle(&self) {
        for shard in &self.shards {
            let mut g = self.lock_counted(shard);
            if g.capacity() > 16 && g.len() < g.capacity() / 4 {
                g.shrink_to_fit();
            }
        }
    }

    /// Approximate resident bytes: hash-table slots at their current
    /// capacity plus the fixed struct. Good enough for a gauge; exact
    /// allocator accounting would need malloc introspection.
    pub fn approx_bytes(&self) -> usize {
        let record_slot = std::mem::size_of::<(u64, SourceRecord)>() + 8;
        let mg_slot = std::mem::size_of::<(u32, u64)>() + 8;
        let mut n = std::mem::size_of::<SourceRegistry>();
        for shard in &self.shards {
            n += self.lock_counted(shard).capacity() * record_slot;
        }
        for shard in &self.mg_sealed {
            n += self.lock_counted(shard).capacity() * mg_slot;
        }
        n
    }

    pub fn concurrency(&self) -> &Arc<ConcurrencyStats> {
        &self.stats
    }

    // --- snapshot export / restore (wire format owned by snapshot.rs) ---

    /// `(id, class)` pairs, ascending by id.
    pub fn snapshot_sources(&self) -> Vec<(u64, SourceClass)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(self.lock_counted(shard).iter().map(|(&id, r)| (id, r.meta.class)));
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Per-source sealed marks, ascending; zero (unset) marks are
    /// omitted, matching the map-based format that only held real marks.
    pub fn snapshot_sealed(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                self.lock_counted(shard)
                    .iter()
                    .filter(|(_, r)| r.sealed_lsn > 0)
                    .map(|(&id, r)| (id, r.sealed_lsn)),
            );
        }
        out.sort_unstable();
        out
    }

    pub fn snapshot_late_sealed(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                self.lock_counted(shard)
                    .iter()
                    .filter(|(_, r)| r.late_sealed_lsn > 0)
                    .map(|(&id, r)| (id, r.late_sealed_lsn)),
            );
        }
        out.sort_unstable();
        out
    }

    pub fn snapshot_mg_sealed(&self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for shard in &self.mg_sealed {
            out.extend(self.lock_counted(shard).iter().map(|(&g, &l)| (g, l)));
        }
        out.sort_unstable();
        out
    }

    /// Restore sealed marks onto already-adopted records (snapshot
    /// restore registers every source first, so misses only happen for a
    /// corrupt snapshot — they are ignored, same as the old map extend).
    pub fn restore_sealed(&self, marks: impl IntoIterator<Item = (u64, u64)>) {
        for (id, lsn) in marks {
            if let Some(r) = self.shard(id).get_mut(&id) {
                r.sealed_lsn = lsn;
            }
        }
    }

    pub fn restore_late_sealed(&self, marks: impl IntoIterator<Item = (u64, u64)>) {
        for (id, lsn) in marks {
            if let Some(r) = self.shard(id).get_mut(&id) {
                r.late_sealed_lsn = lsn;
            }
        }
    }

    pub fn restore_mg_sealed(&self, marks: impl IntoIterator<Item = (u32, u64)>) {
        for (g, lsn) in marks {
            self.mg_shard(g).insert(g, lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::ingestion_structure;
    use odh_types::GroupId;
    use proptest::prelude::*;

    fn meta_for(id: u64, class: SourceClass) -> SourceMeta {
        SourceMeta { class, ingest: ingestion_structure(class), group: GroupId((id / 8) as u32) }
    }

    fn reg() -> SourceRegistry {
        SourceRegistry::new(Arc::new(ConcurrencyStats::default()))
    }

    #[test]
    fn register_lookup_and_duplicate() {
        let r = reg();
        let m = meta_for(7, SourceClass::irregular_high());
        r.register(SourceId(7), m, || Ok(())).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.meta(7).is_some());
        assert!(r.require(SourceId(7)).is_ok());
        assert!(r.require(SourceId(8)).is_err());
        let dup = r.register(SourceId(7), m, || Ok(())).unwrap_err();
        assert!(matches!(dup, OdhError::Config(_)));
        // A failing log keeps the source unregistered.
        let e = r.register(SourceId(9), m, || Err(OdhError::Config("wal down".into())));
        assert!(e.is_err());
        assert!(r.meta(9).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn marks_advance_monotonically_and_prune_reclaims() {
        let r = reg();
        // irregular_high ingests per-source (IRTS); only non-MG sources
        // are prune candidates, so the class matters here.
        r.register(SourceId(3), meta_for(3, SourceClass::irregular_high()), || Ok(())).unwrap();
        r.advance_sealed(3, 5);
        r.advance_sealed(3, 2); // regressions ignored
        r.advance_sealed(3, 0); // sentinel ignored
        assert_eq!(r.sealed_lsn(3), 5);
        r.note_watermark(3, 100);
        r.note_watermark(3, 50);
        assert!(r.is_late(3, 99));
        assert!(!r.is_late(3, 100));
        r.advance_late_sealed(3, 9);
        assert_eq!(r.late_sealed_lsn(3), 9);
        // Watermark 100 < floor 200 → candidate; removal reclaims all marks.
        assert_eq!(r.expired(200), vec![SourceId(3)]);
        assert!(r.remove_if(3, |rec| rec.watermark < 200));
        assert_eq!(r.len(), 0);
        assert_eq!(r.sealed_lsn(3), 0);
        assert!(!r.is_late(3, 0));
        // The id can be registered again after pruning.
        r.register(SourceId(3), meta_for(3, SourceClass::irregular_high()), || Ok(())).unwrap();
        assert_eq!(r.sealed_lsn(3), 0, "re-registration starts clean");
    }

    /// Acceptance gate: every metadata lookup goes through the sharded
    /// registry — concurrent writers on disjoint sources drive lock
    /// counts up while the contention rate stays far below a single
    /// global mutex (which would contend on nearly every acquisition).
    #[test]
    fn concurrent_churn_counts_shard_locks_with_low_contention() {
        let r = Arc::new(reg());
        let threads = 8;
        let per = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..per {
                        let id = t * 1_000_000 + i; // disjoint id ranges
                        let m = meta_for(id, SourceClass::irregular_high());
                        r.register(SourceId(id), m, || Ok(())).unwrap();
                        r.advance_sealed(id, i + 1);
                        r.note_watermark(id, i as i64);
                        assert_eq!(r.require(SourceId(id)).unwrap().group, m.group);
                    }
                });
            }
        });
        assert_eq!(r.len(), (threads * per) as usize);
        let (locks, contended) =
            (r.concurrency().shard_locks.get(), r.concurrency().shard_contended.get());
        // register + advance + note + require = 4 locks per source minimum.
        assert!(
            locks >= threads * per * 4,
            "lookups bypassed the counted shard locks: {locks} locks"
        );
        assert!(
            contended < locks / 2,
            "sharding failed to spread contention: {contended} of {locks} contended"
        );
        assert!(r.approx_bytes() > 0);
    }

    // --- registry equivalence proptest: churn vs a single-map model ---

    #[derive(Debug, Clone)]
    enum Op {
        Register(u64, bool), // id, mg-class?
        AdvanceSealed(u64, u64),
        NoteWatermark(u64, i64),
        AdvanceLate(u64, u64),
        AdvanceMg(u32, u64),
        Prune(i64),
    }

    #[derive(Default)]
    struct Model {
        sources: HashMap<u64, SourceMeta>,
        sealed: HashMap<u64, u64>,
        watermarks: HashMap<u64, i64>,
        late: HashMap<u64, u64>,
        mg: HashMap<u32, u64>,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let id = 0u64..24;
        prop_oneof![
            (id.clone(), any::<bool>()).prop_map(|(i, mg)| Op::Register(i, mg)),
            (id.clone(), 1u64..50).prop_map(|(i, l)| Op::AdvanceSealed(i, l)),
            (id.clone(), -100i64..100).prop_map(|(i, t)| Op::NoteWatermark(i, t)),
            (id, 1u64..50).prop_map(|(i, l)| Op::AdvanceLate(i, l)),
            (0u32..4, 1u64..50).prop_map(|(g, l)| Op::AdvanceMg(g, l)),
            (-50i64..150).prop_map(Op::Prune),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn registry_matches_single_map_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let r = reg();
            let mut m = Model::default();
            for op in ops {
                match op {
                    Op::Register(id, mg) => {
                        let class = if mg {
                            SourceClass::regular_low(odh_types::Duration::from_secs(60))
                        } else {
                            SourceClass::irregular_high()
                        };
                        let meta = meta_for(id, class);
                        let res = r.register(SourceId(id), meta, || Ok(()));
                        prop_assert_eq!(res.is_err(), m.sources.contains_key(&id));
                        m.sources.entry(id).or_insert(meta);
                    }
                    Op::AdvanceSealed(id, l) => {
                        r.advance_sealed(id, l);
                        if m.sources.contains_key(&id) {
                            let e = m.sealed.entry(id).or_insert(0);
                            *e = (*e).max(l);
                        }
                    }
                    Op::NoteWatermark(id, t) => {
                        r.note_watermark(id, t);
                        if m.sources.contains_key(&id) {
                            let e = m.watermarks.entry(id).or_insert(i64::MIN);
                            *e = (*e).max(t);
                        }
                    }
                    Op::AdvanceLate(id, l) => {
                        r.advance_late_sealed(id, l);
                        if m.sources.contains_key(&id) {
                            let e = m.late.entry(id).or_insert(0);
                            *e = (*e).max(l);
                        }
                    }
                    Op::AdvanceMg(g, l) => {
                        r.advance_mg_sealed(g, l);
                        let e = m.mg.entry(g).or_insert(0);
                        *e = (*e).max(l);
                    }
                    Op::Prune(floor) => {
                        for sid in r.expired(floor) {
                            r.remove_if(sid.0, |rec| {
                                rec.meta.ingest != Structure::Mg
                                    && rec.watermark != i64::MIN
                                    && rec.watermark < floor
                            });
                        }
                        let doomed: Vec<u64> = m
                            .sources
                            .iter()
                            .filter(|(id, meta)| {
                                meta.ingest != Structure::Mg
                                    && m.watermarks.get(id).is_some_and(|&w| w < floor)
                            })
                            .map(|(&id, _)| id)
                            .collect();
                        for id in doomed {
                            m.sources.remove(&id);
                            m.sealed.remove(&id);
                            m.watermarks.remove(&id);
                            m.late.remove(&id);
                        }
                    }
                }
            }
            // Final-state equivalence across every exported view.
            prop_assert_eq!(r.len(), m.sources.len());
            let mut want_sources: Vec<(u64, SourceClass)> =
                m.sources.iter().map(|(&id, meta)| (id, meta.class)).collect();
            want_sources.sort_unstable_by_key(|(id, _)| *id);
            prop_assert_eq!(r.snapshot_sources(), want_sources);
            let sort = |mut v: Vec<(u64, u64)>| {
                v.sort_unstable();
                v
            };
            prop_assert_eq!(
                r.snapshot_sealed(),
                sort(m.sealed.iter().filter(|(_, &l)| l > 0).map(|(&i, &l)| (i, l)).collect())
            );
            prop_assert_eq!(
                r.snapshot_late_sealed(),
                sort(m.late.iter().filter(|(_, &l)| l > 0).map(|(&i, &l)| (i, l)).collect())
            );
            let mut want_mg: Vec<(u32, u64)> = m.mg.iter().map(|(&g, &l)| (g, l)).collect();
            want_mg.sort_unstable();
            prop_assert_eq!(r.snapshot_mg_sealed(), want_mg);
            for (&id, meta) in &m.sources {
                let got = r.require(SourceId(id)).unwrap();
                prop_assert_eq!(got.ingest, meta.ingest);
                let wm = m.watermarks.get(&id).copied();
                prop_assert_eq!(
                    r.meta_and_watermark(id).unwrap().1,
                    wm.filter(|&w| w != i64::MIN)
                );
            }
        }
    }
}
