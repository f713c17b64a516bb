//! Hostile ingest walk-through: out-of-order arrivals and predicate
//! deletes against a live historian.
//!
//! Field data is hostile — gateways buffer and replay, clocks skew, and
//! operators ask for ranges to be removed after the fact. This example
//! drives the two contracts end to end (DESIGN.md "Hostile ingest"):
//!
//! - a point behind its source's seal watermark detours through a
//!   WAL-covered side buffer but is queryable immediately, and
//!   compaction folds it back into time order;
//! - `Historian::delete` installs a tombstone that masks matching rows
//!   on every read tier at once; compaction resolves it physically,
//!   retires it, and the range becomes reinsertable.
//!
//! Run: `cargo run --release --example hostile_ingest`

use odh_core::Historian;
use odh_storage::{DeletePredicate, TableConfig};
use odh_types::{Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};

fn main() -> odh_types::Result<()> {
    let h = Historian::builder().servers(1).build()?;
    h.define_schema_type(
        TableConfig::new(SchemaType::new("station", ["pressure", "flow"])).with_batch_size(8),
    )?;
    h.register_source("station", SourceId(1), SourceClass::irregular_high())?;
    let w = h.writer("station")?;
    let base = Timestamp::parse_sql("2013-11-18 00:00:00").unwrap();
    let at = |secs: i64| base + Duration::from_secs(secs);
    let counter = |name: &str| h.registry().sum_counter(name);

    // 1. A day of ordered telemetry, then a flush: every row is sealed
    //    and the source's watermark sits at its newest reading.
    for i in 0..96i64 {
        w.write(&Record::dense(SourceId(1), at(i * 900), [30.0 + (i % 7) as f64, 2.0]))?;
    }
    h.flush()?;
    println!(
        "ordered ingest: 96 rows sealed, side detours = {}",
        counter("odh_ooo_side_rows_total")
    );

    // 2. A gateway replays a reading from hours ago — far behind the
    //    watermark. It routes through the side buffer, but it is
    //    counted, durable, and visible to the very next query.
    w.write(&Record::dense(SourceId(1), at(10), [99.0, 99.0]))?;
    println!("late replay:    side detours = {}", counter("odh_ooo_side_rows_total"));
    let n = h.sql("select COUNT(*) from station_v")?.rows;
    println!("queryable now:  {n:?}");

    // 3. An operator retracts a bad sensor window. The tombstone masks
    //    the rows everywhere the moment delete() returns — no rewrite
    //    yet — and EXPLAIN ANALYZE attributes the filtering.
    h.delete("station", &DeletePredicate::all_sources(at(10 * 900).0, at(19 * 900).0))?;
    let n = h.sql("select COUNT(*) from station_v")?.rows;
    println!("tombstoned:     {n:?} (10 rows masked)");
    let report = h.explain_analyze("select COUNT(*), MIN(pressure) from station_v")?;
    println!("attribution:    {}", report.lines().find(|l| l.contains("tombstone")).unwrap_or(""));

    // 4. Compaction resolves the tombstone physically (the overlapping
    //    batches are rewritten without the masked rows) and retires it;
    //    query results do not move. The flush first seals the side
    //    buffer: a tombstone retires only once nothing unrewritten
    //    could still match it, and an open side buffer blocks that.
    h.flush()?;
    let rep = h.compact()?;
    println!(
        "compaction:     {} rows resolved, {} tombstone(s) retired",
        rep.tombstone_rows_resolved, rep.tombstones_retired
    );

    // 5. Retired means the range is ordinary again: a reinsert into it
    //    is visible — the delete removed what existed, it did not ban
    //    the future.
    w.write(&Record::dense(SourceId(1), at(15 * 900), [31.0, 2.0]))?;
    h.flush()?;
    let n = h.sql("select COUNT(*) from station_v")?.rows;
    println!("reinserted:     {n:?}");
    Ok(())
}
