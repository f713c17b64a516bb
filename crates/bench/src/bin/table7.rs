//! Table 7 — "Storage Cost for Selected Datasets (in MB)".
//!
//! TD(1,1), TD(1,2), TD(1,4), TD(2,1), LD(1), LD(2) loaded into
//! file-backed stores for ODH, RDB, and MySQL; the metric is the on-disk
//! byte count. Shapes: storage linear in frequency and source count; RDB ≈
//! MySQL (within a few %); ODH smaller by a factor ≥3 *before* lossy
//! compression (see `--bin compression` for the §5.3 35× result).
//!
//! Env: `TD_SECS` (default 2), `LD_SECS` (default 30), `IOTX_SCALE` LD
//! station divisor (default 200).

use iotx::ld::{observation_rel_schema, LdSpec, ObservationGen};
use iotx::sink::{JdbcSink, OdhSink, WriteSink};
use iotx::td::{trade_rel_schema, trade_schema_type, TdSpec, TradeGen};
use odh_bench::BENCH_CORES;
use odh_core::Historian;
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;
use odh_storage::TableConfig;
use odh_types::{Record, Result, SourceClass, SourceId};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct StorageRow {
    dataset: String,
    records: u64,
    odh_mb: f64,
    rdb_mb: f64,
    mysql_mb: f64,
}

fn tmpdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("odh-table7-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn ingest_all(
    name: &str,
    records: &[Record],
    odh: &mut OdhSink,
    rdb: &mut JdbcSink,
    mysql: &mut JdbcSink,
) -> Result<StorageRow> {
    for sink in [odh as &mut dyn WriteSink, rdb, mysql] {
        for r in records {
            sink.write(r)?;
        }
        sink.finish()?;
    }
    Ok(StorageRow {
        dataset: name.to_string(),
        records: records.len() as u64,
        odh_mb: odh.storage_bytes() as f64 / 1e6,
        rdb_mb: rdb.storage_bytes() as f64 / 1e6,
        mysql_mb: mysql.storage_bytes() as f64 / 1e6,
    })
}

fn main() {
    odh_bench::banner("Table 7: storage cost for selected datasets", "§5.3, Table 7");
    let td_secs: i64 = std::env::var("TD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let ld_secs: i64 = std::env::var("LD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(30);
    let scale = iotx::env_scale(200);
    let dir = tmpdir();
    println!("TD seconds: {td_secs}; LD seconds: {ld_secs}; LD divisor: {scale}");
    println!("file-backed stores under {}\n", dir.display());

    let mut rows: Vec<StorageRow> = Vec::new();

    // TD cells.
    for (i, j) in [(1u32, 1u32), (1, 2), (1, 4), (2, 1)] {
        let spec = TdSpec::scaled(i, j, td_secs);
        let records: Vec<Record> = TradeGen::new(&spec).collect();
        let name = format!("TD({i},{j})");
        let h = Arc::new(
            Historian::builder()
                .metered_cores(BENCH_CORES)
                .disk_dir(dir.join(format!("odh-td{i}{j}")))
                .build()
                .unwrap(),
        );
        h.define_schema_type(TableConfig::new(trade_schema_type()).with_batch_size(512)).unwrap();
        for a in 0..spec.accounts {
            h.register_source("trade", SourceId(a), SourceClass::irregular_high()).unwrap();
        }
        let mut odh = OdhSink::new(h, "trade").unwrap();
        let mut rdb = JdbcSink::on_disk(
            RdbProfile::RDB,
            trade_rel_schema(),
            ResourceMeter::unmetered(),
            1000,
            dir.join(format!("rdb-td{i}{j}.pages")),
        )
        .unwrap();
        let mut mysql = JdbcSink::on_disk(
            RdbProfile::MYSQL,
            trade_rel_schema(),
            ResourceMeter::unmetered(),
            1000,
            dir.join(format!("mysql-td{i}{j}.pages")),
        )
        .unwrap();
        rows.push(ingest_all(&name, &records, &mut odh, &mut rdb, &mut mysql).unwrap());
        eprintln!("  {name} done");
    }

    // LD cells.
    for i in [1u32, 2] {
        let spec = LdSpec::scaled(i, scale, ld_secs);
        let records: Vec<Record> = ObservationGen::new(&spec).collect();
        let name = format!("LD({i})");
        let h = Arc::new(
            Historian::builder()
                .metered_cores(BENCH_CORES)
                .disk_dir(dir.join(format!("odh-ld{i}")))
                .build()
                .unwrap(),
        );
        h.define_schema_type(
            TableConfig::new(iotx::ld::observation_schema_type(spec.tags))
                .with_batch_size(512)
                .with_mg_group_size(1000),
        )
        .unwrap();
        for s in 0..spec.sensors {
            h.register_source("observation", SourceId(s), SourceClass::irregular_low()).unwrap();
        }
        let mut odh = OdhSink::new(h, "observation").unwrap();
        let mut rdb = JdbcSink::on_disk(
            RdbProfile::RDB,
            observation_rel_schema(spec.tags),
            ResourceMeter::unmetered(),
            1000,
            dir.join(format!("rdb-ld{i}.pages")),
        )
        .unwrap();
        let mut mysql = JdbcSink::on_disk(
            RdbProfile::MYSQL,
            observation_rel_schema(spec.tags),
            ResourceMeter::unmetered(),
            1000,
            dir.join(format!("mysql-ld{i}.pages")),
        )
        .unwrap();
        rows.push(ingest_all(&name, &records, &mut odh, &mut rdb, &mut mysql).unwrap());
        eprintln!("  {name} done");
    }

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "dataset", "records", "ODH MB", "RDB MB", "MySQL MB", "RDB/ODH", "MySQL/RDB"
    );
    for r in &rows {
        println!(
            "{:<10} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>11.2}x {:>11.3}x",
            r.dataset,
            r.records,
            r.odh_mb,
            r.rdb_mb,
            r.mysql_mb,
            r.rdb_mb / r.odh_mb.max(1e-9),
            r.mysql_mb / r.rdb_mb.max(1e-9),
        );
    }
    println!("\npaper Table 7 ratios: RDB/ODH ≈ 3.3–3.6x on TD, ~1.8x on LD; MySQL/RDB ≈ 1.03x");
    odh_bench::save_or_exit("table7_storage", &rows);
    std::fs::remove_dir_all(&dir).ok();
}
