//! Batch-structure selection — the paper's Table 1.
//!
//! | Data source              | Ingestion | Slice query | Historical query |
//! |--------------------------|-----------|-------------|------------------|
//! | Regular high frequency   | RTS       | RTS         | RTS              |
//! | Irregular high frequency | IRTS      | IRTS        | IRTS             |
//! | Regular low frequency    | MG        | MG          | RTS              |
//! | Irregular low frequency  | MG        | MG          | IRTS             |
//!
//! High-frequency sources fill per-source batches quickly, so they ingest
//! straight into RTS/IRTS. A low-frequency source would take hours to fill
//! a batch (a 15-minute meter needs `b × 15 min`), so points are grouped
//! *across* sources (MG) at ingestion time; each [`crate::compact`] pass
//! later drains sealed MG batches into per-source RTS/IRTS, which is what
//! historical queries read.

use odh_types::{FrequencyClass, SourceClass};

/// The three batch structures of the ODH data model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Regular Time Series: implicit timestamps.
    Rts,
    /// Irregular Time Series: delta-encoded timestamp block.
    Irts,
    /// Mixed Grouping: one record covers many sources.
    Mg,
}

impl Structure {
    pub fn name(self) -> &'static str {
        match self {
            Structure::Rts => "RTS",
            Structure::Irts => "IRTS",
            Structure::Mg => "MG",
        }
    }
}

/// The operation a structure is being selected for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    Ingestion,
    SliceQuery,
    HistoricalQuery,
}

/// Table 1, as a function.
pub fn structure_for(class: SourceClass, op: Operation) -> Structure {
    match (class.frequency, op) {
        (FrequencyClass::High, _) | (FrequencyClass::Low, Operation::HistoricalQuery) => {
            if class.is_regular() {
                Structure::Rts
            } else {
                Structure::Irts
            }
        }
        (FrequencyClass::Low, Operation::Ingestion | Operation::SliceQuery) => Structure::Mg,
    }
}

/// Structure used to *ingest* records of this class.
pub fn ingestion_structure(class: SourceClass) -> Structure {
    structure_for(class, Operation::Ingestion)
}

/// Structure a slice query reads for this class.
pub fn slice_structure(class: SourceClass) -> Structure {
    structure_for(class, Operation::SliceQuery)
}

/// Structure a historical query prefers for this class (what a
/// compaction pass drains low-frequency MG history into).
pub fn historical_structure(class: SourceClass) -> Structure {
    structure_for(class, Operation::HistoricalQuery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::Duration;

    #[test]
    fn table1_rows_exactly() {
        use Operation::*;
        use Structure::*;
        let rh = SourceClass::regular_high(Duration::from_hz(50.0));
        let ih = SourceClass::irregular_high();
        let rl = SourceClass::regular_low(Duration::from_minutes(15));
        let il = SourceClass::irregular_low();
        let expect = [
            (rh, [Rts, Rts, Rts]),
            (ih, [Irts, Irts, Irts]),
            (rl, [Mg, Mg, Rts]),
            (il, [Mg, Mg, Irts]),
        ];
        for (class, [ing, slice, hist]) in expect {
            assert_eq!(structure_for(class, Ingestion), ing, "{class:?} ingestion");
            assert_eq!(structure_for(class, SliceQuery), slice, "{class:?} slice");
            assert_eq!(structure_for(class, HistoricalQuery), hist, "{class:?} historical");
        }
    }

    #[test]
    fn helpers_agree_with_table() {
        let rl = SourceClass::regular_low(Duration::from_minutes(15));
        assert_eq!(ingestion_structure(rl), Structure::Mg);
        assert_eq!(slice_structure(rl), Structure::Mg);
        assert_eq!(historical_structure(rl), Structure::Rts);
    }

    #[test]
    fn names() {
        assert_eq!(Structure::Rts.name(), "RTS");
        assert_eq!(Structure::Irts.name(), "IRTS");
        assert_eq!(Structure::Mg.name(), "MG");
    }
}
