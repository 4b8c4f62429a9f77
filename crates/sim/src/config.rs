//! What the event loop is configured by: whether it backfills.

/// Whether the simulator backfills around a blocked reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum BackfillMode {
    /// No backfilling: while the selected job waits for resources, the queue
    /// simply waits with it.
    #[default]
    None,
    /// EASY backfilling: queued jobs may start out of order if, by their
    /// requested runtimes, they cannot delay the reserved job's estimated
    /// start (§II-A4 of the paper).
    Easy,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct SimConfig {
    /// Backfilling mode. The paper evaluates every scheduler both with and
    /// without backfilling (Tables V–XI).
    pub backfill: BackfillMode,
}

impl SimConfig {
    /// Configuration with EASY backfilling enabled.
    pub fn with_backfill() -> Self {
        SimConfig {
            backfill: BackfillMode::Easy,
        }
    }

    /// Configuration without backfilling.
    pub fn no_backfill() -> Self {
        SimConfig {
            backfill: BackfillMode::None,
        }
    }
}
