//! What a run is asked to do, and the frozen sizes it does it at.

/// Loss threshold θ of the standard configuration, in metres.
pub const THETA_METERS: f64 = 500.0;
/// Name the raw table is registered under.
pub const TABLE: &str = "nyctaxi";
/// Name of the sampling cube.
pub const CUBE: &str = "c";
/// Share of a traced timed region that runs untraced first, so the run can
/// state its own tracing overhead.
pub const TRACE_LEAD: f64 = 0.2;
/// Seed of the stored table and of the program's own sampling (the cube
/// build, the refreshes). The data set is fixed, as a TPC-H scale factor is;
/// `--seed` makes what arrives afterwards: the streamed batches and the
/// queries. A table that followed `--seed` made every build-side metric
/// follow it too — the global sample is 1 060 random rows, and with it the
/// iceberg cells came out 5.3 M to 7.4 M bytes, folds 1.2 to 1.6 s — which
/// is the sampling's variance, not the program's speed.
pub const DATASET_SEED: u64 = 42;
/// Probability that a session step re-issues a recent query.
pub const REVISIT: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashWarm,
    DashCold,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DashWarm, Workload::DashCold, Workload::IngestMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashWarm => "dash_warm",
            Workload::DashCold => "dash_cold",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Halve θ in the checker only: the run must then fail.
    pub fault: bool,
}

/// Sizes of one run. Everything here is frozen: a later change that wants
/// other sizes is a change to the benchmark, not to the program.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rows the cube is built over.
    pub rows: usize,
    /// Rows per ingest batch.
    pub batch_rows: usize,
    /// `tabula_par::set_threads` for the whole run.
    pub threads: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Pan/zoom sessions in the fleet (`dash_warm`, `ingest_mixed`) and the
    /// steps of each.
    pub sessions: usize,
    pub session_steps: usize,
    /// Distinct fine cells `dash_cold` cycles through.
    pub cold_cells: usize,
    /// Every this-many-th operation of a dashboard is the raw fallback
    /// `SELECT * FROM nyctaxi WHERE …`: often on `dash_cold`, where it is a
    /// twentieth of the traffic; elsewhere just often enough (a twentieth
    /// of the loop's time) that every round times a few.
    pub raw_every: u64,
    /// Distinct fine cells the raw fallback asks for on the session
    /// workloads.
    pub raw_cells: usize,
    /// Batches prepared for the `ingest_mixed` feeder per requested second.
    pub feed_batches_per_s: f64,
    /// Queries re-checked against the raw answer after the timed region.
    pub verify_queries: usize,
}

impl Scale {
    pub fn of(cfg: &Cfg) -> Scale {
        let ingest = cfg.workload == Workload::IngestMixed;
        if cfg.smoke {
            return Scale {
                rows: 20_000,
                batch_rows: 1_000,
                threads: if ingest { 1 } else { 2 },
                setups: 1,
                sessions: 8,
                session_steps: 25,
                cold_cells: 1_024,
                raw_every: if cfg.workload == Workload::DashCold { 20 } else { 200 },
                raw_cells: 128,
                feed_batches_per_s: 20.0,
                verify_queries: 40,
            };
        }
        Scale {
            rows: if ingest { 250_000 } else { 500_000 },
            batch_rows: 10_000,
            threads: if ingest { 1 } else { 2 },
            setups: 3,
            sessions: 24,
            session_steps: 50,
            cold_cells: 8_192,
            raw_every: if cfg.workload == Workload::DashCold { 20 } else { 200 },
            raw_cells: 1_024,
            feed_batches_per_s: 2.0,
            verify_queries: 200,
        }
    }
}

/// Operations attempted and failed. An error, a θ violation, a
/// built≠restored answer and an acknowledged row that is not readable after
/// its barrier each count as one failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}
