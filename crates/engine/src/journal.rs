//! Durable sweep journal + resume: a write-ahead record of sweep
//! progress that makes a crash (SIGKILL, power loss, daemon restart)
//! cost only the jobs in flight, never the jobs already done.
//!
//! Built on [`hetrta_fault::RecordLog`] — append-only, FNV-64
//! checksummed records, atomic tmp+rename segment rotation, torn-tail
//! tolerant reads (the same discipline as [`crate::disk`]). Three
//! record kinds, all single-line with embedded text escaped:
//!
//! ```text
//! start <spec_hash:016x> <total_jobs> <escaped encode_spec text>
//! done <index> <cell> <identity:032x> <hit:0|1> <wall_ns> <escaped outcomes>
//! keyframe <completed> <escaped encode_update text>
//! ```
//!
//! The `start` record pins the journal to one spec (hash of the
//! bit-exact [`encode_spec`](crate::wire::encode_spec) text); `done`
//! records carry each finished job's full outcome payload so resume
//! replays it *without re-executing anything*; periodic `keyframe`
//! records (which also seal the active segment) snapshot the aggregate
//! for observers. Because the [`Aggregator`] replays expansion order at
//! finalize, a resumed sweep's aggregate is **bitwise identical** to an
//! uninterrupted run's — regardless of where the crash landed.
//!
//! A sweep journals by setting
//! [`SessionConfig::journal`](crate::SessionConfig::journal); the
//! `hetrta-dist` coordinator journals its fleet sweeps the same way.
//! Both drive the journal through the same three calls:
//! [`SweepJournal::resume_into`] on start, [`SweepJournal::accept`] per
//! finished job, [`SweepJournal::close`] on finish or cancel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use hetrta_api::wire::fnv64;
use hetrta_api::AnalysisOutcome;
use hetrta_fault::{escape, unescape, RecordLog};

use crate::aggregate::{AggregateUpdate, Aggregator, SweepAggregate};
use crate::engine::EngineError;
use crate::job::{JobMetrics, JobResult};
use crate::spec::SweepSpec;
use crate::wire::{encode_spec, encode_update};

/// Default `done`-record cadence of aggregate keyframes (each keyframe
/// also seals the active journal segment).
pub const DEFAULT_KEYFRAME_EVERY: usize = 64;

/// Where (and how) a sweep journals its progress.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal directory (created if needed; one sweep per directory).
    pub dir: PathBuf,
    /// Replay an existing journal and run only the remainder. Without
    /// this, a directory that already holds completed jobs is refused —
    /// resuming must be an explicit decision, not an accident.
    pub resume: bool,
    /// Keyframe (and segment-seal) cadence in completed jobs.
    pub keyframe_every: usize,
}

impl JournalConfig {
    /// A config journaling into `dir` with default cadence, not resuming.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            resume: false,
            keyframe_every: DEFAULT_KEYFRAME_EVERY,
        }
    }

    /// Same config with resume enabled.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// The stable identity of a spec: FNV-64 of its bit-exact
/// [`encode_spec`] text (floats travel as bit patterns, so two specs
/// hash equal iff they expand to the same jobs).
#[must_use]
pub fn spec_hash(spec: &SweepSpec) -> u64 {
    fnv64(encode_spec(spec).as_bytes())
}

/// What a journaled session's journal did, reported in
/// [`EngineStats::journal`](crate::EngineStats::journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Jobs replayed from the journal instead of executed.
    pub replayed: usize,
    /// Journal appends and seals that failed (durability degraded, the
    /// sweep unharmed).
    pub write_failures: u64,
}

/// A shareable, append-side handle on one sweep's journal.
///
/// Writes are serialized internally; append failures are counted
/// ([`SweepJournal::write_failures`]) and swallowed — a full disk
/// degrades durability, never the sweep itself (mirroring the disk
/// cache's contract).
#[derive(Debug)]
pub struct SweepJournal {
    inner: Mutex<JournalInner>,
    keyframe_every: usize,
    write_failures: AtomicU64,
}

#[derive(Debug)]
struct JournalInner {
    log: RecordLog,
    since_keyframe: usize,
    keyframe_seq: u64,
}

impl SweepJournal {
    /// Opens the journal at `cfg.dir` for `spec`, replaying any existing
    /// records first. Returns the journal and the completed jobs its
    /// `done` records hold (at most one per expansion index; duplicates
    /// from redispatch are deduped).
    ///
    /// A fresh directory gets a `start` record. An existing journal must
    /// match the spec's hash and job count, and — when it already holds
    /// completed jobs — requires `cfg.resume`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cache`] for unreadable/unwritable directories or a
    /// journal that belongs to a different spec;
    /// [`EngineError::InvalidSpec`] when completed jobs exist without
    /// `cfg.resume`.
    pub fn open(
        cfg: &JournalConfig,
        spec: &SweepSpec,
        total_jobs: usize,
    ) -> Result<(SweepJournal, Vec<JobResult>), EngineError> {
        let hash = spec_hash(spec);
        let records = RecordLog::read_all(&cfg.dir)
            .map_err(|e| EngineError::Cache(format!("sweep journal: {e}")))?;
        let mut results: Vec<Option<JobResult>> = vec![None; total_jobs];
        let mut started = false;
        for record in &records {
            match parse_record(record) {
                Some(Record::Start { hash: h, total }) => {
                    if h != hash || total != total_jobs {
                        return Err(EngineError::Cache(format!(
                            "sweep journal at {} belongs to a different sweep \
                             (journal spec {h:016x}/{total} jobs, this spec \
                             {hash:016x}/{total_jobs} jobs)",
                            cfg.dir.display()
                        )));
                    }
                    started = true;
                }
                Some(Record::Done(result)) if result.index < total_jobs => {
                    let slot = result.index;
                    results[slot] = Some(result);
                }
                // Keyframes are observer state, not replay state, and a
                // record this reader cannot parse (torn tail survivors,
                // future kinds) loses that record only.
                _ => {}
            }
        }
        let replayed: Vec<JobResult> = results.into_iter().flatten().collect();
        if !replayed.is_empty() && !cfg.resume {
            return Err(EngineError::InvalidSpec(format!(
                "journal at {} already holds {} completed job(s); \
                 pass --resume to continue it (or point --journal at a fresh directory)",
                cfg.dir.display(),
                replayed.len()
            )));
        }

        let mut log = RecordLog::open(&cfg.dir)
            .map_err(|e| EngineError::Cache(format!("sweep journal: {e}")))?;
        if !started {
            log.append(&format!(
                "start {hash:016x} {total_jobs} {}",
                escape(&encode_spec(spec))
            ))
            .map_err(|e| EngineError::Cache(format!("sweep journal: {e}")))?;
        }
        Ok((
            SweepJournal {
                inner: Mutex::new(JournalInner {
                    log,
                    since_keyframe: 0,
                    keyframe_seq: 0,
                }),
                keyframe_every: cfg.keyframe_every.max(1),
                write_failures: AtomicU64::new(0),
            },
            replayed,
        ))
    }

    /// Opens the journal of `spec` (see [`SweepJournal::open`]) and
    /// replays its completed jobs into `aggregator`, a fresh aggregator
    /// of the spec's whole expansion. Returns the journal and, per
    /// expansion index, whether that job was replayed; the rest is what
    /// still has to run.
    ///
    /// # Errors
    ///
    /// See [`SweepJournal::open`].
    pub fn resume_into(
        cfg: &JournalConfig,
        spec: &SweepSpec,
        aggregator: &mut Aggregator,
    ) -> Result<(SweepJournal, Vec<bool>), EngineError> {
        let total = aggregator.job_count();
        let (journal, replay) = SweepJournal::open(cfg, spec, total)?;
        let mut done = vec![false; total];
        for result in replay {
            done[result.index] = true;
            aggregator.accept(result);
        }
        Ok((journal, done))
    }

    /// Feeds one finished job into `aggregator`, write-ahead through
    /// `journal` when there is one: the `done` record is the durability
    /// point, so it lands before the aggregator absorbs the result (a
    /// crash between the two replays the job rather than losing it), and
    /// a due keyframe follows. Without a journal this is
    /// [`Aggregator::accept`].
    pub fn accept(journal: Option<&SweepJournal>, aggregator: &mut Aggregator, result: JobResult) {
        let Some(journal) = journal else {
            return aggregator.accept(result);
        };
        let keyframe_due = journal.record_done(&result);
        aggregator.accept(result);
        let completed = aggregator.received();
        if keyframe_due && completed < aggregator.job_count() {
            journal.record_keyframe(completed, aggregator.partial());
        }
    }

    /// Seals the journal's active segment, so every record written so far
    /// sits in a durable, atomically renamed file, and returns the
    /// run's write failures. Called once when the sweep finishes or is
    /// cancelled.
    pub fn close(self) -> u64 {
        self.seal();
        self.write_failures()
    }

    /// Appends one finished job. Failed jobs are *not* journaled (they
    /// fail the sweep and must re-run on resume); skipped and successful
    /// jobs are. Returns `true` when a keyframe is due.
    pub fn record_done(&self, result: &JobResult) -> bool {
        let payload = match &result.metrics {
            Ok(JobMetrics::Outcomes(outcomes)) => {
                let lines: Vec<String> = outcomes.iter().map(AnalysisOutcome::encode).collect();
                format!("ok\n{}", lines.join("\n"))
            }
            Ok(JobMetrics::Skipped) => "skip".to_owned(),
            Err(_) => return false,
        };
        let record = format!(
            "done {} {} {:032x} {} {} {}",
            result.index,
            result.cell,
            result.identity,
            u8::from(result.cache_hit),
            result.wall_time.as_nanos(),
            escape(&payload)
        );
        let mut inner = self.lock();
        if inner.log.append(&record).is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        inner.since_keyframe += 1;
        inner.since_keyframe >= self.keyframe_every
    }

    /// Appends an aggregate keyframe and seals the active segment
    /// (atomic rename), bounding how much a later torn tail can cover.
    fn record_keyframe(&self, completed: usize, aggregate: SweepAggregate) {
        let mut inner = self.lock();
        let seq = inner.keyframe_seq;
        inner.keyframe_seq += 1;
        inner.since_keyframe = 0;
        let update = AggregateUpdate::Keyframe { seq, aggregate };
        let record = format!("keyframe {completed} {}", escape(&encode_update(&update)));
        let ok = inner.log.append(&record).is_ok() && inner.log.seal().is_ok();
        if !ok {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seals the active segment without appending a record, so the
    /// records written so far are in a durable, renamed segment.
    pub fn seal(&self) {
        if self.lock().log.seal().is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Journal appends that failed (durability degraded, sweep unharmed).
    #[must_use]
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

enum Record {
    Start { hash: u64, total: usize },
    Done(JobResult),
}

/// Parses one journal record; `None` for records this build cannot read
/// (the checksum already vouched for their integrity, so unknown kinds
/// are skipped, not fatal — forward compatibility for free).
fn parse_record(record: &str) -> Option<Record> {
    let (kind, rest) = record.split_once(' ')?;
    match kind {
        "start" => {
            let mut fields = rest.splitn(3, ' ');
            let hash = u64::from_str_radix(fields.next()?, 16).ok()?;
            let total = fields.next()?.parse().ok()?;
            Some(Record::Start { hash, total })
        }
        "done" => {
            let mut fields = rest.splitn(6, ' ');
            let index = fields.next()?.parse().ok()?;
            let cell = fields.next()?.parse().ok()?;
            let identity = u128::from_str_radix(fields.next()?, 16).ok()?;
            let cache_hit = match fields.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let wall_ns: u64 = fields.next()?.parse().ok()?;
            let payload = unescape(fields.next()?);
            let metrics = if payload == "skip" {
                JobMetrics::Skipped
            } else {
                let body = payload.strip_prefix("ok\n")?;
                let outcomes: Vec<AnalysisOutcome> = body
                    .lines()
                    .map(AnalysisOutcome::decode)
                    .collect::<Option<_>>()?;
                JobMetrics::Outcomes(outcomes)
            };
            Some(Record::Done(JobResult {
                index,
                cell,
                worker: 0,
                identity,
                cache_hit,
                wall_time: Duration::from_nanos(wall_ns),
                timings: Vec::new(),
                metrics: Ok(metrics),
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineOutput};
    use crate::session::{SessionConfig, SweepEvent};
    use crate::spec::{AnalysisSelection, GeneratorPreset};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hetrta-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> SweepSpec {
        SweepSpec::fractions(GeneratorPreset::Small, vec![2, 4], vec![0.1, 0.3], 4, 11)
    }

    fn journaled(journal: JournalConfig) -> SessionConfig {
        SessionConfig {
            journal: Some(journal),
            ..SessionConfig::quiet()
        }
    }

    fn journaled_run(
        engine: &Engine,
        spec: &SweepSpec,
        journal: JournalConfig,
    ) -> Result<EngineOutput, EngineError> {
        engine.submit_with(spec, journaled(journal))?.wait()
    }

    /// `(replayed, executed)` of a journaled run.
    fn counts(out: &EngineOutput) -> (usize, usize) {
        let journal = out.stats.journal.expect("journaled session");
        let executed = out.stats.per_worker_jobs.iter().sum::<u64>() as usize;
        assert_eq!(
            journal.replayed + executed,
            out.stats.jobs,
            "no job ran twice"
        );
        (journal.replayed, executed)
    }

    #[test]
    fn journaled_run_matches_plain_run_bitwise() {
        let dir = temp_dir("plain");
        let engine = Engine::new(2);
        let plain = engine.run(&spec()).unwrap();
        assert_eq!(plain.stats.journal, None);
        let journaled = journaled_run(&Engine::new(2), &spec(), JournalConfig::new(&dir)).unwrap();
        assert_eq!(journaled.aggregate, plain.aggregate);
        assert_eq!(counts(&journaled), (0, spec().job_count()));
        assert_eq!(journaled.stats.journal.unwrap().write_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_done_jobs_and_runs_only_the_remainder() {
        let dir = temp_dir("resume");
        let engine = Engine::new(2);
        let full = engine.run(&spec()).unwrap();
        let total = spec().job_count();

        // Interrupt a journaled run after exactly 5 jobs by journaling a
        // subset directly (the deterministic stand-in for SIGKILL; the
        // CLI integration test does the real kill -9), dropping without
        // a seal — as a crash would.
        let cfg = JournalConfig::new(&dir);
        let (journal, replay) = SweepJournal::open(&cfg, &spec(), total).unwrap();
        assert!(replay.is_empty());
        let done: Vec<usize> = vec![0, 3, 7, 11, 15];
        engine
            .run_job_subset(&spec(), &done, |result| {
                journal.record_done(&result);
            })
            .unwrap();
        drop(journal);

        // A fresh engine (cold caches — everything must come from the
        // journal, not memory) resumes and completes the rest; a tight
        // keyframe cadence exercises mid-run keyframes + segment seals.
        let resumed = journaled_run(
            &Engine::new(2),
            &spec(),
            JournalConfig {
                keyframe_every: 3,
                ..JournalConfig::new(&dir).resuming()
            },
        )
        .unwrap();
        assert_eq!(counts(&resumed), (5, total - 5));
        assert_eq!(resumed.aggregate, full.aggregate, "bitwise identical");

        // Resuming a *finished* journal (which now also holds keyframe
        // records to skip) re-executes nothing at all.
        let again = journaled_run(
            &Engine::new(2),
            &spec(),
            JournalConfig::new(&dir).resuming(),
        )
        .unwrap();
        assert_eq!(counts(&again), (total, 0));
        assert_eq!(again.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `hom`-shaped analysis whose second and later runs park until
    /// the test releases them, so a one-worker sweep can be cancelled
    /// with exactly one job done, however fast jobs run.
    #[derive(Debug, Default)]
    struct Gated {
        runs: std::sync::atomic::AtomicUsize,
        released: std::sync::atomic::AtomicBool,
    }

    impl hetrta_api::Analysis for Gated {
        fn key(&self) -> &str {
            "gated"
        }
        fn describe(&self) -> &str {
            "critical-path length, held at a gate after the first run"
        }
        fn run(
            &self,
            request: &hetrta_api::AnalysisRequest,
            _ctx: &dyn hetrta_api::AnalysisContext,
        ) -> Result<AnalysisOutcome, hetrta_api::ApiError> {
            if self.runs.fetch_add(1, Ordering::SeqCst) > 0 {
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while !self.released.load(Ordering::SeqCst) && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            }
            let task = request.input.as_task(self.key())?;
            Ok(AnalysisOutcome::Hom {
                r_hom: task.critical_path_length().as_f64(),
            })
        }
    }

    fn gated_engine(gate: std::sync::Arc<Gated>) -> Engine {
        let mut registry = hetrta_api::AnalysisRegistry::builtin();
        registry.register(gate);
        crate::EngineBuilder::new()
            .threads(1)
            .registry(registry)
            .build()
            .unwrap()
    }

    #[test]
    fn cancellation_is_typed_and_leaves_the_journal_resumable() {
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 16, 3)
            .with_analyses(AnalysisSelection::from_keys(["gated"]));
        let dir = temp_dir("cancel");
        let gate = std::sync::Arc::new(Gated::default());
        let config = SessionConfig {
            job_events: true,
            ..journaled(JournalConfig::new(&dir))
        };
        let handle = gated_engine(gate.clone())
            .submit_with(&spec, config)
            .unwrap();
        while let Some(event) = handle.next_event() {
            if matches!(event, SweepEvent::JobFinished { .. }) {
                handle.cancel();
                gate.released.store(true, Ordering::SeqCst);
            }
        }
        assert!(matches!(handle.wait(), Err(EngineError::Cancelled)));

        // The journal survives (sealed, with the finished jobs) and
        // resumes to the uninterrupted aggregate.
        let open_gate = || {
            let gate = Gated::default();
            gate.released.store(true, Ordering::SeqCst);
            gated_engine(std::sync::Arc::new(gate))
        };
        let full = open_gate().run(&spec).unwrap();
        let resumed =
            journaled_run(&open_gate(), &spec, JournalConfig::new(&dir).resuming()).unwrap();
        let (replayed, _) = counts(&resumed);
        assert!(
            (1..=2).contains(&replayed),
            "the jobs done before the cancel, {replayed}"
        );
        assert_eq!(resumed.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_sessions_stream_like_plain_ones() {
        let dir = temp_dir("session");
        let engine = Engine::new(2);
        let total = spec().job_count();
        let config = SessionConfig {
            journal: Some(JournalConfig::new(&dir)),
            ..SessionConfig::with_partials(4)
        };
        let handle = engine.submit_with(&spec(), config).unwrap();
        let (mut finished, mut partials) = (0, 0);
        while let Some(event) = handle.next_event() {
            match event {
                SweepEvent::JobFinished { .. } => finished += 1,
                SweepEvent::PartialAggregate { .. } => partials += 1,
                _ => {}
            }
        }
        let out = handle.wait().unwrap();
        assert_eq!(finished, total);
        assert_eq!(partials, total / 4 - 1, "one per 4 jobs, none at the end");
        assert!(
            out.stats.render().contains("journal:"),
            "{}",
            out.stats.render()
        );

        // Everything the session ran is replayable: a resume in a fresh
        // engine re-executes nothing and reproduces the aggregate.
        let resumed = journaled_run(
            &Engine::new(2),
            &spec(),
            JournalConfig::new(&dir).resuming(),
        )
        .unwrap();
        assert_eq!(counts(&resumed), (total, 0));
        assert_eq!(resumed.aggregate, out.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unresumed_nonempty_journal_is_refused() {
        let dir = temp_dir("refuse");
        journaled_run(&Engine::new(1), &spec(), JournalConfig::new(&dir)).unwrap();
        let err = journaled_run(&Engine::new(1), &spec(), JournalConfig::new(&dir)).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_is_pinned_to_its_spec() {
        let dir = temp_dir("pin");
        journaled_run(&Engine::new(1), &spec(), JournalConfig::new(&dir)).unwrap();
        let other = SweepSpec::fractions(GeneratorPreset::Small, vec![8], vec![0.2], 4, 12);
        let err = journaled_run(&Engine::new(1), &other, JournalConfig::new(&dir).resuming())
            .unwrap_err();
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_resumes_cleanly() {
        let dir = temp_dir("torn");
        journaled_run(&Engine::new(1), &spec(), JournalConfig::new(&dir)).unwrap();
        // Tear the last bytes off the newest journal file, as a crash
        // mid-append would.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        files.sort();
        let tail = files.last().unwrap();
        let bytes = std::fs::read(tail).unwrap();
        std::fs::write(tail, &bytes[..bytes.len().saturating_sub(9)]).unwrap();

        let full = Engine::new(2).run(&spec()).unwrap();
        let resumed = journaled_run(
            &Engine::new(2),
            &spec(),
            JournalConfig::new(&dir).resuming(),
        )
        .unwrap();
        let (_, executed) = counts(&resumed);
        assert!(executed >= 1, "the torn record must re-run");
        assert_eq!(resumed.aggregate, full.aggregate);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
