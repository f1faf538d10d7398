//! The workloads, their set-up, and the metrics they report.
//!
//! Every run does the whole job — the pipeline (twice, in set-up), HTTP
//! reads, curator edits, delta reassessment — so every metric is measured
//! in every workload; the workloads differ in how reads and edits meet:
//!
//! * `serve-read`: segments of pure reads on two connections (a fifth of
//!   a read round each), each followed by a short edit segment on one
//!   connection.
//! * `edit-churn`: one connection PUTs curator edits, reassessed every
//!   500, beside one that searches and reads recently edited records,
//!   for the whole run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use preserva_core::collection::Collection;
use preserva_curation::history::HISTORY_TABLE;
use preserva_curation::log::CurationLog;
use preserva_curation::outdated::OutdatedNameDetector;
use preserva_curation::review::ReviewQueue;
use preserva_fnjv::config::GeneratorConfig;
use preserva_metadata::record::Record;
use preserva_server::tenants::{Quota, TenantConfig};
use preserva_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::{self, Check};
use crate::model;
use crate::ops::{self, Ctx, Cycle, EditState, Model, Op, Until, Worker, READ_CLASSES, TENANT};

/// One client of a phase: the round it repeats, its edit cycle if it
/// edits, and how long it runs.
struct Plan<'c> {
    round: Vec<Op>,
    cycle: Option<Cycle<'c>>,
    until: Until,
}
use crate::pipeline::{self, Inputs};
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use preserva_core::reassess::ReassessOutcome;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    EditChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-read" => Some(Workload::ServeRead),
            "edit-churn" => Some(Workload::EditChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve-read",
            Workload::EditChurn => "edit-churn",
        }
    }
}

/// Times set-up generates the inputs and builds the store with one
/// pipeline round (`setup_s` and `pipeline_s` are medians over them).
const BUILDS: usize = 2;

/// Slices serve-read cuts each read round into; an edit segment of one
/// edit cycle follows every slice, so PUTs and reassessment passes are
/// sampled all through the run and not in a few bursts.
const READ_SLICES: usize = 5;

/// Input sizes and fixed batch sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Generator configuration; its seed is replaced by the run's seed.
    pub generator: GeneratorConfig,
    /// Records curators edit.
    pub working_set: usize,
    /// Edit rounds (10 PUTs each) per cycle; a reassessment closes each.
    pub cycle_rounds: usize,
    /// Point reads repeated directly in a traced run (other classes
    /// repeat a fixed share of this).
    pub replay: usize,
}

impl Scale {
    /// The paper's case study: 11,898 records, 1,929 names, 134 outdated.
    pub fn paper() -> Scale {
        Scale {
            generator: GeneratorConfig::default(),
            working_set: 1_000,
            cycle_rounds: 50,
            replay: 400,
        }
    }

    /// A scaled-down run for the benchmark's own tests.
    pub fn small() -> Scale {
        Scale {
            generator: GeneratorConfig::small(0),
            working_set: 60,
            cycle_rounds: 3,
            replay: 40,
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for this run's collections; removed at the end.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    pub tally: Tally,
    /// Run-level checks, by name.
    pub checks: Vec<(String, Check)>,
    /// `(name, value, unit)`.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// A traced run reports `per_layer`, an untraced one `end_to_end`.
    pub traced: bool,
    /// Human-readable lines: storage activity, reassessment.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every run-level check passed, no operation failed (a wrong answer
    /// inside the pipeline fails its `pipeline` operation), and every
    /// metric was measured.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, c)| c.is_ok())
            && self.tally.failed() == 0
            && self.unmeasured().is_empty()
    }

    /// The metrics this run reports.
    pub fn reported(&self) -> &[(&'static str, f64, &'static str)] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Reported metrics with no sample behind them (NaN).
    pub fn unmeasured(&self) -> Vec<&'static str> {
        self.reported()
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(name, _, _)| *name)
            .collect()
    }
}

/// Everything a run accumulates on its way.
struct Run<'a> {
    opts: &'a Options,
    tracer: Arc<Tracer>,
    tally: Tally,
    checks: Vec<(String, Check)>,
    notes: Vec<String>,
    /// Registry deltas of each pipeline round.
    rounds: Vec<BTreeMap<&'static str, f64>>,
    taxonomy_requests: Vec<f64>,
    pipeline_s: Vec<f64>,
    setup_s: f64,
    read_s: f64,
    edit_counters: BTreeMap<&'static str, f64>,
    reassess: Vec<ReassessOutcome>,
    /// Bytes under the tenant directory when each pipeline round's
    /// collection is closed.
    store_bytes: Vec<f64>,
}

fn check(run: &mut Run<'_>, name: &str, c: Check) {
    run.checks.push((name.to_string(), c));
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl<'a> Run<'a> {
    fn tenant_dir(&self) -> PathBuf {
        self.opts.work_dir.join(TENANT)
    }

    fn inputs(&self) -> Inputs {
        Inputs::generate(&GeneratorConfig {
            seed: self.opts.seed,
            ..self.opts.scale.generator.clone()
        })
    }

    /// One pipeline round on a fresh tenant directory: one operation of
    /// class `pipeline`, failed if any of its checks fails. Closes the
    /// collection and returns the model of its curated output.
    fn pipeline(&mut self, inputs: &Inputs) -> Result<Model, String> {
        let (coll, out) = pipeline::run(&self.tenant_dir(), inputs, &self.tracer)?;
        let mut failures: Vec<String> = out
            .checks
            .iter()
            .filter_map(|(name, c)| c.as_ref().err().map(|e| format!("{name}: {e}")))
            .collect();
        let model = Model::new(
            &out.curated,
            &out.log,
            &inputs.planted,
            self.opts.scale.working_set,
            self.opts.seed,
        );
        let recount = index_matches(
            &coll,
            &out.curated,
            &mut StdRng::seed_from_u64(self.opts.seed),
        );
        let close = checks::clean_close(
            coll.close().map_err(|e| e.to_string()),
            coll.snapshots_pinned(),
        );
        drop(coll);
        // The store the job leaves under the program's own flush and
        // compaction policy: runs plus the WAL, nothing forced.
        self.store_bytes.push(dir_bytes(&self.tenant_dir()) as f64);
        for (name, c) in [("index recount", recount), ("clean close", close)] {
            if let Err(e) = c {
                failures.push(format!("{name}: {e}"));
            }
        }
        let outcome = if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        };
        self.tally.record("pipeline", out.seconds * 1e3, outcome);
        self.pipeline_s.push(out.seconds);
        self.rounds.push(out.counters);
        self.taxonomy_requests.push(out.taxonomy_requests as f64);
        Ok(model)
    }
}

/// The search indexes agree with a recount over `records`: every facet,
/// and the hit count of a sample of tokens from every indexed field.
fn index_matches(coll: &Collection, records: &[Record], rng: &mut StdRng) -> Check {
    let reader = coll.search().reader();
    let snap = coll.store().snapshot();
    let facets = reader.facets(&snap, None).map_err(|e| e.to_string())?;
    checks::facets_equal(&facets, &model::facets(records))?;
    let fields: Vec<&str> = reader.config().fields.iter().map(String::as_str).collect();
    let counts = model::token_counts(records, &fields);
    let mut keys: Vec<&(String, String)> = counts.keys().collect();
    keys.sort();
    for _ in 0..40 {
        let key = keys[rng.gen_range(0..keys.len())];
        let (field, token) = key;
        let hits = reader
            .query(&snap, Some(field), token, 1)
            .map_err(|e| e.to_string())?;
        if hits.total != counts[key] {
            return Err(format!(
                "search {field}:{token} total {} != recount {}",
                hits.total, counts[key]
            ));
        }
    }
    Ok(())
}

/// The tenant served over HTTP, warmed and quiet.
struct Served {
    server: Server,
    coll: Arc<Collection>,
    reassess_service: preserva_taxonomy::service::ColService,
    curation: preserva_curation::pipeline::CurationPipeline,
    /// Every reassessment pass's outcome, in order.
    passes: std::sync::Mutex<Vec<ReassessOutcome>>,
}

impl Served {
    /// One delta reassessment over the edits since the last pass.
    fn reassess(&self) -> Result<(), String> {
        let outcome = self
            .coll
            .reassessor()
            .run(
                &self.curation,
                &self.reassess_service,
                Some(self.coll.provenance().as_ref()),
                None,
                &mut CurationLog::new(),
                &mut ReviewQueue::new(),
            )
            .map_err(|e| e.to_string())?;
        self.passes.lock().expect("pass log poisoned").push(outcome);
        Ok(())
    }
}

fn serve(
    run: &mut Run<'_>,
    inputs: &Inputs,
    model: &Model,
    edits: &EditState,
) -> Result<Served, String> {
    let config = ServerConfig::new("127.0.0.1:0", &run.opts.work_dir).tenant(TenantConfig {
        name: TENANT.into(),
        api_key: ops::API_KEY.into(),
        quota: Quota::default(),
    });
    let server = Server::start(config).map_err(|e| e.to_string())?;
    // The first tenant request opens and recovers the collection.
    let mut first =
        crate::client::Client::connect(server.addr(), ops::API_KEY).map_err(|e| e.to_string())?;
    let id = crate::client::encode(&model.records[0].id);
    let (status, body) = first
        .get(&format!("/v1/{TENANT}/records/{id}"))
        .map_err(|e| e.to_string())?;
    checks::status_ok(status, &body)?;
    let coll = server
        .state()
        .manager
        .peek(TENANT)
        .ok_or("tenant did not open on its first request")?;
    let served = Served {
        server,
        coll: coll.clone(),
        reassess_service: inputs.service(1.0),
        curation: inputs.curation(),
        passes: Default::default(),
    };
    served.reassess_service.fuzzy_index();
    // Then one request of every read class warms the read path, the
    // first search fold and the fuzzy index.
    let probe = Tracer::new(false);
    let ctx = ctx(&served, model, edits, false, &probe);
    let mut w = Worker::connect(&ctx, run.opts.seed)?;
    for op in [
        Op::Get,
        Op::Search,
        Op::Fuzzy,
        Op::Facets,
        Op::Scan,
        Op::History,
    ] {
        w.op(op);
    }
    let warm = w.tally;
    check(
        run,
        "warm-up answers",
        if warm.failed() == 0 {
            Ok(())
        } else {
            Err(warm.render())
        },
    );
    pipeline::drain(&coll)?;
    check(
        run,
        "quiet store before timing",
        checks::clean_close(Ok(()), coll.snapshots_pinned()),
    );
    Ok(served)
}

fn ctx<'c>(
    served: &Served,
    model: &'c Model,
    edits: &'c EditState,
    recent_gets: bool,
    tracer: &'c Tracer,
) -> Ctx<'c> {
    Ctx {
        addr: served.server.addr(),
        coll: served.coll.clone(),
        model,
        edits,
        recent_gets,
        tracer,
    }
}

impl<'a> Run<'a> {
    /// Run one client per plan, each on its own connection and thread,
    /// until its plan's `Until`. Returns each client's wall time.
    fn clients(&mut self, ctx: &Ctx<'_>, plans: &[Plan<'_>]) -> Result<Vec<f64>, String> {
        let connecting = Instant::now();
        let mut workers = Vec::new();
        for i in 0..plans.len() {
            let seed = self.opts.seed.wrapping_mul(31).wrapping_add(i as u64 + 1);
            workers.push(Worker::connect(ctx, seed)?);
        }
        // Deadlines count from after connection set-up.
        let connecting = connecting.elapsed();
        let others = plans
            .iter()
            .filter(|p| !matches!(p.until, Until::OthersDone))
            .count();
        let running = AtomicUsize::new(others);
        let others_done = AtomicBool::new(others == 0);
        let walls: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .zip(plans)
                .map(|(w, p)| {
                    let until = match p.until {
                        Until::Deadline(t) => Until::Deadline(t + connecting),
                        other => other,
                    };
                    let (running, others_done) = (&running, &others_done);
                    scope.spawn(move || {
                        let wall = w.run(&p.round, until, p.cycle, others_done);
                        if !matches!(until, Until::OthersDone)
                            && running.fetch_sub(1, Ordering::AcqRel) == 1
                        {
                            others_done.store(true, Ordering::Release);
                        }
                        wall
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked").as_secs_f64())
                .collect()
        });
        for w in workers {
            self.tally.merge(w.tally);
        }
        Ok(walls)
    }

    /// A phase with curator edits: registry deltas around it add to the
    /// edit-phase per-layer metrics.
    fn edit_phase(&mut self, ctx: &Ctx<'_>, plans: &[Plan<'_>]) -> Result<Vec<f64>, String> {
        let reg = ctx.coll.metrics_registry().clone();
        let before = pipeline::counters(&reg);
        let walls = self.clients(ctx, plans)?;
        for (k, v) in pipeline::delta(&before, &pipeline::counters(&reg)) {
            *self.edit_counters.entry(k).or_default() += v;
        }
        Ok(walls)
    }

    /// Traced runs only: repeat a sample of each read class directly
    /// against the layers, on a quiet store, with registry deltas taken
    /// around each call.
    fn replay_reads(&mut self, served: &Served, model: &Model) -> Result<(), String> {
        if !self.tracer.enabled() {
            return Ok(());
        }
        let t = self.tracer.clone();
        let coll = &served.coll;
        let table = coll.options().records_table.clone();
        let reg = coll.metrics_registry().clone();
        let reader = coll.search().reader();
        let mut rng = StdRng::seed_from_u64(self.opts.seed ^ 0xD1EC);
        let n = self.opts.scale.replay;
        let e = |x: preserva_storage::StorageError| x.to_string();
        for _ in 0..n {
            let id = &model.records[rng.gen_range(0..model.records.len())].id;
            let before = pipeline::counters(&reg);
            let snap = coll.store().snapshot();
            let req = t.fresh_id();
            let (row, _) = t.span("direct.get", 0, req, |parent| {
                let (row, _) = t.span("storage.snapshot_get", parent, req, |_| {
                    snap.get(&table, id.as_bytes())
                });
                let row = row.map_err(e)?.ok_or("replayed record missing")?;
                let (rec, _) = t.span("codec.decode_one", parent, req, |_| {
                    preserva_core::repository::decode_row::<Record>(&row)
                });
                Ok::<_, String>(rec.map(|r| r.id))
            });
            drop(snap);
            if row?.as_deref() != Some(id.as_str()) {
                return Err(format!("replayed get of {id} decoded another record"));
            }
            let d = pipeline::delta(&before, &pipeline::counters(&reg));
            t.note("bloom_hits_per_get", d["bloom_hits"]);
            t.note("bloom_misses_per_get", d["bloom_misses"]);
            t.note("value_bytes_per_get", d["value_bytes_read"]);
        }
        let snap = coll.store().snapshot();
        let keys: Vec<&(String, String)> = {
            let mut k: Vec<_> = model.token_counts.keys().collect();
            k.sort();
            k
        };
        for _ in 0..n / 4 {
            let (field, token) = keys[rng.gen_range(0..keys.len())];
            t.span("search.query", 0, t.fresh_id(), |_| {
                reader.query(&snap, Some(field), token, 20)
            })
            .0
            .map_err(|x| x.to_string())?;
        }
        for _ in 0..n / 10 {
            let name = &model.names[rng.gen_range(0..model.names.len())];
            let (hit, _) = t.span("search.fuzzy", 0, t.fresh_id(), |_| {
                reader.fuzzy(&snap, name, 2)
            });
            if let Some(h) = hit.map_err(|x| x.to_string())? {
                t.note("candidates_scored", h.candidates_scored as f64);
            }
        }
        for _ in 0..n / 20 {
            t.span("search.facets", 0, t.fresh_id(), |_| {
                reader.facets(&snap, None)
            })
            .0
            .map_err(|x| x.to_string())?;
        }
        for _ in 0..3 {
            let req = t.fresh_id();
            let (rows, _) = t.span("storage.scan_raw", 0, req, |_| snap.scan(&table));
            let rows = rows.map_err(e)?;
            t.span("codec.decode_all", 0, req, |_| {
                for (_, row) in &rows {
                    std::hint::black_box(preserva_core::repository::decode_row::<Record>(row));
                }
            });
            let id = &model.records[rng.gen_range(0..model.records.len())].id;
            t.span("curation.history_lookup", 0, req, |_| {
                preserva_curation::history::HistoryStore::new(coll.store()).for_record(id)
            })
            .0
            .map_err(|x| x.to_string())?;
            t.note(
                "history_rows_scanned",
                snap.count(HISTORY_TABLE).map_err(e)? as f64,
            );
        }
        Ok(())
    }

    /// Traced runs only: re-insert a sample of edited records directly
    /// through the catalog (same bytes, so the expected store is
    /// unchanged), counting WAL appends per insert.
    fn replay_edits(&mut self, served: &Served, edits: &EditState) -> Result<(), String> {
        if !self.tracer.enabled() {
            return Ok(());
        }
        let t = self.tracer.clone();
        let reg = served.coll.metrics_registry().clone();
        for record in edits.latest().values().take(self.opts.scale.replay / 4) {
            let before = pipeline::counters(&reg);
            t.span("core.insert", 0, t.fresh_id(), |_| {
                served.coll.catalog().insert(record)
            })
            .0
            .map_err(|e| e.to_string())?;
            let d = pipeline::delta(&before, &pipeline::counters(&reg));
            t.note("wal_appends_per_put", d["wal_appends"]);
        }
        Ok(())
    }

    /// After the edits: the store matches the benchmark's expected
    /// records, the indexes match a recount at the journal head, one
    /// reassessment runs, and delta equals a full recheck.
    fn finish(&mut self, served: &Served, model: &Model, edits: &EditState) -> Result<(), String> {
        let coll = &served.coll;
        pipeline::drain(coll)?;
        let head = |c: &Collection| -> Check {
            let snap = c.store().snapshot();
            let cursor = c
                .search()
                .reader()
                .cursor_at(&snap)
                .map_err(|e| e.to_string())?;
            checks::cursor_at_head(cursor, c.journal_head())
        };
        let at_head = head(coll);
        check(self, "search cursor at journal head after edits", at_head);
        let expected = edits.apply(model);
        let stored = coll.catalog().all().map_err(|e| e.to_string())?;
        let as_map = |rs: &[Record]| rs.iter().map(|r| (r.id.clone(), model::wire(r))).collect();
        let equal = checks::records_equal(&as_map(&stored), &as_map(&expected));
        check(self, "stored records = expected after edits", equal);
        let mut rng = StdRng::seed_from_u64(self.opts.seed ^ 0xF1);
        let recount = index_matches(coll, &expected, &mut rng);
        check(self, "index recount after edits", recount);

        // Every edit was reassessed by the pass closing its cycle, so
        // the ledger must equal a full recheck of the stored records.
        let ledger = coll
            .reassessor()
            .ledger()
            .map_err(|e| e.to_string())?
            .totals();
        let full = OutdatedNameDetector::new(&served.reassess_service, 3).check_collection(&stored);
        let same = checks::delta_equals_full(ledger, (full.checked(), full.current));
        check(self, "reassessed ledger = full recheck", same);
        let passes = served.passes.lock().expect("pass log poisoned");
        if let Some(c) = self.tally.classes.get("reassess") {
            let ms: Vec<String> = c.ok_ms.iter().map(|m| format!("{m:.1}")).collect();
            self.notes
                .push(format!("reassess pass ms: {}", ms.join(" ")));
        }

        if let Some(last) = passes.last() {
            self.notes.push(format!(
                "reassess: {} passes; last consumed {} journal entries, reprocessed {} records, rechecked {} names",
                passes.len(),
                last.entries_consumed,
                last.records_reprocessed,
                last.names_rechecked
            ));
        }
        self.reassess = passes.clone();
        Ok(())
    }

    /// Stop the server, which closes the tenant's collection, and measure
    /// the store it leaves under the program's own flush and compaction
    /// policy.
    fn shutdown(&mut self, served: Served) {
        let Served { server, coll, .. } = served;
        let closed = server.shutdown().map_err(|e| e.to_string());
        check(
            self,
            "server shutdown and collection close with zero pins",
            checks::clean_close(closed, coll.snapshots_pinned()),
        );
        drop(coll);
        self.notes.push(format!(
            "store at the end of the run: {:.2} MB",
            dir_bytes(&self.tenant_dir()) as f64 / 1e6
        ));
    }
}

/// serve-read's timed phase: until the deadline, whole read rounds on
/// each of two connections, each round cut into `READ_SLICES` read
/// segments. Every read segment is followed by an edit segment on one
/// connection (one edit cycle, closed by a reassessment pass) and by
/// maintenance, so the next read segment starts from a quiet store
/// again. Interleaving spreads every class's samples over the whole run.
fn serve_read(run: &mut Run<'_>) -> Result<(), String> {
    let (model, served, edits) = serving_setup(run)?;
    let tracer = run.tracer.clone();
    let reads = ctx(&served, &model, &edits, false, &tracer);
    let pass = || served.reassess();
    let cycle = Cycle {
        rounds: run.opts.scale.cycle_rounds,
        pass: &pass,
    };
    let round = ops::read_round();
    let slice = round.len().div_ceil(READ_SLICES);
    let deadline = Instant::now() + Duration::from_secs_f64(run.opts.seconds);
    loop {
        for part in round.chunks(slice) {
            let read = || Plan {
                round: part.to_vec(),
                cycle: None,
                until: Until::Rounds(1),
            };
            let walls = run.clients(&reads, &[read(), read()])?;
            run.read_s += walls.iter().cloned().fold(0.0, f64::max);
            let edit = Plan {
                round: ops::edit_round(),
                cycle: Some(cycle),
                until: Until::Rounds(1),
            };
            run.edit_phase(&reads, &[edit])?;
            pipeline::drain(&served.coll)?;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    run.replay_reads(&served, &model)?;
    run.replay_edits(&served, &edits)?;
    run.finish(&served, &model, &edits)?;
    drop(reads);
    run.shutdown(served);
    Ok(())
}

/// Set-up shared by the workloads: generate the inputs and build the
/// curated store with one pipeline round, `BUILDS` times over (each
/// build replaces the last; `setup_s` counts their median), then start
/// the server on the last store and warm it up.
fn serving_setup(run: &mut Run<'_>) -> Result<(Model, Served, EditState), String> {
    let mut builds = Vec::new();
    let mut built: Option<(Inputs, Model)> = None;
    let mut agree = Ok(());
    for _ in 0..BUILDS {
        let t = Instant::now();
        let inputs = run.inputs();
        let model = run.pipeline(&inputs)?;
        builds.push(t.elapsed().as_secs_f64());
        if let Some((_, first)) = &built {
            if first.records != model.records && agree.is_ok() {
                agree = Err("a later build curated different records".to_string());
            }
        }
        built = Some((inputs, model));
    }
    check(run, "set-up builds curate identical records", agree);
    let (inputs, model) = built.expect("at least one build");
    let t = Instant::now();
    let edits = EditState::default();
    let served = serve(run, &inputs, &model, &edits)?;
    run.setup_s = median(&builds).expect("non-empty") + t.elapsed().as_secs_f64();
    Ok((model, served, edits))
}

fn edit_churn(run: &mut Run<'_>) -> Result<(), String> {
    let (model, served, edits) = serving_setup(run)?;
    let tracer = run.tracer.clone();
    let both = ctx(&served, &model, &edits, true, &tracer);
    let pass = || served.reassess();
    let cycle = Cycle {
        rounds: run.opts.scale.cycle_rounds,
        pass: &pass,
    };
    // The reader runs whole rounds until the deadline; the editor keeps
    // editing until the reader is done, so every read meets churn.
    let deadline = Instant::now() + Duration::from_secs_f64(run.opts.seconds);
    let plans = [
        Plan {
            round: ops::edit_round(),
            cycle: Some(cycle),
            until: Until::OthersDone,
        },
        Plan {
            round: ops::read_round(),
            cycle: None,
            until: Until::Deadline(deadline),
        },
    ];
    let walls = run.edit_phase(&both, &plans)?;
    run.read_s = walls[1];
    run.replay_reads(&served, &model)?;
    run.replay_edits(&served, &edits)?;
    run.finish(&served, &model, &edits)?;
    run.shutdown(served);
    Ok(())
}

/// Removes a run's scratch directory however the run ends.
struct Scratch<'a>(&'a Path);

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run one workload to its end.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| e.to_string())?;
    let scratch = Scratch(&opts.work_dir);
    let mut run = Run {
        opts,
        tracer: Arc::new(Tracer::new(opts.trace)),
        tally: Tally::default(),
        checks: Vec::new(),
        notes: Vec::new(),
        rounds: Vec::new(),
        taxonomy_requests: Vec::new(),
        pipeline_s: Vec::new(),
        setup_s: 0.0,
        read_s: 0.0,
        edit_counters: BTreeMap::new(),
        reassess: Vec::new(),
        store_bytes: Vec::new(),
    };
    let result = match opts.workload {
        Workload::ServeRead => serve_read(&mut run),
        Workload::EditChurn => edit_churn(&mut run),
    };
    drop(scratch);
    result?;
    if opts.trace {
        run.tracer
            .write_jsonl(&opts.trace_file)
            .map_err(|e| e.to_string())?;
    }
    Ok(run.outcome())
}

/// Median, or NaN (an unmeasured metric, which makes the run incorrect)
/// for no samples.
fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Mean, or NaN for no samples.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

impl Run<'_> {
    fn outcome(self) -> Outcome {
        let t = &self.tally;
        let p50 = |class: &str| t.p50_ms(class).unwrap_or(f64::NAN);
        let rate = |n: usize, secs: f64| if n > 0 { n as f64 / secs } else { f64::NAN };
        let end_to_end = vec![
            ("setup_s", self.setup_s, "s"),
            ("pipeline_s", med(&self.pipeline_s), "s"),
            ("store_mb", med(&self.store_bytes) / 1e6, "MB"),
            (
                "read_rps",
                rate(t.ok_count(&READ_CLASSES), self.read_s),
                "1/s",
            ),
            ("get_p50_ms", p50("get"), "ms"),
            ("search_p50_ms", p50("search"), "ms"),
            ("fuzzy_p50_ms", p50("fuzzy"), "ms"),
            ("scan_p50_ms", p50("scan"), "ms"),
            ("history_p50_ms", p50("history"), "ms"),
            ("put_p50_ms", p50("put"), "ms"),
            ("reassess_s", p50("reassess") / 1e3, "s"),
        ];
        let tr = &self.tracer;
        let stage = |name: &str| med(&tr.seconds_per_request(name));
        let round = |key: &str| med(&self.rounds.iter().map(|c| c[key]).collect::<Vec<_>>());
        let ms = |name: &str| med(&tr.seconds_of(name)) * 1e3;
        let noted = |name: &str| mean(&tr.notes_of(name));
        let edit = |key: &str| self.edit_counters.get(key).copied().unwrap_or(0.0);
        let direct_get_ms = ms("direct.get");
        let mut per_layer = vec![
            ("core.ingest_s", stage("core.ingest"), "s"),
            ("core.load_records_s", stage("core.load_records"), "s"),
            ("codec.decode_s", stage("codec.decode"), "s"),
            ("curation.stage1_s", stage("curation.stage1"), "s"),
            ("core.catalog_write_s", stage("core.catalog_write"), "s"),
            (
                "curation.history_persist_s",
                stage("curation.history_persist"),
                "s",
            ),
            ("wfms.run_s", stage("wfms.run"), "s"),
            ("core.capture_flush_s", stage("core.capture_flush"), "s"),
            (
                "curation.persist_updates_s",
                stage("curation.persist_updates"),
                "s",
            ),
            ("quality.assess_s", stage("quality.assess"), "s"),
            ("core.reassess_seed_s", stage("core.reassess_seed"), "s"),
            ("core.prov_index_s", stage("core.prov_index"), "s"),
            ("search.index_s", stage("search.index"), "s"),
            ("taxonomy.requests", med(&self.taxonomy_requests), "count"),
            ("wfms.retries", round("wfms_retries"), "count"),
            (
                "search.entries_consumed",
                round("search_entries_consumed"),
                "count",
            ),
            (
                "storage.value_bytes_read",
                round("value_bytes_read"),
                "bytes",
            ),
            ("storage.commits", round("commits"), "count"),
            ("storage.wal_appends", round("wal_appends"), "count"),
            ("storage.commit_s", round("commit_s"), "s"),
            ("storage.checkpoints", round("checkpoints"), "count"),
            ("storage.checkpoint_s", round("checkpoint_s"), "s"),
            ("storage.compactions", round("compactions"), "count"),
            ("storage.compaction_s", round("compaction_s"), "s"),
            (
                "storage.compaction_bytes",
                round("compaction_bytes"),
                "bytes",
            ),
            ("server.get_self_ms", p50("get") - direct_get_ms, "ms"),
            ("storage.snapshot_get_ms", ms("storage.snapshot_get"), "ms"),
            ("codec.decode_one_ms", ms("codec.decode_one"), "ms"),
            (
                "storage.bloom_hits_per_get",
                noted("bloom_hits_per_get"),
                "count",
            ),
            (
                "storage.bloom_misses_per_get",
                noted("bloom_misses_per_get"),
                "count",
            ),
            (
                "storage.value_bytes_per_get",
                noted("value_bytes_per_get"),
                "bytes",
            ),
            ("search.fold_noop_ms", ms("search.fold_noop"), "ms"),
            ("search.query_ms", ms("search.query"), "ms"),
            ("search.fuzzy_ms", ms("search.fuzzy"), "ms"),
            (
                "search.candidates_scored",
                noted("candidates_scored"),
                "count",
            ),
            ("search.facets_ms", ms("search.facets"), "ms"),
            ("storage.scan_raw_ms", ms("storage.scan_raw"), "ms"),
            ("codec.decode_all_ms", ms("codec.decode_all"), "ms"),
            (
                "curation.history_lookup_ms",
                ms("curation.history_lookup"),
                "ms",
            ),
            (
                "storage.history_rows_scanned",
                noted("history_rows_scanned"),
                "count",
            ),
            ("server.put_self_ms", p50("put") - ms("core.insert"), "ms"),
            ("core.insert_ms", ms("core.insert"), "ms"),
            (
                "storage.wal_appends_per_put",
                noted("wal_appends_per_put"),
                "count",
            ),
            ("storage.edit_commit_s", edit("commit_s"), "s"),
            ("storage.edit_checkpoints", edit("checkpoints"), "count"),
            ("storage.edit_compactions", edit("compactions"), "count"),
            ("storage.edit_compaction_s", edit("compaction_s"), "s"),
            ("search.fold_ms", ms("search.fold"), "ms"),
            ("search.fold_entries", noted("search.fold_entries"), "count"),
        ];
        let reassessed = |f: fn(&ReassessOutcome) -> usize| {
            med(&self
                .reassess
                .iter()
                .map(|o| f(o) as f64)
                .collect::<Vec<_>>())
        };
        per_layer.extend([
            (
                "reassess.delta_entries",
                reassessed(|o| o.entries_consumed),
                "count",
            ),
            (
                "reassess.records_reprocessed",
                reassessed(|o| o.records_reprocessed),
                "count",
            ),
            (
                "reassess.names_rechecked",
                reassessed(|o| o.names_rechecked),
                "count",
            ),
        ]);
        let mut notes = self.notes;
        let pipeline_storage: Vec<String> = self
            .rounds
            .iter()
            .map(|c| format!("{}/{}", c["checkpoints"], c["compactions"]))
            .collect();
        notes.push(format!(
            "storage checkpoints/compactions per pipeline round: {}",
            pipeline_storage.join(" ")
        ));
        notes.push(format!(
            "storage checkpoints/compactions during edits: {}/{}",
            edit("checkpoints"),
            edit("compactions")
        ));
        Outcome {
            tally: self.tally,
            checks: self.checks,
            end_to_end,
            per_layer,
            traced: self.opts.trace,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tally: Tally, setup_s: f64) -> Outcome {
        Outcome {
            tally,
            checks: vec![("a check".into(), Ok(()))],
            end_to_end: vec![("setup_s", setup_s, "s")],
            per_layer: vec![("core.ingest_s", f64::NAN, "s")],
            traced: false,
            notes: Vec::new(),
        }
    }

    #[test]
    fn a_failed_operation_or_an_unmeasured_metric_makes_a_run_incorrect() {
        let mut ok = Tally::default();
        ok.record("pipeline", 1.0, Ok(()));
        // An unreported per-layer metric does not count against an
        // untraced run.
        assert!(outcome(ok.clone(), 1.0).correct());
        let mut wrong = ok.clone();
        wrong.record("pipeline", 1.0, Err("accuracy 0.5 != 0.93".into()));
        assert!(!outcome(wrong, 1.0).correct());
        let unmeasured = outcome(ok.clone(), f64::NAN);
        assert_eq!(unmeasured.unmeasured(), ["setup_s"]);
        assert!(!unmeasured.correct());
        let mut failed_check = outcome(ok, 1.0);
        failed_check
            .checks
            .push(("clean close".into(), Err("1 pinned".into())));
        assert!(!failed_check.correct());
    }
}
