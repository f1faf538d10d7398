//! The paper's batch job on one `Collection`: ingest, stage-1 curation,
//! check-names (the Outdated Species Name Detection workflow on the wfms
//! engine, provenance captured through the collection's batcher),
//! assess (which seeds the reassessor), and maintenance until the
//! provenance and search indexes reach the journal head.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use preserva_bench::case_study::{build_workflow, records_to_json};
use preserva_core::collection::{Collection, CollectionOptions};
use preserva_curation::history::HistoryStore;
use preserva_curation::log::{CurationLog, LogEntry};
use preserva_curation::outdated::{
    persist_updates, OutdatedNameDetector, OutdatedNameReport, UPDATED_NAMES_TABLE,
};
use preserva_curation::pipeline::CurationPipeline;
use preserva_curation::review::ReviewQueue;
use preserva_fnjv::config::GeneratorConfig;
use preserva_fnjv::generator::{self, SyntheticCollection};
use preserva_metadata::fnjv;
use preserva_metadata::record::Record;
use preserva_obs::Registry;
use preserva_quality::metric::AssessmentContext;
use preserva_quality::model::QualityModel;
use preserva_taxonomy::name::ScientificName;
use preserva_taxonomy::service::{ColService, LookupOutcome, ServiceConfig};
use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
use preserva_wfms::model::Workflow;
use preserva_wfms::services::{port, PortMap, ServiceError, ServiceRegistry};
use preserva_wfms::sink::{ProvenanceSink, SinkError};
use preserva_wfms::trace::ExecutionTrace;
use serde_json::{json, Value as Json};

use crate::checks::{self, Check};
use crate::trace::Tracer;

/// Attempts per name lookup inside the workflow's Catalogue-of-Life
/// service (availability 0.9, as annotated in the paper).
const LOOKUP_ATTEMPTS: u32 = 8;

/// The generated inputs of one run. Only these reach the program.
pub struct Inputs {
    pub collection: SyntheticCollection,
    /// Canonical names the generator planted as outdated.
    pub planted: BTreeSet<String>,
}

impl Inputs {
    pub fn generate(config: &GeneratorConfig) -> Inputs {
        let collection = generator::generate(config);
        let planted = collection
            .planted_outdated
            .iter()
            .map(ScientificName::canonical)
            .collect();
        Inputs {
            collection,
            planted,
        }
    }

    /// The ColService the collection's names are checked against.
    pub fn service(&self, availability: f64) -> ColService {
        ColService::new(
            self.collection.checklist.clone(),
            ServiceConfig {
                availability,
                seed: self.collection.config.seed ^ 0xC01,
                ..ServiceConfig::default()
            },
        )
    }

    pub fn curation(&self) -> CurationPipeline {
        CurationPipeline::stage1(self.collection.gazetteer.clone(), fnjv::schema())
    }
}

/// Registry totals the per-layer metrics are deltas of.
pub fn counters(reg: &Registry) -> BTreeMap<&'static str, f64> {
    let c = |name: &str| reg.counter(name, "").get() as f64;
    let sum = |name: &str| reg.latency_histogram(name, "").sum();
    BTreeMap::from([
        ("commits", c("preserva_storage_commits_total")),
        ("wal_appends", c("preserva_storage_wal_appends_total")),
        ("commit_s", sum("preserva_storage_commit_seconds")),
        ("checkpoints", c("preserva_storage_checkpoints_total")),
        ("checkpoint_s", sum("preserva_storage_checkpoint_seconds")),
        ("compactions", c("preserva_storage_compactions_total")),
        ("compaction_s", sum("preserva_storage_compaction_seconds")),
        (
            "compaction_bytes",
            reg.size_histogram("preserva_storage_compaction_bytes", "")
                .sum(),
        ),
        (
            "value_bytes_read",
            c("preserva_storage_value_bytes_read_total"),
        ),
        ("bloom_hits", c("preserva_storage_bloom_hits_total")),
        ("bloom_misses", c("preserva_storage_bloom_misses_total")),
        ("wfms_retries", c("preserva_wfms_retries_total")),
        (
            "search_entries_consumed",
            c("preserva_search_entries_consumed_total"),
        ),
    ])
}

/// `after − before`, key by key.
pub fn delta(
    before: &BTreeMap<&'static str, f64>,
    after: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// What one pipeline round produced.
pub struct PipelineRun {
    /// Wall time from the first ingest commit to indexes at head, less
    /// the benchmark's own checks in between.
    pub seconds: f64,
    /// The records stage-1 curation wrote.
    pub curated: Vec<Record>,
    /// The curation log it journaled.
    pub log: Vec<LogEntry>,
    /// The workflow's summary output.
    pub summary: Json,
    /// The check-names run's id (its OPM graph is stored under it).
    pub run_id: String,
    /// Run-level checks, by name.
    pub checks: Vec<(&'static str, Check)>,
    /// Registry deltas over the round.
    pub counters: BTreeMap<&'static str, f64>,
    /// Catalogue-of-Life requests made by check-names and assess.
    pub taxonomy_requests: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Load every record through the catalog. With tracing on, the same
/// rows are then decoded again directly, outside the pipeline clock, to
/// attribute the load's decode share.
fn load(
    coll: &Collection,
    tracer: &Tracer,
    round: u64,
    clock: &mut Duration,
) -> Result<Vec<Record>, String> {
    let (records, d) = tracer.span("core.load_records", 0, round, |_| coll.catalog().all());
    *clock += d;
    let records = records.map_err(err)?;
    if tracer.enabled() {
        let rows = coll
            .store()
            .scan(&coll.options().records_table)
            .map_err(err)?;
        tracer.span("codec.decode", 0, round, |_| {
            for (_, row) in &rows {
                std::hint::black_box(preserva_core::repository::decode_row::<Record>(row));
            }
        });
    }
    Ok(records)
}

/// Times the batcher's group commit of each finished run.
struct TimedSink {
    inner: Arc<preserva_core::capture_batcher::CaptureBatcher>,
    tracer: Arc<Tracer>,
    round: u64,
    parent: AtomicU64,
}

impl ProvenanceSink for TimedSink {
    fn record(&self, workflow: &Workflow, trace: &ExecutionTrace) -> Result<(), SinkError> {
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer
            .span("core.capture_flush", parent, self.round, |_| {
                self.inner.record(workflow, trace)
            })
            .0
    }

    fn flush(&self) -> Result<(), SinkError> {
        self.inner.flush()
    }
}

fn name_list(inputs: &PortMap, port_name: &str) -> Result<Vec<Json>, ServiceError> {
    inputs
        .get(port_name)
        .and_then(Json::as_array)
        .cloned()
        .ok_or_else(|| ServiceError::Permanent(format!("{port_name} must be an array")))
}

/// The case-study workflow's three services: extract the distinct
/// names, look each up in the Catalogue of Life, summarize.
fn services(service: Arc<ColService>) -> ServiceRegistry {
    let mut registry = ServiceRegistry::new();
    registry.register_fn("extract_names", |inputs: &PortMap| {
        let records = name_list(inputs, "records")?;
        let names: BTreeSet<String> = records
            .iter()
            .filter_map(|r| r["species"].as_str())
            .filter_map(ScientificName::parse)
            .map(|n| n.canonical())
            .collect();
        let mut out = port("names", json!(names.into_iter().collect::<Vec<_>>()));
        out.insert("records_processed".into(), json!(records.len()));
        out.insert("unparseable".into(), json!(0));
        Ok(out)
    });
    registry.register_fn("col_lookup", move |inputs: &PortMap| {
        let mut verdicts = Vec::new();
        for n in name_list(inputs, "names")? {
            let Some(name) = n.as_str().and_then(ScientificName::parse) else {
                continue;
            };
            let verdict = match service.lookup_with_retries(&name, LOOKUP_ATTEMPTS) {
                Err(_) => json!({"name": name.canonical(), "status": "unavailable"}),
                Ok(LookupOutcome::Current { .. }) => {
                    json!({"name": name.canonical(), "status": "current"})
                }
                Ok(LookupOutcome::Outdated { accepted, .. }) => json!({
                    "name": name.canonical(), "status": "outdated",
                    "accepted": accepted.canonical(),
                }),
                Ok(_) => json!({"name": name.canonical(), "status": "other"}),
            };
            verdicts.push(verdict);
        }
        Ok(port("verdicts", json!(verdicts)))
    });
    registry.register_fn("summarize", |inputs: &PortMap| {
        let verdicts = name_list(inputs, "verdicts")?;
        let count = |s: &str| verdicts.iter().filter(|v| v["status"] == s).count();
        let current = count("current");
        let checked = verdicts.len() - count("unavailable");
        let updates: Vec<Json> = verdicts
            .iter()
            .filter(|v| v["status"] == "outdated")
            .map(|v| json!({"old": v["name"], "new": v["accepted"]}))
            .collect();
        Ok(port(
            "summary",
            json!({
                "records_processed": inputs.get("records_processed").cloned().unwrap_or(json!(0)),
                "distinct_names": verdicts.len(),
                "checked": checked,
                "current": current,
                "outdated": updates.len(),
                "accuracy": if checked > 0 { current as f64 / checked as f64 } else { 1.0 },
                "updates": updates,
            }),
        ))
    });
    registry
}

/// The report `persist_updates` takes, rebuilt from the workflow's
/// summary and the records it ran over.
fn report_from(summary: &Json, records: &[Record]) -> OutdatedNameReport {
    let parse = |v: &Json| v.as_str().and_then(ScientificName::parse).map(|n| n.bare());
    let outdated = summary["updates"]
        .as_array()
        .map(|updates| {
            updates
                .iter()
                .filter_map(|u| Some((parse(&u["old"])?, parse(&u["new"])?)))
                .collect()
        })
        .unwrap_or_default();
    OutdatedNameReport {
        records_processed: records.len(),
        distinct_names: summary["distinct_names"].as_u64().unwrap_or(0) as usize,
        current: summary["current"].as_u64().unwrap_or(0) as usize,
        outdated,
        record_names: records
            .iter()
            .filter_map(|r| {
                let name = ScientificName::parse(r.get_text("species")?)?;
                Some((r.id.clone(), name.bare()))
            })
            .collect(),
        ..OutdatedNameReport::default()
    }
}

/// Quality assessment over the loaded records, as the `assess` command
/// does it; returns the full name-check report that seeds the
/// reassessor.
fn assess(inputs: &Inputs, records: &[Record], requests: &mut u64) -> OutdatedNameReport {
    let service = inputs.service(1.0);
    let report = OutdatedNameDetector::new(&service, 3).check_collection(records);
    *requests += service.stats().requests;
    let completeness =
        preserva_metadata::completeness::collection_completeness(&fnjv::schema(), records, false);
    let ctx = AssessmentContext::new()
        .with_fact("names_checked", report.checked() as f64)
        .with_fact("names_correct", report.current as f64)
        .with_fact("observed_availability", 1.0)
        .with_annotation("reputation", 1.0)
        .with_annotation("availability", 0.9);
    let mut quality = QualityModel::case_study_default().assess("collection", &ctx);
    quality.push(
        preserva_quality::dimension::Dimension::completeness(),
        "51-field fill rate",
        completeness,
    );
    let (consistent, checked) = preserva_metadata::consistency::consistency_counts(records);
    if checked > 0 {
        quality.push(
            preserva_quality::dimension::Dimension::consistency(),
            "within-record taxonomy consistency",
            consistent as f64 / checked as f64,
        );
    }
    std::hint::black_box(quality);
    report
}

/// Run the whole job on a fresh collection at `dir`. Returns the open
/// collection (the caller closes it) and what the round produced.
pub fn run(
    dir: &Path,
    inputs: &Inputs,
    tracer: &Arc<Tracer>,
) -> Result<(Collection, PipelineRun), String> {
    let _ = std::fs::remove_dir_all(dir);
    let coll = Collection::open(dir, CollectionOptions::default()).map_err(err)?;
    let store = coll.store().clone();
    let table = coll.options().records_table.clone();
    let reg = coll.metrics_registry().clone();
    let before = counters(&reg);
    let round = tracer.fresh_id();
    let mut clock = Duration::ZERO;
    let mut requests = 0u64;

    let (ingested, d) = tracer.span("core.ingest", 0, round, |_| {
        let mut session = store.session();
        for r in &inputs.collection.records {
            coll.catalog().stage(&mut session, r).map_err(err)?;
        }
        session.commit().map_err(err)
    });
    clock += d;
    ingested?;

    // Stage-1 curation.
    let records = load(&coll, tracer, round, &mut clock)?;
    let ((curated, log), d) = tracer.span("curation.stage1", 0, round, |_| {
        let mut log = CurationLog::new();
        let (curated, _) = inputs
            .curation()
            .run(&records, &mut log, &mut ReviewQueue::new());
        (curated, log)
    });
    clock += d;
    let (written, d) = tracer.span("core.catalog_write", 0, round, |_| {
        coll.catalog().insert_all(&curated)
    });
    clock += d;
    written.map_err(err)?;
    let (persisted, d) = tracer.span("curation.history_persist", 0, round, |_| {
        HistoryStore::new(&store).persist(&log)
    });
    clock += d;
    persisted.map_err(err)?;

    // Check-names: the workflow, its provenance, the updated names.
    let bytes_before = checks::digest(&store.scan(&table).map_err(err)?);
    let records = load(&coll, tracer, round, &mut clock)?;
    let service = Arc::new(inputs.service(0.9));
    let sink = Arc::new(TimedSink {
        inner: coll.batcher().clone(),
        tracer: tracer.clone(),
        round,
        parent: AtomicU64::new(0),
    });
    let engine = WfEngine::new(services(service.clone()), EngineConfig::default())
        .with_sink(sink.clone())
        .with_metrics(reg.clone());
    let workflow = build_workflow();
    let input = port("sound_metadata", records_to_json(&records));
    let (ran, d) = tracer.span("wfms.run", 0, round, |id| {
        sink.parent.store(id, Ordering::Relaxed);
        engine.run(&workflow, &input)
    });
    clock += d;
    let trace = ran.map_err(|(e, _)| format!("check-names workflow failed: {e}"))?;
    requests += service.stats().requests;
    let summary = trace
        .workflow_outputs
        .get("summary")
        .cloned()
        .unwrap_or(Json::Null);
    let report = report_from(&summary, &records);
    let (persisted, d) = tracer.span("curation.persist_updates", 0, round, |_| {
        persist_updates(&store, &report)
    });
    clock += d;
    persisted.map_err(err)?;
    let bytes_after = checks::digest(&store.scan(&table).map_err(err)?);

    // Assess, seeding the reassessor.
    let records = load(&coll, tracer, round, &mut clock)?;
    let (full, d) = tracer.span("quality.assess", 0, round, |_| {
        assess(inputs, &records, &mut requests)
    });
    clock += d;
    let (seeded, d) = tracer.span("core.reassess_seed", 0, round, |_| {
        coll.reassessor().seed(&full)
    });
    clock += d;
    seeded.map_err(err)?;

    // Indexes to the journal head.
    let (refreshed, d) = tracer.span("core.prov_index", 0, round, |_| coll.prov_index().refresh());
    clock += d;
    refreshed.map_err(err)?;
    let (indexed, d) = tracer.span("search.index", 0, round, |_| coll.search().run());
    clock += d;
    indexed.map_err(err)?;
    let (drained, d) = tracer.span("core.maintain", 0, round, |_| drain(&coll));
    clock += d;
    drained?;
    let seconds = clock.as_secs_f64();
    let counters = delta(&before, &counters(&reg));

    // Run-level checks, outside the clock.
    let detected: BTreeSet<String> = report
        .outdated
        .iter()
        .map(|(old, _)| old.canonical())
        .collect();
    let distinct = inputs.collection.species_names.len();
    let updated: Vec<String> = store
        .scan(UPDATED_NAMES_TABLE)
        .map_err(err)?
        .into_iter()
        .map(|(k, _)| String::from_utf8_lossy(&k).into_owned())
        .collect();
    let graph = coll.provenance().load_graph(&trace.run_id).map_err(err)?;
    let run_id = &trace.run_id;
    let checks = vec![
        (
            "outdated names = planted",
            checks::outdated_set(&inputs.planted, &detected),
        ),
        (
            "accuracy = (distinct - planted) / distinct",
            summary["distinct_names"]
                .as_u64()
                .filter(|&n| n as usize == distinct)
                .ok_or_else(|| {
                    format!(
                        "workflow saw {} distinct names, generator {distinct}",
                        summary["distinct_names"]
                    )
                })
                .and_then(|_| {
                    checks::accuracy(
                        distinct,
                        inputs.planted.len(),
                        summary["accuracy"].as_f64().unwrap_or(f64::NAN),
                    )
                }),
        ),
        (
            "one updated_names row per planted name",
            checks::updated_rows(&inputs.planted, &updated),
        ),
        (
            "record bytes unchanged by check-names",
            checks::bytes_unchanged(bytes_before, bytes_after),
        ),
        (
            "OPM graph derives summary from input",
            checks::derives(
                &graph,
                &format!("a:{run_id}:Summarize.summary"),
                &format!("a:{run_id}:in:sound_metadata"),
            ),
        ),
    ];
    Ok((
        coll,
        PipelineRun {
            seconds,
            curated,
            log: log.entries().to_vec(),
            summary: summary.clone(),
            run_id: trace.run_id.clone(),
            checks,
            counters,
            taxonomy_requests: requests,
        },
    ))
}

/// `maintain()` until the provenance and search indexes reach the head.
pub fn drain(coll: &Collection) -> Result<(), String> {
    for _ in 0..64 {
        coll.maintain().map_err(err)?;
        if coll.prov_index().lag().map_err(err)? == 0
            && coll.search().journal_lag().map_err(err)? == 0
        {
            return Ok(());
        }
    }
    Err("indexes did not reach the journal head after 64 maintenance passes".into())
}
