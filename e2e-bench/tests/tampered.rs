//! Every correctness check accepts the program's real answer and
//! rejects a tampered one. Answers come from one scaled-down pipeline
//! run; each test alters one of them the way a bug would.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use preserva_core::collection::Collection;
use preserva_curation::outdated::UPDATED_NAMES_TABLE;
use preserva_e2e_bench::checks;
use preserva_e2e_bench::model;
use preserva_e2e_bench::pipeline::{self, Inputs, PipelineRun};
use preserva_e2e_bench::trace::Tracer;
use preserva_fnjv::config::GeneratorConfig;
use preserva_metadata::value::Value;
use preserva_opm::graph::OpmGraph;
use serde_json::json;

/// The answers the program gave in one scaled-down pipeline run, read
/// out before its store is removed.
struct Fixture {
    inputs: Inputs,
    run: PipelineRun,
    updated_keys: Vec<String>,
    record_rows: Vec<(Vec<u8>, Vec<u8>)>,
    graph: OpmGraph,
    facets: model::Facets,
    /// `(record id, its stored history as (source, event))`.
    history: (String, Vec<(String, serde_json::Value)>),
    cursor: u64,
    head: u64,
}

fn read_answers(coll: &Collection, inputs: Inputs, run: PipelineRun) -> Fixture {
    let store = coll.store();
    let snap = store.snapshot();
    let id = run.log[0].record_id.clone();
    let stored = preserva_curation::history::HistoryStore::new(store)
        .for_record(&id)
        .unwrap();
    let fixture = Fixture {
        updated_keys: store
            .scan(UPDATED_NAMES_TABLE)
            .unwrap()
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect(),
        record_rows: store.scan(&coll.options().records_table).unwrap(),
        graph: coll.provenance().load_graph(&run.run_id).unwrap(),
        facets: coll.search().reader().facets(&snap, None).unwrap(),
        history: (
            id,
            stored
                .into_iter()
                .map(|e| (e.source, serde_json::to_value(&e.event)))
                .collect(),
        ),
        cursor: coll.search().reader().cursor_at(&snap).unwrap(),
        head: coll.journal_head(),
        inputs,
        run,
    };
    drop(snap);
    fixture
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("tampered-{}", std::process::id()));
        let inputs = Inputs::generate(&GeneratorConfig::small(5));
        let (coll, run) = pipeline::run(&dir, &inputs, &Arc::new(Tracer::new(false))).unwrap();
        let fixture = read_answers(&coll, inputs, run);
        coll.close().unwrap();
        drop(coll);
        std::fs::remove_dir_all(&dir).unwrap();
        fixture
    })
}

fn planted() -> &'static BTreeSet<String> {
    &fixture().inputs.planted
}

#[test]
fn the_real_pipeline_passes_every_run_level_check() {
    for (name, c) in &fixture().run.checks {
        assert!(c.is_ok(), "{name}: {c:?}");
    }
}

#[test]
fn outdated_set_rejects_a_missed_or_an_extra_name() {
    let detected: BTreeSet<String> = fixture().run.summary["updates"]
        .as_array()
        .unwrap()
        .iter()
        .map(|u| u["old"].as_str().unwrap().to_string())
        .collect();
    assert!(checks::outdated_set(planted(), &detected).is_ok());
    let mut missed = detected.clone();
    missed.pop_first();
    assert!(checks::outdated_set(planted(), &missed).is_err());
    let mut extra = detected;
    extra.insert("Hyla faber".into());
    assert!(checks::outdated_set(planted(), &extra).is_err());
}

#[test]
fn accuracy_rejects_a_shifted_value() {
    let distinct = fixture().inputs.collection.species_names.len();
    let reported = fixture().run.summary["accuracy"].as_f64().unwrap();
    assert!(checks::accuracy(distinct, planted().len(), reported).is_ok());
    assert!(checks::accuracy(distinct, planted().len(), reported + 1e-9).is_err());
}

#[test]
fn updated_rows_reject_a_missing_or_duplicate_row() {
    let keys = &fixture().updated_keys;
    assert!(checks::updated_rows(planted(), keys).is_ok());
    assert!(checks::updated_rows(planted(), &keys[1..]).is_err());
    let mut dup = keys.clone();
    dup.push(keys[0].clone());
    assert!(checks::updated_rows(planted(), &dup).is_err());
}

#[test]
fn bytes_unchanged_rejects_one_flipped_byte() {
    let rows = &fixture().record_rows;
    let before = checks::digest(rows);
    assert!(checks::bytes_unchanged(before, checks::digest(rows)).is_ok());
    let mut flipped = rows.clone();
    let last = flipped[7].1.len() - 2;
    flipped[7].1[last] ^= 1;
    assert!(checks::bytes_unchanged(before, checks::digest(&flipped)).is_err());
    assert!(checks::bytes_unchanged(before, checks::digest(&rows[1..])).is_err());
}

#[test]
fn derivation_rejects_a_graph_with_the_input_edge_cut() {
    let run_id = &fixture().run.run_id;
    let graph = &fixture().graph;
    let summary = format!("a:{run_id}:Summarize.summary");
    let input = format!("a:{run_id}:in:sound_metadata");
    assert!(checks::derives(graph, &summary, &input).is_ok());
    let mut cut = graph.clone();
    cut.edges.retain(|e| e.cause.as_str() != input);
    assert!(checks::derives(&cut, &summary, &input).is_err());
    // Reversed question: the input is not derived from the summary.
    assert!(checks::derives(graph, &input, &summary).is_err());
}

#[test]
fn record_check_rejects_a_changed_field() {
    let record = &fixture().run.curated[3];
    let body = json!({ "record": model::wire(record), "as_of_lsn": 9 });
    assert!(checks::record_is_one_of(&body, &[model::wire(record)]).is_ok());
    let mut changed = record.clone();
    changed.set("state", Value::Text("Acre".into()));
    let tampered = json!({ "record": model::wire(&changed) });
    assert!(checks::record_is_one_of(&tampered, &[model::wire(record)]).is_err());
    // A later acknowledged version is acceptable; an older one is not.
    assert!(
        checks::record_is_one_of(&tampered, &[model::wire(record), model::wire(&changed)]).is_ok()
    );
    assert!(checks::record_is_one_of(&body, &[model::wire(&changed)]).is_err());
}

#[test]
fn totals_reject_an_off_by_one_count() {
    let counts = model::token_counts(&fixture().run.curated, &["state"]);
    let (_, n) = counts.iter().next().unwrap();
    assert!(checks::total_is(&json!({"total": n}), "total", *n).is_ok());
    assert!(checks::total_is(&json!({"total": n + 1}), "total", *n).is_err());
    assert!(checks::total_is(&json!({}), "total", *n).is_err());
}

#[test]
fn fuzzy_rejects_a_different_winner_or_distance() {
    let names = model::species_names(&fixture().run.curated);
    let query = format!("{}x", names[0]);
    let reference =
        preserva_taxonomy::fuzzy::best_match(&query, names.iter().map(String::as_str), 2).unwrap();
    let expected = Some((reference.candidate, reference.distance));
    let answer = json!({"query": query, "match": {"name": reference.candidate, "distance": reference.distance}});
    assert!(checks::fuzzy_winner(&answer, expected).is_ok());
    let wrong_name = json!({"match": {"name": names[1], "distance": reference.distance}});
    assert!(checks::fuzzy_winner(&wrong_name, expected).is_err());
    let wrong_distance =
        json!({"match": {"name": reference.candidate, "distance": reference.distance + 1}});
    assert!(checks::fuzzy_winner(&wrong_distance, expected).is_err());
    assert!(checks::fuzzy_winner(&json!({"match": null}), expected).is_err());
}

#[test]
fn facets_reject_a_moved_count() {
    let served = &fixture().facets;
    let recount = model::facets(&fixture().run.curated);
    let body = json!({ "facets": served });
    let parsed = checks::facets_of(&body).unwrap();
    assert!(checks::facets_equal(&parsed, &recount).is_ok());
    let mut moved = parsed;
    *moved
        .get_mut("quality")
        .unwrap()
        .values_mut()
        .next()
        .unwrap() += 1;
    assert!(checks::facets_equal(&moved, &recount).is_err());
}

#[test]
fn history_rejects_a_dropped_entry() {
    let log = &fixture().run.log;
    let (id, got) = &fixture().history;
    let expected: Vec<_> = log
        .iter()
        .filter(|e| &e.record_id == id)
        .map(|e| (e.source.clone(), serde_json::to_value(&e.event)))
        .collect();
    assert!(checks::history_equal(got, &expected).is_ok());
    assert!(checks::history_equal(&got[1..], &expected).is_err());
}

#[test]
fn put_ack_rejects_seqs_that_do_not_advance() {
    assert_eq!(
        checks::put_ack(&json!({"first_seq": 11, "last_seq": 12}), 10),
        Ok(12)
    );
    assert!(checks::put_ack(&json!({"first_seq": 10, "last_seq": 12}), 10).is_err());
    assert!(checks::put_ack(&json!({"first_seq": 12, "last_seq": 11}), 10).is_err());
    assert!(checks::put_ack(&json!({"lsn": 3}), 10).is_err());
}

#[test]
fn cursor_check_rejects_a_lagging_index() {
    let f = fixture();
    assert!(checks::cursor_at_head(f.cursor, f.head).is_ok());
    assert!(checks::cursor_at_head(f.cursor - 1, f.head).is_err());
}

#[test]
fn delta_check_rejects_a_miscounted_ledger() {
    assert!(checks::delta_equals_full((120.0, 111.0), (120, 111)).is_ok());
    assert!(checks::delta_equals_full((120.0, 112.0), (120, 111)).is_err());
    assert!(checks::delta_equals_full((119.0, 111.0), (120, 111)).is_err());
}

#[test]
fn records_check_rejects_a_lost_or_changed_record() {
    let expected: BTreeMap<String, serde_json::Value> = fixture()
        .run
        .curated
        .iter()
        .map(|r| (r.id.clone(), model::wire(r)))
        .collect();
    assert!(checks::records_equal(&expected, &expected).is_ok());
    let mut lost = expected.clone();
    lost.pop_last();
    assert!(checks::records_equal(&lost, &expected).is_err());
    let mut changed = expected.clone();
    let first = changed.values_mut().next().unwrap();
    first["fields"]["state"] = json!({"Text": "Acre"});
    assert!(checks::records_equal(&changed, &expected).is_err());
}

#[test]
fn clean_close_rejects_an_error_or_a_pin() {
    assert!(checks::clean_close(Ok(()), 0).is_ok());
    assert!(checks::clean_close(Ok(()), 1).is_err());
    assert!(checks::clean_close(Err("flush failed".into()), 0).is_err());
}

#[test]
fn status_check_rejects_non_2xx() {
    assert!(checks::status_ok(201, b"").is_ok());
    assert!(checks::status_ok(404, b"no such record").is_err());
    assert!(checks::status_ok(500, b"").is_err());
}
