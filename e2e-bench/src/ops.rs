//! Operation classes, their fixed round schedules, and a closed-loop
//! client that runs them over HTTP (history goes straight to the
//! tenant's collection: the server has no history route).
//!
//! Every answer is checked against the benchmark's own [`Model`]; a
//! non-2xx status or a wrong answer counts as a failed operation and is
//! left out of the latencies.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use preserva_core::collection::Collection;
use preserva_curation::history::HistoryStore;
use preserva_curation::log::LogEntry;
use preserva_metadata::record::Record;
use preserva_metadata::value::{Coordinates, Value};
use preserva_taxonomy::fuzzy::best_match;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value as Json;

use crate::checks::{self, Check};
use crate::client::{encode, Client};
use crate::model::{self, Facets};
use crate::stats::Tally;
use crate::trace::Tracer;

pub const TENANT: &str = "bench";
pub const API_KEY: &str = "bench-key";

/// Searched fields. Edits touch only `species`, `genus` and
/// `coordinates`, so the hit counts of these never change while curators
/// edit.
pub const SEARCH_FIELDS: [&str; 4] = ["family", "state", "city", "recordist"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Search,
    Fuzzy,
    Facets,
    Scan,
    History,
    RenameCurrent,
    RenameOutdated,
    Location,
}

impl Op {
    pub fn class(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Search => "search",
            Op::Fuzzy => "fuzzy",
            Op::Facets => "facets",
            Op::Scan => "scan",
            Op::History => "history",
            Op::RenameCurrent | Op::RenameOutdated | Op::Location => "put",
        }
    }
}

/// Read classes, for the read-throughput count.
pub const READ_CLASSES: [&str; 6] = ["get", "search", "fuzzy", "facets", "scan", "history"];

/// Spread `counts` over a round of their total length, each class at
/// evenly spaced slots, so every round interleaves classes the same way.
fn spread(counts: &[(Op, usize)]) -> Vec<Op> {
    let n: usize = counts.iter().map(|(_, c)| c).sum();
    let mut slots: Vec<Option<Op>> = vec![None; n];
    for &(op, c) in counts.iter().rev() {
        for k in 0..c {
            let mut at = ((2 * k + 1) * n) / (2 * c);
            while slots[at % n].is_some() {
                at += 1;
            }
            slots[at % n] = Some(op);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// One round of the read mix: 7,882 requests, one of them a year scan and
/// one a record's history. The counts give each class a stated share of
/// a round's time at the per-request costs measured on the bench host
/// (GET 0.19 ms, search 1.5, fuzzy 3.8, facets 0.44, scan 400, history
/// 240): GET ~44 %, search ~20 %, fuzzy ~10 %, facets ~6 %, and the two
/// full-table classes ~20 % together, so `read_rps` follows every class
/// and not mostly the scan and the history (see the README).
pub fn read_round() -> Vec<Op> {
    spread(&[
        (Op::Get, 7_000),
        (Op::Search, 400),
        (Op::Fuzzy, 80),
        (Op::Facets, 400),
        (Op::Scan, 1),
        (Op::History, 1),
    ])
}

/// One round of curator edits: 10 PUTs.
pub fn edit_round() -> Vec<Op> {
    spread(&[
        (Op::RenameCurrent, 4),
        (Op::RenameOutdated, 3),
        (Op::Location, 3),
    ])
}

/// The benchmark's own view of the curated collection.
pub struct Model {
    pub records: Vec<Record>,
    pub by_id: HashMap<String, usize>,
    pub facets: Facets,
    pub token_counts: HashMap<(String, String), usize>,
    pub names: Vec<String>,
    pub current_names: Vec<String>,
    pub outdated_names: Vec<String>,
    pub years: Vec<(i32, usize)>,
    /// Per record, its curation log entries as `(source, event)`.
    pub history: HashMap<String, Vec<(String, Json)>>,
    /// Records curators edit. Each keeps its species name referenced by
    /// at least one record outside the set and carries coordinates, so
    /// edits never add or drop an indexed name and never move a facet.
    pub working_set: Vec<String>,
}

impl Model {
    pub fn new(
        curated: &[Record],
        log: &[LogEntry],
        planted: &std::collections::BTreeSet<String>,
        working_set: usize,
        seed: u64,
    ) -> Model {
        let names = model::species_names(curated);
        let (outdated_names, current_names): (Vec<String>, Vec<String>) =
            names.iter().cloned().partition(|n| planted.contains(n));
        let mut history: HashMap<String, Vec<(String, Json)>> = HashMap::new();
        for e in log {
            history
                .entry(e.record_id.clone())
                .or_default()
                .push((e.source.clone(), serde_json::to_value(&e.event)));
        }
        let species = |r: &Record| {
            r.get_text("species")
                .map(str::trim)
                .unwrap_or("")
                .to_string()
        };
        let mut outside: HashMap<String, usize> = HashMap::new();
        for r in curated {
            *outside.entry(species(r)).or_default() += 1;
        }
        let mut order: Vec<usize> = (0..curated.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5E7));
        let mut chosen = Vec::new();
        for i in order {
            if chosen.len() == working_set {
                break;
            }
            let r = &curated[i];
            let name = species(r);
            let refs = outside.get_mut(&name).expect("counted above");
            if !name.is_empty() && *refs >= 2 && r.is_filled("coordinates") {
                *refs -= 1;
                chosen.push(r.id.clone());
            }
        }
        Model {
            by_id: curated
                .iter()
                .enumerate()
                .map(|(i, r)| (r.id.clone(), i))
                .collect(),
            facets: model::facets(curated),
            token_counts: model::token_counts(curated, &SEARCH_FIELDS),
            current_names,
            outdated_names,
            names,
            years: model::year_counts(curated).into_iter().collect(),
            history,
            working_set: chosen,
            records: curated.to_vec(),
        }
    }
}

/// Every version of every edited record, which versions are
/// acknowledged, and the ids most recently acknowledged.
#[derive(Default)]
pub struct EditState {
    inner: Mutex<EditInner>,
}

#[derive(Default)]
struct EditInner {
    versions: HashMap<String, Vec<Record>>,
    acked: HashMap<String, usize>,
    recent: VecDeque<String>,
    edits: u64,
}

const RECENT: usize = 64;

impl EditState {
    /// Build the next version of `id` for an edit of kind `op`; returns
    /// it with its version index.
    fn prepare(&self, model: &Model, id: &str, op: Op, rng: &mut StdRng) -> (Record, usize) {
        let mut s = self.inner.lock().expect("edit state poisoned");
        s.edits += 1;
        let edits = s.edits;
        let versions = s
            .versions
            .entry(id.to_string())
            .or_insert_with(|| vec![model.records[model.by_id[id]].clone()]);
        let mut next = versions.last().expect("never empty").clone();
        match op {
            Op::RenameCurrent | Op::RenameOutdated => {
                let pool = if op == Op::RenameCurrent {
                    &model.current_names
                } else {
                    &model.outdated_names
                };
                // A curator's rename keeps the genus field in step with
                // the binomial, as stage-1 curation would.
                let name = pool[rng.gen_range(0..pool.len())].clone();
                let genus = name.split_whitespace().next().unwrap_or("").to_string();
                next.set("species", Value::Text(name));
                next.set("genus", Value::Text(genus));
            }
            _ => {
                // A georeference fix: the original point, nudged by up to
                // ~0.01 degrees. Records without coordinates are never in
                // the working set, so the georeferenced facet holds still.
                let original = model.records[model.by_id[id]]
                    .get("coordinates")
                    .and_then(Value::as_coordinates)
                    .expect("working-set records carry coordinates");
                let nudge = |k: u64| ((k % 21) as f64 - 10.0) / 1000.0;
                let fixed = Coordinates::new(
                    (original.lat + nudge(edits)).clamp(-90.0, 90.0),
                    (original.lon + nudge(edits / 21)).clamp(-180.0, 180.0),
                )
                .expect("clamped into range");
                next.set("coordinates", Value::Coordinates(fixed));
            }
        }
        versions.push(next.clone());
        (next, versions.len() - 1)
    }

    fn ack(&self, id: &str, version: usize) {
        let mut s = self.inner.lock().expect("edit state poisoned");
        let a = s.acked.entry(id.to_string()).or_insert(0);
        *a = (*a).max(version);
        s.recent.push_back(id.to_string());
        if s.recent.len() > RECENT {
            s.recent.pop_front();
        }
    }

    /// A PUT was refused, so its version never landed.
    fn retract(&self, id: &str, version: usize) {
        let mut s = self.inner.lock().expect("edit state poisoned");
        if let Some(v) = s.versions.get_mut(id) {
            if v.len() == version + 1 {
                v.pop();
            }
        }
    }

    /// A recently edited id (or, before any edit, one from the working
    /// set) and the version acknowledged for it now.
    fn pick(&self, model: &Model, rng: &mut StdRng) -> (String, usize) {
        let s = self.inner.lock().expect("edit state poisoned");
        let id = if s.recent.is_empty() {
            model.working_set[rng.gen_range(0..model.working_set.len())].clone()
        } else {
            s.recent[rng.gen_range(0..s.recent.len())].clone()
        };
        let acked = s.acked.get(&id).copied().unwrap_or(0);
        (id, acked)
    }

    /// The version of `id` acknowledged so far (0: the curated original).
    fn acked(&self, id: &str) -> usize {
        let s = self.inner.lock().expect("edit state poisoned");
        s.acked.get(id).copied().unwrap_or(0)
    }

    /// Versions of `id` from `from` on: what a read issued after version
    /// `from` was acknowledged may return.
    fn acceptable(&self, model: &Model, id: &str, from: usize) -> Vec<Json> {
        let s = self.inner.lock().expect("edit state poisoned");
        match s.versions.get(id) {
            Some(v) => v[from.min(v.len() - 1)..].iter().map(model::wire).collect(),
            None => vec![model::wire(&model.records[model.by_id[id]])],
        }
    }

    /// The latest version of every edited record.
    pub fn latest(&self) -> BTreeMap<String, Record> {
        let s = self.inner.lock().expect("edit state poisoned");
        s.versions
            .iter()
            .map(|(id, v)| (id.clone(), v.last().expect("never empty").clone()))
            .collect()
    }

    /// The expected stored collection: the model with every edit applied.
    pub fn apply(&self, model: &Model) -> Vec<Record> {
        let latest = self.latest();
        model
            .records
            .iter()
            .map(|r| latest.get(&r.id).cloned().unwrap_or_else(|| r.clone()))
            .collect()
    }
}

/// What the client threads share.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub coll: Arc<Collection>,
    pub model: &'a Model,
    /// Every edit made so far, for the versions a read may return.
    pub edits: &'a EditState,
    /// GETs read recently edited records instead of uniform ids.
    pub recent_gets: bool,
    pub tracer: &'a Tracer,
}

/// How long a client loops: until a deadline, for a fixed number of
/// whole rounds, or until every client of its phase that is not itself
/// `OthersDone` has finished.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Rounds(usize),
    OthersDone,
}

/// Curators' edit cycles: after every `rounds` rounds of edits, the
/// client's thread runs one reassessment `pass` over the edits so far.
#[derive(Clone, Copy)]
pub struct Cycle<'c> {
    pub rounds: usize,
    pub pass: &'c (dyn Fn() -> Result<(), String> + Sync),
}

/// One client connection's closed loop over whole rounds of `round`.
pub struct Worker<'a> {
    ctx: &'a Ctx<'a>,
    client: Client,
    rng: StdRng,
    /// Last journal seq acknowledged to this connection's PUTs.
    last_seq: u64,
    pub tally: Tally,
}

fn misspell(name: &str, rng: &mut StdRng) -> String {
    // Replace one letter of the epithet with a different letter.
    let chars: Vec<char> = name.chars().collect();
    let start = chars.iter().position(|c| *c == ' ').map_or(0, |p| p + 1);
    let letters: Vec<usize> = (start..chars.len())
        .filter(|&i| chars[i].is_ascii_lowercase())
        .collect();
    let Some(&at) = letters.get(rng.gen_range(0..letters.len().max(1))) else {
        return format!("{name}x");
    };
    let mut out = chars.clone();
    let shift = rng.gen_range(1..26u8);
    out[at] = (b'a' + (chars[at] as u8 - b'a' + shift) % 26) as char;
    out.into_iter().collect()
}

impl<'a> Worker<'a> {
    pub fn connect(ctx: &'a Ctx<'a>, seed: u64) -> Result<Worker<'a>, String> {
        let mut client = Client::connect(ctx.addr, API_KEY).map_err(|e| e.to_string())?;
        // Connection set-up belongs to set-up, not to the first request.
        let (status, body) = client.get("/healthz").map_err(|e| e.to_string())?;
        checks::status_ok(status, &body)?;
        Ok(Worker {
            ctx,
            client,
            rng: StdRng::seed_from_u64(seed),
            last_seq: 0,
            tally: Tally::default(),
        })
    }

    /// Run whole rounds — or, with a `cycle`, whole cycles of rounds
    /// each closed by a reassessment pass — until `until` (a round count
    /// then counts cycles). Returns the wall time taken.
    pub fn run(
        &mut self,
        round: &[Op],
        until: Until,
        cycle: Option<Cycle<'_>>,
        others_done: &AtomicBool,
    ) -> Duration {
        let started = Instant::now();
        let per_unit = cycle.map_or(1, |c| c.rounds);
        let mut done = 0usize;
        loop {
            let more = match until {
                Until::Deadline(t) => Instant::now() < t,
                Until::Rounds(n) => done < n,
                Until::OthersDone => !others_done.load(Ordering::Acquire),
            };
            if !more {
                break;
            }
            for _ in 0..per_unit {
                for &op in round {
                    self.op(op);
                }
            }
            if let Some(c) = cycle {
                let t = Instant::now();
                let outcome = (c.pass)();
                self.tally
                    .record("reassess", t.elapsed().as_secs_f64() * 1e3, outcome);
            }
            done += 1;
        }
        started.elapsed()
    }

    fn http(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> (Result<(u16, Vec<u8>), String>, f64) {
        let t = Instant::now();
        let r = self
            .client
            .call(method, path, body)
            .map_err(|e| e.to_string());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if r.is_err() {
            // A broken connection fails this operation, not the rest.
            if let Ok(c) = Client::connect(self.ctx.addr, API_KEY) {
                self.client = c;
            }
        }
        (r, ms)
    }

    /// Issue one operation, check its answer, and account it.
    pub fn op(&mut self, op: Op) {
        let (ms, outcome) = match op {
            Op::Get => self.get(),
            Op::Search => self.search(),
            Op::Fuzzy => self.fuzzy(),
            Op::Facets => self.facets(),
            Op::Scan => self.scan(),
            Op::History => self.history(),
            Op::RenameCurrent | Op::RenameOutdated | Op::Location => self.put(op),
        };
        self.tally.record(op.class(), ms, outcome);
    }

    fn answer(r: Result<(u16, Vec<u8>), String>) -> Result<Json, String> {
        let (status, body) = r?;
        checks::status_ok(status, &body)?;
        checks::parse(&body)
    }

    fn get(&mut self) -> (f64, Check) {
        let m = self.ctx.model;
        let edits = self.ctx.edits;
        let (id, from) = if self.ctx.recent_gets {
            edits.pick(m, &mut self.rng)
        } else {
            let id = m.records[self.rng.gen_range(0..m.records.len())].id.clone();
            let from = edits.acked(&id);
            (id, from)
        };
        let (r, ms) = self.http("GET", &format!("/v1/{TENANT}/records/{}", encode(&id)), b"");
        let outcome = Self::answer(r)
            .and_then(|body| checks::record_is_one_of(&body, &edits.acceptable(m, &id, from)));
        (ms, outcome)
    }

    fn search(&mut self) -> (f64, Check) {
        let m = self.ctx.model;
        // A token of a random record's field: searches weighted the way
        // the collection's own text is.
        let (field, token) = loop {
            let r = &m.records[self.rng.gen_range(0..m.records.len())];
            let field = SEARCH_FIELDS[self.rng.gen_range(0..SEARCH_FIELDS.len())];
            if let Some(text) = r.get_text(field) {
                let toks: Vec<String> = model::tokens(text).into_iter().collect();
                if !toks.is_empty() {
                    break (field, toks[self.rng.gen_range(0..toks.len())].clone());
                }
            }
        };
        let expected = m.token_counts[&(field.to_string(), token.clone())];
        if self.ctx.tracer.enabled() {
            // The handler folds new journal entries inline; fold them
            // here first to time that step, then time the no-op fold.
            let indexer = self.ctx.coll.search();
            let (folded, _) = self.ctx.tracer.span("search.fold", 0, 0, |_| indexer.run());
            if let Ok(o) = folded {
                self.ctx
                    .tracer
                    .note("search.fold_entries", o.entries_consumed as f64);
            }
            let _ = self
                .ctx
                .tracer
                .span("search.fold_noop", 0, 0, |_| indexer.run());
        }
        let path = format!(
            "/v1/{TENANT}/search?q={}&field={field}&limit=20",
            encode(&token)
        );
        let (r, ms) = self.http("GET", &path, b"");
        (
            ms,
            Self::answer(r).and_then(|b| checks::total_is(&b, "total", expected)),
        )
    }

    fn fuzzy(&mut self) -> (f64, Check) {
        let m = self.ctx.model;
        let query = misspell(
            &m.names[self.rng.gen_range(0..m.names.len())],
            &mut self.rng,
        );
        let (r, ms) = self.http(
            "GET",
            &format!("/v1/{TENANT}/search?fuzzy={}&distance=2", encode(&query)),
            b"",
        );
        let outcome = Self::answer(r).and_then(|body| {
            let reference = best_match(&query, m.names.iter().map(String::as_str), 2);
            checks::fuzzy_winner(&body, reference.as_ref().map(|w| (w.candidate, w.distance)))
        });
        (ms, outcome)
    }

    fn facets(&mut self) -> (f64, Check) {
        let (r, ms) = self.http("GET", &format!("/v1/{TENANT}/facets"), b"");
        let outcome = Self::answer(r)
            .and_then(|b| checks::facets_of(&b))
            .and_then(|got| checks::facets_equal(&got, &self.ctx.model.facets));
        (ms, outcome)
    }

    fn scan(&mut self) -> (f64, Check) {
        let m = self.ctx.model;
        let (year, expected) = m.years[self.rng.gen_range(0..m.years.len())];
        let (r, ms) = self.http(
            "GET",
            &format!("/v1/{TENANT}/records?year={year}&limit=10"),
            b"",
        );
        (
            ms,
            Self::answer(r).and_then(|b| checks::total_is(&b, "total", expected)),
        )
    }

    fn history(&mut self) -> (f64, Check) {
        let m = self.ctx.model;
        let id = &m.records[self.rng.gen_range(0..m.records.len())].id;
        let t = Instant::now();
        let got = HistoryStore::new(self.ctx.coll.store()).for_record(id);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = got.map_err(|e| e.to_string()).and_then(|entries| {
            let got: Vec<(String, Json)> = entries
                .into_iter()
                .map(|e| (e.source, serde_json::to_value(&e.event)))
                .collect();
            checks::history_equal(&got, m.history.get(id).map_or(&[][..], Vec::as_slice))
        });
        (ms, outcome)
    }

    fn put(&mut self, op: Op) -> (f64, Check) {
        let m = self.ctx.model;
        let edits = self.ctx.edits;
        let id = m.working_set[self.rng.gen_range(0..m.working_set.len())].clone();
        let (record, version) = edits.prepare(m, &id, op, &mut self.rng);
        let body = serde_json::to_vec(&record).expect("records serialize");
        let (r, ms) = self.http("PUT", &format!("/v1/{TENANT}/records"), &body);
        let refused = matches!(&r, Ok((status, _)) if !(200..300).contains(status));
        let outcome = Self::answer(r).and_then(|b| checks::put_ack(&b, self.last_seq));
        match outcome {
            Ok(last) => {
                self.last_seq = last;
                edits.ack(&id, version);
                (ms, Ok(()))
            }
            Err(e) => {
                if refused {
                    edits.retract(&id, version);
                }
                (ms, Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_hold_the_stated_mix() {
        let r = read_round();
        let count = |op| r.iter().filter(|o| **o == op).count();
        assert_eq!(r.len(), 7_882);
        assert_eq!(
            [
                Op::Get,
                Op::Search,
                Op::Fuzzy,
                Op::Facets,
                Op::Scan,
                Op::History
            ]
            .map(count),
            [7_000, 400, 80, 400, 1, 1]
        );
        assert_eq!(edit_round().len(), 10);
    }

    #[test]
    fn misspelling_changes_one_epithet_letter() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = misspell("Hyla faber", &mut rng);
        assert_eq!(m.len(), "Hyla faber".len());
        assert!(m.starts_with("Hyla "));
        let diff = m
            .chars()
            .zip("Hyla faber".chars())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1);
    }
}
