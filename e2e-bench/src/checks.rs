//! Correctness checks. Each one compares an answer of the program with
//! a computation the benchmark makes itself, or with a property the
//! method must have. They return `Err(reason)` and never panic, so a
//! wrong answer is counted as a failed operation instead of ending the
//! run. `tests/tampered.rs` feeds each one a tampered answer.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use preserva_opm::graph::OpmGraph;
use preserva_opm::model::NodeId;
use serde_json::Value as Json;

use crate::model::Facets;

pub type Check = Result<(), String>;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Parse a response body as JSON.
pub fn parse(body: &[u8]) -> Result<Json, String> {
    serde_json::from_slice(body).map_err(|e| format!("unparseable response body: {e}"))
}

/// A 2xx status, else the status and the start of the body.
pub fn status_ok(status: u16, body: &[u8]) -> Check {
    ensure((200..300).contains(&status), || {
        let text = String::from_utf8_lossy(&body[..body.len().min(120)]).into_owned();
        format!("HTTP {status}: {text}")
    })
}

// ---- pipeline ---------------------------------------------------------

/// The outdated names the workflow detected are exactly the names the
/// generator planted as outdated.
pub fn outdated_set(planted: &BTreeSet<String>, detected: &BTreeSet<String>) -> Check {
    ensure(planted == detected, || {
        let missing: Vec<_> = planted.difference(detected).take(3).collect();
        let extra: Vec<_> = detected.difference(planted).take(3).collect();
        format!(
            "detected {} outdated names, planted {}; missing {missing:?}, extra {extra:?}",
            detected.len(),
            planted.len()
        )
    })
}

/// Reported accuracy equals (distinct − planted outdated) / distinct.
pub fn accuracy(distinct: usize, planted: usize, reported: f64) -> Check {
    let expected = (distinct - planted) as f64 / distinct as f64;
    ensure((reported - expected).abs() < 1e-12, || {
        format!("accuracy {reported} != ({distinct} - {planted}) / {distinct} = {expected}")
    })
}

/// `updated_names` holds one row per planted name, and nothing else.
pub fn updated_rows(planted: &BTreeSet<String>, row_keys: &[String]) -> Check {
    let keys: BTreeSet<String> = row_keys.iter().cloned().collect();
    ensure(keys.len() == row_keys.len() && &keys == planted, || {
        format!(
            "updated_names has {} rows ({} distinct) for {} planted names",
            row_keys.len(),
            keys.len(),
            planted.len()
        )
    })
}

/// Digest of a table's raw rows: `(row count, hash of keys and values)`.
pub fn digest(rows: &[(Vec<u8>, Vec<u8>)]) -> (usize, u64) {
    // FNV-1a over length-prefixed keys and values.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (k, v) in rows {
        feed(k);
        feed(v);
    }
    (rows.len(), h)
}

/// The record table's bytes are the same after check-names as before.
pub fn bytes_unchanged(before: (usize, u64), after: (usize, u64)) -> Check {
    ensure(before == after, || {
        format!("records table changed under check-names: {before:?} -> {after:?}")
    })
}

/// The run's OPM graph derives `effect` from `cause`: a chain of causal
/// edges (effect → cause) leads from one to the other.
pub fn derives(graph: &OpmGraph, effect: &str, cause: &str) -> Check {
    let effect = NodeId::new(effect);
    let cause = NodeId::new(cause);
    if !graph.artifacts.contains_key(&effect) || !graph.artifacts.contains_key(&cause) {
        return Err(format!(
            "graph lacks artifact {} or {}",
            effect.as_str(),
            cause.as_str()
        ));
    }
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::from([effect.clone()]);
    while let Some(node) = queue.pop_front() {
        if node == cause {
            return Ok(());
        }
        for e in graph.edges.iter().filter(|e| e.effect == node) {
            if seen.insert(e.cause.clone()) {
                queue.push_back(e.cause.clone());
            }
        }
    }
    Err(format!(
        "no causal path from {} to {}",
        effect.as_str(),
        cause.as_str()
    ))
}

// ---- reads ------------------------------------------------------------

/// A `GET /records/{id}` body holds one of the acceptable versions of
/// the record (one version when nothing edits it concurrently).
pub fn record_is_one_of(body: &Json, acceptable: &[Json]) -> Check {
    let got = &body["record"];
    ensure(acceptable.iter().any(|want| want == got), || {
        format!(
            "record {} differs from all {} acceptable versions",
            got["id"],
            acceptable.len()
        )
    })
}

/// A count in a response equals the benchmark's recount.
pub fn total_is(body: &Json, key: &str, expected: usize) -> Check {
    let got = body[key].as_u64();
    ensure(got == Some(expected as u64), || {
        format!("{key} {got:?}, recount {expected}")
    })
}

/// A fuzzy answer names the linear reference's winner at its distance.
pub fn fuzzy_winner(body: &Json, expected: Option<(&str, usize)>) -> Check {
    let m = &body["match"];
    let got = m["name"]
        .as_str()
        .map(|n| (n, m["distance"].as_u64().unwrap_or(u64::MAX) as usize));
    ensure(got == expected, || {
        format!(
            "fuzzy {:?}: got {got:?}, linear best_match {expected:?}",
            body["query"]
        )
    })
}

/// Facet counts equal the recount.
pub fn facets_equal(got: &Facets, expected: &Facets) -> Check {
    ensure(got == expected, || {
        let facet = expected
            .iter()
            .find(|(k, v)| got.get(*k) != Some(v))
            .map(|(k, _)| k.clone())
            .or_else(|| got.keys().find(|k| !expected.contains_key(*k)).cloned())
            .unwrap_or_default();
        format!("facet {facet:?} differs from the recount")
    })
}

/// Facets from a `GET /facets` body.
pub fn facets_of(body: &Json) -> Result<Facets, String> {
    let obj = body["facets"]
        .as_object()
        .ok_or("response has no facets object")?;
    let mut out = Facets::new();
    for (facet, values) in obj {
        let values = values.as_object().ok_or("facet is not an object")?;
        let mut counts = BTreeMap::new();
        for (value, n) in values {
            counts.insert(value.clone(), n.as_u64().ok_or("facet count not a number")?);
        }
        out.insert(facet.clone(), counts);
    }
    Ok(out)
}

/// A record's stored curation history, as `(source, event)` pairs in
/// order, equals the entries the pipeline's curation log holds for it.
pub fn history_equal(got: &[(String, Json)], expected: &[(String, Json)]) -> Check {
    ensure(got == expected, || {
        format!(
            "history has {} entries, curation log {}",
            got.len(),
            expected.len()
        )
    })
}

// ---- edits ------------------------------------------------------------

/// A PUT acknowledgement: its journal seqs start past the previous
/// acknowledgement's and run forward. Returns the new last seq.
pub fn put_ack(body: &Json, prev_last_seq: u64) -> Result<u64, String> {
    let first = body["first_seq"].as_u64().ok_or("ack lacks first_seq")?;
    let last = body["last_seq"].as_u64().ok_or("ack lacks last_seq")?;
    if first <= prev_last_seq || last < first {
        return Err(format!(
            "ack seqs {first}..={last} do not follow the previous ack's {prev_last_seq}"
        ));
    }
    Ok(last)
}

/// The index has consumed the journal up to its head.
pub fn cursor_at_head(cursor: u64, head: u64) -> Check {
    ensure(cursor == head, || {
        format!("index cursor {cursor} != journal head {head}")
    })
}

/// Delta reassessment equals a full recheck: the ledger's
/// `(checked, correct)` equal the full detector's.
pub fn delta_equals_full(delta: (f64, f64), full: (usize, usize)) -> Check {
    ensure(delta.0 == full.0 as f64 && delta.1 == full.1 as f64, || {
        format!("delta ledger (checked, correct) {delta:?} != full recheck {full:?}")
    })
}

/// Stored records equal the benchmark's expected versions, id by id.
pub fn records_equal(got: &BTreeMap<String, Json>, expected: &BTreeMap<String, Json>) -> Check {
    if got.len() != expected.len() {
        return Err(format!(
            "store holds {} records, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match expected
        .iter()
        .find(|(id, want)| got.get(*id) != Some(want))
    {
        Some((id, _)) => Err(format!("record {id} differs from the expected version")),
        None => Ok(()),
    }
}

/// Shutdown succeeded and left no snapshot pinned.
pub fn clean_close(result: Result<(), String>, pinned: usize) -> Check {
    result.map_err(|e| format!("close failed: {e}"))?;
    ensure(pinned == 0, || format!("{pinned} snapshot(s) still pinned"))
}
