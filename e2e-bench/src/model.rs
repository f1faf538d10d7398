//! The benchmark's own view of the collection, computed apart from the
//! program: token counts, facet counts, species names and year counts
//! recounted from in-memory records with the benchmark's own code.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use preserva_metadata::record::Record;
use preserva_metadata::value::Value;

/// Facet → value → count, the shape `GET /facets` answers with.
pub type Facets = BTreeMap<String, BTreeMap<String, u64>>;

/// Fields that decide the quality band facet (the search layer's
/// documented definition: share of these ten that are filled).
pub const BAND_FIELDS: [&str; 10] = [
    "species",
    "genus",
    "family",
    "collect_date",
    "country",
    "state",
    "city",
    "location",
    "recordist",
    "coordinates",
];

/// Lower-cased alphanumeric runs of `text`, each once.
pub fn tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut current = String::new();
    for c in text.chars().flat_map(char::to_lowercase) {
        if c.is_alphanumeric() {
            current.push(c);
        } else if !current.is_empty() {
            out.insert(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.insert(current);
    }
    out
}

fn filled(r: &Record, field: &str) -> bool {
    match r.get(field) {
        None => false,
        Some(Value::Text(s)) => !s.trim().is_empty(),
        Some(_) => true,
    }
}

/// Facet counts recomputed from records.
pub fn facets(records: &[Record]) -> Facets {
    let mut out = Facets::new();
    let mut bump = |facet: &str, value: String| {
        *out.entry(facet.to_string())
            .or_default()
            .entry(value)
            .or_insert(0) += 1;
    };
    for r in records {
        let family = r
            .get_text("family")
            .map(|f| f.trim().to_lowercase())
            .filter(|f| !f.is_empty())
            .unwrap_or_else(|| "(none)".to_string());
        bump("family", family);
        let geo = if filled(r, "coordinates") {
            "yes"
        } else {
            "no"
        };
        bump("georeferenced", geo.to_string());
        let share = BAND_FIELDS.iter().filter(|f| filled(r, f)).count() as f64 / 10.0;
        let band = if share >= 0.9 {
            "high"
        } else if share >= 0.6 {
            "medium"
        } else {
            "low"
        };
        bump("quality", band.to_string());
    }
    out
}

/// Records whose text `field` contains each token, counted per
/// `(field, token)`.
pub fn token_counts(records: &[Record], fields: &[&str]) -> HashMap<(String, String), usize> {
    let mut out = HashMap::new();
    for r in records {
        for f in fields {
            if let Some(text) = r.get_text(f) {
                for t in tokens(text) {
                    *out.entry((f.to_string(), t)).or_insert(0) += 1;
                }
            }
        }
    }
    out
}

/// Distinct non-blank species strings (trimmed), sorted.
pub fn species_names(records: &[Record]) -> Vec<String> {
    let set: BTreeSet<String> = records
        .iter()
        .filter_map(|r| r.get_text("species"))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    set.into_iter().collect()
}

/// Records per collection year, for typed `collect_date` values.
pub fn year_counts(records: &[Record]) -> BTreeMap<i32, usize> {
    let mut out = BTreeMap::new();
    for r in records {
        if let Some(Value::Date(d)) = r.get("collect_date") {
            *out.entry(d.year).or_insert(0) += 1;
        }
    }
    out
}

/// The JSON form a record takes on the wire, for exact comparison.
pub fn wire(record: &Record) -> serde_json::Value {
    let text = serde_json::to_string(record).expect("records serialize");
    serde_json::from_str(&text).expect("serialized records parse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_metadata::value::{Coordinates, Date};

    #[test]
    fn tokens_split_fold_and_dedupe() {
        let t: Vec<String> = tokens("São  Paulo, são-FNJV 12").into_iter().collect();
        assert_eq!(t, ["12", "fnjv", "paulo", "são"]);
    }

    #[test]
    fn facets_follow_the_documented_definition() {
        let full = BAND_FIELDS
            .iter()
            .fold(Record::new("a"), |r, f| r.with(f, Value::Text("x".into())))
            .with(
                "coordinates",
                Value::Coordinates(Coordinates::new(-22.0, -47.0).unwrap()),
            )
            .with("family", Value::Text(" Hylidae ".into()));
        let bare =
            Record::new("b").with("collect_date", Value::Date(Date::new(1990, 1, 2).unwrap()));
        let f = facets(&[full, bare]);
        assert_eq!(f["family"]["hylidae"], 1);
        assert_eq!(f["family"]["(none)"], 1);
        assert_eq!(f["georeferenced"]["yes"], 1);
        assert_eq!(f["quality"]["high"], 1);
        assert_eq!(f["quality"]["low"], 1);
    }
}
