//! The tiered `BENCH_monthreplay.json` writer.
//!
//! `repro bench-snapshot` measures one scenario tier per invocation;
//! this module merges that measurement into the committed artifact
//! without disturbing the other tiers:
//!
//! ```json
//! {
//!   "bench": "month_replay",
//!   "tiers": { "small": { ... }, "medium": { ... }, "large": { ... } },
//!   "baseline": { ... } | null
//! }
//! ```
//!
//! The `"baseline"` an artifact already carries (an earlier snapshot,
//! recorded for before/after comparison) rides along unchanged.

use serde::Value;

/// Merge one freshly measured tier into the snapshot document.
///
/// * `existing` — the current artifact file's text, if any. Its other
///   tiers and its baseline are preserved. A missing, unparseable, or
///   pre-tiered (flat) document starts fresh.
/// * `tier` / `tier_json` — the tier name and its measurement object.
///
/// Returns the pretty-printed document.
pub fn merge_snapshot(
    existing: Option<&str>,
    tier: &str,
    tier_json: &str,
) -> Result<String, String> {
    let tier_value: Value = serde_json::from_str(tier_json)
        .map_err(|e| format!("tier measurement is not valid JSON: {e}"))?;

    let prior: Option<Value> = existing.and_then(|text| serde_json::from_str(text).ok());
    let mut tiers: Vec<(Value, Value)> = prior
        .as_ref()
        .and_then(|doc| doc.field("tiers"))
        .and_then(|t| t.as_map())
        .map(<[(Value, Value)]>::to_vec)
        .unwrap_or_default();
    match tiers
        .iter_mut()
        .find(|(k, _)| k.as_str() == Some(tier))
    {
        Some((_, v)) => *v = tier_value,
        None => tiers.push((Value::Str(tier.to_string()), tier_value)),
    }

    let baseline_value = prior
        .as_ref()
        .and_then(|doc| doc.field("baseline"))
        .cloned()
        .unwrap_or(Value::Null);

    let doc = Value::Map(vec![
        (
            Value::Str("bench".to_string()),
            Value::Str("month_replay".to_string()),
        ),
        (Value::Str("tiers".to_string()), Value::Map(tiers)),
        (Value::Str("baseline".to_string()), baseline_value),
    ]);
    serde_json::to_string_pretty(&doc).map_err(|e| format!("serializing snapshot: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(events: u64) -> String {
        format!("{{ \"events\": {events}, \"identical\": true }}")
    }

    #[test]
    fn fresh_document_carries_the_tier_and_null_baseline() {
        let doc = merge_snapshot(None, "medium", &tier(10)).unwrap();
        let v: Value = serde_json::from_str(&doc).unwrap();
        assert_eq!(v.field("bench").unwrap().as_str(), Some("month_replay"));
        assert_eq!(
            v.field("tiers").unwrap().field("medium").unwrap().field("events"),
            Some(&Value::U64(10))
        );
        assert_eq!(v.field("baseline"), Some(&Value::Null));
    }

    #[test]
    fn merging_preserves_other_tiers_and_replaces_the_rerun_one() {
        let doc = merge_snapshot(None, "medium", &tier(10)).unwrap();
        let doc = merge_snapshot(Some(&doc), "large", &tier(999)).unwrap();
        let doc = merge_snapshot(Some(&doc), "medium", &tier(11)).unwrap();
        let v: Value = serde_json::from_str(&doc).unwrap();
        let tiers = v.field("tiers").unwrap();
        assert_eq!(
            tiers.field("medium").unwrap().field("events"),
            Some(&Value::U64(11)),
            "rerun tier must be replaced"
        );
        assert_eq!(
            tiers.field("large").unwrap().field("events"),
            Some(&Value::U64(999)),
            "other tiers must survive the merge"
        );
        assert_eq!(
            tiers.as_map().unwrap().len(),
            2,
            "replacement must not duplicate the tier"
        );
    }

    #[test]
    fn rerun_without_baseline_keeps_the_recorded_one() {
        let first = r#"{
            "bench": "month_replay",
            "tiers": { "medium": { "events": 10 } },
            "baseline": { "old": true }
        }"#;
        let doc = merge_snapshot(Some(first), "large", &tier(20)).unwrap();
        let v: Value = serde_json::from_str(&doc).unwrap();
        assert_eq!(
            v.field("baseline").unwrap().field("old"),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn flat_legacy_document_starts_fresh() {
        // The pre-tiered artifact had scenario fields at the top level;
        // its keys must not leak into the tiered document.
        let legacy = r#"{ "bench": "month_replay", "scenario": "medium", "events": 5 }"#;
        let doc = merge_snapshot(Some(legacy), "medium", &tier(10)).unwrap();
        let v: Value = serde_json::from_str(&doc).unwrap();
        assert!(v.field("scenario").is_none());
        assert_eq!(
            v.field("tiers").unwrap().field("medium").unwrap().field("events"),
            Some(&Value::U64(10))
        );
    }

    #[test]
    fn invalid_tier_json_is_refused() {
        assert!(merge_snapshot(None, "medium", "{ nope").is_err());
    }
}
