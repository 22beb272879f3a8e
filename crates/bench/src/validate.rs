//! Validation for emitted bench artifacts.
//!
//! `duo_tensor::json` is writer-only by design, so this module carries
//! the one JSON *reader* in the workspace: a minimal recursive-descent
//! parser, just enough to check that `BENCH_*.json` files are well formed
//! and that every result object carries the fields dashboards and the
//! verify gate rely on. Used by the `bench_check` binary, which
//! `scripts/verify.sh` runs after the bench smokes.

/// A parsed JSON value. Objects preserve key order; numbers are `f64`
/// (bench statistics never need more).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as (key, value) pairs in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on any syntax
/// error (truncation, bad escapes, malformed numbers, trailing input).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", want as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let slice = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    slice
        .parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("malformed number `{slice}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u{hex} escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one whole UTF-8 character (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().expect("non-empty remainder");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

/// The fields every emitted [`crate::BenchResult`] object must carry.
pub const REQUIRED_NUM_FIELDS: [&str; 6] =
    ["min_s", "median_s", "p95_s", "mean_s", "trimmed_mean_s", "max_s"];

/// Validates the contents of a `BENCH_*.json` artifact: a non-empty JSON
/// array whose every element is an object with a non-empty string `name`,
/// a positive `samples` count, and finite non-negative values for all of
/// [`REQUIRED_NUM_FIELDS`]. Returns the number of results on success.
///
/// # Errors
///
/// Returns a message naming the first malformed element or missing field.
pub fn validate_bench_json(text: &str) -> Result<usize, String> {
    let doc = parse(text)?;
    let JsonValue::Arr(items) = doc else {
        return Err("top-level value must be an array of results".to_string());
    };
    if items.is_empty() {
        return Err("bench artifact contains no results".to_string());
    }
    for (i, item) in items.iter().enumerate() {
        let name = item
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("result {i}: missing string field `name`"))?;
        if name.is_empty() {
            return Err(format!("result {i}: empty `name`"));
        }
        let samples = item
            .get("samples")
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("`{name}`: missing numeric field `samples`"))?;
        if samples < 1.0 || samples.fract() != 0.0 {
            return Err(format!("`{name}`: `samples` must be a positive integer"));
        }
        for field in REQUIRED_NUM_FIELDS {
            let v = item
                .get(field)
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("`{name}`: missing numeric field `{field}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("`{name}`: `{field}` must be finite and >= 0"));
            }
        }
    }
    Ok(items.len())
}

// ---------------------------------------------------------------------
// Performance threshold rules
// ---------------------------------------------------------------------

/// One committed performance requirement:
/// `lhs <= factor * rhs`, both sides naming bench results and compared on
/// their [`THRESHOLD_STAT`] field.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRule {
    /// Name of the entry under constraint (e.g. `gemm/256x256x256/packed`).
    pub lhs: String,
    /// Maximum allowed ratio of `lhs` to `rhs`.
    pub factor: f64,
    /// Name of the baseline entry.
    pub rhs: String,
}

/// The statistic threshold rules compare: the trimmed mean, which drops
/// the fastest and slowest fifth of the samples before averaging — the
/// steadiest of the emitted statistics on a noisy shared host.
pub const THRESHOLD_STAT: &str = "trimmed_mean_s";

/// Parses a committed threshold-rule file. Each non-comment line reads
///
/// ```text
/// <lhs-name> <= <factor> * <rhs-name>
/// ```
///
/// e.g. `gemm/256x256x256/packed <= 0.30 * gemm/256x256x256/reference`.
/// Blank lines and `#` comments (full-line or trailing) are ignored.
///
/// # Errors
///
/// Returns a message naming the first malformed line (1-based).
pub fn parse_threshold_rules(text: &str) -> Result<Vec<ThresholdRule>, String> {
    let mut rules = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = || format!("line {}: expected `<name> <= <factor> * <name>`, got `{raw}`", lineno + 1);
        let (lhs, rest) = line.split_once("<=").ok_or_else(err)?;
        let (factor, rhs) = rest.split_once('*').ok_or_else(err)?;
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        let factor: f64 = factor.trim().parse().map_err(|_| err())?;
        if lhs.is_empty() || rhs.is_empty() || !factor.is_finite() || factor <= 0.0 {
            return Err(err());
        }
        rules.push(ThresholdRule { lhs: lhs.to_string(), factor, rhs: rhs.to_string() });
    }
    Ok(rules)
}

/// Evaluates threshold rules against a parsed artifact set, given as
/// `(name, trimmed_mean_s)` pairs. Returns the number of rules actually
/// checked: a rule referencing entries absent from `stats` on **both**
/// sides is skipped (the artifact was produced at a different scale —
/// e.g. smoke shapes vs the committed full-scale rules), but a rule with
/// exactly one side present is an error, since that means the artifact
/// and the rule file drifted apart.
///
/// # Errors
///
/// Returns a message naming the first regressing entry — which entry,
/// its measured value, the bound it violated, and the baseline — or the
/// first half-matched rule.
pub fn check_thresholds(
    rules: &[ThresholdRule],
    stats: &[(String, f64)],
) -> Result<usize, String> {
    let lookup = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut checked = 0usize;
    for rule in rules {
        match (lookup(&rule.lhs), lookup(&rule.rhs)) {
            (None, None) => continue,
            (Some(_), None) => {
                return Err(format!(
                    "threshold rule references `{}` which is missing from the artifact \
                     (while `{}` is present) — rules and bench names drifted apart",
                    rule.rhs, rule.lhs
                ));
            }
            (None, Some(_)) => {
                return Err(format!(
                    "threshold rule references `{}` which is missing from the artifact \
                     (while `{}` is present) — rules and bench names drifted apart",
                    rule.lhs, rule.rhs
                ));
            }
            (Some(lhs), Some(rhs)) => {
                let bound = rule.factor * rhs;
                if lhs > bound {
                    return Err(format!(
                        "`{}` regressed: {} = {:.6}s exceeds {} × `{}` = {:.6}s \
                         (baseline {:.6}s, ratio {:.3})",
                        rule.lhs,
                        THRESHOLD_STAT,
                        lhs,
                        rule.factor,
                        rule.rhs,
                        bound,
                        rhs,
                        lhs / rhs
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// Extracts `(name, trimmed_mean_s)` pairs from a validated artifact for
/// [`check_thresholds`]. Call [`validate_bench_json`] first; this assumes
/// the shape it enforces.
pub fn threshold_stats(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse(text)?;
    let JsonValue::Arr(items) = doc else {
        return Err("top-level value must be an array of results".to_string());
    };
    let mut out = Vec::new();
    for item in &items {
        let name = item.get("name").and_then(JsonValue::as_str).unwrap_or_default();
        let stat = item.get(THRESHOLD_STAT).and_then(JsonValue::as_num);
        if let Some(stat) = stat {
            out.push((name.to_string(), stat));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"[{"name":"gemm/256x256x256/threads4","samples":15,
        "min_s":0.01,"median_s":0.012,"p95_s":0.013,"mean_s":0.0121,
        "trimmed_mean_s":0.0119,"max_s":0.02}]"#;

    #[test]
    fn accepts_a_well_formed_artifact() {
        assert_eq!(validate_bench_json(GOOD), Ok(1));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_number_forms() {
        let v = parse(r#"{"a":[1, -2.5e3, true, null, "q\"A\n"], "b":{}}"#).unwrap();
        let arr = match v.get("a") {
            Some(JsonValue::Arr(items)) => items.clone(),
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], JsonValue::Num(1.0));
        assert_eq!(arr[1], JsonValue::Num(-2500.0));
        assert_eq!(arr[2], JsonValue::Bool(true));
        assert_eq!(arr[3], JsonValue::Null);
        assert_eq!(arr[4], JsonValue::Str("q\"A\n".to_string()));
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn rejects_truncated_documents() {
        assert!(parse(r#"[{"name":"x""#).is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("[] []").is_err());
        assert!(parse("[]x").is_err());
    }

    #[test]
    fn rejects_missing_required_fields() {
        let err = validate_bench_json(
            r#"[{"name":"gemm/x","samples":5,"min_s":0.1,"median_s":0.1,"p95_s":0.1,"mean_s":0.1,"max_s":0.1}]"#,
        )
        .unwrap_err();
        assert!(err.contains("trimmed_mean_s"), "{err}");
    }

    #[test]
    fn threshold_rules_parse_with_comments_and_reject_garbage() {
        let rules = parse_threshold_rules(
            "# headline gate\n\
             gemm/256x256x256/packed <= 0.30 * gemm/256x256x256/reference\n\
             \n\
             a/b <= 1.5 * c/d # trailing note\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].lhs, "gemm/256x256x256/packed");
        assert_eq!(rules[0].factor, 0.30);
        assert_eq!(rules[0].rhs, "gemm/256x256x256/reference");

        assert!(parse_threshold_rules("a <= fast * b").is_err());
        assert!(parse_threshold_rules("a <= -1 * b").is_err());
        assert!(parse_threshold_rules("a 0.9 b").is_err());
        assert!(parse_threshold_rules("<= 0.9 * b").is_err());
    }

    #[test]
    fn threshold_check_passes_fails_and_names_the_regressor() {
        let rules = parse_threshold_rules("x/fast <= 0.9 * x/base").unwrap();
        let ok = vec![("x/fast".to_string(), 0.8), ("x/base".to_string(), 1.0)];
        assert_eq!(check_thresholds(&rules, &ok), Ok(1));

        let bad = vec![("x/fast".to_string(), 0.95), ("x/base".to_string(), 1.0)];
        let err = check_thresholds(&rules, &bad).unwrap_err();
        assert!(err.contains("`x/fast` regressed"), "{err}");
        assert!(err.contains("x/base"), "{err}");
    }

    #[test]
    fn threshold_check_skips_other_scales_but_rejects_half_matches() {
        let rules = parse_threshold_rules("full/t2 <= 0.9 * full/base").unwrap();
        // Smoke-scale artifact: neither side present → skipped, zero checked.
        let smoke = vec![("smoke/t2".to_string(), 1.0), ("smoke/base".to_string(), 1.0)];
        assert_eq!(check_thresholds(&rules, &smoke), Ok(0));
        // Exactly one side present → the names drifted; must fail loudly.
        let half = vec![("full/t2".to_string(), 1.0)];
        let err = check_thresholds(&rules, &half).unwrap_err();
        assert!(err.contains("drifted apart"), "{err}");
    }

    #[test]
    fn threshold_stats_extracts_the_trimmed_mean() {
        let stats = threshold_stats(GOOD).unwrap();
        assert_eq!(stats, vec![("gemm/256x256x256/threads4".to_string(), 0.0119)]);
    }

    #[test]
    fn rejects_wrong_field_types_and_empty_artifacts() {
        assert!(validate_bench_json(r#"[{"name":42}]"#).is_err());
        assert!(validate_bench_json("[]").is_err());
        assert!(validate_bench_json(r#"{"name":"not-an-array"}"#).is_err());
        let bad_samples = GOOD.replace("\"samples\":15", "\"samples\":0");
        assert!(validate_bench_json(&bad_samples).is_err());
    }

    #[test]
    fn real_runner_output_validates() {
        let r = crate::BenchResult::from_times("unit/real", vec![0.5, 0.25]);
        let json = duo_tensor::Json::Array(vec![duo_tensor::ToJson::to_json(&r)]);
        assert_eq!(validate_bench_json(&json.to_string()), Ok(1));
    }
}
