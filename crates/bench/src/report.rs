//! Plain-text table/series printing and JSON result capture.
//!
//! The JSON emitter is hand-rolled: the result shape is a flat
//! label/number table, which does not justify a serialization dependency.

use cable_telemetry::json;
use std::fs;
use std::path::Path;

/// Geometric mean of positive values (how per-benchmark ratios are usually
/// averaged); returns 1.0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; returns 0.0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints an aligned table: one row label plus one value per column.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(10))
        .max()
        .unwrap_or(10);
    print!("{:label_w$}", "");
    for c in columns {
        print!(" {c:>10}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:label_w$}");
        for v in values {
            print!(" {v:>10.2}");
        }
        println!();
    }
}

/// Prints an x/y series (one line per point).
pub fn print_series(title: &str, x_label: &str, series: &[(String, Vec<(f64, f64)>)]) {
    println!("\n== {title} ==");
    for (name, points) in series {
        println!("-- {name} --");
        for (x, y) in points {
            println!("  {x_label} {x:>12.4} -> {y:>10.3}");
        }
    }
}

/// A figure result destined for `results/*.json`.
pub struct FigureResult<'a> {
    /// Figure/table identifier (e.g. `"fig12"`).
    pub id: &'a str,
    /// Human-readable description.
    pub title: &'a str,
    /// Column labels.
    pub columns: Vec<String>,
    /// Row label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl FigureResult<'_> {
    /// Serializes the result as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cols = self
            .columns
            .iter()
            .map(|c| format!("\"{}\"", json::escape(c)))
            .collect::<Vec<_>>()
            .join(", ");
        let rows = self
            .rows
            .iter()
            .map(|(label, values)| {
                let vals = values
                    .iter()
                    .map(|v| {
                        if v.is_finite() {
                            format!("{v}")
                        } else {
                            "null".to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "    {{\"label\": \"{}\", \"values\": [{vals}]}}",
                    json::escape(label)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"columns\": [{cols}],\n  \"rows\": [\n{rows}\n  ]\n}}\n",
            json::escape(self.id),
            json::escape(self.title)
        )
    }
}

/// A parsed figure result loaded back from `results/*.json`.
pub struct LoadedFigure {
    /// Figure identifier.
    pub id: String,
    /// Title.
    pub title: String,
    /// Column labels.
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl LoadedFigure {
    /// Returns the value at (`row_label`, `column_label`), if present.
    #[must_use]
    pub fn value(&self, row_label: &str, column_label: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column_label)?;
        let row = self.rows.iter().find(|(l, _)| l == row_label)?;
        row.1.get(col).copied()
    }
}

/// Parses the restricted JSON emitted by [`save_json`] (this module's own
/// format — not a general JSON parser). Strings are decoded in one
/// left-to-right pass, so every label the emitter escapes reads back
/// unchanged.
///
/// # Errors
///
/// Returns a description of the first structural mismatch, or of the
/// first value that is neither a number nor `null`.
pub fn load_json(text: &str) -> Result<LoadedFigure, String> {
    fn string_after(text: &str, key: &str) -> Result<String, String> {
        let pat = format!("\"{key}\": \"");
        let start = text
            .find(&pat)
            .ok_or_else(|| format!("missing key {key}"))?
            + pat.len();
        let (s, _) = read_string(&text[start..]).map_err(|e| format!("{key}: {e}"))?;
        Ok(s)
    }
    let id = string_after(text, "id")?;
    let title = string_after(text, "title")?;
    // Columns array.
    const COLS_PAT: &str = "\"columns\": [";
    let cstart = text.find(COLS_PAT).ok_or("missing columns")? + COLS_PAT.len();
    let mut rest = &text[cstart..];
    let mut columns = Vec::new();
    while let Some(body) = rest.trim_start_matches([',', ' ']).strip_prefix('"') {
        let (column, after) = read_string(body).map_err(|e| format!("column: {e}"))?;
        columns.push(column);
        rest = after;
    }
    rest = rest
        .trim_start_matches(' ')
        .strip_prefix(']')
        .ok_or("unterminated columns")?;
    // Rows.
    let mut rows = Vec::new();
    const LABEL_PAT: &str = "{\"label\": \"";
    const VALUES_PAT: &str = "\"values\": [";
    while let Some(pos) = rest.find(LABEL_PAT) {
        let (label, after) =
            read_string(&rest[pos + LABEL_PAT.len()..]).map_err(|e| format!("row label: {e}"))?;
        rest = after;
        let vstart = rest.find(VALUES_PAT).ok_or("missing values")? + VALUES_PAT.len();
        let vend = rest[vstart..].find(']').ok_or("unterminated values")? + vstart;
        let body = rest[vstart..vend].trim();
        let values = if body.is_empty() {
            Vec::new()
        } else {
            body.split(',')
                .map(read_number)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("row {label:?}: {e}"))?
        };
        rows.push((label, values));
        rest = &rest[vend..];
    }
    Ok(LoadedFigure {
        id,
        title,
        columns,
        rows,
    })
}

/// Reads one array element: a JSON number, or `null` (which the emitter
/// writes for a non-finite value) as NaN.
fn read_number(text: &str) -> Result<f64, String> {
    let text = text.trim();
    if text == "null" {
        return Ok(f64::NAN);
    }
    json::validate_json(text)
        .ok()
        .and_then(|()| text.parse().ok())
        .ok_or_else(|| format!("not a number: {text:?}"))
}

/// Decodes the string literal whose body (the text after its opening
/// quote) starts `body`, returning it and the text after its closing quote.
fn read_string(body: &str) -> Result<(String, &str), String> {
    let (s, end) = json::decode_string(body, 0)?;
    Ok((s.into_owned(), &body[end..]))
}

/// Writes a figure result as JSON under `results/` (best effort: printing
/// is the primary output; IO errors are reported, not fatal).
pub fn save_json(result: &FigureResult<'_>) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{}.json", result.id));
    if let Err(e) = fs::write(&path, result.to_json()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn printing_does_not_panic() {
        print_table(
            "smoke",
            &["A".into(), "B".into()],
            &[("row".into(), vec![1.0, 2.0])],
        );
        print_series("smoke", "x", &[("s".into(), vec![(1.0, 2.0)])]);
    }

    #[test]
    fn json_round_trips_through_loader() {
        let r = FigureResult {
            id: "figXX",
            title: "a title",
            columns: vec!["A".into(), "B".into()],
            rows: vec![
                ("mcf".into(), vec![1.5, 2.5]),
                ("MEAN".into(), vec![3.0, 4.0]),
            ],
        };
        let loaded = load_json(&r.to_json()).unwrap();
        assert_eq!(loaded.id, "figXX");
        assert_eq!(loaded.columns, vec!["A", "B"]);
        assert_eq!(loaded.value("mcf", "B"), Some(2.5));
        assert_eq!(loaded.value("MEAN", "A"), Some(3.0));
        assert_eq!(loaded.value("nope", "A"), None);
    }

    #[test]
    fn json_output_is_wellformed() {
        let r = FigureResult {
            id: "fig00",
            title: "title with \"quotes\"",
            columns: vec!["A".into()],
            rows: vec![
                ("mcf".into(), vec![1.5]),
                ("bad\nrow".into(), vec![f64::NAN]),
            ],
        };
        let json = r.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("null"));
        assert!(json.contains("\"values\": [1.5]"));
        let loaded = load_json(&json).unwrap();
        assert!(loaded.value("bad\nrow", "A").unwrap().is_nan());
    }

    #[test]
    fn loader_rejects_values_that_are_not_numbers() {
        let good = FigureResult {
            id: "fig00",
            title: "t",
            columns: vec!["A".into(), "B".into()],
            rows: vec![("mcf".into(), vec![1.5, 2.5])],
        }
        .to_json();
        assert!(load_json(&good).is_ok());
        for bad in [
            "1.5, oops",
            "1.5, NaN",
            "1.5, inf",
            "1.5, \"2\"",
            "1.5, true",
            "1.5,",
            "+1.5, 2",
        ] {
            let text = good.replace("1.5, 2.5", bad);
            assert!(load_json(&text).is_err(), "accepted [{bad}]");
        }
    }

    #[test]
    fn escaped_labels_round_trip_through_loader() {
        let labels = ["a\\nb", "tab\there", "bell\u{7}", "quote \" / slash \\"];
        let r = FigureResult {
            id: "fig\\00",
            title: "\"quoted\"\r\n",
            columns: labels.iter().map(|l| (*l).to_string()).collect(),
            rows: labels
                .iter()
                .map(|l| ((*l).to_string(), vec![1.0, 2.0]))
                .collect(),
        };
        let json = r.to_json();
        json::validate_json(&json).expect("emitted JSON is well-formed");
        let loaded = load_json(&json).unwrap();
        assert_eq!(loaded.id, r.id);
        assert_eq!(loaded.title, r.title);
        assert_eq!(loaded.columns, labels);
        assert_eq!(loaded.rows, r.rows);
    }
}
