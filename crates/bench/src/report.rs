//! Plain-text table/series printing and JSON result capture.
//!
//! The JSON emitter is hand-rolled: the result shape is a flat
//! label/number table, which does not justify a serialization dependency.

use cable_telemetry::json::{self, Value};
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

/// Reads back a figure result written by [`save_json`]: an object with
/// string `id` and `title`, an array of string `columns`, and an array
/// of `rows`, each a `{label, values}` object whose values are numbers
/// or `null` (the emitter's spelling of a non-finite value, read as NaN).
///
/// # Errors
///
/// Returns the JSON syntax error, or names the first field that is
/// missing or has the wrong type.
pub fn load_json(text: &str) -> Result<LoadedFigure, String> {
    fn string(v: Option<&Value<'_>>, what: &str) -> Result<String, String> {
        v.and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{what} is not a string"))
    }
    fn array<'v, 'a>(v: Option<&'v Value<'a>>, what: &str) -> Result<&'v [Value<'a>], String> {
        match v {
            Some(Value::Arr(items)) => Ok(items),
            _ => Err(format!("{what} is not an array")),
        }
    }
    fn number(v: &Value<'_>) -> Result<f64, String> {
        match v {
            Value::Int(n) => Ok(*n as f64),
            Value::Float(f) => Ok(*f),
            Value::Null => Ok(f64::NAN),
            other => Err(format!("not a number: {other:?}")),
        }
    }
    let root = json::parse(text)?;
    let columns = array(root.get("columns"), "columns")?
        .iter()
        .map(|c| string(Some(c), "column"))
        .collect::<Result<_, _>>()?;
    let rows = array(root.get("rows"), "rows")?
        .iter()
        .map(|row| {
            let label = string(row.get("label"), "row label")?;
            let values = array(row.get("values"), "values")?
                .iter()
                .map(number)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("row {label:?}: {e}"))?;
            Ok((label, values))
        })
        .collect::<Result<_, String>>()?;
    Ok(LoadedFigure {
        id: string(root.get("id"), "id")?,
        title: string(root.get("title"), "title")?,
        columns,
        rows,
    })
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
    use proptest::prelude::*;

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
    fn loader_rejects_text_that_is_not_a_figure() {
        let good = FigureResult {
            id: "fig00",
            title: "t",
            columns: vec!["A".into(), "B".into()],
            rows: vec![("mcf".into(), vec![1.5, 2.5])],
        }
        .to_json();
        let deep = good.replace("1.5, 2.5", &"[".repeat(200_000));
        let err = load_json(&deep).err().expect("deep values array accepted");
        assert!(err.contains("nesting deeper than"), "{err}");
        for bad in [
            "junk \"id\": \"x\" \"title\": \"t\" \"columns\": [\"a\"]".to_string(),
            format!("{good} trailing"),
            "{\"id\": \"x\", \"title\": \"t\", \"columns\": [\"a\"]} trailing".to_string(),
            "{\"id\": \"x\", \"title\": \"t\", \"columns\": [\"a\"]}".to_string(),
            good.replace("\"columns\": [\"A\", \"B\"]", "\"columns\": [\"A\", 2]"),
            good.replace("\"label\": \"mcf\"", "\"label\": 7"),
        ] {
            assert!(load_json(&bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Bytes a JSON text is made of: punctuation, digits, exponent and
    /// sign marks, the letters of the literals, and the escape lead.
    const JSON_ALPHABET: &[u8] = b"{}[]\",:-.0123456789eE tfnul\\";

    proptest! {
        #[test]
        fn loader_returns_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..256)
        ) {
            let _ = load_json(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn loader_returns_on_json_like_text(
            picks in proptest::collection::vec(0..JSON_ALPHABET.len(), 0..64)
        ) {
            let text: String = picks.iter().map(|&i| char::from(JSON_ALPHABET[i])).collect();
            let _ = load_json(&text);
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
        json::parse(&json).expect("emitted JSON is well-formed");
        let loaded = load_json(&json).unwrap();
        assert_eq!(loaded.id, r.id);
        assert_eq!(loaded.title, r.title);
        assert_eq!(loaded.columns, labels);
        assert_eq!(loaded.rows, r.rows);
    }
}
