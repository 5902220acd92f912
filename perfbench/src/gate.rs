//! The correctness gate: every simulated output a pass produces is
//! compared exactly against a reference recorded from the same cells.
//!
//! A reference is a text file, one cell per line:
//! `<cell-id> <field>=<u64> <field>=<u64> ...`. Floating-point outputs
//! (checksums, simulated seconds) are stored as their IEEE-754 bit
//! patterns, so equality is bit-exact. Lines starting with `#` are
//! comments.

use std::collections::BTreeMap;

use lpomp_prof::{Counters, Event};

/// The pinned outputs of one cell, in a fixed order.
pub type Fields = Vec<(String, u64)>;

/// Fields of a simulated run: its cycles, checksum and every counter
/// event (zeros included, so a counter that starts firing is caught).
pub fn sim_fields(cycles: u64, checksum: f64, counters: &Counters) -> Fields {
    let mut f = vec![
        ("critical_cycles".to_owned(), cycles),
        ("checksum".to_owned(), checksum.to_bits()),
    ];
    f.extend(
        Event::ALL
            .iter()
            .map(|&e| (e.mnemonic().to_owned(), counters.get(e))),
    );
    f
}

/// Prefix every field name with `tag.` (cells with several runs).
pub fn tagged(tag: &str, fields: Fields) -> Fields {
    fields
        .into_iter()
        .map(|(k, v)| (format!("{tag}.{k}"), v))
        .collect()
}

/// 64-bit FNV-1a, used to pin large outputs (a profile's JSON) by value.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded outputs, keyed by cell id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    entries: BTreeMap<String, Fields>,
}

impl Reference {
    pub fn parse(src: &str) -> Result<Reference, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let id = words.next().expect("non-empty line has a first word");
            let fields = words
                .map(|w| {
                    let (k, v) = w
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: `{w}` is not field=value", n + 1))?;
                    let v = v
                        .parse::<u64>()
                        .map_err(|e| format!("line {}: `{w}`: {e}", n + 1))?;
                    Ok((k.to_owned(), v))
                })
                .collect::<Result<Fields, String>>()?;
            if entries.insert(id.to_owned(), fields).is_some() {
                return Err(format!("line {}: duplicate cell `{id}`", n + 1));
            }
        }
        Ok(Reference { entries })
    }

    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for h in header.lines() {
            out.push_str("# ");
            out.push_str(h);
            out.push('\n');
        }
        for (id, fields) in &self.entries {
            out.push_str(id);
            for (k, v) in fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    pub fn insert(&mut self, id: &str, fields: Fields) {
        self.entries.insert(id.to_owned(), fields);
    }

    pub fn get(&self, id: &str) -> Option<&Fields> {
        self.entries.get(id)
    }

    /// A recorded field of a cell.
    pub fn field(&self, id: &str, key: &str) -> Option<u64> {
        self.get(id)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compare a cell's outputs with its reference; the error names the
    /// first few fields that differ.
    pub fn check(&self, id: &str, got: &Fields) -> Result<(), String> {
        let want = self
            .get(id)
            .ok_or_else(|| format!("no reference recorded for {id}"))?;
        if want == got {
            return Ok(());
        }
        let want_map: BTreeMap<&str, u64> = want.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let got_map: BTreeMap<&str, u64> = got.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut diffs = Vec::new();
        for k in want_map
            .keys()
            .chain(got_map.keys().filter(|k| !want_map.contains_key(*k)))
        {
            let (w, g) = (want_map.get(k), got_map.get(k));
            if w != g {
                let show = |v: Option<&u64>| v.map_or("absent".to_owned(), u64::to_string);
                diffs.push(format!("{k}: want {} got {}", show(w), show(g)));
            }
        }
        let more = diffs.len().saturating_sub(4);
        diffs.truncate(4);
        let tail = if more > 0 {
            format!(" (+{more} more)")
        } else {
            String::new()
        };
        Err(format!(
            "{id} differs from its reference: {}{tail}",
            diffs.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut r = Reference::default();
        r.insert("a/b", vec![("x".into(), 1), ("y".into(), u64::MAX)]);
        r.insert("c", sim_fields(7, 0.5, &Counters::new()));
        let back = Reference::parse(&r.render("header\nline two")).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.field("a/b", "y"), Some(u64::MAX));
    }

    #[test]
    fn check_names_differing_fields() {
        let mut r = Reference::default();
        r.insert("a", vec![("x".into(), 1), ("y".into(), 2)]);
        assert!(r
            .check("a", &vec![("x".into(), 1), ("y".into(), 2)])
            .is_ok());
        let e = r
            .check("a", &vec![("x".into(), 1), ("y".into(), 3)])
            .unwrap_err();
        assert!(e.contains("y: want 2 got 3"), "{e}");
        assert!(r
            .check("b", &Vec::new())
            .unwrap_err()
            .contains("no reference"));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Reference::parse("a x=1\na y=2").is_err());
        assert!(Reference::parse("a x").is_err());
        assert!(Reference::parse("a x=-1").is_err());
    }
}
