//! Seeded inputs and their reference answers.
//!
//! Every document comes from `foxq_gen` under the workload seed; every
//! expected output comes from `foxq_xquery::eval_query`, the in-memory
//! reference evaluator, which shares no code with the transducer path
//! the benchmark measures.

use foxq_forest::{Forest, ForestStats};
use foxq_xml::forest_to_xml_string;
use std::path::{Path, PathBuf};

/// The benchmark's queries, copied from the paper's Fig. 3 and kept with
/// the benchmark so the workloads stay fixed.
pub const XMARK_QUERIES: [(&str, &str); 6] = [
    ("Q1", include_str!("../queries/query01.xq")),
    ("Q2", include_str!("../queries/query02.xq")),
    ("Q4", include_str!("../queries/query04.xq")),
    ("Q13", include_str!("../queries/query13.xq")),
    ("Q16", include_str!("../queries/query16.xq")),
    ("Q17", include_str!("../queries/query17.xq")),
];
pub const FOURSTAR: (&str, &str) = ("fourstar", include_str!("../queries/fourstar.xq"));
/// Index-eligible probe for the Medline store layer: `fourstar` matches
/// every element, so no query of that workload can take the index path.
pub const MEDLINE_TITLES: (&str, &str) = (
    "medline_titles",
    include_str!("../queries/medline_titles.xq"),
);

pub struct Query {
    pub name: &'static str,
    pub source: &'static str,
    pub path: PathBuf,
}

pub struct Doc {
    pub xml: Vec<u8>,
    pub path: PathBuf,
    /// Reference output per query, in query order.
    pub expected: Vec<Vec<u8>>,
}

pub struct Inputs {
    pub generator: &'static str,
    pub docs: Vec<Doc>,
    pub queries: Vec<Query>,
}

impl Inputs {
    pub fn total_xml_bytes(&self) -> u64 {
        self.docs.iter().map(|d| d.xml.len() as u64).sum()
    }
}

/// A document of close to `target` XML bytes from a `foxq_gen` sizing
/// generator. Those size a document from a probe of a few records, so it
/// misses the target by several percent, by how much depending on the
/// seed; generating once more at the target scaled by that miss lands
/// within about 1% of it, so the per-run times of different seeds compare.
pub fn sized(generate: impl Fn(usize, u64) -> Forest, target: usize, seed: u64) -> Forest {
    let first = ForestStats::of_forest(&generate(target, seed)).xml_bytes;
    generate(
        (target as f64 * target as f64 / first.max(1) as f64) as usize,
        seed,
    )
}

/// A sub-seed for the `i`-th document of a seeded pool.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Generate `count` documents with `generate(seed)`, write each (and the
/// queries) into `dir`, and compute every reference answer.
pub fn build(
    dir: &Path,
    generator: &'static str,
    generate: impl Fn(u64) -> Forest,
    seed: u64,
    count: u64,
    queries: &[(&'static str, &'static str)],
) -> Result<Inputs, String> {
    let parsed: Vec<foxq_xquery::Query> = queries
        .iter()
        .map(|(name, src)| foxq_xquery::parse_query(src).map_err(|e| format!("{name}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut queries_out = Vec::new();
    for (name, source) in queries {
        let path = dir.join(format!("{name}.xq"));
        std::fs::write(&path, source).map_err(|e| format!("{}: {e}", path.display()))?;
        queries_out.push(Query { name, source, path });
    }
    let mut docs = Vec::new();
    for i in 0..count {
        let doc_seed = if count == 1 { seed } else { sub_seed(seed, i) };
        let forest = generate(doc_seed);
        let xml = forest_to_xml_string(&forest).into_bytes();
        let path = dir.join(format!("doc{i}.xml"));
        std::fs::write(&path, &xml).map_err(|e| format!("{}: {e}", path.display()))?;
        let expected = parsed
            .iter()
            .zip(queries)
            .map(|(q, (name, _))| {
                foxq_xquery::eval_query(q, &forest)
                    .map(|out| forest_to_xml_string(&out).into_bytes())
                    .map_err(|e| format!("reference evaluation of {name}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        docs.push(Doc {
            xml,
            path,
            expected,
        });
    }
    Ok(Inputs {
        generator,
        docs,
        queries: queries_out,
    })
}

/// Whether an operation's output equals its reference answer. `foxq run`
/// ends its output with one newline; the HTTP body does not.
pub fn output_matches(got: &[u8], expected: &[u8]) -> bool {
    got.strip_suffix(b"\n").unwrap_or(got) == expected
}

/// Prove on a real output that the check can fail: against a corrupted
/// copy of its expectation, the output must be reported as a mismatch.
pub fn self_check(got: &[u8], expected: &[u8]) -> Result<(), String> {
    let mut corrupted = expected.to_vec();
    match corrupted.last_mut() {
        Some(b) => *b ^= 0x20,
        None => corrupted.push(b'x'),
    }
    if output_matches(got, &corrupted) {
        return Err("self-check: an output passed against a corrupted expectation".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_expectation_is_a_failure() {
        assert!(self_check(b"<out><name>x</name></out>\n", b"<out><name>x</name></out>").is_ok());
        assert!(self_check(b"\n", b"").is_ok());
        // A check that passed everything would be caught.
        assert!(self_check(b"<out/>", b"<out/>\n").is_ok());
        assert!(!output_matches(b"<out>a</out>\n", b"<out>b</out>"));
        assert!(!output_matches(b"<out>a</out>\n", b"<out>a</out>\n"));
        assert!(output_matches(b"<out>a</out>", b"<out>a</out>"));
    }

    #[test]
    fn sized_documents_hit_their_target() {
        let target = 1 << 20;
        for seed in 1..=4 {
            for (name, generate) in [
                ("xmark", foxq_gen::xmark_bytes as fn(usize, u64) -> Forest),
                ("medline", foxq_gen::medline_bytes),
            ] {
                let got = forest_to_xml_string(&sized(generate, target, seed)).len();
                let miss = got as f64 / target as f64 - 1.0;
                assert!(miss.abs() < 0.01, "{name} seed {seed}: {got} bytes");
            }
        }
    }

    #[test]
    fn reference_answers_cover_every_query() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inputs = build(
            &dir,
            "xmark_bytes",
            |s| foxq_gen::xmark_bytes(4096, s),
            3,
            2,
            &XMARK_QUERIES,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(inputs.docs.len(), 2);
        assert_ne!(inputs.docs[0].xml, inputs.docs[1].xml);
        assert!(inputs.docs.iter().all(|d| d.expected.len() == 6));
    }
}
