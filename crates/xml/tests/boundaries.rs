//! Buffer-boundary equivalence for the slice-scanning reader: any token
//! may straddle a `fill_buf()` refill, so generated documents must give
//! the same events, and the same error (variant and byte offset), through
//! `BufReader`s of every small capacity as from one in-memory slice.
//!
//! The documents come from all four generators with attributes, entities,
//! CDATA sections, comments and processing instructions spliced in; some
//! cases also corrupt one close-tag name or truncate the document, so the
//! error paths are compared too.

use foxq_gen::Dataset;
use foxq_xml::{forest_to_xml_string, XmlEvent, XmlReader};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};

const CAPACITIES: [usize; 5] = [1, 2, 3, 7, 4096];

/// Spliced just before the `>` of a start tag.
const ATTRIBUTES: &[&str] = &[
    r#" id="p&amp;1""#,
    " kind='x'",
    r#" empty="""#,
    r#" q = "&quot;&#65;&#x42;&apos;""#,
    " long-name.with:colon='é &gt; ü'",
];

/// Spliced just after the `>` of a start tag, where content may go.
const CONTENT: &[&str] = &[
    "&amp;",
    "&lt;tag&gt; &#233;&#x263A;",
    "<![CDATA[raw <b> & ]]]]>",
    "<![CDATA[]]>",
    "<!-- note > - note -->",
    "<?pi a > b ? c?>",
    " \n\t ",
];

/// Every event through `Eof`, or through the first error, rendered with
/// `{:?}` so that the variant and the offset are compared.
fn drain<R: BufRead>(mut reader: XmlReader<R>) -> (Vec<XmlEvent>, Option<String>) {
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(XmlEvent::Eof) => return (events, None),
            Ok(ev) => events.push(ev),
            Err(e) => return (events, Some(format!("{e:?}"))),
        }
    }
}

/// Offsets of the `>` ending each non-empty start tag, and of the first
/// name byte of each close tag. Generated text escapes `<`, so every `<`
/// starts markup.
fn tag_positions(xml: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let (mut start_ends, mut close_names) = (Vec::new(), Vec::new());
    let mut tag_start = None;
    for (i, &c) in xml.iter().enumerate() {
        match c {
            b'<' => tag_start = Some(i),
            b'>' => {
                if let Some(s) = tag_start.take() {
                    if xml[s + 1] == b'/' {
                        close_names.push(s + 2);
                    } else if xml[i - 1] != b'/' {
                        start_ends.push(i);
                    }
                }
            }
            _ => {}
        }
    }
    (start_ends, close_names)
}

/// A generated document with `splices` applied and, depending on `fault`,
/// one close-tag name corrupted or the tail cut off.
fn document(seed: u64, splices: &[u64], fault: u64) -> Vec<u8> {
    let dataset = Dataset::ALL[(seed % 4) as usize];
    let size = 1_000 + (seed >> 2) as usize % 12_000;
    let mut xml = forest_to_xml_string(&foxq_gen::generate(dataset, size, seed)).into_bytes();
    let (start_ends, _) = tag_positions(&xml);
    let mut edits: Vec<(usize, &str)> = splices
        .iter()
        .map(|&s| {
            let at = start_ends[(s >> 8) as usize % start_ends.len()];
            if s & 1 == 0 {
                (at, ATTRIBUTES[(s >> 1) as usize % ATTRIBUTES.len()])
            } else {
                (at + 1, CONTENT[(s >> 1) as usize % CONTENT.len()])
            }
        })
        .collect();
    // Apply back to front so earlier offsets stay valid.
    edits.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
    for (at, text) in edits {
        xml.splice(at..at, text.bytes());
    }
    match fault % 4 {
        0 => {
            let (_, close_names) = tag_positions(&xml);
            let at = close_names[(fault >> 2) as usize % close_names.len()];
            xml[at] = if xml[at] == b'Z' { b'Y' } else { b'Z' };
        }
        1 => {
            let at = (fault >> 2) as usize % xml.len();
            xml.truncate(at);
        }
        _ => {}
    }
    xml
}

proptest! {
    #[test]
    fn events_and_errors_do_not_depend_on_buffer_size(
        seed in any::<u64>(),
        splices in prop::collection::vec(any::<u64>(), 0..24),
        fault in any::<u64>(),
    ) {
        let xml = document(seed, &splices, fault);
        let whole = drain(XmlReader::new(&xml[..]));
        match fault % 4 {
            0 => prop_assert!(whole.1.as_deref().is_some_and(|e| e.starts_with("MismatchedClose"))),
            1 => {}
            _ => prop_assert!(whole.1.is_none(), "clean document failed: {:?}", whole.1),
        }
        for cap in CAPACITIES {
            let chunked = drain(XmlReader::new(BufReader::with_capacity(cap, &xml[..])));
            prop_assert_eq!(&chunked, &whole, "capacity {}", cap);
        }
    }
}
