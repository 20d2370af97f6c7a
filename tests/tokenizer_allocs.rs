//! Allocation guard for the XML tokenizer. Element names are interned per
//! reader, so element events allocate nothing and only text nodes cost one
//! `Arc<str>` each. Allocation counts are deterministic, so unlike a timing
//! guard this one catches a regression without any noise: before interning
//! the reader made 1.50 allocations per event on this document.

use foxq::gen::Dataset;
use foxq::obs::AllocScope;
use foxq::xml::{forest_to_xml_string, XmlEvent, XmlReader};

#[test]
fn xml_reader_makes_at_most_0_3_allocations_per_event() {
    let forest = foxq::gen::generate(Dataset::Xmark, 1 << 20, 0xA110C);
    let xml = forest_to_xml_string(&forest).into_bytes();
    drop(forest);

    let scope = AllocScope::begin();
    let mut reader = XmlReader::new(&xml[..]);
    while reader.next_event().unwrap() != XmlEvent::Eof {}
    let allocations = scope.delta().allocations;

    let events = reader.events_read();
    assert!(events > 100_000, "only {events} events");
    let per_event = allocations as f64 / events as f64;
    assert!(
        per_event <= 0.3,
        "{allocations} allocations over {events} events = {per_event:.3} per event (bound 0.3)"
    );
}
