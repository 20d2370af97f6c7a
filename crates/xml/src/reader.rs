//! Pull-based streaming XML parser.
//!
//! Scope: well-formed XML 1.0 documents restricted to what the paper's data
//! uses — elements, attributes, character data, CDATA sections, comments,
//! processing instructions and a DOCTYPE prolog (the latter three are
//! skipped). Namespaces are passed through verbatim as part of names.
//! Predefined and numeric character entities are decoded.
//!
//! Attributes are *expanded into leading element children* so that the
//! downstream transducers see the paper's attribute-free encoding.
//!
//! **Scanning.** The reader works on the slices its `BufRead` hands out:
//! a name, a run of character data or a skipped construct is found with
//! one pass over the current `fill_buf()` window and released with one
//! `consume(n)`; a token that straddles a refill continues in the next
//! window. Character data is gathered, entities decoded in place, into one
//! scratch buffer kept across nodes, and each text label costs a single
//! `Arc<str>` allocation.
//!
//! **Interning.** Element and attribute names are scanned into a reused
//! buffer and looked up by their bytes in a per-reader table, so a
//! repeated name hands back a clone of an existing [`Label`] — a refcount
//! bump, no allocation — and its UTF-8 is checked only the first time it
//! is seen. Closing tags are matched by comparing bytes with the innermost
//! open label. The table holds at most 1,024 names and 64 KiB of name
//! bytes; past that cap a new name gets a fresh label each time it occurs,
//! so a document with unboundedly many distinct names cannot grow the
//! table without bound.

use crate::error::XmlError;
use crate::event::{EventSource, XmlEvent};
use foxq_forest::Label;
use std::collections::{HashMap, VecDeque};
use std::io::BufRead;

/// Cap on the number of interned names per reader.
const MAX_INTERNED_NAMES: usize = 1024;
/// Cap on the total bytes of interned names per reader.
const MAX_INTERNED_BYTES: usize = 64 * 1024;

/// How to treat text nodes that consist only of whitespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WhitespaceMode {
    /// Drop text nodes that are entirely ASCII whitespace (the usual choice
    /// for data-oriented XML such as XMark; this is the default).
    #[default]
    SkipWhitespaceOnly,
    /// Keep all text nodes exactly as written.
    Preserve,
    /// Trim leading/trailing ASCII whitespace; drop the node if it becomes
    /// empty.
    Trim,
}

/// A pull parser over any `BufRead`, producing [`XmlEvent`]s.
pub struct XmlReader<R> {
    input: Input<R>,
    /// Events synthesized but not yet returned (attribute expansion,
    /// self-closing tags).
    queue: VecDeque<XmlEvent>,
    /// Names of currently open elements.
    stack: Vec<Label>,
    ws: WhitespaceMode,
    /// Open/close events returned so far (Eof excluded). Lets callers prove
    /// single-pass properties: fanning one reader out to N engines must not
    /// move this counter faster than N = 1 would.
    events_read: u64,
    /// Set once Eof has been returned.
    finished: bool,
    /// Character data of the text node or attribute value being read,
    /// reused across nodes.
    scratch: Vec<u8>,
    /// Bytes of the name being read, reused across tags.
    name: Vec<u8>,
    names: NameTable,
}

impl<R: BufRead> XmlReader<R> {
    pub fn new(input: R) -> Self {
        Self::with_mode(input, WhitespaceMode::default())
    }

    pub fn with_mode(input: R, ws: WhitespaceMode) -> Self {
        XmlReader {
            input: Input {
                inner: input,
                offset: 0,
            },
            queue: VecDeque::new(),
            stack: Vec::new(),
            ws,
            events_read: 0,
            finished: false,
            scratch: Vec::new(),
            name: Vec::new(),
            names: NameTable::default(),
        }
    }

    /// Current depth of open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Open/close events returned so far (`Eof` excluded).
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Pull the next event. After `Eof` has been returned, keeps returning
    /// `Eof`.
    pub fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        let ev = self.pull_event()?;
        if ev != XmlEvent::Eof {
            self.events_read += 1;
        }
        Ok(ev)
    }

    fn pull_event(&mut self) -> Result<XmlEvent, XmlError> {
        if let Some(ev) = self.queue.pop_front() {
            return Ok(ev);
        }
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        loop {
            match self.input.peek()? {
                None => {
                    if !self.stack.is_empty() {
                        return Err(self.eof_error());
                    }
                    self.finished = true;
                    return Ok(XmlEvent::Eof);
                }
                Some(b'<') => {
                    self.input.consume(1);
                    if let Some(ev) = self.markup()? {
                        return Ok(ev);
                    }
                    // Comment / PI / DOCTYPE: keep scanning.
                    if let Some(ev) = self.queue.pop_front() {
                        return Ok(ev);
                    }
                }
                Some(_) => {
                    if let Some(ev) = self.text()? {
                        return Ok(ev);
                    }
                    // Whitespace-only text dropped: keep scanning.
                }
            }
        }
    }

    // ---- byte-level helpers -------------------------------------------

    fn eof_error(&self) -> XmlError {
        XmlError::UnexpectedEof {
            offset: self.input.offset,
            open_elements: self.stack.len(),
        }
    }

    fn peek_byte(&mut self) -> Result<u8, XmlError> {
        match self.input.peek()? {
            Some(b) => Ok(b),
            None => Err(self.eof_error()),
        }
    }

    fn expect_byte(&mut self) -> Result<u8, XmlError> {
        let b = self.peek_byte()?;
        self.input.consume(1);
        Ok(b)
    }

    fn skip_ws(&mut self) -> Result<(), XmlError> {
        while matches!(self.input.peek()?, Some(c) if c.is_ascii_whitespace()) {
            self.input.consume(1);
        }
        Ok(())
    }

    fn syntax<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError::Syntax {
            offset: self.input.offset,
            msg: msg.into(),
        })
    }

    fn utf8_error(&self) -> XmlError {
        XmlError::Utf8 {
            offset: self.input.offset,
        }
    }

    // ---- markup --------------------------------------------------------

    /// Called after consuming `<`. Returns an event for tags, `None` for
    /// skipped constructs (with possible queued events).
    fn markup(&mut self) -> Result<Option<XmlEvent>, XmlError> {
        let c = self.peek_byte()?;
        if is_name_start(c) {
            return self.open_tag().map(Some);
        }
        self.input.consume(1);
        match c {
            b'/' => self.close_tag().map(Some),
            b'!' => {
                self.bang()?;
                Ok(None)
            }
            b'?' => {
                self.skip_until(b"?>")?;
                Ok(None)
            }
            c => self.syntax(format!("unexpected character {:?} after '<'", c as char)),
        }
    }

    /// Scan the name that starts at the next byte into `self.name`.
    fn scan_name(&mut self) -> Result<(), XmlError> {
        self.name.clear();
        self.input.scan_into(&mut self.name, is_name_cont)?;
        Ok(())
    }

    /// Scan a name and return its (interned) element label.
    fn read_name(&mut self) -> Result<Label, XmlError> {
        self.scan_name()?;
        match self.names.label(&self.name) {
            Some(label) => Ok(label),
            None => Err(self.utf8_error()),
        }
    }

    /// `<name attr="v"…>` or `<name …/>`; the `<` is already consumed and
    /// the next byte starts the name.
    fn open_tag(&mut self) -> Result<XmlEvent, XmlError> {
        let label = self.read_name()?;
        loop {
            self.skip_ws()?;
            match self.peek_byte()? {
                b'>' => {
                    self.input.consume(1);
                    self.stack.push(label.clone());
                    break;
                }
                b'/' => {
                    self.input.consume(1);
                    if self.expect_byte()? != b'>' {
                        return self.syntax("expected '>' after '/'");
                    }
                    self.queue.push_back(XmlEvent::Close(label.clone()));
                    break;
                }
                c if is_name_start(c) => self.attribute()?,
                c => {
                    self.input.consume(1);
                    return self.syntax(format!("unexpected {:?} in start tag", c as char));
                }
            }
        }
        Ok(XmlEvent::Open(label))
    }

    /// `name="value"` inside a start tag, queued as the child
    /// `name("value")` (no text child when the value is empty).
    fn attribute(&mut self) -> Result<(), XmlError> {
        let label = self.read_name()?;
        self.skip_ws()?;
        if self.expect_byte()? != b'=' {
            return self.syntax("expected '=' in attribute");
        }
        self.skip_ws()?;
        let quote = self.expect_byte()?;
        if quote != b'"' && quote != b'\'' {
            return self.syntax("expected quoted attribute value");
        }
        if !self.char_data(quote)? {
            return Err(self.eof_error());
        }
        self.input.consume(1);
        let value = std::str::from_utf8(&self.scratch).map_err(|_| self.utf8_error())?;
        self.queue.push_back(XmlEvent::Open(label.clone()));
        if !value.is_empty() {
            let text = Label::text(value);
            self.queue.push_back(XmlEvent::Open(text.clone()));
            self.queue.push_back(XmlEvent::Close(text));
        }
        self.queue.push_back(XmlEvent::Close(label));
        Ok(())
    }

    /// `</name>`; `</` already consumed.
    fn close_tag(&mut self) -> Result<XmlEvent, XmlError> {
        let first = self.peek_byte()?;
        if !is_name_start(first) {
            self.input.consume(1);
            return self.syntax("expected element name in closing tag");
        }
        self.scan_name()?;
        // A name equal to an open label's is valid UTF-8; anything else is
        // checked here, so the error sits right after the name.
        let matched = matches!(self.stack.last(), Some(open) if open.name.as_bytes() == self.name);
        if !matched && std::str::from_utf8(&self.name).is_err() {
            return Err(self.utf8_error());
        }
        self.skip_ws()?;
        if self.expect_byte()? != b'>' {
            return self.syntax("expected '>' in closing tag");
        }
        match self.stack.pop() {
            Some(label) if matched => Ok(XmlEvent::Close(label)),
            open => Err(XmlError::MismatchedClose {
                offset: self.input.offset,
                expected: open.map_or_else(|| "(document end)".into(), |l| l.name.to_string()),
                found: String::from_utf8_lossy(&self.name).into_owned(),
            }),
        }
    }

    /// `<!…`: comment, CDATA or DOCTYPE. CDATA is treated as text.
    fn bang(&mut self) -> Result<(), XmlError> {
        match self.expect_byte()? {
            b'-' => {
                if self.expect_byte()? != b'-' {
                    return self.syntax("malformed comment");
                }
                self.skip_until(b"-->")
            }
            b'[' => self.cdata(),
            b'D' => self.skip_doctype(),
            _ => self.syntax("unsupported '<!' construct"),
        }
    }

    /// `<![CDATA[ … ]]>` after its `<![` — queues a text node (no entity
    /// decoding, no whitespace mode).
    fn cdata(&mut self) -> Result<(), XmlError> {
        for &expected in b"CDATA[" {
            if self.expect_byte()? != expected {
                return self.syntax("malformed CDATA section");
            }
        }
        self.scratch.clear();
        loop {
            if self
                .input
                .scan_into(&mut self.scratch, |c| c != b'>')?
                .is_none()
            {
                return Err(self.eof_error());
            }
            self.input.consume(1);
            if self.scratch.ends_with(b"]]") {
                self.scratch.truncate(self.scratch.len() - 2);
                break;
            }
            self.scratch.push(b'>');
        }
        let content = std::str::from_utf8(&self.scratch).map_err(|_| self.utf8_error())?;
        if !content.is_empty() {
            let label = Label::text(content);
            self.queue.push_back(XmlEvent::Open(label.clone()));
            self.queue.push_back(XmlEvent::Close(label));
        }
        Ok(())
    }

    /// Skip a DOCTYPE declaration, tolerating an internal subset. Angle
    /// brackets are counted only outside quoted literals, comments and
    /// processing instructions, which may contain them freely.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        enum State {
            Markup,
            Quoted(u8),
            Skipped(&'static [u8], usize),
        }
        let mut state = State::Markup;
        let mut depth = 1usize; // the '<' of <!DOCTYPE
        let mut opener = 0usize; // bytes of "<!--" (or "<?") just seen
        let found = self.input.skip_through(|c| {
            match state {
                State::Quoted(q) => {
                    if c == q {
                        state = State::Markup;
                    }
                }
                State::Skipped(terminator, matched) => {
                    let matched = advance_match(terminator, matched, c);
                    state = if matched == terminator.len() {
                        State::Markup
                    } else {
                        State::Skipped(terminator, matched)
                    };
                }
                State::Markup => {
                    let skipped = match (opener, c) {
                        (1, b'!') | (2, b'-') => {
                            opener += 1;
                            return false;
                        }
                        (1, b'?') => Some(&b"?>"[..]),
                        (3, b'-') => Some(&b"-->"[..]),
                        _ => None,
                    };
                    opener = 0;
                    if let Some(terminator) = skipped {
                        // The '<' opened a comment or PI, not a declaration.
                        depth -= 1;
                        state = State::Skipped(terminator, 0);
                        return false;
                    }
                    match c {
                        b'"' | b'\'' => state = State::Quoted(c),
                        b'<' => {
                            depth += 1;
                            opener = 1;
                        }
                        b'>' => {
                            depth -= 1;
                            return depth == 0;
                        }
                        _ => {}
                    }
                }
            }
            false
        })?;
        if found {
            Ok(())
        } else {
            Err(self.eof_error())
        }
    }

    /// Skip through the first occurrence of `terminator`.
    fn skip_until(&mut self, terminator: &'static [u8]) -> Result<(), XmlError> {
        let mut matched = 0usize;
        let found = self.input.skip_through(|c| {
            matched = advance_match(terminator, matched, c);
            matched == terminator.len()
        })?;
        if found {
            Ok(())
        } else {
            Err(self.eof_error())
        }
    }

    // ---- text ----------------------------------------------------------

    /// Gather character data into `scratch`, decoding entities, up to the
    /// next `stop` byte (left unread) or the end of input. Returns whether
    /// `stop` was reached.
    fn char_data(&mut self, stop: u8) -> Result<bool, XmlError> {
        self.scratch.clear();
        loop {
            match self
                .input
                .scan_into(&mut self.scratch, |c| c != stop && c != b'&')?
            {
                None => return Ok(false),
                Some(b'&') => {
                    self.input.consume(1);
                    self.entity()?;
                }
                Some(_) => return Ok(true),
            }
        }
    }

    /// A text node running to the next `<`. Returns `None` if the node is
    /// dropped by the whitespace mode.
    fn text(&mut self) -> Result<Option<XmlEvent>, XmlError> {
        self.char_data(b'<')?;
        let content = std::str::from_utf8(&self.scratch).map_err(|_| self.utf8_error())?;
        let content = match self.ws {
            WhitespaceMode::Preserve => content,
            WhitespaceMode::SkipWhitespaceOnly => {
                if content.bytes().all(|b| b.is_ascii_whitespace()) {
                    return Ok(None);
                }
                content
            }
            WhitespaceMode::Trim => {
                let trimmed = content.trim();
                if trimmed.is_empty() {
                    return Ok(None);
                }
                trimmed
            }
        };
        let label = Label::text(content);
        self.queue.push_back(XmlEvent::Close(label.clone()));
        Ok(Some(XmlEvent::Open(label)))
    }

    /// Decode an entity after its `&`, appending it to `scratch`.
    fn entity(&mut self) -> Result<(), XmlError> {
        let mut name = [0u8; 17];
        let mut len = 0usize;
        loop {
            let c = self.expect_byte()?;
            if c == b';' {
                break;
            }
            if len > 16 {
                return self.syntax("entity reference too long");
            }
            name[len] = c;
            len += 1;
        }
        match &name[..len] {
            b"lt" => self.scratch.push(b'<'),
            b"gt" => self.scratch.push(b'>'),
            b"amp" => self.scratch.push(b'&'),
            b"apos" => self.scratch.push(b'\''),
            b"quot" => self.scratch.push(b'"'),
            [b'#', digits @ ..] => {
                let s = std::str::from_utf8(digits).map_err(|_| self.utf8_error())?;
                let code = if let Some(hex) = s.strip_prefix('x').or_else(|| s.strip_prefix('X')) {
                    u32::from_str_radix(hex, 16)
                } else {
                    s.parse::<u32>()
                };
                let code = match code {
                    Ok(c) => c,
                    Err(_) => return self.syntax("bad numeric character reference"),
                };
                match char::from_u32(code) {
                    Some(ch) => {
                        let mut buf = [0u8; 4];
                        self.scratch
                            .extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    None => return self.syntax("invalid character code"),
                }
            }
            _ => return self.syntax("unknown entity reference"),
        }
        Ok(())
    }
}

impl<R: BufRead> EventSource for XmlReader<R> {
    fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        XmlReader::next_event(self)
    }

    fn events_read(&self) -> u64 {
        XmlReader::events_read(self)
    }
}

/// The byte source: a `BufRead` and the offset of its next unread byte.
struct Input<R> {
    inner: R,
    offset: u64,
}

impl<R: BufRead> Input<R> {
    /// The buffered bytes not yet consumed; empty at end of input.
    fn window(&mut self) -> Result<&[u8], XmlError> {
        let offset = self.offset;
        self.inner
            .fill_buf()
            .map_err(|e| XmlError::io_at(offset, e))
    }

    fn consume(&mut self, n: usize) {
        self.inner.consume(n);
        self.offset += n as u64;
    }

    fn peek(&mut self) -> Result<Option<u8>, XmlError> {
        Ok(self.window()?.first().copied())
    }

    /// Append the run of bytes satisfying `keep` to `out`. Returns the
    /// first byte that does not (left unread), or `None` at end of input.
    fn scan_into(
        &mut self,
        out: &mut Vec<u8>,
        keep: impl Fn(u8) -> bool,
    ) -> Result<Option<u8>, XmlError> {
        loop {
            let buf = self.window()?;
            if buf.is_empty() {
                return Ok(None);
            }
            let n = buf.iter().position(|&c| !keep(c)).unwrap_or(buf.len());
            let stop = buf.get(n).copied();
            out.extend_from_slice(&buf[..n]);
            self.consume(n);
            if stop.is_some() {
                return Ok(stop);
            }
        }
    }

    /// Consume bytes through the first one for which `done` returns true.
    /// Returns false if the input ends first.
    fn skip_through(&mut self, mut done: impl FnMut(u8) -> bool) -> Result<bool, XmlError> {
        loop {
            let buf = self.window()?;
            if buf.is_empty() {
                return Ok(false);
            }
            let (n, found) = match buf.iter().position(|&c| done(c)) {
                Some(i) => (i + 1, true),
                None => (buf.len(), false),
            };
            self.consume(n);
            if found {
                return Ok(true);
            }
        }
    }
}

/// Element labels interned by name bytes, within the module-level cap.
#[derive(Default)]
struct NameTable {
    labels: HashMap<Box<[u8]>, Label>,
    bytes: usize,
}

impl NameTable {
    /// The element label named `name`, or `None` if `name` is not UTF-8.
    fn label(&mut self, name: &[u8]) -> Option<Label> {
        if let Some(label) = self.labels.get(name) {
            return Some(label.clone());
        }
        let label = Label::elem(std::str::from_utf8(name).ok()?);
        if self.labels.len() < MAX_INTERNED_NAMES && self.bytes + name.len() <= MAX_INTERNED_BYTES {
            self.bytes += name.len();
            self.labels.insert(name.into(), label.clone());
        }
        Some(label)
    }
}

/// One step of the naive terminator matcher used to skip comments, PIs and
/// DOCTYPE internals: `matched` bytes of `terminator` were seen, then `c`.
fn advance_match(terminator: &[u8], matched: usize, c: u8) -> usize {
    if c == terminator[matched] {
        matched + 1
    } else if c == terminator[0] {
        1
    } else {
        0
    }
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_name_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::sync::Arc;

    fn events(xml: &str) -> Vec<XmlEvent> {
        events_mode(xml, WhitespaceMode::default())
    }

    fn events_mode(xml: &str, ws: WhitespaceMode) -> Vec<XmlEvent> {
        let mut r = XmlReader::with_mode(xml.as_bytes(), ws);
        let mut out = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            let done = ev == XmlEvent::Eof;
            out.push(ev);
            if done {
                break;
            }
        }
        out
    }

    fn open(n: &str) -> XmlEvent {
        XmlEvent::Open(Label::elem(n))
    }
    fn close(n: &str) -> XmlEvent {
        XmlEvent::Close(Label::elem(n))
    }
    fn topen(t: &str) -> XmlEvent {
        XmlEvent::Open(Label::text(t))
    }
    fn tclose(t: &str) -> XmlEvent {
        XmlEvent::Close(Label::text(t))
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            events("<a><b/></a>"),
            vec![open("a"), open("b"), close("b"), close("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn text_and_whitespace_modes() {
        assert_eq!(
            events("<a> hi </a>"),
            vec![
                open("a"),
                topen(" hi "),
                tclose(" hi "),
                close("a"),
                XmlEvent::Eof
            ]
        );
        assert_eq!(
            events("<a>  \n </a>"),
            vec![open("a"), close("a"), XmlEvent::Eof]
        );
        assert_eq!(
            events_mode("<a> hi </a>", WhitespaceMode::Trim),
            vec![
                open("a"),
                topen("hi"),
                tclose("hi"),
                close("a"),
                XmlEvent::Eof
            ]
        );
        assert_eq!(
            events_mode("<a> </a>", WhitespaceMode::Preserve),
            vec![
                open("a"),
                topen(" "),
                tclose(" "),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn attributes_expand_in_order() {
        assert_eq!(
            events(r#"<a x="1" y=''/>"#),
            vec![
                open("a"),
                open("x"),
                topen("1"),
                tclose("1"),
                close("x"),
                open("y"),
                close("y"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn entities_decode() {
        assert_eq!(
            events("<a>&lt;x&gt; &amp; &#65;&#x42;</a>"),
            vec![
                open("a"),
                topen("<x> & AB"),
                tclose("<x> & AB"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn comments_pis_doctype_skipped() {
        let xml = "<?xml version=\"1.0\"?><!DOCTYPE site SYSTEM \"x.dtd\" [<!ENTITY e \"v\">]>\n<a><!-- note --><b/></a>";
        assert_eq!(
            events(xml),
            vec![open("a"), open("b"), close("b"), close("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn cdata_is_text() {
        assert_eq!(
            events("<a><![CDATA[<raw> & stuff]]></a>"),
            vec![
                open("a"),
                topen("<raw> & stuff"),
                tclose("<raw> & stuff"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn mismatched_close_is_an_error() {
        let mut r = XmlReader::new("<a></b>".as_bytes());
        r.next_event().unwrap();
        assert!(matches!(
            r.next_event(),
            Err(XmlError::MismatchedClose { .. })
        ));
    }

    #[test]
    fn eof_inside_element_is_an_error() {
        let mut r = XmlReader::new("<a><b>".as_bytes());
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(matches!(
            r.next_event(),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn eof_is_sticky() {
        let mut r = XmlReader::new("<a/>".as_bytes());
        while r.next_event().unwrap() != XmlEvent::Eof {}
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn events_read_counts_open_close_only() {
        let mut r = XmlReader::new("<a><b/>hi</a>".as_bytes());
        while r.next_event().unwrap() != XmlEvent::Eof {}
        // a, b, "hi" — 3 opens + 3 closes; sticky Eof does not count.
        assert_eq!(r.events_read(), 6);
        let _ = r.next_event().unwrap();
        assert_eq!(r.events_read(), 6);
    }

    #[test]
    fn multiple_top_level_trees_allowed() {
        // Forests, not just documents (Definition 1 allows n ≥ 0 trees).
        assert_eq!(
            events("<a/><b/>"),
            vec![open("a"), close("a"), open("b"), close("b"), XmlEvent::Eof]
        );
    }

    #[test]
    fn attribute_entity_and_quotes() {
        assert_eq!(
            events(r#"<a t="&quot;x&apos;"/>"#),
            vec![
                open("a"),
                open("t"),
                topen("\"x'"),
                tclose("\"x'"),
                close("t"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    /// Every event through `Eof`, or through the first error, rendered
    /// with `{:?}` so that the variant and the offset are compared.
    fn drain<R: BufRead>(mut r: XmlReader<R>) -> (Vec<XmlEvent>, Option<String>) {
        let mut out = Vec::new();
        loop {
            match r.next_event() {
                Ok(XmlEvent::Eof) => return (out, None),
                Ok(ev) => out.push(ev),
                Err(e) => return (out, Some(format!("{e:?}"))),
            }
        }
    }

    #[test]
    fn doctype_entity_value_holding_gt_is_skipped() {
        assert_eq!(
            events(r#"<!DOCTYPE a [<!ENTITY x ">">]><a><b>1</b></a>"#),
            vec![
                open("a"),
                open("b"),
                topen("1"),
                tclose("1"),
                close("b"),
                close("a"),
                XmlEvent::Eof
            ]
        );
    }

    #[test]
    fn doctype_system_literal_holding_gt_is_skipped() {
        assert_eq!(
            events(r#"<!DOCTYPE a SYSTEM "x>y"><a/>"#),
            vec![open("a"), close("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn doctype_entity_value_holding_lt_is_skipped() {
        assert_eq!(
            events(r#"<!DOCTYPE a [<!ENTITY x "<">]><a/>"#),
            vec![open("a"), close("a"), XmlEvent::Eof]
        );
    }

    #[test]
    fn doctype_comments_and_pis_hide_brackets_and_quotes() {
        let xml = "<!DOCTYPE a [<!-- <x> ' --><?p > \" ?><!ENTITY y 'z>'>]><a/>";
        assert_eq!(events(xml), vec![open("a"), close("a"), XmlEvent::Eof]);
    }

    #[test]
    fn repeated_names_share_one_label() {
        let mut r = XmlReader::new(r#"<a x="1"><a x="2"/></a>"#.as_bytes());
        let mut opened = Vec::new();
        while let XmlEvent::Open(l) | XmlEvent::Close(l) = r.next_event().unwrap() {
            if &*l.name == "a" {
                opened.push(l.name);
            }
        }
        assert_eq!(opened.len(), 4);
        assert!(opened.iter().all(|n| Arc::ptr_eq(n, &opened[0])));
        assert_eq!(r.names.labels.len(), 2);
    }

    #[test]
    fn intern_table_stops_at_its_name_cap() {
        const N: usize = 100_000;
        let mut xml = String::from("<r>");
        for i in 0..N {
            xml.push_str(&format!("<n{i}/>"));
        }
        xml.push_str("</r>");
        let mut r = XmlReader::new(xml.as_bytes());
        assert_eq!(r.next_event().unwrap(), open("r"));
        for i in 0..N {
            let name = format!("n{i}");
            assert_eq!(r.next_event().unwrap(), open(&name));
            assert_eq!(r.next_event().unwrap(), close(&name));
        }
        assert_eq!(r.next_event().unwrap(), close("r"));
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
        assert_eq!(r.names.labels.len(), MAX_INTERNED_NAMES);
        assert!(r.names.bytes <= MAX_INTERNED_BYTES);
    }

    #[test]
    fn intern_table_stops_at_its_byte_cap() {
        // 200 distinct names of 1,001 bytes each.
        let names: Vec<String> = (0..200).map(|i| format!("n{i:x<1000}")).collect();
        let xml: String = names.iter().map(|n| format!("<{n}></{n}>")).collect();
        let mut r = XmlReader::new(xml.as_bytes());
        for n in &names {
            assert_eq!(r.next_event().unwrap(), open(n));
            assert_eq!(r.next_event().unwrap(), close(n));
        }
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
        assert_eq!(r.names.labels.len(), MAX_INTERNED_BYTES / 1001);
        assert!(r.names.bytes <= MAX_INTERNED_BYTES);
    }

    /// The documents of the tests above, plus malformed ones that exercise
    /// every error path.
    const DOCS: &[&[u8]] = &[
        b"<a><b/></a>",
        b"<a> hi </a>",
        b"<a>  \n </a>",
        b"<a> </a>",
        br#"<a x="1" y=''/>"#,
        b"<a>&lt;x&gt; &amp; &#65;&#x42;</a>",
        b"<?xml version=\"1.0\"?><!DOCTYPE site SYSTEM \"x.dtd\" [<!ENTITY e \"v\">]>\n<a><!-- note --><b/></a>",
        b"<a><![CDATA[<raw> & stuff]]></a>",
        b"<a><![CDATA[x]]]>y<![CDATA[]]><![CDATA[>]>]]></a>",
        b"<a></b>",
        b"<a><b>",
        b"<a/>",
        b"<a><b/>hi</a>",
        b"<a/><b/>",
        br#"<a t="&quot;x&apos;"/>"#,
        br#"<!DOCTYPE a [<!ENTITY x ">">]><a><b>1</b></a>"#,
        br#"<!DOCTYPE a SYSTEM "x>y"><a/>"#,
        br#"<!DOCTYPE a [<!ENTITY x "<">]><a/>"#,
        b"<!DOCTYPE a [<!-- <x> ' --><?p > \" ?><!ENTITY y 'z>'>]><a/>",
        b"<abcdefgh><ijklmnop></ijklmnop></abcdefgx>",
        b"<long-name.one:two x = '1'  yy=\"2\" ></long-name.one:two  >",
        b"</a>",
        b"<a>&bogus;</a>",
        b"<a>&#xZZ;</a>",
        b"<a>&#xD800;</a>",
        b"<a>&aaaaaaaaaaaaaaaaaaaaaa;</a>",
        b"<a>&amp",
        b"<a b=1/>",
        b"<a b></a>",
        b"<a b='x",
        b"<a/ >",
        b"<a !>",
        b"<a",
        b"<1>",
        b"</1>",
        b"<a></a x>",
        b"<!-- x",
        b"<!-x -->",
        b"<![CDATA[x",
        b"<![CDAT[x]]>",
        b"<!DOCTYPE a [",
        b"<!X>",
        b"<?pi",
        b"<a>x",
        b"<a>\xff</a>",
        b"<\xffa/>",
        b"<a x='\xff'/>",
        b"<a></\xff>",
        b"<a><![CDATA[\xff]]></a>",
        b"<a>&#\xff;</a>",
        b"\n<a>\n<b> c </b>\n</a>\n",
    ];

    #[test]
    fn buffer_boundaries_change_no_event_and_no_error() {
        let modes = [
            WhitespaceMode::SkipWhitespaceOnly,
            WhitespaceMode::Preserve,
            WhitespaceMode::Trim,
        ];
        for doc in DOCS {
            for ws in modes {
                let whole = drain(XmlReader::with_mode(*doc, ws));
                for cap in [1, 2, 3, 7, 4096] {
                    let chunked = XmlReader::with_mode(BufReader::with_capacity(cap, *doc), ws);
                    assert_eq!(
                        drain(chunked),
                        whole,
                        "capacity {cap}, {ws:?}: {}",
                        String::from_utf8_lossy(doc)
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_close_reports_both_names_and_offset() {
        let doc = b"<abcdefgh><ijklmnop></ijklmnop></abcdefgx>";
        for cap in [1, 2, 3, 7, 4096] {
            let (_, err) = drain(XmlReader::new(BufReader::with_capacity(cap, &doc[..])));
            let err = err.unwrap();
            assert!(err.contains("MismatchedClose"), "{err}");
            assert!(err.contains("offset: 42"), "{err}");
            assert!(
                err.contains("\"abcdefgh\"") && err.contains("\"abcdefgx\""),
                "{err}"
            );
        }
    }
}
