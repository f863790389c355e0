//! Pass-1 extraction: reduce the protocol source files to a
//! [`Model`].
//!
//! The extractor is lexical, like `pdnn-lint` itself: it works on the
//! masked view of each file ([`pdnn_lint::source::SourceFile`]), so
//! comments and string literals can never fool it. It understands
//! exactly the idioms the distributed trainer uses — `comm.bcast`,
//! `comm.reduce`, `comm.send`, `comm.recv_vec::<T>`, `comm.recv`,
//! `comm.barrier`, and the `.command(vec![CMD_*])` header marker — and
//! infers buffer element kinds from `let` statements, struct fields,
//! and function-parameter signatures.

use crate::model::{CollectiveFn, CommandSpec, ElemKind, Model, Op, Peer, SeqOp, Site};
use pdnn_lint::source::{find_word, is_ident_char, match_brace, SourceFile};
use std::ops::Range;

/// The master/worker command loop.
pub const DISTRIBUTED_PATH: &str = "crates/core/src/distributed.rs";
/// The collective algorithms whose internal tags must pair up.
pub const COLLECTIVES_PATH: &str = "crates/mpisim/src/collectives.rs";

/// One `.name(args)` communication call site in the masked text.
#[derive(Clone, Debug)]
struct Call {
    name: &'static str,
    /// Byte offset of the method name.
    offset: usize,
    /// Turbofish type argument (`recv_vec::<u64>` → `"u64"`).
    turbofish: Option<String>,
    /// Top-level argument texts, trimmed.
    args: Vec<String>,
}

/// A `fn` item with signature and body byte ranges.
#[derive(Clone, Debug)]
struct FnSpan {
    name: String,
    /// `fn` keyword offset (for line mapping).
    offset: usize,
    /// Signature text range (`fn` keyword to the body `{`).
    sig: Range<usize>,
    body: Range<usize>,
}

const OP_NAMES: &[&str] = &[
    "bcast",
    "reduce",
    "send",
    "recv_vec_timeout",
    "recv_vec",
    "recv_timeout",
    "recv",
    "barrier",
    "command",
];

fn site(file: &SourceFile, offset: usize) -> Site {
    Site::new(&file.path, file.line_of(offset) + 1)
}

/// Scan `range` of the masked text for communication method calls.
fn scan_calls(file: &SourceFile, range: Range<usize>) -> Vec<Call> {
    let text = &file.masked;
    let b = text.as_bytes();
    let mut out = Vec::new();
    for &name in OP_NAMES {
        let mut from = range.start;
        while let Some(pos) = find_word(text, name, from) {
            if pos >= range.end {
                break;
            }
            from = pos + name.len();
            if pos == 0 || b[pos - 1] != b'.' {
                continue;
            }
            let mut j = pos + name.len();
            // Optional turbofish `::<T>`.
            let mut turbofish = None;
            if text[j..].starts_with("::<") {
                let mut depth = 0i32;
                let mut k = j + 2;
                while k < b.len() {
                    match b[k] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if k >= b.len() {
                    continue;
                }
                turbofish = Some(text[j + 3..k].trim().to_string());
                j = k + 1;
            }
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if j >= b.len() || b[j] != b'(' {
                continue;
            }
            let Some(args) = parse_args(text, j) else {
                continue;
            };
            out.push(Call {
                name,
                offset: pos,
                turbofish,
                args,
            });
        }
    }
    out.sort_by_key(|c| c.offset);
    out
}

/// Parse a balanced argument list starting at the `(` at `open`;
/// returns the top-level comma-split argument texts.
fn parse_args(text: &str, open: usize) -> Option<Vec<String>> {
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    let last = text[start..i].trim();
                    if !last.is_empty() {
                        args.push(last.to_string());
                    }
                    return Some(args);
                }
            }
            b',' if depth == 1 => {
                args.push(text[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Split `text` on commas at bracket depth zero.
fn split_top_commas(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(text[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = text[start..].trim();
    if !last.is_empty() {
        out.push(last.to_string());
    }
    out
}

/// Find every `fn` item inside `region` (signature + body ranges).
fn fns_in(text: &str, region: Range<usize>) -> Vec<FnSpan> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut from = region.start;
    while let Some(pos) = find_word(text, "fn", from) {
        if pos >= region.end {
            break;
        }
        from = pos + 2;
        let mut j = pos + 2;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < b.len() && is_ident_char(b[j] as char) {
            j += 1;
        }
        if j == name_start {
            continue; // `fn` pointer type
        }
        let name = text[name_start..j].to_string();
        // Parameter list: first `(` after the name (generics contain
        // no parens in this codebase), then its matching `)`.
        let Some(open_paren) = text[j..].find('(').map(|p| j + p) else {
            continue;
        };
        let mut depth = 0i32;
        let mut k = open_paren;
        let mut close_paren = None;
        while k < b.len() {
            match b[k] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close_paren = Some(k);
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let Some(close_paren) = close_paren else {
            continue;
        };
        // Body: first `{` at paren depth zero after the params (the
        // return type may contain `()` but never braces).
        let mut depth = 0i32;
        let mut k = close_paren + 1;
        let mut body = None;
        while k < b.len() && k < region.end {
            match b[k] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                b'{' if depth == 0 => {
                    if let Some(close) = match_brace(text, k) {
                        body = Some((k, close));
                    }
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some((open, close)) = body else {
            continue;
        };
        out.push(FnSpan {
            name,
            offset: pos,
            sig: pos..open,
            body: open + 1..close,
        });
        from = close;
    }
    out
}

/// Byte range of the block following the first occurrence of `pat`.
fn block_after(text: &str, pat: &str) -> Option<Range<usize>> {
    let pos = text.find(pat)?;
    let open = text[pos..].find('{').map(|p| pos + p)?;
    let close = match_brace(text, open)?;
    Some(open + 1..close)
}

// ---------------------------------------------------------------
// Kind / length inference
// ---------------------------------------------------------------

/// Does `text` mention `tok` (`f32`/`f64`/`u64`) as a type or literal
/// suffix? Word-boundary on the right; on the left either a
/// non-identifier character or a digit/`.` (so `0.0f32` counts).
fn has_type_token(text: &str, tok: &str) -> bool {
    let b = text.as_bytes();
    let mut i = 0;
    while let Some(p) = text[i..].find(tok).map(|p| i + p) {
        i = p + 1;
        let end = p + tok.len();
        if end < b.len() && is_ident_char(b[end] as char) {
            continue;
        }
        if p == 0 {
            return true;
        }
        let prev = b[p - 1] as char;
        if !is_ident_char(prev) || prev.is_ascii_digit() || prev == '.' {
            return true;
        }
    }
    false
}

/// The unique element-kind hint in `text`, or `Unknown` when zero or
/// several hints appear.
fn kind_hint(text: &str) -> ElemKind {
    match (
        has_type_token(text, "f32"),
        has_type_token(text, "f64"),
        has_type_token(text, "u64"),
    ) {
        (true, false, false) => ElemKind::F32,
        (false, true, false) => ElemKind::F64,
        (false, false, true) => ElemKind::U64,
        _ => ElemKind::Unknown,
    }
}

/// Statically-known element count of the first `vec![..]` in `text`.
fn vec_len(text: &str) -> Option<usize> {
    let open = text.find("vec![")? + 4;
    let b = text.as_bytes();
    let mut depth = 0i32;
    let mut close = None;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'[' | b'(' | b'{' => depth += 1,
            b']' | b')' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let inner = &text[open + 1..close?];
    // `[expr; N]` repeat form: countable only for integer N.
    let semi = {
        let bi = inner.as_bytes();
        let mut depth = 0i32;
        let mut found = None;
        for (i, &c) in bi.iter().enumerate() {
            match c {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => {
                    found = Some(i);
                    break;
                }
                _ => {}
            }
        }
        found
    };
    if let Some(s) = semi {
        return inner[s + 1..].trim().parse::<usize>().ok();
    }
    if inner.trim().is_empty() {
        return Some(0);
    }
    Some(split_top_commas(inner).len())
}

/// A `let` statement in `body` whose binding pattern names `ident`.
#[derive(Clone)]
struct LetStmt {
    /// Whole statement text (`let` through `;`).
    text: String,
    /// Offset of the `let` keyword.
    offset: usize,
    /// Right-hand side text (after the `=`).
    rhs: String,
}

/// All `let` statements before `upto` in `body` that bind `ident`,
/// source order.
fn lets_binding(text: &str, body: &Range<usize>, upto: usize, ident: &str) -> Vec<LetStmt> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut from = body.start;
    while let Some(pos) = find_word(text, "let", from) {
        if pos >= upto || pos >= body.end {
            break;
        }
        from = pos + 3;
        // Pattern runs to the first top-level `=` (not ==, =>, <=…).
        let mut i = pos + 3;
        let mut depth = 0i32;
        let mut eq = None;
        while i < body.end {
            match b[i] {
                b'(' | b'[' | b'{' | b'<' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'>' if i > 0 && b[i - 1] != b'-' && b[i - 1] != b'=' => depth -= 1,
                b'=' if depth <= 0 => {
                    let next = b.get(i + 1).copied().unwrap_or(0);
                    let prev = b[i - 1];
                    if next != b'=' && prev != b'=' && prev != b'!' && prev != b'<' && prev != b'>'
                    {
                        eq = Some(i);
                        break;
                    }
                }
                b';' if depth <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(eq) = eq else {
            continue;
        };
        let pattern = &text[pos + 3..eq];
        if find_word(pattern, ident, 0).is_none() {
            continue;
        }
        // Statement ends at the `;` at bracket depth zero after `=`.
        let mut depth = 0i32;
        let mut j = eq + 1;
        let mut end = None;
        while j < body.end {
            match b[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => {
                    end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(end) = end else {
            continue;
        };
        out.push(LetStmt {
            text: text[pos..=end].to_string(),
            offset: pos,
            rhs: text[eq + 1..end].trim().to_string(),
        });
        from = end;
    }
    out
}

/// Leading identifier of an expression (after `&`/`mut`), or `None`
/// for macro invocations and non-ident starts.
fn root_ident(expr: &str) -> Option<(String, String)> {
    let mut e = expr.trim();
    loop {
        if let Some(r) = e.strip_prefix('&') {
            e = r.trim_start();
        } else if let Some(r) = e.strip_prefix("mut ") {
            e = r.trim_start();
        } else {
            break;
        }
    }
    let b = e.as_bytes();
    let mut j = 0;
    while j < b.len() && is_ident_char(b[j] as char) {
        j += 1;
    }
    if j == 0 {
        return None;
    }
    let name = e[..j].to_string();
    if b.get(j) == Some(&b'!') {
        return None; // macro call like vec![..]
    }
    Some((name, e[j..].to_string()))
}

/// Look up a struct-field type hint: first `field:` occurrence in the
/// file with a recognizable element kind nearby.
fn field_kind(file: &SourceFile, field: &str) -> ElemKind {
    let text = &file.masked;
    let b = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = find_word(text, field, from) {
        from = pos + field.len();
        let mut j = pos + field.len();
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if b.get(j) != Some(&b':') {
            continue;
        }
        // Type text runs to the end of the field declaration.
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < b.len() {
            match b[k] {
                b'<' | b'(' | b'[' => depth += 1,
                b'>' | b')' | b']' => depth -= 1,
                b',' | b';' | b'\n' | b'}' if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        let hint = kind_hint(&text[j + 1..k]);
        if hint != ElemKind::Unknown {
            return hint;
        }
    }
    ElemKind::Unknown
}

/// Type hint of a function parameter named `ident`.
fn param_kind(sig_text: &str, ident: &str) -> ElemKind {
    let b = sig_text.as_bytes();
    let mut from = 0;
    while let Some(pos) = find_word(sig_text, ident, from) {
        from = pos + ident.len();
        let mut j = pos + ident.len();
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if b.get(j) != Some(&b':') {
            continue;
        }
        // Type runs to the next top-level `,` or `)`.
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < b.len() {
            match b[k] {
                b'(' | b'[' | b'<' => depth += 1,
                b']' | b'>' => depth -= 1,
                b')' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                b',' if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        return kind_hint(&sig_text[j + 1..k]);
    }
    ElemKind::Unknown
}

/// Infer the element kind and static length of the buffer named
/// `ident` at `call_offset`, from its `let` chain, struct fields, or
/// the enclosing function's parameters.
fn buffer_kind(
    file: &SourceFile,
    f: &FnSpan,
    call_offset: usize,
    ident: &str,
    depth: usize,
) -> (ElemKind, Option<usize>) {
    if depth > 3 {
        return (ElemKind::Unknown, None);
    }
    let text = &file.masked;
    let lets = lets_binding(text, &f.body, call_offset, ident);
    let mut len = None;
    // Newest binding first: the closest `let` is authoritative for
    // length; for the kind, walk outward until a hint resolves.
    for stmt in lets.iter().rev() {
        if len.is_none() {
            len = vec_len(&stmt.text);
        }
        let k = kind_hint(&stmt.text);
        if k != ElemKind::Unknown {
            return (k, len);
        }
        if let Some((root, rest)) = root_ident(&stmt.rhs) {
            if root == "self" {
                if let Some((field, _)) = root_ident(rest.trim_start_matches('.')) {
                    let k = field_kind(file, &field);
                    if k != ElemKind::Unknown {
                        return (k, len);
                    }
                }
            } else if root != ident {
                let (k, inner_len) = buffer_kind(file, f, stmt.offset, &root, depth + 1);
                if k != ElemKind::Unknown {
                    return (k, len.or(inner_len));
                }
            }
        }
    }
    let k = param_kind(&text[f.sig.clone()], ident);
    (k, len)
}

// ---------------------------------------------------------------
// Per-call op construction
// ---------------------------------------------------------------

fn resolve_rank(expr: &str, consts: &[(String, u64, Site)]) -> Option<usize> {
    let e = expr.trim();
    if let Ok(n) = e.parse::<usize>() {
        return Some(n);
    }
    consts
        .iter()
        .find(|(name, _, _)| name == e)
        .map(|(_, v, _)| *v as usize)
}

fn resolve_tag(expr: &str, consts: &[(String, u64, Site)]) -> Option<u64> {
    let e = expr.trim();
    if let Ok(n) = e.parse::<u64>() {
        return Some(n);
    }
    consts
        .iter()
        .find(|(name, _, _)| name == e)
        .map(|(_, v, _)| *v)
}

fn peer_of(expr: &str, consts: &[(String, u64, Site)]) -> Peer {
    let e = expr.trim();
    if e == "Src::Any" {
        return Peer::AnySource;
    }
    let inner = e
        .strip_prefix("Src::Of(")
        .and_then(|r| r.strip_suffix(')'))
        .unwrap_or(e);
    match resolve_rank(inner, consts) {
        Some(r) => Peer::Rank(r),
        None => Peer::EachWorker,
    }
}

fn payload_kind(expr: &str) -> ElemKind {
    let e = expr.trim();
    if e.starts_with("Payload::U64") {
        ElemKind::U64
    } else if e.starts_with("Payload::F32") {
        ElemKind::F32
    } else if e.starts_with("Payload::F64") {
        ElemKind::F64
    } else if e.starts_with("Payload::Empty") {
        ElemKind::Empty
    } else {
        ElemKind::Unknown
    }
}

fn turbofish_kind(t: &Option<String>) -> ElemKind {
    match t.as_deref() {
        Some("f32") => ElemKind::F32,
        Some("f64") => ElemKind::F64,
        Some("u64") => ElemKind::U64,
        _ => ElemKind::Unknown,
    }
}

/// Build a model [`Op`] from a call site, or `None` for non-op calls
/// (`command` markers are handled by the caller).
fn op_of(
    file: &SourceFile,
    f: &FnSpan,
    call: &Call,
    consts: &[(String, u64, Site)],
) -> Option<SeqOp> {
    let op = match call.name {
        "bcast" => {
            let (kind, len) = buffer_of(file, f, call, 0);
            Op::Bcast {
                root: call.args.get(1).and_then(|a| resolve_rank(a, consts)),
                kind,
                len,
            }
        }
        "reduce" => {
            let (kind, len) = buffer_of(file, f, call, 0);
            Op::Reduce {
                root: call.args.get(2).and_then(|a| resolve_rank(a, consts)),
                kind,
                len,
            }
        }
        "barrier" => Op::Barrier,
        "send" => Op::Send {
            to: call
                .args
                .first()
                .map(|a| peer_of(a, consts))
                .unwrap_or(Peer::AnySource),
            tag: call.args.get(1).and_then(|a| resolve_tag(a, consts)),
            kind: call
                .args
                .get(2)
                .map(|a| payload_kind(a))
                .unwrap_or(ElemKind::Unknown),
        },
        "recv_vec" | "recv" | "recv_vec_timeout" | "recv_timeout" => Op::Recv {
            from: call
                .args
                .first()
                .map(|a| peer_of(a, consts))
                .unwrap_or(Peer::AnySource),
            tag: call.args.get(1).and_then(|a| resolve_tag(a, consts)),
            kind: if call.name.starts_with("recv_vec") {
                turbofish_kind(&call.turbofish)
            } else {
                ElemKind::Unknown
            },
        },
        _ => return None,
    };
    Some(SeqOp {
        op,
        site: site(file, call.offset),
    })
}

fn buffer_of(file: &SourceFile, f: &FnSpan, call: &Call, arg: usize) -> (ElemKind, Option<usize>) {
    let Some(expr) = call.args.get(arg) else {
        return (ElemKind::Unknown, None);
    };
    let Some((ident, _)) = root_ident(expr) else {
        return (ElemKind::Unknown, None);
    };
    if ident == "self" {
        let rest = expr.trim().trim_start_matches(['&', ' ']).trim_start();
        if let Some(field_part) = rest.strip_prefix("self.") {
            if let Some((field, _)) = root_ident(field_part) {
                return (field_kind(file, &field), None);
            }
        }
        return (ElemKind::Unknown, None);
    }
    buffer_kind(file, f, call.offset, &ident, 0)
}

// ---------------------------------------------------------------
// distributed.rs structure
// ---------------------------------------------------------------

fn scan_consts(file: &SourceFile) -> Vec<(String, u64, Site)> {
    let mut out = Vec::new();
    for (i, line) in file.masked.lines().enumerate() {
        if file.test_lines.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = line.trim();
        let Some(rest) = t.strip_prefix("const ") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if !(name.starts_with("CMD_") || name.starts_with("TAG_")) {
            continue;
        }
        let Some((_ty, value)) = rest.split_once('=') else {
            continue;
        };
        if let Ok(v) = value.trim().trim_end_matches(';').trim().parse::<u64>() {
            out.push((name.to_string(), v, Site::new(&file.path, i + 1)));
        }
    }
    out
}

/// Parse a `.command(vec![CMD_X, ..])` marker: command name and
/// header word count.
fn command_marker(call: &Call) -> Option<(String, usize)> {
    let arg = call.args.first()?;
    let inner = arg.strip_prefix("vec!")?.trim();
    let inner = inner.strip_prefix('[')?.strip_suffix(']')?;
    let elems = split_top_commas(inner);
    let first = elems.first()?;
    let (name, _) = root_ident(first)?;
    Some((name, elems.len()))
}

/// One parsed worker match arm.
struct Arm {
    pattern: String,
    pattern_offset: usize,
    body: Range<usize>,
}

/// Split the arms of the `match` block spanning `open+1..close`.
fn parse_arms(text: &str, open: usize, close: usize) -> Vec<Arm> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        while i < close && (b[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= close {
            break;
        }
        let pat_start = i;
        // Pattern runs to `=>` at depth zero.
        let mut depth = 0i32;
        let mut arrow = None;
        while i < close {
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'=' if depth == 0 && b.get(i + 1) == Some(&b'>') => {
                    arrow = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let Some(arrow) = arrow else {
            break;
        };
        let pattern = text[pat_start..arrow].trim().to_string();
        let pattern_offset = pat_start;
        i = arrow + 2;
        while i < close && (b[i] as char).is_whitespace() {
            i += 1;
        }
        if i < close && b[i] == b'{' {
            let Some(block_close) = match_brace(text, i) else {
                break;
            };
            out.push(Arm {
                pattern,
                pattern_offset,
                body: i + 1..block_close,
            });
            i = block_close + 1;
            if i < close && b[i] == b',' {
                i += 1;
            }
        } else {
            let body_start = i;
            let mut depth = 0i32;
            while i < close {
                match b[i] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            out.push(Arm {
                pattern,
                pattern_offset,
                body: body_start..i,
            });
            i += 1;
        }
    }
    out
}

fn find_or_insert<'m>(model: &'m mut Model, name: &str, anchor: &Site) -> &'m mut CommandSpec {
    if let Some(i) = model.commands.iter().position(|c| c.name == name) {
        return &mut model.commands[i];
    }
    let value = model.const_value(name);
    model.commands.push(CommandSpec {
        name: name.to_string(),
        value,
        header_len: None,
        master: None,
        worker: None,
        master_site: anchor.clone(),
        worker_site: anchor.clone(),
    });
    let last = model.commands.len() - 1;
    &mut model.commands[last]
}

/// Extract master-side command sequences from `MasterProblem`.
///
/// The wire work lives in the fallible `try_*` methods of its
/// `Aggregator` impl (the fault latch wraps them into `HfProblem`) and
/// in the recovery helpers of the inherent impl, so both regions are
/// scanned; the `command` header helper is modeled separately
/// ([`extract_command_helper`]) and skipped here.
fn extract_master_impl(file: &SourceFile, model: &mut Model) {
    let inherent = block_after(&file.masked, "impl MasterProblem");
    let trait_impl = block_after(&file.masked, "impl Aggregator for MasterProblem");
    let mut fns = Vec::new();
    for region in [inherent, trait_impl].into_iter().flatten() {
        fns.extend(fns_in(&file.masked, region));
    }
    for f in fns {
        if f.name == "command" {
            continue;
        }
        let mut current: Option<String> = None;
        for call in scan_calls(file, f.body.clone()) {
            if call.name == "command" {
                let marker_site = site(file, call.offset);
                if let Some((name, header_len)) = command_marker(&call) {
                    let spec = find_or_insert(model, &name, &marker_site);
                    spec.header_len = Some(header_len);
                    spec.master = Some(Vec::new());
                    spec.master_site = marker_site;
                    current = Some(name);
                }
                continue;
            }
            let Some(seq_op) = op_of(file, &f, &call, &model.consts) else {
                continue;
            };
            match &current {
                Some(name) => {
                    let anchor = seq_op.site.clone();
                    if let Some(spec) = model.command_mut(name) {
                        if let Some(seq) = spec.master.as_mut() {
                            seq.push(seq_op);
                        }
                    } else {
                        let spec = find_or_insert(model, name, &anchor);
                        spec.master = Some(vec![seq_op]);
                    }
                }
                None => model.orphan_master_ops.push(seq_op),
            }
        }
    }
}

/// Extract the `command` helper's header broadcast.
fn extract_command_helper(file: &SourceFile, model: &mut Model) {
    let Some(region) = block_after(&file.masked, "impl MasterProblem") else {
        return;
    };
    for f in fns_in(&file.masked, region.clone()) {
        if f.name != "command" {
            continue;
        }
        for call in scan_calls(file, f.body.clone()) {
            if call.name == "bcast" {
                model.helper_header_bcast = op_of(file, &f, &call, &model.consts);
                return;
            }
        }
    }
}

/// Extract the master's startup sends and shutdown sequence from the
/// rank-0 branch of the world closure.
fn extract_master_branch(file: &SourceFile, model: &mut Model) {
    let Some(region) = block_after(&file.masked, "if comm.rank() == 0") else {
        return;
    };
    // A pseudo-fn spanning the branch, for buffer inference.
    let f = FnSpan {
        name: "master_branch".to_string(),
        offset: region.start,
        sig: region.start..region.start,
        body: region.clone(),
    };
    let mut after_shutdown = false;
    for call in scan_calls(file, region.clone()) {
        if call.name == "command" {
            let marker_site = site(file, call.offset);
            if let Some((name, header_len)) = command_marker(&call) {
                let spec = find_or_insert(model, &name, &marker_site);
                spec.header_len = Some(header_len);
                if spec.master.is_none() {
                    spec.master = Some(Vec::new());
                }
                spec.master_site = marker_site;
                after_shutdown = true;
            }
            continue;
        }
        let Some(seq_op) = op_of(file, &f, &call, &model.consts) else {
            continue;
        };
        if after_shutdown {
            model.shutdown_master.push(seq_op);
        } else if matches!(seq_op.op, Op::Send { .. }) {
            model.startup_sends.push(seq_op);
        } else {
            model.orphan_master_ops.push(seq_op);
        }
    }
}

/// Extract the worker loop: startup receives, dispatch broadcast,
/// per-command arms, catch-all, and the post-loop shutdown sequence.
fn extract_worker(file: &SourceFile, model: &mut Model) {
    let text = &file.masked;
    let Some(f) = fns_in(text, 0..text.len())
        .into_iter()
        .find(|f| f.name == "worker_loop")
    else {
        return;
    };
    model.worker_match_site = site(file, f.offset);
    let Some(loop_kw) = find_word(text, "loop", f.body.start).filter(|&p| p < f.body.end) else {
        return;
    };
    let Some(loop_open) = text[loop_kw..].find('{').map(|p| loop_kw + p) else {
        return;
    };
    let Some(loop_close) = match_brace(text, loop_open) else {
        return;
    };

    // Startup receives: every op before the loop.
    for call in scan_calls(file, f.body.start..loop_kw) {
        if let Some(seq_op) = op_of(file, &f, &call, &model.consts) {
            model.startup_recvs.push(seq_op);
        }
    }

    // Dispatch: the header broadcast between `loop {` and `match`.
    let Some(match_kw) = find_word(text, "match", loop_open).filter(|&p| p < loop_close) else {
        return;
    };
    model.worker_match_site = site(file, match_kw);
    for call in scan_calls(file, loop_open + 1..match_kw) {
        if call.name == "bcast" && model.dispatch.is_none() {
            model.dispatch = op_of(file, &f, &call, &model.consts);
        }
    }

    // Arms.
    let Some(match_open) = text[match_kw..].find('{').map(|p| match_kw + p) else {
        return;
    };
    let Some(match_close) = match_brace(text, match_open) else {
        return;
    };
    for arm in parse_arms(text, match_open, match_close) {
        let pat = arm.pattern.as_str();
        let is_cmd = pat.starts_with("CMD_") && pat.bytes().all(|c| is_ident_char(c as char));
        if is_cmd {
            let mut seq = Vec::new();
            for call in scan_calls(file, arm.body.clone()) {
                if let Some(seq_op) = op_of(file, &f, &call, &model.consts) {
                    seq.push(seq_op);
                }
            }
            let arm_site = site(file, arm.pattern_offset);
            let spec = find_or_insert(model, pat, &arm_site);
            spec.worker = Some(seq);
            spec.worker_site = arm_site;
        } else if pat == "_" || pat.bytes().all(|c| is_ident_char(c as char)) {
            model.worker_catchall = true;
        }
    }

    // Shutdown: ops after the loop closes.
    for call in scan_calls(file, loop_close + 1..f.body.end) {
        if let Some(seq_op) = op_of(file, &f, &call, &model.consts) {
            model.shutdown_worker.push(seq_op);
        }
    }
}

// ---------------------------------------------------------------
// collectives.rs tag pairing
// ---------------------------------------------------------------

fn extract_collectives(file: &SourceFile, model: &mut Model) {
    let text = &file.masked;
    for f in fns_in(text, 0..text.len()) {
        let line = file.line_of(f.offset);
        if file.test_lines.get(line).copied().unwrap_or(false) {
            continue;
        }
        let mut send_tags = Vec::new();
        let mut recv_tags = Vec::new();
        for call in scan_calls(file, f.body.clone()) {
            let tag_expr = call
                .args
                .get(1)
                .map(|a| a.chars().filter(|c| !c.is_whitespace()).collect::<String>());
            let Some(tag) = tag_expr else {
                continue;
            };
            match call.name {
                "send" => send_tags.push(tag),
                "recv" | "recv_vec" | "recv_timeout" | "recv_vec_timeout" => recv_tags.push(tag),
                _ => {}
            }
        }
        if send_tags.is_empty() && recv_tags.is_empty() {
            continue;
        }
        model.collective_fns.push(CollectiveFn {
            name: f.name.clone(),
            site: site(file, f.offset),
            send_tags,
            recv_tags,
        });
    }
}

// ---------------------------------------------------------------
// masterless recovery sub-protocol (distributed.rs)
// ---------------------------------------------------------------

/// The peer-coordinated recovery fns (membership agreement, re-shard
/// replay) are symmetric sub-protocols living in `distributed.rs`:
/// every participant both sends and receives on the same tag set
/// within one fn, unlike the master/worker role split where send and
/// recv sites pair up *across* fns. Any fn with both send and recv
/// sites is therefore modeled like a collective and held to the same
/// p2 tag-pairing rule.
fn extract_decentral_recovery(file: &SourceFile, model: &mut Model) {
    let text = &file.masked;
    for f in fns_in(text, 0..text.len()) {
        let line = file.line_of(f.offset);
        if file.test_lines.get(line).copied().unwrap_or(false) {
            continue;
        }
        let mut send_tags = Vec::new();
        let mut recv_tags = Vec::new();
        for call in scan_calls(file, f.body.clone()) {
            let tag_expr = call
                .args
                .get(1)
                .map(|a| a.chars().filter(|c| !c.is_whitespace()).collect::<String>());
            let Some(tag) = tag_expr else {
                continue;
            };
            match call.name {
                "send" => send_tags.push(tag),
                "recv" | "recv_vec" | "recv_timeout" | "recv_vec_timeout" => recv_tags.push(tag),
                _ => {}
            }
        }
        if send_tags.is_empty() || recv_tags.is_empty() {
            continue;
        }
        model.collective_fns.push(CollectiveFn {
            name: f.name.clone(),
            site: site(file, f.offset),
            send_tags,
            recv_tags,
        });
    }
}

/// Extract the full protocol model from the two source files.
pub fn extract(distributed: &SourceFile, collectives: &SourceFile) -> Model {
    let mut model = Model {
        consts: scan_consts(distributed),
        worker_match_site: Site::new(&distributed.path, 1),
        ..Model::default()
    };
    extract_command_helper(distributed, &mut model);
    extract_master_impl(distributed, &mut model);
    extract_master_branch(distributed, &mut model);
    extract_worker(distributed, &mut model);
    extract_collectives(collectives, &mut model);
    extract_decentral_recovery(distributed, &mut model);
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/core/src/distributed.rs", src)
    }

    #[test]
    fn const_scan_reads_cmd_and_tag_values() {
        let f = parse("const CMD_A: u64 = 3;\nconst TAG_X: u64 = 17;\nconst OTHER: usize = 9;\n");
        let consts = scan_consts(&f);
        assert_eq!(consts.len(), 2);
        assert_eq!(consts[0].0, "CMD_A");
        assert_eq!(consts[0].1, 3);
        assert_eq!(consts[1].1, 17);
    }

    #[test]
    fn call_scanner_parses_turbofish_and_args() {
        let f = parse("fn w(comm: &mut Comm) {\n    let v = comm.recv_vec::<u64>(Src::Of(0), TAG_X);\n    comm.send(w + 1, 17, Payload::U64(ids));\n}\n");
        let calls = scan_calls(&f, 0..f.masked.len());
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].name, "recv_vec");
        assert_eq!(calls[0].turbofish.as_deref(), Some("u64"));
        assert_eq!(calls[0].args, vec!["Src::Of(0)", "TAG_X"]);
        assert_eq!(calls[1].name, "send");
        assert_eq!(calls[1].args[2], "Payload::U64(ids)");
    }

    #[test]
    fn kind_hints_cover_literal_suffixes_and_types() {
        assert_eq!(
            kind_hint("let mut v: Vec<f32> = Vec::new();"),
            ElemKind::F32
        );
        assert_eq!(kind_hint("let m = vec![0.0f64; 2];"), ElemKind::F64);
        assert_eq!(kind_hint("let h = vec![0u64; 1];"), ElemKind::U64);
        assert_eq!(kind_hint("let a = x as f32 + y as f64;"), ElemKind::Unknown);
        assert_eq!(kind_hint("let z = frames;"), ElemKind::Unknown);
    }

    #[test]
    fn vec_len_counts_elements_and_repeats() {
        assert_eq!(vec_len("let m = vec![0.0f64; 2];"), Some(2));
        assert_eq!(vec_len("let m = vec![a, b.c() as f64, d];"), Some(3));
        assert_eq!(vec_len("let m = vec![frames];"), Some(1));
        assert_eq!(vec_len("let g = vec![0.0f32; n.params()];"), None);
        assert_eq!(vec_len("let v = Vec::new();"), None);
    }

    #[test]
    fn buffer_kind_follows_let_chain_to_params() {
        let src =
            "fn g(v: &[f32]) {\n    let mut buf = v.to_vec();\n    comm.bcast(&mut buf, 0);\n}\n";
        let f = parse(src);
        let fns = fns_in(&f.masked, 0..f.masked.len());
        let call = &scan_calls(&f, fns[0].body.clone())[0];
        let (kind, len) = buffer_of(&f, &fns[0], call, 0);
        assert_eq!(kind, ElemKind::F32);
        assert_eq!(len, None);
    }

    #[test]
    fn arm_parser_splits_block_and_expression_arms() {
        let src = "match h {\n    CMD_A => break,\n    CMD_B => {\n        x();\n    }\n    other => y(),\n}\n";
        let f = parse(src);
        let open = f.masked.find('{').unwrap();
        let close = match_brace(&f.masked, open).unwrap();
        let arms = parse_arms(&f.masked, open, close);
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].pattern, "CMD_A");
        assert_eq!(arms[1].pattern, "CMD_B");
        assert_eq!(arms[2].pattern, "other");
    }

    #[test]
    fn extracts_miniature_protocol_end_to_end() {
        let dist = parse(
            "const CMD_STOP: u64 = 0;\nconst CMD_GO: u64 = 1;\nconst TAG_D: u64 = 9;\n\
             struct MasterProblem { theta: Vec<f32> }\n\
             impl MasterProblem {\n    fn command(&mut self, header: Vec<u64>) {\n        let mut buf = header;\n        comm_ok(self.comm.bcast(&mut buf, 0), \"hdr\");\n    }\n}\n\
             impl Aggregator for MasterProblem {\n    fn go(&mut self) {\n        self.command(vec![CMD_GO]);\n        let mut g = vec![0.0f32; self.theta.len()];\n        comm_ok(self.comm.reduce(&mut g, ReduceOp::Sum, 0), \"r\");\n    }\n}\n\
             fn worker_loop(comm: &mut Comm) {\n    let ids = comm.recv_vec::<u64>(Src::Of(0), TAG_D);\n    loop {\n        let mut header = vec![0u64; 1];\n        comm.bcast(&mut header, 0);\n        match header[0] {\n            CMD_STOP => break,\n            CMD_GO => {\n                let mut g = vec![0.0f32; 4];\n                comm.reduce(&mut g, ReduceOp::Sum, 0);\n            }\n            other => panic(),\n        }\n    }\n    comm.barrier();\n}\n\
             fn train_impl() {\n    let body = |comm| {\n        if comm.rank() == 0 {\n            for w in 0..n {\n                comm.send(w + 1, TAG_D, Payload::U64(ids));\n            }\n            problem.command(vec![CMD_STOP]);\n            comm.barrier();\n        }\n    };\n}\n",
        );
        let coll = SourceFile::parse(
            "crates/mpisim/src/collectives.rs",
            "impl Comm {\n    pub fn bcast<T: CollElem>(&mut self, b: &mut Vec<T>) -> R {\n        comm.send(dst, tag, T::wrap(b.clone()))?;\n        let v = comm.recv_vec::<T>(Src::Of(s), tag)?;\n        Ok(())\n    }\n}\n",
        );
        let m = extract(&dist, &coll);
        assert_eq!(m.consts.len(), 3);
        let go = m.command("CMD_GO").expect("CMD_GO spec");
        assert_eq!(go.value, Some(1));
        let master = go.master.as_ref().expect("master seq");
        assert_eq!(master.len(), 1);
        assert!(matches!(
            master[0].op,
            Op::Reduce {
                root: Some(0),
                kind: ElemKind::F32,
                len: None
            }
        ));
        let worker = go.worker.as_ref().expect("worker seq");
        assert_eq!(worker.len(), 1);
        // `vec![0.0f32; 4]` has a statically countable length.
        assert!(
            matches!(
                worker[0].op,
                Op::Reduce {
                    root: Some(0),
                    kind: ElemKind::F32,
                    len: Some(4)
                }
            ),
            "{:?}",
            worker[0].op
        );
        let stop = m.command("CMD_STOP").expect("CMD_STOP spec");
        assert_eq!(stop.worker.as_deref(), Some(&[][..]));
        assert!(stop.master.is_some());
        assert!(m.worker_catchall);
        assert_eq!(m.startup_sends.len(), 1);
        assert!(matches!(
            m.startup_sends[0].op,
            Op::Send {
                to: Peer::EachWorker,
                tag: Some(9),
                kind: ElemKind::U64
            }
        ));
        assert_eq!(m.startup_recvs.len(), 1);
        assert!(matches!(
            m.startup_recvs[0].op,
            Op::Recv {
                from: Peer::Rank(0),
                tag: Some(9),
                kind: ElemKind::U64
            }
        ));
        assert!(matches!(
            m.dispatch.as_ref().map(|d| &d.op),
            Some(Op::Bcast {
                root: Some(0),
                kind: ElemKind::U64,
                len: Some(1)
            })
        ));
        assert!(matches!(
            m.helper_header_bcast.as_ref().map(|d| &d.op),
            Some(Op::Bcast {
                root: Some(0),
                kind: ElemKind::U64,
                ..
            })
        ));
        assert_eq!(m.shutdown_master.len(), 1);
        assert_eq!(m.shutdown_worker.len(), 1);
        assert_eq!(m.collective_fns.len(), 1);
        assert_eq!(m.collective_fns[0].send_tags, vec!["tag"]);
        assert_eq!(m.collective_fns[0].recv_tags, vec!["tag"]);
    }
}
