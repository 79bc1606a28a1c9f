//! Zero-dependency repo linter for the codebase's own invariants.
//!
//! Ordinary lints (clippy) police generic Rust; these rules police
//! decisions *this* repo made and reviewers previously re-checked by hand:
//!
//! | rule | scope | rationale |
//! |------|-------|-----------|
//! | `std-collections` | `crates/core/src`, `crates/sim/src`, `crates/gossip/src`, non-test | `std` maps are SipHash-seeded per instance, so iteration order varies run to run; hot paths must use the seedless `fasthash` aliases (or `BTreeMap`; in `gossip`, which sits below `core`, a linear scan of the ≤ 40-entry pool) to keep the simulator bit-deterministic — a per-message `HashMap` in `gossip/src/vicinity.rs` was the simulator's hottest allocation until the rule reached it |
//! | `binary-heap` | `crates/core/src`, `crates/sim/src`, non-test | the event hot path moved from `BinaryHeap` to the calendar queue (`sim/src/calendar.rs`) for O(1) scheduling at million-node scale; a heap reappearing there is a perf regression, and its unspecified equal-key order invites determinism bugs — reference-model uses in test code are exempt |
//! | `wall-clock` | everywhere except `crates/net` | the protocol and simulator run on *virtual* milliseconds; a stray `SystemTime` / `Instant::now` smuggles real time into reproducible runs |
//! | `thread-sleep-in-tests` | test code | sleeping makes tests flaky-slow; poll with the `wait_until` helper instead |
//! | `unwrap-in-protocol` | `core/src/node.rs`, `core/src/routing.rs` | these files define the protocol invariants — every panic site must state the invariant it relies on (`expect`), tests included, since test panics are how invariant breakage first surfaces |
//! | `obs-schema` | `crates/obs/src/event.rs`, non-test | the trace JSON schema is closed (docs/OBSERVABILITY.md); a new key or event kind must be added to the schema table deliberately, not leak in via a string literal |
//! | `unbounded-channel` | `crates/net/src`, non-test | bounded inboxes are the load-survival invariant: every peer queue has drop-on-full accounting, so an unbounded `mpsc::channel()` reintroduces the memory blow-up and hides backpressure the netload bench is meant to surface — the one sanctioned use, the shard inbox, is bounded by per-peer admission and says so in its pragma |
//! | `spawn-per-send` | `crates/net/src`, non-test | the TCP transport once spawned a thread (and opened a connection) *per message* — the scalability bug the persistent link data plane replaced; every legitimate runtime thread is long-lived and named via `thread::Builder`, so a bare `thread::spawn` in the runtime is either that regression returning or an unnamed thread that ruins stack traces |
//! | `runtime-lock` | `crates/net/src`, non-test | the shard runtime holds no locks: a shard owns its peers' state and talks to other shards by message, so a `Mutex` / `RwLock` / `Condvar` appearing there is shared state coming back — the design, not an audit of lock orders, is what keeps the runtime free of deadlocks |
//!
//! The scanner is hand-rolled (no syn, no regex — the crate has zero
//! external dependencies): comments and string literals are masked out of
//! the code view, `#[cfg(test)]` regions are found by brace matching, and
//! rules run as token searches over the masked lines.
//!
//! Suppression, always with a reason in the surrounding comment:
//! `// lint:allow(rule-name)` on the finding's line or the line above;
//! `// lint:allow-file(rule-name)` anywhere in the file.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The enforced rules. See the module docs for scope and rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `std::collections::HashMap`/`HashSet` in core/sim hot paths.
    StdCollections,
    /// `std::collections::BinaryHeap` in core/sim hot paths.
    BinaryHeap,
    /// `SystemTime` / `Instant::now` outside `crates/net`.
    WallClock,
    /// `thread::sleep` in test code.
    ThreadSleepInTests,
    /// `.unwrap()` in the protocol-defining core files.
    UnwrapInProtocol,
    /// A JSON key or event kind outside the closed obs schema.
    ObsSchema,
    /// Unbounded `mpsc::channel()` in the live runtime's non-test code.
    UnboundedChannel,
    /// Bare `thread::spawn` in the live runtime's non-test code.
    SpawnPerSend,
    /// A `Mutex`, `RwLock` or `Condvar` in the live runtime's non-test code.
    RuntimeLock,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 9] = [
        Rule::StdCollections,
        Rule::BinaryHeap,
        Rule::WallClock,
        Rule::ThreadSleepInTests,
        Rule::UnwrapInProtocol,
        Rule::ObsSchema,
        Rule::UnboundedChannel,
        Rule::SpawnPerSend,
        Rule::RuntimeLock,
    ];

    /// The rule's stable name (used in pragmas and reports).
    pub fn name(self) -> &'static str {
        match self {
            Rule::StdCollections => "std-collections",
            Rule::BinaryHeap => "binary-heap",
            Rule::WallClock => "wall-clock",
            Rule::ThreadSleepInTests => "thread-sleep-in-tests",
            Rule::UnwrapInProtocol => "unwrap-in-protocol",
            Rule::ObsSchema => "obs-schema",
            Rule::UnboundedChannel => "unbounded-channel",
            Rule::SpawnPerSend => "spawn-per-send",
            Rule::RuntimeLock => "runtime-lock",
        }
    }
}

/// One rule hit at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending raw source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.excerpt)
    }
}

/// The closed observability schema: every JSON key, event-kind name and
/// enum string the trace format may emit (docs/OBSERVABILITY.md). Adding
/// an entry here is the deliberate act the `obs-schema` rule forces.
const OBS_SCHEMA: &[&str] = &[
    // keys
    "ev", "at", "q", "node", "sigma", "count_only", "matched", "from", "to", "level", "attempt",
    "parent", "duplicate", "count", "fresh", "peer", "layer", "view_size", "mean_age_x1000",
    "replaced", "links", "zero", "changed",
    // event kinds
    "query_issued", "query_forwarded", "query_received", "reply_sent", "reply_merged",
    "timeout_fired", "sigma_stop", "query_completed", "gossip_round", "view_change",
    "node_crashed", "node_restarted",
    // enum values (gossip layers)
    "random", "semantic",
];

/// A source file after masking: comments and literal bodies blanked from
/// the code view, string literals and test regions recorded on the side.
struct Scanned {
    /// Raw source lines (pragma detection, excerpts).
    raw: Vec<String>,
    /// Code view lines: comments and string/char literal bodies replaced
    /// by spaces, structure (quotes, braces) preserved positionally.
    code: Vec<String>,
    /// String literal bodies with their 1-based starting line.
    strings: Vec<(usize, String)>,
    /// 1-based inclusive line ranges covered by `#[cfg(test)]` items.
    test_regions: Vec<(usize, usize)>,
}

impl Scanned {
    fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Pragma check (`lint:allow(rule)` on the line or the line above;
    /// `lint:allow-file(rule)` anywhere).
    fn allowed(&self, rule: Rule, line: usize) -> bool {
        let rule_name = rule.name();
        let file_tag = format!("lint:allow-file({rule_name})");
        if self.raw.iter().any(|l| l.contains(&file_tag)) {
            return true;
        }
        let tag = format!("lint:allow({rule_name})");
        let at = |n: usize| self.raw.get(n.wrapping_sub(1)).is_some_and(|l| l.contains(&tag));
        at(line) || (line > 1 && at(line - 1))
    }
}

/// Masks comments and literals out of `src`, recording literals and
/// `#[cfg(test)]` regions. Handles line/nested-block comments, string,
/// raw-string (`r#"…"#`), byte-string and char literals, and
/// distinguishes lifetimes from char literals well enough for real code.
fn scan(src: &str) -> Scanned {
    let bytes: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut strings: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match c {
            '\n' => {
                code.push('\n');
                line += 1;
                i += 1;
            }
            '/' if next == Some('/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    code.push(' ');
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let mut depth = 1;
                code.push_str("  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        code.push_str("  ");
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        code.push_str("  ");
                        i += 2;
                    } else {
                        if bytes[i] == '\n' {
                            line += 1;
                            code.push('\n');
                        } else {
                            code.push(' ');
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                // Plain (or byte) string literal body.
                let start_line = line;
                let mut body = String::new();
                code.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        '\\' => {
                            code.push_str("  ");
                            if bytes.get(i + 1) == Some(&'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        '"' => {
                            code.push('"');
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            code.push('\n');
                            body.push('\n');
                            i += 1;
                        }
                        ch => {
                            code.push(' ');
                            body.push(ch);
                            i += 1;
                        }
                    }
                }
                strings.push((start_line, body));
            }
            'r' if is_raw_string_start(&bytes, i) => {
                let start_line = line;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while bytes.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                // Mask `r##"`.
                for _ in i..=j {
                    code.push(' ');
                }
                let mut body = String::new();
                let mut k = j + 1; // past the opening quote
                let closer: String =
                    std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                while k < bytes.len() {
                    if bytes[k] == '"' && matches_at(&bytes, k, &closer) {
                        for _ in 0..closer.len() {
                            code.push(' ');
                        }
                        k += closer.len();
                        break;
                    }
                    if bytes[k] == '\n' {
                        line += 1;
                        code.push('\n');
                        body.push('\n');
                    } else {
                        code.push(' ');
                        body.push(bytes[k]);
                    }
                    k += 1;
                }
                strings.push((start_line, body));
                i = k;
            }
            '\'' => {
                // Char literal vs lifetime: a literal is '\…' or 'x'.
                let is_char = next == Some('\\')
                    || (next.is_some() && bytes.get(i + 2) == Some(&'\''));
                if is_char {
                    code.push(' ');
                    i += 1;
                    while i < bytes.len() && bytes[i] != '\'' {
                        if bytes[i] == '\\' {
                            code.push(' ');
                            i += 1;
                        }
                        if i < bytes.len() {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    if i < bytes.len() {
                        code.push(' ');
                        i += 1; // closing quote
                    }
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }

    let raw: Vec<String> = src.lines().map(str::to_string).collect();
    let code_lines: Vec<String> = code.lines().map(str::to_string).collect();
    let test_regions = find_test_regions(&code_lines);
    Scanned { raw, code: code_lines, strings, test_regions }
}

fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    // `r"`, `r#"`, `br"`, … — and not part of an identifier like `for`.
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

fn matches_at(bytes: &[char], at: usize, pat: &str) -> bool {
    pat.chars().enumerate().all(|(k, p)| bytes.get(at + k) == Some(&p))
}

/// Finds the line spans of `#[cfg(test)]` items by matching the braces of
/// the item that follows the attribute (on the masked code view, so
/// braces inside strings or comments cannot confuse the balance).
fn find_test_regions(code: &[String]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let joined: Vec<(usize, char)> = code
        .iter()
        .enumerate()
        .flat_map(|(n, l)| l.chars().chain(std::iter::once('\n')).map(move |c| (n + 1, c)))
        .collect();
    let text: String = joined.iter().map(|&(_, c)| c).collect();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find("#[cfg(test)]") {
        let attr_at = from + pos;
        let start_line = joined[attr_at].0;
        // First `{` after the attribute opens the item body.
        let Some(open_rel) = text[attr_at..].find('{') else { break };
        let mut depth = 0i64;
        let mut end_line = start_line;
        let mut idx = attr_at + open_rel;
        while idx < joined.len() {
            match joined[idx].1 {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = joined[idx].0;
                        break;
                    }
                }
                _ => {}
            }
            idx += 1;
        }
        regions.push((start_line, end_line.max(start_line)));
        from = idx.min(text.len().saturating_sub(1)).max(attr_at + 1);
    }
    regions
}

/// Whether `hay` contains `needle` starting and ending at identifier
/// boundaries (so `HashMap` does not match `FastHashMapLike`).
fn has_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Lints one source file given its repo-relative path (always
/// `/`-separated) and contents. The unit the rule tests drive.
pub fn lint_source(relpath: &str, src: &str) -> Vec<Finding> {
    let scanned = scan(src);
    let tests_file = relpath.contains("/tests/");
    let mut findings = Vec::new();
    let mut push = |rule: Rule, line: usize, scanned: &Scanned| {
        if !scanned.allowed(rule, line) {
            findings.push(Finding {
                rule,
                file: relpath.to_string(),
                line,
                excerpt: scanned.raw.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default(),
            });
        }
    };

    let in_core_or_sim =
        relpath.starts_with("crates/core/src") || relpath.starts_with("crates/sim/src");
    let in_gossip_src = relpath.starts_with("crates/gossip/src");
    let in_net = relpath.starts_with("crates/net");
    let in_net_src = relpath.starts_with("crates/net/src");
    let protocol_file =
        relpath == "crates/core/src/node.rs" || relpath == "crates/core/src/routing.rs";
    let obs_event_file = relpath == "crates/obs/src/event.rs";

    for (n, code_line) in scanned.code.iter().enumerate() {
        let line = n + 1;
        let in_test = tests_file || scanned.in_test_region(line);

        if (in_core_or_sim || in_gossip_src)
            && !in_test
            && (has_token(code_line, "HashMap") || has_token(code_line, "HashSet"))
        {
            push(Rule::StdCollections, line, &scanned);
        }
        if in_core_or_sim && !in_test && has_token(code_line, "BinaryHeap") {
            push(Rule::BinaryHeap, line, &scanned);
        }
        if !in_net && (has_token(code_line, "SystemTime") || code_line.contains("Instant::now")) {
            push(Rule::WallClock, line, &scanned);
        }
        if in_test && code_line.contains("thread::sleep") {
            push(Rule::ThreadSleepInTests, line, &scanned);
        }
        if protocol_file && code_line.contains(".unwrap()") {
            push(Rule::UnwrapInProtocol, line, &scanned);
        }
        // Matched as a qualified path (`mpsc::channel`), which is how the
        // runtime spells it everywhere; `sync_channel` cannot collide.
        if in_net_src && !in_test && has_token(code_line, "mpsc::channel") {
            push(Rule::UnboundedChannel, line, &scanned);
        }
        // `thread::Builder` spawns (named, long-lived) spell the method as
        // `.spawn(...)`, so the qualified `thread::spawn` token only hits
        // the bare free function — the per-message spawn pattern.
        if in_net_src && !in_test && has_token(code_line, "thread::spawn") {
            push(Rule::SpawnPerSend, line, &scanned);
        }
        if in_net_src
            && !in_test
            && ["Mutex", "RwLock", "Condvar"].iter().any(|t| has_token(code_line, t))
        {
            push(Rule::RuntimeLock, line, &scanned);
        }
    }

    if obs_event_file {
        for &(line, ref body) in &scanned.strings {
            if tests_file || scanned.in_test_region(line) {
                continue;
            }
            let key_shaped = !body.is_empty()
                && body.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && body.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            if key_shaped && !OBS_SCHEMA.contains(&body.as_str()) {
                push(Rule::ObsSchema, line, &scanned);
            }
        }
    }

    findings
}

/// Lints every `.rs` file under `root/crates` (vendored stand-ins under
/// `vendor/` are third-party API shims and are not held to repo rules).
/// Findings come back sorted by path, line, rule.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_repo(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        findings.extend(lint_source(&rel, &src));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(relpath: &str, src: &str) -> Vec<Rule> {
        lint_source(relpath, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn std_collections_flagged_in_core_hot_path() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u64, u64> = HashMap::new(); }\n";
        let hits = rules_hit("crates/core/src/whatever.rs", src);
        assert!(hits.contains(&Rule::StdCollections), "positive match required");
        // The per-message gossip path is held to the same rule…
        assert!(rules_hit("crates/gossip/src/vicinity.rs", src).contains(&Rule::StdCollections));
        // …its reference models under tests/ are not (negative control)…
        assert!(rules_hit("crates/gossip/tests/absorb_differential.rs", src).is_empty());
        // …the same source is fine outside core/sim/gossip…
        assert!(rules_hit("crates/bench/src/whatever.rs", src).is_empty());
        // …and fine inside a test module.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(rules_hit("crates/sim/src/whatever.rs", test_src).is_empty());
    }

    #[test]
    fn binary_heap_flagged_in_core_hot_path() {
        let src = "use std::collections::BinaryHeap;\nfn f() { let h: BinaryHeap<u64> = BinaryHeap::new(); }\n";
        assert!(
            rules_hit("crates/sim/src/cluster.rs", src).contains(&Rule::BinaryHeap),
            "positive match required"
        );
        assert!(rules_hit("crates/core/src/whatever.rs", src).contains(&Rule::BinaryHeap));
        // Fine outside core/sim (net's delay line legitimately uses one)…
        assert!(rules_hit("crates/net/src/transport.rs", src).is_empty());
        // …fine as a reference model in test code…
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::BinaryHeap;\n}\n";
        assert!(rules_hit("crates/sim/src/event.rs", test_src).is_empty());
        assert!(rules_hit("crates/sim/tests/equiv.rs", src).is_empty());
        // …and suppressible with a reasoned pragma.
        let allowed =
            "// lint:allow(binary-heap) — cold path, profiled 2026-08\nuse std::collections::BinaryHeap;\n";
        assert!(rules_hit("crates/sim/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_net() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(rules_hit("crates/sim/src/clock.rs", src).contains(&Rule::WallClock));
        assert!(rules_hit("crates/bench/src/bin/x.rs", src).contains(&Rule::WallClock));
        assert!(rules_hit("crates/net/src/clock.rs", src).is_empty(), "net owns real time");
        let sys = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
        assert!(rules_hit("crates/core/src/x.rs", sys).contains(&Rule::WallClock));
    }

    #[test]
    fn thread_sleep_flagged_in_tests_only() {
        let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(50)); }\n";
        assert!(
            rules_hit("crates/net/tests/live.rs", src).contains(&Rule::ThreadSleepInTests),
            "integration test files count as test code"
        );
        assert!(rules_hit("crates/net/src/runtime.rs", src).is_empty(), "non-test code exempt");
        let module = "#[cfg(test)]\nmod tests {\n    fn f() { thread::sleep(d); }\n}\n";
        assert!(rules_hit("crates/core/src/x.rs", module).contains(&Rule::ThreadSleepInTests));
    }

    #[test]
    fn unwrap_flagged_in_protocol_files_everywhere() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(rules_hit("crates/core/src/node.rs", src).contains(&Rule::UnwrapInProtocol));
        assert!(rules_hit("crates/core/src/routing.rs", src).contains(&Rule::UnwrapInProtocol));
        assert!(rules_hit("crates/core/src/selector.rs", src).is_empty(), "scoped to two files");
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(
            rules_hit("crates/core/src/node.rs", in_test).contains(&Rule::UnwrapInProtocol),
            "protocol files hold their tests to the same standard"
        );
    }

    #[test]
    fn obs_schema_rejects_unknown_keys() {
        let src = "fn f(w: &mut W) { w.u64_field(\"warp_drive\", 1); }\n";
        assert!(
            rules_hit("crates/obs/src/event.rs", src).contains(&Rule::ObsSchema),
            "unknown key must be flagged"
        );
        let known = "fn f(w: &mut W) { w.u64_field(\"attempt\", 1); }\n";
        assert!(rules_hit("crates/obs/src/event.rs", known).is_empty());
        // Key-shaped strings in *tests* are fixtures (bad-input cases).
        let test_src =
            "#[cfg(test)]\nmod tests {\n    const K: &str = \"warp_drive\";\n}\n";
        assert!(rules_hit("crates/obs/src/event.rs", test_src).is_empty());
        // Other obs files are out of scope.
        assert!(rules_hit("crates/obs/src/json.rs", src).is_empty());
    }

    #[test]
    fn unbounded_channel_flagged_in_net_runtime_only() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u64>(); }\n";
        assert!(
            rules_hit("crates/net/src/peer.rs", src).contains(&Rule::UnboundedChannel),
            "positive match required"
        );
        let call = "use std::sync::mpsc;\nfn f() { let (tx, rx) = mpsc::channel(); }\n";
        assert!(rules_hit("crates/net/src/cluster.rs", call).contains(&Rule::UnboundedChannel));
        // Bounded inboxes are the sanctioned form…
        let bounded = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(64); }\n";
        assert!(rules_hit("crates/net/src/peer.rs", bounded).is_empty());
        // …test code may use whatever is convenient…
        assert!(rules_hit("crates/net/tests/live.rs", src).is_empty());
        let module = "#[cfg(test)]\nmod tests {\n    fn f() { let p = std::sync::mpsc::channel::<u8>(); }\n}\n";
        assert!(rules_hit("crates/net/src/transport.rs", module).is_empty());
        // …other crates are out of scope (the simulator has no threads)…
        assert!(rules_hit("crates/sim/src/cluster.rs", src).is_empty());
        // …and a reasoned pragma still escapes.
        let allowed = "// lint:allow(unbounded-channel) — shutdown path, ≤1 message ever\nfn f() { let p = std::sync::mpsc::channel::<u8>(); }\n";
        assert!(rules_hit("crates/net/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn spawn_per_send_flagged_in_net_runtime_only() {
        let src = "fn f() { std::thread::spawn(move || serve()); }\n";
        assert!(
            rules_hit("crates/net/src/transport.rs", src).contains(&Rule::SpawnPerSend),
            "positive match required"
        );
        let bare = "use std::thread;\nfn f() { thread::spawn(|| {}); }\n";
        assert!(rules_hit("crates/net/src/peer.rs", bare).contains(&Rule::SpawnPerSend));
        // Named, long-lived threads via the Builder are the sanctioned form.
        let builder = "fn f() { std::thread::Builder::new().name(\"autosel-net-writer\".into()).spawn(|| {}).unwrap(); }\n";
        assert!(rules_hit("crates/net/src/transport.rs", builder).is_empty());
        // Test code may spawn however it likes…
        assert!(rules_hit("crates/net/tests/live.rs", src).is_empty());
        let module = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(rules_hit("crates/net/src/transport.rs", module).is_empty());
        // …other crates are out of scope…
        assert!(rules_hit("crates/bench/src/bin/x.rs", src).is_empty());
        // …and a reasoned pragma still escapes.
        let allowed = "// lint:allow(spawn-per-send) — one-shot probe, joined below\nfn f() { std::thread::spawn(|| {}); }\n";
        assert!(rules_hit("crates/net/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn runtime_lock_flagged_in_net_runtime_only() {
        let field = "struct Link {\n    queue: Mutex<Vec<u8>>,\n}\n";
        assert_eq!(
            rules_hit("crates/net/src/transport.rs", field),
            vec![Rule::RuntimeLock],
            "positive match required"
        );
        let import = "use std::sync::Mutex;\n";
        assert!(rules_hit("crates/net/src/peer.rs", import).contains(&Rule::RuntimeLock));
        let ctor = "fn f() { let table = std::sync::RwLock::new(0u32); }\n";
        assert!(rules_hit("crates/net/src/cluster.rs", ctor).contains(&Rule::RuntimeLock));
        let wake = "fn f(c: &Condvar) { c.notify_one(); }\n";
        assert!(rules_hit("crates/net/src/peer.rs", wake).contains(&Rule::RuntimeLock));
        // Test code may lock whatever it likes…
        let module = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn f() { let m = Mutex::new(1u8); }\n}\n";
        assert!(rules_hit("crates/net/src/transport.rs", module).is_empty());
        assert!(rules_hit("crates/net/tests/live.rs", import).is_empty());
        // …the observers' locks are out of scope…
        assert!(rules_hit("crates/obs/src/flight.rs", field).is_empty());
        // …prose and longer identifiers do not match…
        let prose = "// no Mutex here\nfn f() { let s = \"RwLock\"; let _ = MutexFree; }\n";
        assert!(rules_hit("crates/net/src/peer.rs", prose).is_empty());
        // …and a reasoned pragma escapes.
        let allowed = "// lint:allow(runtime-lock) — shutdown handshake, taken once\nuse std::sync::Mutex;\n";
        assert!(rules_hit("crates/net/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trip_token_rules() {
        let src = "// std::collections::HashMap is banned here\nfn f() { let s = \"HashMap Instant::now thread::sleep .unwrap()\"; let _ = s; }\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
        let block = "/* HashMap\n   SystemTime */\nfn g() {}\n";
        assert!(rules_hit("crates/sim/src/y.rs", block).is_empty());
    }

    #[test]
    fn pragmas_suppress_line_and_file() {
        let inline = "fn f() {\n    // lint:allow(wall-clock) — elapsed-time report only\n    let t = Instant::now();\n}\n";
        assert!(rules_hit("crates/bench/src/x.rs", inline).is_empty());
        let same_line = "fn f() { let t = Instant::now(); } // lint:allow(wall-clock)\n";
        assert!(rules_hit("crates/bench/src/x.rs", same_line).is_empty());
        let file_level = "// lint:allow-file(std-collections) — wraps the std maps\nuse std::collections::HashMap;\nfn f() { let _: HashMap<u8, u8> = HashMap::new(); }\n";
        assert!(rules_hit("crates/core/src/x.rs", file_level).is_empty());
        // The pragma only silences its own rule.
        let wrong_rule = "// lint:allow(wall-clock)\nuse std::collections::HashMap;\n";
        assert!(rules_hit("crates/core/src/x.rs", wrong_rule)
            .contains(&Rule::StdCollections));
    }

    #[test]
    fn token_boundaries_respected() {
        let src = "fn f() { let m = FastHashMapLike::new(); my_instant_now(); }\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_region_spans_whole_module() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn a() {}\n    fn b() { let m: std::collections::HashMap<u8, u8> = Default::default(); let _ = m; }\n}\n";
        assert!(rules_hit("crates/sim/src/x.rs", src).is_empty());
        // …but code after the module is production again.
        let after = "#[cfg(test)]\nmod tests {\n    fn a() {}\n}\nuse std::collections::HashSet;\n";
        assert!(rules_hit("crates/sim/src/x.rs", after).contains(&Rule::StdCollections));
    }
}
