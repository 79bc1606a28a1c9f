//! Static lock-order analysis for the live runtime (`crates/net`,
//! `crates/obs`) — the `lock-order` pass of the `analyze lint` bin.
//!
//! The runtime's locks are declared through the tracked `autosel_obs::sync`
//! wrappers (today only the observability layer's; the shard runtime in
//! `crates/net` holds none), and every lock field carries a `// lock-class: <name>`
//! annotation. This pass cross-checks those declarations *statically*, in
//! the same hand-rolled, zero-dependency style as [`crate::lint`] (masked
//! comments/strings, brace-matched scopes, token scans — no syn, no
//! regex):
//!
//! * **`unclassed-lock-field`** — a `Mutex`/`RwLock`/`Condvar`-typed field
//!   (tracked or std) with no `lock-class` annotation. Reference-typed
//!   parameters are exempt: they inherit the class of the same-named
//!   field.
//! * **`lock-cycle`** — the cross-function lock-acquisition graph (edges
//!   from every lock class held at an acquisition site to the class
//!   acquired, direct or through a resolvable call chain) contains a
//!   cycle: two code paths that take the same classes in opposite orders,
//!   i.e. a lock-order inversion. **Not pragma-suppressible** — break the
//!   cycle or restructure.
//! * **`blocking-under-lock`** — a blocking call (`write_all`, `flush`,
//!   `read_exact`, `recv`, `recv_timeout`, `connect`, `accept`, `sleep`,
//!   `join`, or a condvar wait with a *second* lock held) while a guard is
//!   live. A guard held across I/O turns one slow peer into a stalled
//!   data plane.
//! * **`send-under-lock`** — a channel send (`try_deliver`, `send`,
//!   `try_send`, `send_blocking`) while a guard is live. Even non-blocking
//!   sends wake receivers that may take locks, widening critical sections
//!   and inviting inversions.
//!
//! Guard liveness is tracked per function with the temporary-lifetime
//! rules the compiler actually applies (pre-2024 editions): a guard bound
//! with `let g = x.lock();` (optionally `.unwrap()` / `.expect(…)`) lives
//! to end of scope or `drop(g)`; a *chained* acquisition
//! (`x.lock().unwrap().do_thing()`) is a statement-transient temporary; an
//! acquisition in an `if let` / `while let` / `for` / `match` head lives
//! for the whole block (the register/deregister bug shape this pass
//! exists to catch); a `let … else` temporary ends at the statement, so
//! the `else` arm runs guard-free (RFC 3137). A dropped guard that is
//! used again (`drop(g); … g.push(…)`) is revived — the enqueue
//! fast-path-drop idiom.
//!
//! Interprocedural effects use per-function summaries (classes acquired,
//! blocking, sends) closed under a fixpoint over calls that resolve to
//! exactly one definition (same file first, then globally unique);
//! container/combinator method names and calls whose receiver is itself a
//! live guard are skipped. Closures handed to `.spawn(…)` run on a *new*
//! thread with an empty held-set, so their bodies are excluded from both
//! the enclosing function's findings and its summary — the spawned
//! function body is still analyzed on its own.
//!
//! Out of scope by construction: test code (`#[cfg(test)]` regions and
//! `tests/` dirs) and the two `sync.rs` files — the checker's own
//! implementation keeps its infrastructure locks leaf-only and is
//! verified at runtime by its unit tests, not by itself.
//!
//! Suppression: `// lint:allow(lock-order)` on the line or the line
//! above, always with a stated reason (`lint:allow-file(lock-order)` for
//! a whole file). Cycles ignore pragmas.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::lint::{collect_rs_files, has_token, scan, Scanned};

/// The pragma name shared by every finding kind of this pass.
pub const PRAGMA: &str = "lock-order";

/// What a lock-order finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockRule {
    /// A lock-typed field with no `lock-class` annotation.
    UnclassedLockField,
    /// A cycle in the lock-acquisition graph (order inversion).
    LockCycle,
    /// A blocking call while a guard is live.
    BlockingUnderLock,
    /// A channel send while a guard is live.
    SendUnderLock,
}

impl LockRule {
    /// Stable slug used in reports.
    pub fn slug(self) -> &'static str {
        match self {
            LockRule::UnclassedLockField => "unclassed-lock-field",
            LockRule::LockCycle => "lock-cycle",
            LockRule::BlockingUnderLock => "blocking-under-lock",
            LockRule::SendUnderLock => "send-under-lock",
        }
    }
}

/// One lock-order finding at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockFinding {
    /// Which check fired.
    pub rule: LockRule,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation naming the classes involved.
    pub detail: String,
}

impl fmt::Display for LockFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [lock-order/{}] {}", self.file, self.line, self.rule.slug(), self.detail)
    }
}

/// Lock-typed generics (field decls look like `name: …Type<…>`).
const LOCK_GENERICS: [&str; 4] = ["TrackedMutex", "TrackedRwLock", "Mutex", "RwLock"];
/// Lock types without a payload parameter.
const CONDVARS: [&str; 2] = ["TrackedCondvar", "Condvar"];
/// Acquisition method tokens (must be argument-less calls).
const ACQUIRE: [&str; 3] = [".lock()", ".read()", ".write()"];
/// Calls that block the thread (scanned as substrings of the code view).
const BLOCKING: [&str; 9] = [
    "write_all(",
    ".flush(",
    "read_exact(",
    ".recv(",
    "recv_timeout(",
    "connect(",
    ".accept(",
    "sleep(",
    ".join(",
];
/// Channel-send call tokens.
const SENDS: [&str; 4] = ["try_deliver(", "send_blocking(", ".try_send(", ".send("];
/// Condvar wait tokens (exempt while the waited guard is the only one).
const WAITS: [&str; 2] = [".wait(", ".wait_timeout("];

/// Method names never resolved as calls: lock/condvar family, the
/// blocking/send tokens (handled directly), and container/combinator
/// operations on a guard's payload.
fn skip_call(name: &str) -> bool {
    matches!(
        name,
        "lock" | "read" | "write" | "try_lock" | "try_read" | "try_write"
            | "wait" | "wait_timeout" | "notify_one" | "notify_all"
            | "write_all" | "flush" | "read_exact" | "recv" | "recv_timeout"
            | "connect" | "accept" | "sleep" | "join"
            | "send" | "try_send" | "send_blocking" | "try_deliver"
            | "push" | "push_back" | "push_front" | "pop" | "pop_front" | "pop_back"
            | "insert" | "remove" | "get" | "get_mut" | "entry" | "or_insert" | "or_default"
            | "drain" | "extend" | "extend_from_slice" | "clear" | "len" | "is_empty"
            | "contains" | "contains_key" | "keys" | "values" | "iter" | "iter_mut"
            | "peek" | "front" | "back" | "drop" | "clone" | "cloned" | "copied"
            | "map" | "and_then" | "filter" | "collect" | "unwrap" | "expect"
            | "unwrap_or" | "unwrap_or_default" | "to_string" | "into" | "from"
            | "new" | "default" | "fmt" | "eq" | "cmp" | "partial_cmp" | "hash"
    )
}

/// A lock-class-annotated field: `ident` → class name.
type ClassMap = HashMap<String, String>;

struct FileCtx {
    path: String,
    scanned: Scanned,
    /// Brace depth before each 1-based line (index 0 unused).
    depth_before: Vec<i32>,
    classes: ClassMap,
}

#[derive(Debug, Clone)]
struct FnDef {
    name: String,
    file: usize,
    /// 1-based body line range, inclusive (first line contains the `{`).
    start: usize,
    end: usize,
}

/// Per-function effect summary (transitively closed over resolvable calls).
#[derive(Debug, Clone, Default, PartialEq)]
struct FnFx {
    classes: BTreeSet<String>,
    blocking: bool,
    sends: bool,
    calls: BTreeSet<usize>,
}

/// Analyzes `(repo-relative path, contents)` pairs as one program.
/// The unit the negative-control tests drive.
pub fn lock_order_sources(files: &[(&str, &str)]) -> Vec<LockFinding> {
    let mut ctxs: Vec<FileCtx> = Vec::new();
    for (path, src) in files {
        let scanned = scan(src);
        let mut depth_before = vec![0i32; scanned.code.len() + 2];
        let mut d = 0i32;
        for (i, line) in scanned.code.iter().enumerate() {
            depth_before[i + 1] = d;
            for ch in line.chars() {
                match ch {
                    '{' => d += 1,
                    '}' => d -= 1,
                    _ => {}
                }
            }
        }
        depth_before[scanned.code.len() + 1] = d;
        ctxs.push(FileCtx {
            path: (*path).to_string(),
            scanned,
            depth_before,
            classes: ClassMap::new(),
        });
    }

    let mut findings = Vec::new();

    // Pass 0: lock-class maps from field declarations (+ unclassed findings).
    let mut global_classes: HashMap<String, Option<String>> = HashMap::new();
    for ctx in &mut ctxs {
        for i in 1..=ctx.scanned.code.len() {
            if ctx.scanned.in_test_region(i) {
                continue;
            }
            let code = ctx.scanned.code[i - 1].clone();
            let Some(field) = lock_field_decl(&code) else { continue };
            // Reference-typed params inherit a field's class by name.
            if field.by_ref {
                continue;
            }
            let class = (i.saturating_sub(2)..i)
                .rev()
                .filter_map(|n| ctx.scanned.raw.get(n))
                .find_map(|raw| annotation(raw));
            match class {
                Some(c) => {
                    ctx.classes.insert(field.name.clone(), c.clone());
                    match global_classes.entry(field.name.clone()) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(Some(c));
                        }
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            if e.get().as_deref() != Some(c.as_str()) {
                                e.insert(None); // ambiguous across files
                            }
                        }
                    }
                }
                None => {
                    if !ctx.scanned.allowed_name(PRAGMA, i) {
                        findings.push(LockFinding {
                            rule: LockRule::UnclassedLockField,
                            file: ctx.path.clone(),
                            line: i,
                            detail: format!(
                                "lock-typed field `{}` has no `// lock-class: <name>` annotation",
                                field.name
                            ),
                        });
                    }
                }
            }
        }
    }

    // Pass 1: function index (nested fns recorded separately; a function's
    // walk skips lines owned by fns nested inside it).
    let mut fns: Vec<FnDef> = Vec::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        index_fns(fi, ctx, &mut fns);
    }
    let mut per_file: HashMap<(usize, String), Vec<usize>> = HashMap::new();
    let mut global: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        per_file.entry((f.file, f.name.clone())).or_default().push(i);
        global.entry(f.name.clone()).or_default().push(i);
    }
    let resolve = |file: usize, name: &str| -> Option<usize> {
        if skip_call(name) {
            return None;
        }
        if let Some(v) = per_file.get(&(file, name.to_string())) {
            if v.len() == 1 {
                return Some(v[0]);
            }
            return None; // ambiguous in-file
        }
        match global.get(name) {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    };

    // Pass 2: direct per-function effects, then fixpoint closure.
    let mut fx: Vec<FnFx> = Vec::new();
    for (i, def) in fns.iter().enumerate() {
        let mut out = WalkOut::default();
        walk_fn(def, i, &fns, &ctxs[def.file], &global_classes, &resolve, None, &mut out);
        fx.push(out.direct);
    }
    loop {
        let mut changed = false;
        for i in 0..fx.len() {
            let calls: Vec<usize> = fx[i].calls.iter().copied().collect();
            for c in calls {
                let (classes, blocking, sends) =
                    (fx[c].classes.clone(), fx[c].blocking, fx[c].sends);
                let me = &mut fx[i];
                let before = (me.classes.len(), me.blocking, me.sends);
                me.classes.extend(classes);
                me.blocking |= blocking;
                me.sends |= sends;
                changed |= before != (me.classes.len(), me.blocking, me.sends);
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: findings + acquisition-graph edges, summaries applied.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (i, def) in fns.iter().enumerate() {
        let mut out = WalkOut::default();
        walk_fn(def, i, &fns, &ctxs[def.file], &global_classes, &resolve, Some(&fx), &mut out);
        findings.extend(out.findings);
        for (from, to, line) in out.edges {
            edges.entry((from, to)).or_insert((ctxs[def.file].path.clone(), line));
        }
    }

    // Cycle detection over the class graph.
    let adj: HashMap<&str, Vec<&str>> = {
        let mut m: HashMap<&str, Vec<&str>> = HashMap::new();
        for (from, to) in edges.keys() {
            m.entry(from.as_str()).or_default().push(to.as_str());
        }
        m
    };
    let mut seen_cycles: HashSet<Vec<String>> = HashSet::new();
    for ((from, to), (file, line)) in &edges {
        if let Some(mut path) = path_between(&adj, to, from) {
            // `path` runs to → … → from; prepending `from` closes the loop.
            path.insert(0, from.clone());
            // Canonicalize (closing node dropped, smallest class rotated to
            // the front) so each cycle is reported once however entered.
            let mut canon = path[..path.len() - 1].to_vec();
            let min = canon.iter().enumerate().min_by_key(|(_, c)| c.as_str()).map(|(i, _)| i);
            if let Some(i) = min {
                canon.rotate_left(i);
            }
            if seen_cycles.insert(canon) {
                findings.push(LockFinding {
                    rule: LockRule::LockCycle,
                    file: file.clone(),
                    line: *line,
                    detail: format!(
                        "lock-order cycle: {} (two paths take these classes in opposite orders)",
                        path.join(" → ")
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Runs the pass over the runtime crates of a repo checkout:
/// `crates/net/src` and `crates/obs/src`, minus test regions and the
/// `sync.rs` checker internals (see module docs).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lock_order_repo(root: &Path) -> io::Result<Vec<LockFinding>> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates/net/src"), &mut files)?;
    collect_rs_files(&root.join("crates/obs/src"), &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in &files {
        if path.file_name().is_some_and(|n| n == "sync.rs") {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, fs::read_to_string(path)?));
    }
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(lock_order_sources(&refs))
}

struct LockFieldDecl {
    name: String,
    by_ref: bool,
}

/// Parses `[pub] name: <type containing a lock generic or condvar>` —
/// a struct/enum-variant field or a fn parameter. `Type::path` uses
/// (`Mutex::new`) are excluded by the `::` check; `use`/turbofish lines
/// have no single-colon ident prefix and never match.
fn lock_field_decl(code: &str) -> Option<LockFieldDecl> {
    let hit = LOCK_GENERICS
        .iter()
        .map(|t| (*t, true))
        .chain(CONDVARS.iter().map(|t| (*t, false)))
        .find_map(|(ty, generic)| {
            let mut from = 0;
            while let Some(off) = code[from..].find(ty) {
                let at = from + off;
                let end = at + ty.len();
                let before_ok = at == 0
                    || !code.as_bytes()[at - 1].is_ascii_alphanumeric()
                        && code.as_bytes()[at - 1] != b'_'
                        && &code[at.saturating_sub(2)..at] != "::";
                let after = &code[end..];
                let after_ok = if generic {
                    after.starts_with('<')
                } else {
                    !after.starts_with("::")
                        && !after
                            .bytes()
                            .next()
                            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
                };
                if before_ok && after_ok {
                    return Some(at);
                }
                from = end;
            }
            None
        })?;
    // The decl shape: the text before the token must be `name: <prefix>`
    // with a single `:` (not `::`) and a lowercase-initial ident — so
    // SCREAMING_CASE statics stay lockcheck-internal and `use` paths and
    // return types never match.
    let head = &code[..hit];
    let colon = head.find(':').filter(|&i| !head[i..].starts_with("::"))?;
    if head[colon..].starts_with("::") || (colon > 0 && head.as_bytes()[colon - 1] == b':') {
        return None;
    }
    let mut name_part = head[..colon].trim();
    for prefix in ["pub(crate)", "pub(super)", "pub"] {
        if let Some(rest) = name_part.strip_prefix(prefix) {
            name_part = rest.trim();
        }
    }
    if name_part.contains(' ') || name_part.contains('(') || name_part.contains('<') {
        return None;
    }
    let name = name_part.to_string();
    if !name.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_') {
        return None;
    }
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let ty = head[colon + 1..].trim_start();
    Some(LockFieldDecl { name, by_ref: ty.starts_with('&') })
}

/// Extracts `name` from a `// lock-class: name` annotation line.
fn annotation(raw: &str) -> Option<String> {
    let at = raw.find("lock-class:")?;
    let rest = raw[at + "lock-class:".len()..].trim();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_' || *c == '-')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Records every `fn name` body in `ctx` (test regions excluded), keeping
/// a stack so nested fns get their own entries.
fn index_fns(fi: usize, ctx: &FileCtx, out: &mut Vec<FnDef>) {
    let mut pending: Option<(String, usize)> = None;
    let mut open: Vec<(String, usize, i32)> = Vec::new(); // (name, start, depth at open)
    for i in 1..=ctx.scanned.code.len() {
        let code = &ctx.scanned.code[i - 1];
        let mut d = ctx.depth_before[i];
        if pending.is_none() {
            if let Some(name) = fn_decl_name(code) {
                if !ctx.scanned.in_test_region(i) {
                    pending = Some((name, i));
                }
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    if let Some((name, start)) = pending.take() {
                        open.push((name, start, d));
                    }
                    d += 1;
                }
                '}' => {
                    d -= 1;
                    if open.last().is_some_and(|&(_, _, od)| d == od) {
                        let (name, start, _) = open.pop().expect("just checked");
                        out.push(FnDef { name, file: fi, start, end: i });
                    }
                }
                _ => {}
            }
        }
        // A `;` before any `{` ends a bodyless trait-method declaration.
        if pending.is_some() && code.trim_end().ends_with(';') {
            pending = None;
        }
    }
}

/// The declared name on a `fn name(` line, if any.
fn fn_decl_name(code: &str) -> Option<String> {
    let mut from = 0;
    while let Some(off) = code[from..].find("fn ") {
        let at = from + off;
        let boundary = at == 0 || {
            let b = code.as_bytes()[at - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        if boundary {
            let rest = code[at + 3..].trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        from = at + 3;
    }
    None
}

#[derive(Debug, Clone)]
struct Guard {
    name: Option<String>,
    class: Option<String>,
    /// Block guards die when depth returns to `birth_depth`; named `let`
    /// guards (`strict` = true) die when depth drops *below* it; `None`
    /// marks a statement-transient guard.
    birth_depth: Option<(i32, bool)>,
}

#[derive(Default)]
struct WalkOut {
    direct: FnFx,
    findings: Vec<LockFinding>,
    edges: Vec<(String, String, usize)>,
}

#[allow(clippy::too_many_arguments)]
fn walk_fn(
    def: &FnDef,
    self_idx: usize,
    fns: &[FnDef],
    ctx: &FileCtx,
    global_classes: &HashMap<String, Option<String>>,
    resolve: &dyn Fn(usize, &str) -> Option<usize>,
    fx: Option<&Vec<FnFx>>,
    out: &mut WalkOut,
) {
    // Lines owned by fns nested strictly inside this one are theirs alone.
    let nested: Vec<(usize, usize)> = fns
        .iter()
        .enumerate()
        .filter(|&(i, f)| {
            i != self_idx && f.file == def.file && f.start >= def.start && f.end <= def.end
        })
        .map(|(_, f)| (f.start, f.end))
        .collect();

    let class_of = |ident: &str| -> Option<String> {
        ctx.classes
            .get(ident)
            .cloned()
            .or_else(|| global_classes.get(ident).and_then(|c| c.clone()))
    };

    let mut live: Vec<Guard> = Vec::new();
    let mut killed: HashMap<String, Guard> = HashMap::new();
    let mut spawn_parens = 0i32; // >0: inside a multi-line `.spawn(…)` closure

    for i in def.start..=def.end {
        if ctx.scanned.in_test_region(i) || nested.iter().any(|&(s, e)| s <= i && i <= e) {
            continue;
        }
        let code = &ctx.scanned.code[i - 1];
        let next_depth = ctx.depth_before[i + 1];

        if spawn_parens > 0 {
            spawn_parens += paren_balance(code);
            expire(&mut live, next_depth);
            continue;
        }
        // Effects after `.spawn(` run on the spawned thread, not under our
        // guards: truncate (same-line closure) or skip until the call's
        // parens close.
        let mut eff: &str = code;
        if let Some(at) = code.find(".spawn(") {
            let tail = &code[at..];
            let bal = paren_balance(tail);
            eff = &code[..at];
            if bal > 0 {
                spawn_parens = bal;
            }
        }

        // Revive drop()-killed guards the line still uses, then process kills.
        let used: Vec<String> = killed
            .keys()
            .filter(|n| has_token(eff, n) && !eff.contains(&format!("drop({n})")))
            .cloned()
            .collect();
        for n in used {
            if let Some(g) = killed.remove(&n) {
                live.push(g);
            }
        }
        let mut search = eff;
        while let Some(at) = search.find("drop(") {
            let arg: String = search[at + 5..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if let Some(pos) = live.iter().position(|g| g.name.as_deref() == Some(arg.as_str())) {
                let g = live.remove(pos);
                killed.insert(arg.clone(), g);
            }
            search = &search[at + 5..];
        }

        // Acquisitions on this line (receiver may end the previous line).
        let mut acquired: Vec<(Option<String>, Option<String>)> = Vec::new(); // (recv, class)
        for tok in ACQUIRE {
            let mut from = 0;
            while let Some(off) = eff[from..].find(tok) {
                let at = from + off;
                let recv = if eff[..at].trim().is_empty() && i > def.start {
                    trailing_ident(&ctx.scanned.code[i - 2])
                } else {
                    trailing_ident(&eff[..at])
                };
                let class = recv.as_deref().and_then(class_of);
                acquired.push((recv, class));
                from = at + tok.len();
            }
        }
        let held_before: Vec<String> =
            live.iter().filter_map(|g| g.class.clone()).collect();
        for (_, class) in &acquired {
            if let Some(c) = class {
                out.direct.classes.insert(c.clone());
                // Same-class self-edges are skipped: re-locking the class a
                // thread already holds is recursion, which the *runtime*
                // checker panics on (and its unit tests cover) — statically
                // it is indistinguishable from a guard reassignment
                // (`drop(g); … g = x.lock();`).
                for h in held_before.iter().filter(|h| *h != c) {
                    out.edges.push((h.clone(), c.clone(), i));
                }
            }
        }

        // Bind the acquisitions to guards by statement shape.
        if !acquired.is_empty() {
            let trimmed = eff.trim_start();
            let depth = ctx.depth_before[i];
            let head_kw = ["if let ", "while let ", "for ", "match "]
                .iter()
                .any(|k| trimmed.starts_with(k) || trimmed.contains(&format!("else {k}")));
            if head_kw && !trimmed.contains(" else {") {
                let (_, class) = acquired[0].clone();
                live.push(Guard { name: None, class, birth_depth: Some((depth, false)) });
            } else if let Some(name) = binding_name(trimmed) {
                if rhs_ends_at_acquisition(trimmed) {
                    let (_, class) = acquired[0].clone();
                    if !live.iter().any(|g| g.name.as_deref() == Some(name.as_str())) {
                        live.push(Guard {
                            name: Some(name),
                            class,
                            birth_depth: Some((depth, true)),
                        });
                    }
                } else {
                    for (_, class) in &acquired {
                        live.push(Guard { name: None, class: class.clone(), birth_depth: None });
                    }
                }
            } else {
                for (_, class) in &acquired {
                    live.push(Guard { name: None, class: class.clone(), birth_depth: None });
                }
            }
        }

        // Condvar waits: blocking for callers (summary), locally exempt
        // while the waited guard is the only one held.
        let is_wait = WAITS.iter().any(|t| eff.contains(t));
        if is_wait {
            out.direct.blocking = true;
            if live.len() >= 2 {
                report(out, ctx, i, LockRule::BlockingUnderLock, format!(
                    "condvar wait while {} other lock(s) held ({})",
                    live.len() - 1,
                    held_names(&live)
                ));
            }
        }

        // Direct blocking / send tokens.
        for t in BLOCKING {
            if eff.contains(t) {
                out.direct.blocking = true;
                if !live.is_empty() && !is_wait {
                    report(out, ctx, i, LockRule::BlockingUnderLock, format!(
                        "blocking call `{}…)` while holding {}",
                        t.trim_start_matches('.'),
                        held_names(&live)
                    ));
                }
            }
        }
        for t in SENDS {
            if eff.contains(t) {
                out.direct.sends = true;
                if !live.is_empty() {
                    report(out, ctx, i, LockRule::SendUnderLock, format!(
                        "channel send `{}…)` while holding {}",
                        t.trim_start_matches('.'),
                        held_names(&live)
                    ));
                }
            }
        }

        // Resolvable calls: fold the callee's summary into this site.
        for (name, recv) in call_sites(eff) {
            if recv.as_deref().is_some_and(|r| {
                live.iter().any(|g| g.name.as_deref() == Some(r))
            }) {
                continue; // container op on a guard's payload
            }
            let Some(callee) = resolve(def.file, &name) else { continue };
            if callee == self_idx {
                continue;
            }
            out.direct.calls.insert(callee);
            if let Some(fx) = fx {
                let s = &fx[callee];
                if !live.is_empty() {
                    for c in &s.classes {
                        for h in &held_before {
                            if h != c {
                                out.edges.push((h.clone(), c.clone(), i));
                            }
                        }
                    }
                    if s.blocking {
                        report(out, ctx, i, LockRule::BlockingUnderLock, format!(
                            "call to `{name}` (transitively blocking) while holding {}",
                            held_names(&live)
                        ));
                    }
                    if s.sends {
                        report(out, ctx, i, LockRule::SendUnderLock, format!(
                            "call to `{name}` (transitively sends) while holding {}",
                            held_names(&live)
                        ));
                    }
                }
            }
        }

        // Statement-transient guards end with the statement.
        let end = eff.trim_end();
        if end.ends_with(';') || end.ends_with('{') || end.ends_with('}') || end.ends_with(',') {
            live.retain(|g| g.birth_depth.is_some());
        }
        expire(&mut live, next_depth);
    }
}

fn expire(live: &mut Vec<Guard>, next_depth: i32) {
    live.retain(|g| match g.birth_depth {
        Some((d, strict)) => {
            if strict {
                next_depth >= d
            } else {
                next_depth > d
            }
        }
        None => true,
    });
}

fn report(out: &mut WalkOut, ctx: &FileCtx, line: usize, rule: LockRule, detail: String) {
    if ctx.scanned.allowed_name(PRAGMA, line) {
        return;
    }
    out.findings.push(LockFinding { rule, file: ctx.path.clone(), line, detail });
}

fn held_names(live: &[Guard]) -> String {
    let names: Vec<String> = live
        .iter()
        .map(|g| match &g.class {
            Some(c) => format!("`{c}`"),
            None => "an unclassed lock".to_string(),
        })
        .collect();
    names.join(", ")
}

/// Net `(` minus `)` on a code-view line.
fn paren_balance(code: &str) -> i32 {
    let mut b = 0i32;
    for ch in code.chars() {
        match ch {
            '(' => b += 1,
            ')' => b -= 1,
            _ => {}
        }
    }
    b
}

/// The identifier ending `text` (skipping trailing whitespace), if any.
fn trailing_ident(text: &str) -> Option<String> {
    let t = text.trim_end();
    let end = t.len();
    let start = t
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_ascii_alphanumeric() || *c == '_')
        .last()
        .map(|(i, _)| i)?;
    let ident = &t[start..end];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(ident.to_string())
}

/// `let [mut] name = …` / `name = …` binding target, if the line is one.
fn binding_name(trimmed: &str) -> Option<String> {
    let rest = if let Some(r) = trimmed.strip_prefix("let ") {
        r.trim_start().strip_prefix("mut ").unwrap_or(r.trim_start())
    } else {
        trimmed
    };
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    if after.starts_with('=') && !after.starts_with("==") && !after.starts_with("=>") {
        Some(name)
    } else {
        None
    }
}

/// Whether a binding's right-hand side *ends* at the acquisition — the
/// named-guard form (`x.lock();`, `x.lock().unwrap();`,
/// `x.lock().expect("…");`). Chained forms are statement-transient.
fn rhs_ends_at_acquisition(line: &str) -> bool {
    let r = line.trim_end().trim_end_matches(';').trim_end();
    for t in ACQUIRE {
        if r.ends_with(t) {
            return true;
        }
        if let Some(base) = r.strip_suffix(".unwrap()") {
            if base.ends_with(t) {
                return true;
            }
        }
        if r.ends_with(')') {
            if let Some(pos) = r.rfind(".expect(") {
                if r[..pos].ends_with(t) && paren_balance(&r[pos..]) == 0 {
                    return true;
                }
            }
        }
    }
    false
}

/// `(callee name, receiver ident)` for each `name(` call on a line.
fn call_sites(eff: &str) -> Vec<(String, Option<String>)> {
    let bytes = eff.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'(' && i > 0 {
            let head = &eff[..i];
            if let Some(name) = trailing_ident(head) {
                let before = head.trim_end();
                let before = &before[..before.len() - name.len()];
                // Skip declarations (`fn name(`, at an ident boundary).
                let b = before.trim_end();
                let is_decl = b.ends_with("fn")
                    && (b.len() == 2 || {
                        let c = b.as_bytes()[b.len() - 3];
                        !c.is_ascii_alphanumeric() && c != b'_'
                    });
                if !is_decl {
                    let recv = before.strip_suffix('.').and_then(trailing_ident);
                    out.push((name, recv));
                }
            }
        }
        i += 1;
    }
    out
}

/// A path `from → … → to` in the class graph, if one exists.
fn path_between(
    adj: &HashMap<&str, Vec<&str>>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut stack = vec![vec![from.to_string()]];
    let mut visited: HashSet<String> = HashSet::new();
    while let Some(path) = stack.pop() {
        let last = path.last().expect("non-empty path").clone();
        if last == to {
            return Some(path);
        }
        if !visited.insert(last.clone()) {
            continue;
        }
        if let Some(nexts) = adj.get(last.as_str()) {
            for n in nexts {
                if !visited.contains(*n) || *n == to {
                    let mut p = path.clone();
                    p.push((*n).to_string());
                    stack.push(p);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<LockFinding> {
        lock_order_sources(files)
    }

    fn rules(files: &[(&str, &str)]) -> Vec<LockRule> {
        run(files).into_iter().map(|f| f.rule).collect()
    }

    const TWO_CLASSES: &str = "\
struct S {
    // lock-class: test.a
    a: Mutex<u32>,
    // lock-class: test.b
    b: Mutex<u32>,
}
";

    #[test]
    fn inverted_acquisition_order_is_a_cycle() {
        let src = format!(
            "{TWO_CLASSES}
impl S {{
    fn ab(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    fn ba(&self) {{
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        drop(ga);
        drop(gb);
    }}
}}
"
        );
        let found = run(&[("crates/net/src/x.rs", &src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, LockRule::LockCycle);
        assert!(found[0].detail.contains("test.a") && found[0].detail.contains("test.b"));
        // Cycles are not pragma-suppressible: an allow-file changes nothing.
        let escaped = format!("// lint:allow-file(lock-order) — nice try\n{src}");
        assert_eq!(rules(&[("crates/net/src/x.rs", &escaped)]), vec![LockRule::LockCycle]);
    }

    #[test]
    fn consistent_order_and_interprocedural_edges_are_clean() {
        let src = format!(
            "{TWO_CLASSES}
impl S {{
    fn inner_b(&self) {{
        let gb = self.b.lock().unwrap();
        drop(gb);
    }}
    fn ab_direct(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    fn ab_via_call(&self) {{
        let ga = self.a.lock().unwrap();
        self.inner_b();
        drop(ga);
    }}
}}
"
        );
        assert_eq!(run(&[("crates/net/src/x.rs", &src)]), vec![], "a→b both ways: no cycle");
    }

    #[test]
    fn cycle_found_through_a_call_chain() {
        let src = format!(
            "{TWO_CLASSES}
impl S {{
    fn takes_a(&self) {{
        let ga = self.a.lock().unwrap();
        drop(ga);
    }}
    fn ab(&self) {{
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        drop(gb);
        drop(ga);
    }}
    fn b_then_call_a(&self) {{
        let gb = self.b.lock().unwrap();
        self.takes_a();
        drop(gb);
    }}
}}
"
        );
        assert_eq!(rules(&[("crates/net/src/x.rs", &src)]), vec![LockRule::LockCycle]);
    }

    #[test]
    fn blocking_under_live_guard_is_flagged_and_drop_clears_it() {
        let src = format!(
            "{TWO_CLASSES}
impl S {{
    fn bad(&self, s: &mut std::net::TcpStream) {{
        let ga = self.a.lock().unwrap();
        s.write_all(b\"x\").unwrap();
        drop(ga);
    }}
    fn good(&self, s: &mut std::net::TcpStream) {{
        let ga = self.a.lock().unwrap();
        drop(ga);
        s.write_all(b\"x\").unwrap();
    }}
}}
"
        );
        let found = run(&[("crates/net/src/x.rs", &src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, LockRule::BlockingUnderLock);
        assert!(found[0].detail.contains("test.a"), "{}", found[0].detail);
    }

    #[test]
    fn transitively_blocking_call_under_guard_is_flagged() {
        let src = format!(
            "{TWO_CLASSES}
impl S {{
    fn helper(&self, s: &mut std::net::TcpStream) {{
        s.write_all(b\"x\").unwrap();
    }}
    fn bad(&self, s: &mut std::net::TcpStream) {{
        let ga = self.a.lock().unwrap();
        self.helper(s);
        drop(ga);
    }}
}}
"
        );
        let found = run(&[("crates/net/src/x.rs", &src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, LockRule::BlockingUnderLock);
        assert!(found[0].detail.contains("helper"), "{}", found[0].detail);
    }

    #[test]
    fn send_under_guard_is_flagged() {
        let src = format!(
            "{TWO_CLASSES}
impl S {{
    fn bad(&self, tx: &Sender) {{
        let ga = self.a.lock().unwrap();
        let _ = tx.try_deliver(1);
        drop(ga);
    }}
}}
"
        );
        assert_eq!(rules(&[("crates/net/src/x.rs", &src)]), vec![LockRule::SendUnderLock]);
    }

    #[test]
    fn condvar_wait_with_sole_guard_ok_extra_guard_flagged() {
        let src = "\
struct W {
    // lock-class: test.q
    q: Mutex<Vec<u32>>,
    // lock-class: test.q
    cv: Condvar,
    // lock-class: test.other
    other: Mutex<u32>,
}
impl W {
    fn wait_ok(&self) {
        let mut g = self.q.lock().unwrap();
        while g.is_empty() {
            g = self.cv.wait(g).unwrap();
        }
    }
    fn wait_bad(&self) {
        let go = self.other.lock().unwrap();
        let g = self.q.lock().unwrap();
        let _g = self.cv.wait(g).unwrap();
        drop(go);
    }
}
";
        let found = run(&[("crates/net/src/x.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, LockRule::BlockingUnderLock);
        assert!(found[0].detail.contains("condvar wait"), "{}", found[0].detail);
    }

    #[test]
    fn if_let_head_guard_spans_the_block() {
        // The register/deregister bug shape: pre-2024 temporary lifetimes
        // keep the write-guard live for the whole `if let` block.
        let bad = "\
struct R {
    // lock-class: test.eps
    eps: RwLock<u32>,
}
impl R {
    fn swap(&self, s: &mut std::net::TcpStream) {
        if let Some(_old) = self.eps.write().insert(1) {
            s.write_all(b\"poke\").unwrap();
        }
    }
}
";
        assert_eq!(
            rules(&[("crates/net/src/x.rs", bad)]),
            vec![LockRule::BlockingUnderLock]
        );
        // The fixed shape: bind first, so the temporary ends at the `;`.
        let good = "\
struct R {
    // lock-class: test.eps
    eps: RwLock<u32>,
}
impl R {
    fn swap(&self, s: &mut std::net::TcpStream) {
        let replaced = self.eps.write().insert(1);
        if let Some(_old) = replaced {
            s.write_all(b\"poke\").unwrap();
        }
    }
}
";
        assert_eq!(run(&[("crates/net/src/x.rs", good)]), vec![]);
    }

    #[test]
    fn let_else_runs_its_else_arm_guard_free() {
        let src = "\
struct R {
    // lock-class: test.m
    m: Mutex<Vec<u32>>,
}
impl R {
    fn take(&self, s: &mut std::net::TcpStream) {
        let Some(v) = self.m.lock().unwrap().pop() else {
            s.write_all(b\"empty\").unwrap();
            return;
        };
        s.write_all(&[v as u8]).unwrap();
    }
}
";
        assert_eq!(run(&[("crates/net/src/x.rs", src)]), vec![]);
    }

    #[test]
    fn chained_transient_guard_covers_its_own_statement() {
        let src = "\
struct R {
    // lock-class: test.out
    out: Mutex<u32>,
}
impl R {
    fn flush_under_lock(&self, s: &mut std::net::TcpStream) {
        self.out.lock().unwrap();
        let _x = 1;
    }
    fn same_stmt(&self) {
        self.out.lock().expect(\"out lock\").flush().unwrap();
    }
}
";
        let found = run(&[("crates/net/src/x.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, LockRule::BlockingUnderLock);
        assert!(found[0].detail.contains("flush"), "{}", found[0].detail);
    }

    #[test]
    fn spawn_closure_bodies_run_on_their_own_thread() {
        let src = "\
struct R {
    // lock-class: test.m
    m: Mutex<u32>,
}
impl R {
    fn helper(&self, s: &mut std::net::TcpStream) {
        s.write_all(b\"x\").unwrap();
    }
    fn ok(&self, s: &mut std::net::TcpStream) {
        let g = self.m.lock().unwrap();
        std::thread::Builder::new()
            .name(\"w\".into())
            .spawn(move || {
                helper_free(s);
            })
            .unwrap();
        drop(g);
    }
}
fn helper_free(s: &mut std::net::TcpStream) {
    s.write_all(b\"x\").unwrap();
}
";
        assert_eq!(run(&[("crates/net/src/x.rs", src)]), vec![]);
    }

    #[test]
    fn dropped_guard_revives_on_reuse() {
        // The enqueue idiom: branch-local drop + send, then the fall-through
        // path keeps using the guard.
        let src = "\
struct R {
    // lock-class: test.q
    q: Mutex<Vec<u32>>,
}
impl R {
    fn enqueue(&self, tx: &Sender, v: u32) {
        let mut st = self.q.lock().unwrap();
        if st.len() > 4 {
            drop(st);
            let _ = tx.try_deliver(v);
            return;
        }
        st.push(v);
        drop(st);
        let _ = tx.try_deliver(v);
    }
}
";
        assert_eq!(run(&[("crates/net/src/x.rs", src)]), vec![]);
    }

    #[test]
    fn unclassed_field_flagged_ref_params_exempt() {
        let src = "\
struct R {
    naked: Mutex<u32>,
}
fn takes(m: &Mutex<u32>) -> u32 {
    let g = m.lock().unwrap();
    *g
}
";
        let found = run(&[("crates/net/src/x.rs", src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, LockRule::UnclassedLockField);
        assert!(found[0].detail.contains("naked"));
    }

    #[test]
    fn pragma_with_reason_suppresses_non_cycle_findings() {
        let src = "\
struct R {
    // lock-class: test.out
    out: Mutex<u32>,
}
impl R {
    fn flush(&self) {
        // lint:allow(lock-order) — the sink lock is the I/O serialization point
        self.out.lock().expect(\"out lock\").flush().unwrap();
    }
}
";
        assert_eq!(run(&[("crates/net/src/x.rs", src)]), vec![]);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "\
struct R {
    // lock-class: test.m
    m: Mutex<u32>,
}
#[cfg(test)]
mod tests {
    fn poke(r: &super::R, s: &mut std::net::TcpStream) {
        let g = r.m.lock().unwrap();
        s.write_all(b\"x\").unwrap();
        drop(g);
    }
}
";
        assert_eq!(run(&[("crates/net/src/x.rs", src)]), vec![]);
    }

    #[test]
    fn repo_runtime_is_lock_order_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lock_order_repo(&root).expect("walk repo");
        assert!(
            findings.is_empty(),
            "lock-order pass must stay clean:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    /// Meta negative-control: the clean result above must come from the
    /// pragmas doing their job, not from the pass being blind to the real
    /// sources. Stripping the `lint:allow(lock-order)` lines from the
    /// JSONL sink must surface its blocking-under-lock sites.
    #[test]
    fn repo_clean_depends_on_the_jsonl_pragmas() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let src = std::fs::read_to_string(root.join("crates/obs/src/jsonl.rs"))
            .expect("read jsonl.rs");
        let stripped: String = src
            .lines()
            .filter(|l| !l.contains("lint:allow(lock-order)"))
            .map(|l| format!("{l}\n"))
            .collect();
        let findings = run(&[("crates/obs/src/jsonl.rs", stripped.as_str())]);
        assert!(
            findings.iter().any(|f| f.rule == LockRule::BlockingUnderLock
                && f.detail.contains("obs.jsonl.out")),
            "expected blocking-under-lock findings once pragmas are gone, got:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
        assert!(findings.iter().all(|f| f.rule == LockRule::BlockingUnderLock));
    }

    /// Meta negative-control: acquisition edges from different files meet
    /// in one graph, matched by class name. The runtime itself now nests no
    /// two lock classes (the shard runtime left `crates/net` with no locks
    /// at all), so the pair is synthetic: one file taking `test.outer` then
    /// `test.inner`, another taking them the other way round. Neither is a
    /// cycle alone; together they must be.
    #[test]
    fn edges_from_separate_files_close_a_cycle() {
        let forward = "
use std::sync::{Mutex, RwLock};
struct Forward {
    // lock-class: test.outer
    outer: Mutex<u32>,
    // lock-class: test.inner
    inner: RwLock<u32>,
}
impl Forward {
    fn outer_then_inner(&self) {
        let go = self.outer.lock().unwrap();
        let gi = self.inner.write().unwrap();
        drop(gi);
        drop(go);
    }
}
";
        let backward = "
use std::sync::{Mutex, RwLock};
struct Backward {
    // lock-class: test.inner
    state: Mutex<u32>,
    // lock-class: test.outer
    table: RwLock<u32>,
}
impl Backward {
    fn inner_then_outer(&self) {
        let gi = self.state.lock().unwrap();
        let go = self.table.write().unwrap();
        drop(go);
        drop(gi);
    }
}
";
        assert_eq!(run(&[("crates/net/src/forward.rs", forward)]), vec![]);
        assert_eq!(run(&[("crates/net/src/backward.rs", backward)]), vec![]);
        let findings = run(&[
            ("crates/net/src/forward.rs", forward),
            ("crates/obs/src/backward.rs", backward),
        ]);
        assert!(
            findings.iter().any(|f| f.rule == LockRule::LockCycle
                && f.detail.contains("test.outer")
                && f.detail.contains("test.inner")),
            "expected an outer/inner cycle across the two files, got:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
