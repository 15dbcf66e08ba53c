//! `cargo xtask analyze`: the workspace determinism / cast-safety /
//! concurrency-discipline / panic-freedom analyzer.
//!
//! Every acceptance gate in this reproduction — golden chaos/faults
//! documents, SIGKILL-and-resume byte identity, per-epoch `LMPRCTLS`
//! checkpoints, blast-radius verify certificates — rests on the
//! simulators and serializers being *bit-deterministic*. Nothing about
//! the type system enforces that, so this pass does, lexically, over
//! the shared masked lexer ([`crate::lexer`]):
//!
//! * **DET-ORDER** — iteration over `HashMap`/`HashSet` (including
//!   single-line `type` aliases of them) in non-test code of the crates
//!   that feed serialized output. Sites whose results are immediately
//!   sorted (a `.sort` call on the same or the next two lines) are
//!   exempt — that is the workspace's established collect-then-sort
//!   idiom.
//! * **DET-TIME** — `Instant::now` / `SystemTime` / `UNIX_EPOCH`
//!   confined to the approved timing modules (the ctld server queue
//!   and the ctld bench's timing). Sim, selection and verify
//!   logic must run on logical clocks only.
//! * **CAST-NARROW** — a ratchet on `as` casts to possibly-narrower
//!   integer/float types, driving hot paths toward `try_from` or
//!   invariant-documented conversion helpers.
//! * **THREAD-DISCIPLINE** — thread spawning, lock construction and
//!   channel construction only in the approved concurrency modules,
//!   plus a lexical lock-nesting scan that flags inconsistent
//!   `.lock()` acquisition order across functions.
//! * **UNSAFE-FORBID** — every crate root (lib, bin, example) must
//!   carry `#![forbid(unsafe_code)]`. Never allowlistable.
//! * **PANIC-SITE** — `unwrap()` / `expect()` / `panic!` in library
//!   code (every audited root but the experiment binaries in
//!   `crates/bench`), which must surface failures as typed errors
//!   (`RouteError`, `SpecError`, `SimError`, …). The vetted remainder —
//!   documented invariant panics such as `K ≥ 1` constructor guards —
//!   is pinned like any other finding.
//!
//! Findings are pinned in `crates/xtask/analyze-allowlist.txt` with an
//! exact-count ratchet: a rising count fails (fix or vet), a falling
//! count fails until `--update` tightens the pin, stale entries fail,
//! and deny-listed directories (`crates/flitsim/src`, `crates/ctld/src`,
//! `crates/codec/src`) can never pin DET-ORDER, DET-TIME or PANIC-SITE
//! findings at all. Each run emits an `lmpr_verify`-style JSON
//! certificate to `target/analyze-report.json`.

use crate::lexer;
use crate::report::{CheckRun, Diagnostic, Report, RuleId, Severity, ALL_RULES};
use crate::workspace::{collect_rs_files, denied, rel, workspace_root};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Source roots the analyzer audits: every crate that feeds serialized
/// output (results documents, certificates, checkpoints, benchmarks).
const ANALYZE_ROOTS: &[&str] = &[
    "crates/codec/src",
    "crates/xgft/src",
    "crates/core/src",
    "crates/traffic/src",
    "crates/flowsim/src",
    "crates/flitsim/src",
    "crates/verify/src",
    "crates/ctld/src",
    "crates/bench/src",
    "src",
];

/// Crate source dirs whose roots (lib.rs / main.rs / bin/*.rs) must
/// carry `#![forbid(unsafe_code)]`.
const CRATE_SRC_DIRS: &[&str] = &[
    "src",
    "crates/codec/src",
    "crates/xgft/src",
    "crates/core/src",
    "crates/traffic/src",
    "crates/flowsim/src",
    "crates/flitsim/src",
    "crates/verify/src",
    "crates/ctld/src",
    "crates/bench/src",
    "crates/xtask/src",
];

/// The one audited root whose files PANIC-SITE skips: experiment
/// binaries may abort on a broken run; libraries may not.
const PANIC_EXEMPT_ROOT: &str = "crates/bench/src/";

/// Modules approved to read wall clocks: the ctld server (the
/// monotonic clock behind the controller's reconvergence latency stats)
/// and the ctld bench's timing. Everything else runs on logical clocks.
const TIME_APPROVED: &[&str] = &[
    "crates/ctld/src/server.rs",
    "crates/ctld/src/bin/ctl_bench.rs",
];

/// Modules approved to spawn threads / build locks and channels: the
/// one ordered fan-out (behind the sweep and study samplers and the
/// sharded degraded-coverage audit), the ctld socket front end, the
/// standby replication follower, and the ctld bench and soak drivers.
const THREAD_APPROVED: &[&str] = &[
    "crates/codec/src/par.rs",
    "crates/ctld/src/bin/ctl_bench.rs",
    "crates/ctld/src/bin/ctl_soak.rs",
    "crates/ctld/src/replication.rs",
    "crates/ctld/src/server.rs",
];

const ALLOWLIST: &str = "crates/xtask/analyze-allowlist.txt";
const REPORT_PATH: &str = "target/analyze-report.json";

/// One matched site inside a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Site {
    pub line: usize,
    pub msg: String,
}

/// Whether `(rule, file)` can never be vetted: DET-ORDER, DET-TIME and
/// PANIC-SITE in the deny-listed simulator/daemon/codec directories,
/// and UNSAFE-FORBID anywhere.
pub(crate) fn rule_denied(rule: RuleId, file: &str) -> bool {
    match rule {
        RuleId::DetOrder | RuleId::DetTime | RuleId::PanicSite => denied(file),
        RuleId::UnsafeForbid => true,
        RuleId::CastNarrow | RuleId::ThreadDiscipline => false,
    }
}

// ---------------------------------------------------------------------
// Word-level text helpers on masked source.
// ---------------------------------------------------------------------

/// Byte offsets of identifier-boundary occurrences of `word`.
fn word_positions(text: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(off) = text[start..].find(word) {
        let i = start + off;
        if lexer::is_word_at(text, i, word) {
            out.push(i);
        }
        start = i + 1;
    }
    out
}

fn contains_word(text: &str, word: &str) -> bool {
    !word_positions(text, word).is_empty()
}

// ---------------------------------------------------------------------
// DET-ORDER
// ---------------------------------------------------------------------

/// Iterator-producing method suffixes on a hash container.
const ITER_SUFFIXES: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

/// Hash-based type names visible in this file: the std containers plus
/// any single-line `type X = …HashMap…` aliases (e.g. `RouteKeyMap`).
fn hashy_type_names(masked: &str) -> Vec<String> {
    let mut names = vec!["HashMap".to_owned(), "HashSet".to_owned()];
    for line in masked.lines() {
        let Some(pos) = word_positions(line, "type").first().copied() else {
            continue;
        };
        let rest = line[pos + 4..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let Some(eq) = rest.find('=') else { continue };
        let rhs = &rest[eq + 1..];
        let aliased = names.iter().any(|t| contains_word(rhs, t));
        if aliased {
            names.push(name);
        }
    }
    names
}

/// Identifier declared immediately before a type occurrence at
/// `type_pos`, as in `counts: HashMap<…>` / `seen: &mut HashSet<…>` /
/// `cache: Option<RouteKeyMap>` — walking back through path prefixes
/// and wrapper generics. `None` when the occurrence is not a
/// declaration site.
fn decl_ident_before(line: &str, type_pos: usize) -> Option<String> {
    let b = line.as_bytes();
    let mut i = type_pos;
    loop {
        // Path prefix `std::collections::`.
        if i >= 2 && b[i - 1] == b':' && b[i - 2] == b':' {
            i -= 2;
            while i > 0 && lexer::is_ident_byte(b[i - 1]) {
                i -= 1;
            }
            continue;
        }
        // Wrapper generic `Option<…`, `Arc<…`.
        if i > 0 && b[i - 1] == b'<' {
            i -= 1;
            while i > 0 && lexer::is_ident_byte(b[i - 1]) {
                i -= 1;
            }
            continue;
        }
        break;
    }
    while i > 0 && b[i - 1] == b' ' {
        i -= 1;
    }
    if i >= 3 && &line[i - 3..i] == "mut" && (i == 3 || !lexer::is_ident_byte(b[i - 4])) {
        i -= 3;
        while i > 0 && b[i - 1] == b' ' {
            i -= 1;
        }
    }
    while i > 0 && b[i - 1] == b'&' {
        i -= 1;
        while i > 0 && b[i - 1] == b' ' {
            i -= 1;
        }
    }
    // A single `:` (not `::`) marks a declaration.
    if i == 0 || b[i - 1] != b':' || (i >= 2 && b[i - 2] == b':') {
        return None;
    }
    i -= 1;
    while i > 0 && b[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    while i > 0 && lexer::is_ident_byte(b[i - 1]) {
        i -= 1;
    }
    (i < end && !b[i].is_ascii_digit()).then(|| line[i..end].to_owned())
}

/// Identifiers bound to hash-based containers in this file: let
/// bindings whose line mentions a hashy type, plus `ident: Type`
/// declarations (fields, params).
fn hashy_idents(masked: &str, types: &[String]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in masked.lines() {
        if !types.iter().any(|t| contains_word(line, t)) {
            continue;
        }
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                out.insert(name);
            }
            continue;
        }
        for t in types {
            for pos in word_positions(line, t) {
                if let Some(name) = decl_ident_before(line, pos) {
                    out.insert(name);
                }
            }
        }
    }
    out
}

/// Whether the occurrence at `pos` is the target of a `for … in` loop
/// header (`for (k, v) in &counts {`).
fn is_for_in_target(line: &str, pos: usize, ident_len: usize) -> bool {
    if !line.trim_start().starts_with("for ") {
        return false;
    }
    if !word_positions(&line[..pos], "in").iter().any(|_| true) {
        return false;
    }
    let after = line[pos + ident_len..].trim_start();
    after.is_empty() || after.starts_with('{')
}

/// DET-ORDER: unordered iteration over hash-based containers.
pub(crate) fn det_order(masked: &str) -> Vec<Site> {
    let types = hashy_type_names(masked);
    let idents = hashy_idents(masked, &types);
    let lines: Vec<&str> = masked.lines().collect();
    let mut sites = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let mut flagged: BTreeSet<&str> = BTreeSet::new();
        for ident in &idents {
            for pos in word_positions(line, ident) {
                let after = &line[pos + ident.len()..];
                let iterates = ITER_SUFFIXES.iter().any(|s| after.starts_with(s))
                    || is_for_in_target(line, pos, ident.len());
                if !iterates {
                    continue;
                }
                // Collect-then-sort escape: the workspace's established
                // idiom sorts on the same or an immediately following
                // line, restoring determinism.
                let sorted = (ln..(ln + 3).min(lines.len())).any(|k| lines[k].contains(".sort"));
                if !sorted {
                    flagged.insert(ident);
                }
            }
        }
        for ident in flagged {
            sites.push(Site {
                line: ln + 1,
                msg: format!(
                    "unordered iteration over hash-based `{ident}`; \
                     sort the items or switch to BTreeMap/BTreeSet"
                ),
            });
        }
    }
    sites
}

// ---------------------------------------------------------------------
// DET-TIME
// ---------------------------------------------------------------------

const TIME_PATTERNS: &[&str] = &["Instant::now", "SystemTime", "UNIX_EPOCH"];

/// DET-TIME: wall-clock reads outside the approved modules.
pub(crate) fn det_time(masked: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    for (ln, line) in masked.lines().enumerate() {
        for pat in TIME_PATTERNS {
            if !word_positions(line, pat).is_empty() {
                sites.push(Site {
                    line: ln + 1,
                    msg: format!(
                        "wall-clock read `{pat}` outside the approved timing modules; \
                         sim/selection/verify logic must use logical clocks"
                    ),
                });
            }
        }
    }
    sites
}

// ---------------------------------------------------------------------
// CAST-NARROW
// ---------------------------------------------------------------------

/// Cast targets that can narrow (usize can be 32-bit; f32 drops
/// integer precision above 2^24).
const NARROW_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize", "f32",
];

/// CAST-NARROW: every `as` cast to a possibly-narrower target type.
/// Counted per occurrence, so two casts on one line cost two.
pub(crate) fn cast_narrow(masked: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    for (ln, line) in masked.lines().enumerate() {
        for pos in word_positions(line, "as") {
            let after = &line[pos + 2..];
            let stripped = after.trim_start();
            if stripped.len() == after.len() {
                continue; // `as` must be followed by whitespace
            }
            let ty: String = stripped
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if NARROW_TARGETS.contains(&ty.as_str()) {
                sites.push(Site {
                    line: ln + 1,
                    msg: format!(
                        "narrowing `as {ty}` cast; prefer try_from or an \
                         invariant-documented conversion helper"
                    ),
                });
            }
        }
    }
    sites
}

// ---------------------------------------------------------------------
// THREAD-DISCIPLINE
// ---------------------------------------------------------------------

const THREAD_PATTERNS: &[&str] = &[
    "thread::spawn",
    "thread::scope",
    "Mutex::new",
    "RwLock::new",
    "Condvar::new",
    "sync_channel",
    "mpsc::channel",
];

/// THREAD-DISCIPLINE (construction half): spawn/lock/channel
/// construction outside the approved modules.
pub(crate) fn thread_primitives(masked: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    for (ln, line) in masked.lines().enumerate() {
        for pat in THREAD_PATTERNS {
            if !word_positions(line, pat).is_empty() {
                sites.push(Site {
                    line: ln + 1,
                    msg: format!("concurrency primitive `{pat}` outside the approved modules"),
                });
            }
        }
    }
    sites
}

/// One `.lock()` acquisition, in source order, with its enclosing
/// function (lexically tracked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LockAcq {
    pub file: String,
    pub func: String,
    pub line: usize,
    pub recv: String,
}

/// Collect `.lock()` receivers per function, in order of appearance.
pub(crate) fn lock_acquisitions(file: &str, masked: &str) -> Vec<LockAcq> {
    let mut out = Vec::new();
    let mut func = String::from("<toplevel>");
    for (ln, line) in masked.lines().enumerate() {
        if let Some(pos) = word_positions(line, "fn").first().copied() {
            let name: String = line[pos + 2..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                func = name;
            }
        }
        let mut start = 0;
        while let Some(off) = line[start..].find(".lock()") {
            let i = start + off;
            let b = line.as_bytes();
            let mut j = i;
            while j > 0 && (lexer::is_ident_byte(b[j - 1]) || b[j - 1] == b'.') {
                j -= 1;
            }
            let recv = line[j..i].to_owned();
            if !recv.is_empty() {
                out.push(LockAcq {
                    file: file.to_owned(),
                    func: func.clone(),
                    line: ln + 1,
                    recv,
                });
            }
            start = i + ".lock()".len();
        }
    }
    out
}

/// THREAD-DISCIPLINE (ordering half): two locks acquired in opposite
/// orders in different places — the lexical shadow of a deadlock. Each
/// conflict is reported once, at its later witness.
pub(crate) fn lock_order_conflicts(acqs: &[LockAcq]) -> Vec<(String, Site)> {
    // Per-function acquisition sequences, then the pairwise "a before
    // b" relation with its first witness.
    let mut seqs: BTreeMap<(&str, &str), Vec<&LockAcq>> = BTreeMap::new();
    for a in acqs {
        seqs.entry((&a.file, &a.func)).or_default().push(a);
    }
    let mut before: BTreeMap<(&str, &str), &LockAcq> = BTreeMap::new();
    for seq in seqs.values() {
        for x in 0..seq.len() {
            for y in x + 1..seq.len() {
                let (a, b) = (seq[x], seq[y]);
                if a.recv != b.recv {
                    before.entry((&a.recv, &b.recv)).or_insert(b);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (&(a, b), w_ab) in &before {
        if a < b {
            if let Some(w_ba) = before.get(&(b, a)) {
                out.push((
                    w_ba.file.clone(),
                    Site {
                        line: w_ba.line,
                        msg: format!(
                            "inconsistent lock order: `{b}` then `{a}` in fn {} \
                             ({}:{}), but `{a}` then `{b}` in fn {} ({}:{})",
                            w_ba.func, w_ba.file, w_ba.line, w_ab.func, w_ab.file, w_ab.line
                        ),
                    },
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// UNSAFE-FORBID
// ---------------------------------------------------------------------

const FORBID_ATTR: &str = "#![forbid(unsafe_code)]";

/// Crate roots: lib.rs / main.rs / bin/*.rs of every workspace member
/// plus the top-level examples.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in CRATE_SRC_DIRS {
        let d = root.join(dir);
        for f in ["lib.rs", "main.rs"] {
            let p = d.join(f);
            if p.is_file() {
                out.push(p);
            }
        }
        if let Ok(entries) = std::fs::read_dir(d.join("bin")) {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "rs") {
                    out.push(p);
                }
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(root.join("examples")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// UNSAFE-FORBID: whether a crate-root file carries the attribute.
pub(crate) fn has_forbid_unsafe(text: &str) -> bool {
    text.contains(FORBID_ATTR)
}

// ---------------------------------------------------------------------
// PANIC-SITE
// ---------------------------------------------------------------------

/// The forbidden call forms. `.unwrap()` is matched exactly so
/// `unwrap_or_else` and friends stay legal; `.expect(` does not match
/// `.expect_err(`.
const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// PANIC-SITE: forbidden call forms outside test code, one site per
/// (line, pattern).
pub(crate) fn panic_sites(masked: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    for (ln, line) in masked.lines().enumerate() {
        for pat in PANIC_PATTERNS {
            if line.contains(pat) {
                sites.push(Site {
                    line: ln + 1,
                    msg: format!("`{pat}` in library code; surface a typed error instead"),
                });
            }
        }
    }
    sites
}

// ---------------------------------------------------------------------
// Ratchet
// ---------------------------------------------------------------------

/// Findings per `(rule, workspace-relative file)`, deterministic order.
pub(crate) type Counts = BTreeMap<(RuleId, String), Vec<Site>>;

/// Parsed `analyze-allowlist.txt`: `(rule, file, pinned count)`.
pub(crate) type Allowlist = Vec<(RuleId, String, usize)>;

fn read_allowlist(path: &Path) -> Result<Allowlist, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.splitn(3, ' ');
        let (rule, count, file) = match (cols.next(), cols.next(), cols.next()) {
            (Some(r), Some(c), Some(f)) => (r, c, f),
            _ => {
                return Err(format!(
                    "{}:{}: expected `<RULE> <count> <path>`",
                    path.display(),
                    i + 1
                ))
            }
        };
        let rule = RuleId::parse(rule)
            .ok_or_else(|| format!("{}:{}: unknown rule `{rule}`", path.display(), i + 1))?;
        let count: usize = count
            .parse()
            .map_err(|e| format!("{}:{}: bad count: {e}", path.display(), i + 1))?;
        out.push((rule, file.trim().to_owned(), count));
    }
    Ok(out)
}

/// The exact-pin ratchet: every violation as a diagnostic. An empty
/// return is the certificate.
pub(crate) fn ratchet_failures(counts: &Counts, allowed: &Allowlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Deny-listed (rule, file) pairs reject their allowlist entries
    // outright, so a site there can never be vetted away.
    for (rule, file, budget) in allowed {
        if *budget > 0 && rule_denied(*rule, file) {
            out.push(Diagnostic {
                rule: *rule,
                severity: Severity::Error,
                message: format!(
                    "{ALLOWLIST} pins {budget} {rule} site(s) for this file, but {rule} \
                     findings here can never be vetted — fix them instead"
                ),
                file: file.clone(),
                line: 0,
            });
        }
    }
    for ((rule, file), sites) in counts {
        let budget = if rule_denied(*rule, file) {
            0
        } else {
            allowed
                .iter()
                .find(|(r, f, _)| r == rule && f == file)
                .map(|&(_, _, n)| n)
                .unwrap_or(0)
        };
        match sites.len().cmp(&budget) {
            std::cmp::Ordering::Greater => {
                for s in sites {
                    out.push(Diagnostic {
                        rule: *rule,
                        severity: Severity::Error,
                        message: format!(
                            "{} [{} site(s), allowlist permits {budget}]",
                            s.msg,
                            sites.len()
                        ),
                        file: file.clone(),
                        line: s.line,
                    });
                }
            }
            std::cmp::Ordering::Less => {
                out.push(Diagnostic {
                    rule: *rule,
                    severity: Severity::Warning,
                    message: format!(
                        "{} {rule} site(s) but allowlist pins {budget} — the file \
                         improved; tighten the pin (`cargo xtask analyze --update`)",
                        sites.len()
                    ),
                    file: file.clone(),
                    line: 0,
                });
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    for (rule, file, budget) in allowed {
        if *budget > 0 && !rule_denied(*rule, file) && !counts.contains_key(&(*rule, file.clone()))
        {
            out.push(Diagnostic {
                rule: *rule,
                severity: Severity::Warning,
                message: format!(
                    "no {rule} sites remain but allowlist pins {budget} — remove the \
                     stale entry (`cargo xtask analyze --update`)"
                ),
                file: file.clone(),
                line: 0,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Run every rule over the workspace. Returns the per-(rule, file)
/// finding table and the per-rule coverage records.
fn run_rules(root: &Path) -> Result<(Counts, Vec<CheckRun>), String> {
    let mut files = Vec::new();
    for dir in ANALYZE_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut counts: Counts = BTreeMap::new();
    let mut raw_per_rule: BTreeMap<RuleId, u64> = BTreeMap::new();
    let mut inspected: BTreeMap<RuleId, u64> = BTreeMap::new();
    let mut acqs: Vec<LockAcq> = Vec::new();

    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let relpath = rel(root, file);
        let masked = lexer::mask(&text);

        let mut add = |rule: RuleId, sites: Vec<Site>| {
            *raw_per_rule.entry(rule).or_default() += sites.len() as u64;
            if !sites.is_empty() {
                counts.insert((rule, relpath.clone()), sites);
            }
        };

        *inspected.entry(RuleId::DetOrder).or_default() += 1;
        add(RuleId::DetOrder, det_order(&masked));

        if !TIME_APPROVED.contains(&relpath.as_str()) {
            *inspected.entry(RuleId::DetTime).or_default() += 1;
            add(RuleId::DetTime, det_time(&masked));
        }

        *inspected.entry(RuleId::CastNarrow).or_default() += 1;
        add(RuleId::CastNarrow, cast_narrow(&masked));

        if !THREAD_APPROVED.contains(&relpath.as_str()) {
            *inspected.entry(RuleId::ThreadDiscipline).or_default() += 1;
            add(RuleId::ThreadDiscipline, thread_primitives(&masked));
        }
        if !relpath.starts_with(PANIC_EXEMPT_ROOT) {
            *inspected.entry(RuleId::PanicSite).or_default() += 1;
            add(RuleId::PanicSite, panic_sites(&masked));
        }
        // Lock ordering is audited everywhere, approved modules
        // included: approval covers *owning* locks, not acquiring them
        // in conflicting orders.
        acqs.extend(lock_acquisitions(&relpath, &masked));
    }

    for (file, site) in lock_order_conflicts(&acqs) {
        *raw_per_rule.entry(RuleId::ThreadDiscipline).or_default() += 1;
        counts
            .entry((RuleId::ThreadDiscipline, file))
            .or_default()
            .push(site);
    }

    for path in crate_roots(root) {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        *inspected.entry(RuleId::UnsafeForbid).or_default() += 1;
        if !has_forbid_unsafe(&text) {
            *raw_per_rule.entry(RuleId::UnsafeForbid).or_default() += 1;
            counts
                .entry((RuleId::UnsafeForbid, rel(root, &path)))
                .or_default()
                .push(Site {
                    line: 1,
                    msg: format!("crate root lacks `{FORBID_ATTR}`"),
                });
        }
    }

    let checks = ALL_RULES
        .iter()
        .map(|&rule| CheckRun {
            rule,
            inspected: inspected.get(&rule).copied().unwrap_or(0),
            findings: raw_per_rule.get(&rule).copied().unwrap_or(0),
        })
        .collect();
    Ok((counts, checks))
}

/// Serialize the allowlist for `--update`. Deny-refused entries are
/// returned as diagnostics instead of being written.
fn render_allowlist(counts: &Counts) -> (String, Vec<Diagnostic>) {
    let mut out = String::from(
        "# Exact per-(rule, file) counts of vetted `cargo xtask analyze` findings.\n\
         # Format: <RULE> <count> <path>. Regenerate with\n\
         # `cargo xtask analyze --update` after vetting any change; the gate\n\
         # fails on both increases (new hazards) and decreases (stale pins).\n\
         # DET-ORDER, DET-TIME and PANIC-SITE findings under\n\
         # crates/flitsim/src, crates/ctld/src and crates/codec/src can never\n\
         # be pinned here (the simulator, the controller daemon and the codec\n\
         # are bit-deterministic and panic-free by construction), and\n\
         # UNSAFE-FORBID findings can never be pinned anywhere.\n",
    );
    let mut refused = Vec::new();
    for ((rule, file), sites) in counts {
        if rule_denied(*rule, file) {
            for s in sites {
                refused.push(Diagnostic {
                    rule: *rule,
                    severity: Severity::Error,
                    message: format!("{} — cannot be vetted; fix it", s.msg),
                    file: file.clone(),
                    line: s.line,
                });
            }
            continue;
        }
        let _ = writeln!(out, "{} {} {}", rule, sites.len(), file);
    }
    (out, refused)
}

fn write_report(root: &Path, report: &Report) {
    let path = root.join(REPORT_PATH);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("xtask analyze: cannot write {}: {e}", path.display());
    }
}

fn print_checks(checks: &[CheckRun]) {
    for c in checks {
        println!(
            "xtask analyze: {:<18} {:>3} file(s) inspected, {:>3} raw finding(s)",
            c.rule.to_string(),
            c.inspected,
            c.findings
        );
    }
}

/// Entry point for `cargo xtask analyze [--ci|--update]`.
pub fn analyze(update: bool) -> ExitCode {
    let root = workspace_root();
    let (counts, checks) = match run_rules(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    if update {
        let (text, refused) = render_allowlist(&counts);
        if !refused.is_empty() {
            for d in &refused {
                eprintln!("xtask analyze: {d}");
            }
            write_report(
                &root,
                &Report {
                    certified: false,
                    checks,
                    findings: refused,
                },
            );
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(root.join(ALLOWLIST), text) {
            eprintln!("xtask analyze: cannot write allowlist: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: allowlist updated ({} (rule, file) entries, {} sites)",
            counts.len(),
            counts.values().map(Vec::len).sum::<usize>()
        );
        write_report(
            &root,
            &Report {
                certified: true,
                checks,
                findings: Vec::new(),
            },
        );
        return ExitCode::SUCCESS;
    }

    let allowed = match read_allowlist(&root.join(ALLOWLIST)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = ratchet_failures(&counts, &allowed);
    let report = Report {
        certified: failures.is_empty(),
        checks: checks.clone(),
        findings: failures.clone(),
    };
    write_report(&root, &report);

    if failures.is_empty() {
        print_checks(&checks);
        println!(
            "xtask analyze: certified ({} vetted sites across {} (rule, file) pins; \
             certificate at {REPORT_PATH})",
            counts.values().map(Vec::len).sum::<usize>(),
            counts.len()
        );
        ExitCode::SUCCESS
    } else {
        for d in &failures {
            eprintln!("xtask analyze: {d}");
        }
        eprintln!(
            "xtask analyze: {} violation(s); fix them or vet them with \
             `cargo xtask analyze --update` (certificate at {REPORT_PATH})",
            failures.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    fn order(src: &str) -> Vec<Site> {
        det_order(&mask(src))
    }

    // ---- DET-ORDER fixtures ----

    #[test]
    fn det_order_flags_value_iteration() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n    let mut counts: HashMap<u64, u64> = HashMap::new();\n\
                   \x20   let ok = counts.values().all(|&c| c == 1);\n    g(ok)\n}\n";
        let sites = order(src);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].line, 4);
        assert!(sites[0].msg.contains("counts"));
    }

    #[test]
    fn det_order_flags_for_loops_and_drain() {
        let src = "fn f(seen: &mut HashSet<u64>) {\n\
                   \x20   for x in seen {\n        g(x)\n    }\n\
                   \x20   for v in seen.drain() {\n        g(v)\n    }\n}\n";
        let sites = order(src);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0].line, 2);
        assert_eq!(sites[1].line, 5);
    }

    #[test]
    fn det_order_tracks_type_aliases_and_wrappers() {
        let src = "type RouteKeyMap = HashMap<u64, Sel, BuildHasherDefault<H>>;\n\
                   struct S {\n    cache: Option<RouteKeyMap>,\n}\n\
                   fn f(s: &mut S) {\n    let cache = s.cache.as_mut();\n\
                   \x20   cache.retain(|_, _| true);\n}\n";
        let sites = order(src);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].line, 7);
    }

    #[test]
    fn det_order_sorted_escape_and_membership_are_clean() {
        let src = "fn f() {\n    let mut tops = std::collections::HashSet::new();\n\
                   \x20   tops.insert(1);\n    if tops.contains(&1) { g() }\n\
                   \x20   let mut v: Vec<u64> = tops.iter().copied().collect();\n\
                   \x20   v.sort_unstable();\n}\n";
        assert!(order(src).is_empty(), "{:?}", order(src));
    }

    #[test]
    fn det_order_ignores_btree_and_tests() {
        let src = "use std::collections::BTreeMap;\n\
                   fn f(m: &BTreeMap<u64, u64>) {\n    for (k, v) in m {\n        g(k, v)\n    }\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(h: HashMap<u8, u8>) {\n        for x in h.values() {\n            g(x)\n        }\n    }\n}\n";
        assert!(order(src).is_empty());
    }

    // ---- DET-TIME fixtures ----

    #[test]
    fn det_time_flags_clock_reads() {
        let src = "fn f() {\n    let t = Instant::now();\n    let s = SystemTime::now();\n    g(t, s)\n}\n";
        let sites = det_time(&mask(src));
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].line, 2);
        assert_eq!(sites[1].line, 3);
    }

    #[test]
    fn det_time_ignores_mentions_in_docs_and_idents() {
        let src = "// Instant::now is banned here\n\
                   fn f() { let my_instant_now = 3; g(my_instant_now) }\n";
        assert!(det_time(&mask(src)).is_empty());
    }

    // ---- CAST-NARROW fixtures ----

    #[test]
    fn cast_narrow_counts_per_occurrence() {
        let src = "fn f(a: u64, b: u64) -> usize {\n    (a as u32 as usize) + (b as usize)\n}\n";
        let sites = cast_narrow(&mask(src));
        assert_eq!(sites.len(), 3, "{sites:?}");
        assert!(sites.iter().all(|s| s.line == 2));
    }

    #[test]
    fn cast_narrow_ignores_widening_and_words() {
        let src =
            "fn f(a: u32) -> u64 {\n    let basic = a as u64;\n    basic as f64;\n    basic\n}\n";
        assert!(cast_narrow(&mask(src)).is_empty());
    }

    // ---- THREAD-DISCIPLINE fixtures ----

    #[test]
    fn thread_primitives_are_flagged() {
        let src = "fn f() {\n    let h = std::thread::spawn(|| ());\n\
                   \x20   let m = Mutex::new(0);\n    let (tx, rx) = sync_channel(4);\n    g(h, m, tx, rx)\n}\n";
        let sites = thread_primitives(&mask(src));
        assert_eq!(sites.len(), 3, "{sites:?}");
    }

    #[test]
    fn lock_order_conflict_is_detected() {
        let a = lock_acquisitions(
            "x.rs",
            "fn f(s: &S) {\n    let g1 = s.a.lock();\n    let g2 = s.b.lock();\n}\n",
        );
        let b = lock_acquisitions(
            "y.rs",
            "fn g(s: &S) {\n    let g2 = s.b.lock();\n    let g1 = s.a.lock();\n}\n",
        );
        let mut all = a;
        all.extend(b);
        let conflicts = lock_order_conflicts(&all);
        assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        assert!(conflicts[0].1.msg.contains("inconsistent lock order"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let mut all = lock_acquisitions(
            "x.rs",
            "fn f(s: &S) {\n    let g1 = s.a.lock();\n    let g2 = s.b.lock();\n}\n",
        );
        all.extend(lock_acquisitions(
            "y.rs",
            "fn g(s: &S) {\n    let g1 = s.a.lock();\n    let g2 = s.b.lock();\n}\n",
        ));
        assert!(lock_order_conflicts(&all).is_empty());
    }

    // ---- UNSAFE-FORBID fixtures ----

    #[test]
    fn forbid_attribute_detection() {
        assert!(has_forbid_unsafe(
            "//! Doc.\n#![forbid(unsafe_code)]\nfn main() {}\n"
        ));
        assert!(!has_forbid_unsafe("fn main() {}\n"));
    }

    // ---- PANIC-SITE fixtures ----

    #[test]
    fn panic_sites_skip_strings_comments_and_tests() {
        let src = "fn f() {\n    // this .unwrap() is a comment\n    /* and panic! here too */\n\
                   \x20   let s = \"mentions .unwrap() and panic! in a string\";\n    g(s)\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(); }\n}\n\
                   fn lib2() { y.unwrap() }\n";
        let sites = panic_sites(&mask(src));
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].line, 11);
    }

    #[test]
    fn panic_sites_count_each_form_and_spare_the_total_variants() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"boom\");\n\
                   \x20   x.unwrap_or_else(|| 0); x.unwrap_or(1); r.expect_err(\"e\");\n}\n";
        let lines: Vec<usize> = panic_sites(&mask(src)).iter().map(|s| s.line).collect();
        assert_eq!(lines, [2, 3, 4]);
    }

    // ---- Ratchet semantics ----

    fn one_count(rule: RuleId, file: &str, n: usize) -> Counts {
        let mut c = Counts::new();
        c.insert(
            (rule, file.to_owned()),
            (0..n)
                .map(|i| Site {
                    line: i + 1,
                    msg: "site".into(),
                })
                .collect(),
        );
        c
    }

    #[test]
    fn ratchet_rising_count_fails() {
        let counts = one_count(RuleId::CastNarrow, "crates/core/src/a.rs", 3);
        let allowed = vec![(RuleId::CastNarrow, "crates/core/src/a.rs".to_owned(), 2)];
        let f = ratchet_failures(&counts, &allowed);
        assert_eq!(f.len(), 3, "one diagnostic per site: {f:?}");
        assert!(f[0].message.contains("allowlist permits 2"));
    }

    #[test]
    fn ratchet_falling_count_without_update_fails() {
        let counts = one_count(RuleId::CastNarrow, "crates/core/src/a.rs", 1);
        let allowed = vec![(RuleId::CastNarrow, "crates/core/src/a.rs".to_owned(), 2)];
        let f = ratchet_failures(&counts, &allowed);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("tighten the pin"));
    }

    #[test]
    fn ratchet_exact_pin_passes_and_stale_fails() {
        let counts = one_count(RuleId::CastNarrow, "crates/core/src/a.rs", 2);
        let allowed = vec![(RuleId::CastNarrow, "crates/core/src/a.rs".to_owned(), 2)];
        assert!(ratchet_failures(&counts, &allowed).is_empty());
        let stale = ratchet_failures(&Counts::new(), &allowed);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("stale"));
    }

    #[test]
    fn ratchet_denied_entries_are_rejected() {
        // A DET-ORDER pin under flitsim is refused even when the count
        // matches, and the sites still fail.
        let counts = one_count(RuleId::DetOrder, "crates/flitsim/src/engine.rs", 1);
        let allowed = vec![(
            RuleId::DetOrder,
            "crates/flitsim/src/engine.rs".to_owned(),
            1,
        )];
        let f = ratchet_failures(&counts, &allowed);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|d| d.message.contains("never be vetted")));
        // CAST-NARROW pins in the same directory are legitimate.
        let counts = one_count(RuleId::CastNarrow, "crates/flitsim/src/engine.rs", 1);
        let allowed = vec![(
            RuleId::CastNarrow,
            "crates/flitsim/src/engine.rs".to_owned(),
            1,
        )];
        assert!(ratchet_failures(&counts, &allowed).is_empty());
        // UNSAFE-FORBID can never be pinned anywhere.
        let counts = one_count(RuleId::UnsafeForbid, "crates/core/src/lib.rs", 1);
        let allowed = vec![(RuleId::UnsafeForbid, "crates/core/src/lib.rs".to_owned(), 1)];
        let f = ratchet_failures(&counts, &allowed);
        assert!(!f.is_empty());
    }

    #[test]
    fn update_refuses_denied_findings() {
        let counts = one_count(RuleId::DetTime, "crates/ctld/src/controller.rs", 1);
        let (text, refused) = render_allowlist(&counts);
        assert_eq!(refused.len(), 1);
        assert!(!text.contains("controller.rs"));
    }

    // ---- Meta-tests over the real tree ----

    /// The simulator, controller and codec sources must be free of
    /// DET-ORDER, DET-TIME and PANIC-SITE findings *in fact*, not just
    /// unpinned: zero-entry budgets, verified against the live tree.
    #[test]
    fn deny_dirs_carry_zero_det_and_panic_budgets() {
        let root = workspace_root();
        for dir in crate::workspace::DENY_DIRS {
            let mut files = Vec::new();
            collect_rs_files(&root.join(dir), &mut files);
            files.sort();
            assert!(!files.is_empty(), "{dir} has sources");
            for file in files {
                let text = std::fs::read_to_string(&file).expect("source readable");
                let relpath = rel(&root, &file);
                let masked = mask(&text);
                let o = det_order(&masked);
                assert!(o.is_empty(), "{relpath}: DET-ORDER findings {o:?}");
                if !TIME_APPROVED.contains(&relpath.as_str()) {
                    let t = det_time(&masked);
                    assert!(t.is_empty(), "{relpath}: DET-TIME findings {t:?}");
                }
                let p = panic_sites(&masked);
                assert!(p.is_empty(), "{relpath}: PANIC-SITE findings {p:?}");
            }
        }
    }

    /// And the committed allowlist must not even try to pin them.
    #[test]
    fn committed_allowlist_has_no_denied_entries() {
        let root = workspace_root();
        let allowed = read_allowlist(&root.join(ALLOWLIST)).expect("allowlist parses");
        for (rule, file, budget) in &allowed {
            assert!(
                *budget == 0 || !rule_denied(*rule, file),
                "{ALLOWLIST} pins {budget} {rule} site(s) for {file}"
            );
        }
    }
}
