//! The rule registry and the token-pattern matchers.
//!
//! Every rule has a stable ID (used in `lint:allow(...)` markers and the
//! baseline file) and reports [`Finding`]s with exact line numbers. The
//! rules encode *domain* knowledge clippy cannot express: which crates
//! feed simulation state, which are allowed to read wall clocks, and why
//! `HashMap` iteration order or a NaN-panicking float sort would silently
//! break the bit-identical reproduction of the paper's tables.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `HashMap`/`HashSet` iteration (or a map-typed struct field) in a
    /// sim-affecting crate: iteration order leaks into event order.
    D001,
    /// Wall-clock APIs (`Instant::now`, `SystemTime`) outside the
    /// allowlisted observability/bench crates.
    D002,
    /// Ambient randomness (`thread_rng`, `rand::random`, `from_entropy`):
    /// all RNG must flow from the seeded per-host streams.
    D003,
    /// `partial_cmp(..).unwrap()/expect(..)` on floats: NaN panics at a
    /// distance; use `f64::total_cmp`.
    D004,
    /// Wall-clock or ambient-randomness APIs (`Instant`, `SystemTime`,
    /// `thread_rng`) inside an `impl Persist` block: snapshot state must
    /// restore bit-identically on any machine at any time, so nothing
    /// host- or wall-clock-derived may be serialized. Applies everywhere,
    /// even in the crates D002 allowlists.
    D005,
    /// `unwrap`/`expect`/`panic!`/indexing-by-literal in non-test library
    /// code of the sim-affecting crates, and inside `impl Persist` bodies
    /// in every crate (a panicking codec loses the run it checkpoints).
    P001,
    /// `as` casts between float and integer in `SimTime`/`SimDuration`
    /// arithmetic: go through the rounding/clamping conversion helpers.
    C001,
    /// Hand-written `impl Persist` outside `eards-sim/src/persist.rs`.
    /// Codecs are derived with `persist_struct!`/`persist_enum!`, whose
    /// exhaustive destructure and full struct literal make rustc reject a
    /// forgotten field or variant; a hand-written impl gets no such check,
    /// so it needs a reasoned `lint:allow(SNAP001)` on its header saying
    /// why the macros do not fit.
    SNAP001,
    /// Malformed suppression: `lint:allow` without a mandatory reason, or
    /// naming an unknown rule. Never suppressible, never baselined.
    S001,
    /// Stale suppression: a well-formed `lint:allow` whose rule fires no
    /// finding on the lines it covers. Dead allows rot into false
    /// documentation; delete them. Never suppressible, never baselined.
    S002,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: &'static [RuleId] = &[
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::P001,
        RuleId::C001,
        RuleId::SNAP001,
        RuleId::S001,
        RuleId::S002,
    ];

    /// The stable name (`D001`, …).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::P001 => "P001",
            RuleId::C001 => "C001",
            RuleId::SNAP001 => "SNAP001",
            RuleId::S001 => "S001",
            RuleId::S002 => "S002",
        }
    }

    /// Parses a rule name (as written in `lint:allow(...)`).
    pub fn from_name(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// One-line description, shown by `eards lint` output.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::D001 => "HashMap/HashSet iteration order leaks into simulation state",
            RuleId::D002 => "wall-clock read outside the observability/bench allowlist",
            RuleId::D003 => "ambient randomness instead of a seeded SimRng stream",
            RuleId::D004 => "partial_cmp().unwrap()/expect() on floats; use total_cmp",
            RuleId::D005 => "wall-clock/ambient-randomness API inside an impl Persist block",
            RuleId::P001 => {
                "panic hazard (unwrap/expect/panic!/literal index) in sim library \
                 code or an impl Persist body"
            }
            RuleId::C001 => "raw float<->int `as` cast in SimTime arithmetic",
            RuleId::SNAP001 => {
                "hand-written impl Persist without a reason the persist_struct!/\
                 persist_enum! macros do not fit"
            }
            RuleId::S001 => "lint:allow marker without the mandatory reason",
            RuleId::S002 => "stale lint:allow: its rule fires nothing on the covered lines",
        }
    }

    /// False for the suppression-hygiene rules (`S001`, `S002`): a broken
    /// or dead marker is always a new finding — it can neither be
    /// grandfathered in the baseline nor suppressed by another marker.
    pub fn baselineable(self) -> bool {
        !matches!(self, RuleId::S001 | RuleId::S002)
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-oriented detail.
    pub message: String,
}

/// Runs every rule over one analyzed file.
///
/// Two stages: the rules first record *raw* findings (ignoring
/// suppressions), then suppression filtering happens here — which is what
/// lets `S002` see the difference between an allow that covers a real
/// finding and one that covers nothing.
pub fn check_file(f: &SourceFile) -> Vec<Finding> {
    let mut raw = Vec::new();
    d001_map_iteration(f, &mut raw);
    d002_wall_clock(f, &mut raw);
    d003_ambient_randomness(f, &mut raw);
    d004_partial_cmp_unwrap(f, &mut raw);
    d005_wall_state_in_persist(f, &mut raw);
    p001_panic_hazards(f, &mut raw);
    c001_simtime_casts(f, &mut raw);
    snap001_hand_written_codecs(f, &mut raw);
    let mut out: Vec<Finding> = raw
        .iter()
        .filter(|fd| !f.suppressed(fd.rule, fd.line))
        .cloned()
        .collect();
    // Malformed suppressions: not suppressible by construction.
    for &line in &f.malformed_suppressions {
        out.push(Finding {
            rule: RuleId::S001,
            path: f.path.clone(),
            line,
            message: "suppression needs a reason: `// lint:allow(RULE): <why>`".into(),
        });
    }
    // S002 — stale suppressions: a well-formed allow must cover at least
    // one raw finding of its rule on its own line or the line below.
    // (An allow for S001/S002 themselves can never match a raw finding,
    // so those markers are self-reportingly stale — by design.) Test code
    // is exempt: rules skip test lines, so allows there are documentation.
    for s in &f.suppressions {
        if !s.has_reason || f.in_test_code(s.line) {
            continue;
        }
        let used = raw
            .iter()
            .any(|fd| fd.rule == s.rule && (fd.line == s.line || fd.line == s.line + 1));
        if !used {
            out.push(Finding {
                rule: RuleId::S002,
                path: f.path.clone(),
                line: s.line,
                message: format!(
                    "stale suppression: no {} finding on this line or the next — \
                     delete the lint:allow",
                    s.rule.name()
                ),
            });
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Records a raw finding. Suppression filtering happens in [`check_file`]
/// after every rule has run, so `S002` can tell used allows from stale.
fn emit(f: &SourceFile, out: &mut Vec<Finding>, rule: RuleId, line: u32, message: String) {
    out.push(Finding {
        rule,
        path: f.path.clone(),
        line,
        message,
    });
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// D001 — map iteration in sim-affecting crates. Fires on (a) struct
/// fields of `HashMap`/`HashSet` type (any later iteration — even from
/// another file — would be order-dependent, so the *declaration* must
/// either become a `BTreeMap` or carry a reasoned `lint:allow`), and
/// (b) iteration-shaped calls / `for`-loops over map-typed bindings.
fn d001_map_iteration(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.is_sim_affecting() {
        return;
    }
    for (name, line) in &f.map_field_decls {
        if f.in_test_code(*line) {
            continue;
        }
        emit(
            f,
            out,
            RuleId::D001,
            *line,
            format!(
                "field `{name}` is a HashMap/HashSet in a sim-affecting crate; \
                 use BTreeMap/sorted snapshots if it is ever iterated, or \
                 suppress with the reason it is lookup-only"
            ),
        );
    }
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if f.in_test_code(t.line) {
            continue;
        }
        // name.iter() / self.name.keys() / name.drain() …
        if t.kind == TokenKind::Ident
            && f.map_bindings.contains(&t.text)
            && f.ct_punct(i + 1, '.')
            && f.ct_punct(i + 3, '(')
        {
            if let Some(m) = f.ct(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str()) {
                    emit(
                        f,
                        out,
                        RuleId::D001,
                        t.line,
                        format!(
                            "iterating `{}.{}()`: HashMap/HashSet order is \
                             nondeterministic",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // for pat in [&][mut] [self.] name { …
        if t.is_ident("in") {
            let mut j = i + 1;
            if f.ct_punct(j, '&') {
                j += 1;
            }
            if f.ct_is(j, "mut") {
                j += 1;
            }
            if f.ct_is(j, "self") && f.ct_punct(j + 1, '.') {
                j += 2;
            }
            if let Some(name) = f.ct(j) {
                if name.kind == TokenKind::Ident
                    && f.map_bindings.contains(&name.text)
                    && f.ct_punct(j + 1, '{')
                {
                    emit(
                        f,
                        out,
                        RuleId::D001,
                        t.line,
                        format!(
                            "`for … in {}`: HashMap/HashSet order is nondeterministic",
                            name.text
                        ),
                    );
                }
            }
        }
    }
}

/// D002 — wall-clock reads outside `eards-obs`/`eards-bench`. Simulated
/// time must come from the DES clock; a real-clock read anywhere else is
/// either a bug or belongs in the observability layer.
fn d002_wall_clock(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.is_clock_allowed() {
        return;
    }
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if t.is_ident("Instant")
            && f.ct_punct(i + 1, ':')
            && f.ct_punct(i + 2, ':')
            && f.ct_is(i + 3, "now")
        {
            emit(
                f,
                out,
                RuleId::D002,
                t.line,
                "`Instant::now()` outside eards-obs/eards-bench: sim code must use \
                 the simulation clock"
                    .into(),
            );
        }
        if t.is_ident("SystemTime") {
            emit(
                f,
                out,
                RuleId::D002,
                t.line,
                "`SystemTime` outside eards-obs/eards-bench: sim code must use the \
                 simulation clock"
                    .into(),
            );
        }
    }
}

/// D003 — ambient randomness, anywhere in the workspace. Every random
/// draw must flow from a seeded `SimRng` (or a fork of one); `thread_rng`
/// / `rand::random` / `from_entropy` would make runs irreproducible.
fn d003_ambient_randomness(f: &SourceFile, out: &mut Vec<Finding>) {
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        let hit = if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            Some(t.text.clone())
        } else if t.is_ident("rand")
            && f.ct_punct(i + 1, ':')
            && f.ct_punct(i + 2, ':')
            && f.ct_is(i + 3, "random")
        {
            Some("rand::random".to_string())
        } else {
            None
        };
        if let Some(api) = hit {
            emit(
                f,
                out,
                RuleId::D003,
                t.line,
                format!("`{api}`: all randomness must come from seeded SimRng streams"),
            );
        }
    }
}

/// D004 — `partial_cmp(..)` chained into `unwrap()`/`expect(..)`. On
/// floats this panics the moment a NaN reaches the comparison; for a
/// total order over floats `f64::total_cmp` is both panic-free and
/// deterministic. Applies everywhere, tests included — a NaN-panicking
/// sort in a test is still a flake waiting to happen.
fn d004_partial_cmp_unwrap(f: &SourceFile, out: &mut Vec<Finding>) {
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if !t.is_ident("partial_cmp") {
            continue;
        }
        // A call site: `x.partial_cmp(..)` or `T::partial_cmp(..)`; a
        // declaration (`fn partial_cmp`) is preceded by `fn`.
        let is_call = i > 0 && (f.ct_punct(i - 1, '.') || f.ct_punct(i - 1, ':'));
        if !is_call || !f.ct_punct(i + 1, '(') {
            continue;
        }
        // Skip the balanced argument list.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < n {
            if f.ct_punct(j, '(') {
                depth += 1;
            } else if f.ct_punct(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if f.ct_punct(j + 1, '.') && (f.ct_is(j + 2, "unwrap") || f.ct_is(j + 2, "expect")) {
            emit(
                f,
                out,
                RuleId::D004,
                t.line,
                "`partial_cmp(..).unwrap()/expect(..)` panics on NaN; use \
                 `f64::total_cmp`"
                    .into(),
            );
        }
    }
}

/// APIs that have no business near serialized state: wall clocks drift
/// between machines, ambient RNGs reseed per process.
const D005_FORBIDDEN: &[&str] = &["Instant", "SystemTime", "thread_rng"];

/// Token-index ranges (inclusive, body brace to body brace) of every
/// `impl … Persist for …` block in the file (see
/// [`SourceFile::persist_impls`]). Shared by D005 (wall state in codecs)
/// and P001 (panic hazards in codecs outside the sim-affecting crates).
fn persist_impl_ranges(f: &SourceFile) -> Vec<(usize, usize)> {
    f.persist_impls.iter().map(|i| i.body).collect()
}

/// D005 — wall-clock or ambient-randomness APIs inside an `impl Persist`
/// block. A snapshot must restore bit-identically on a different machine
/// at a different time, so nothing derived from `Instant`, `SystemTime`
/// or `thread_rng` may flow through `persist`/`restore`. Unlike D002 this
/// applies in *every* crate: even the clock-allowlisted observability
/// layer must keep wall time out of its persisted form.
fn d005_wall_state_in_persist(f: &SourceFile, out: &mut Vec<Finding>) {
    for (lo, hi) in persist_impl_ranges(f) {
        for j in lo..=hi {
            let Some(t) = f.ct(j) else { break };
            if t.kind == TokenKind::Ident
                && D005_FORBIDDEN.contains(&t.text.as_str())
                && !f.in_test_code(t.line)
            {
                emit(
                    f,
                    out,
                    RuleId::D005,
                    t.line,
                    format!(
                        "`{}` inside an `impl Persist` block: snapshots must \
                         restore bit-identically, so persisted state cannot \
                         come from wall clocks or ambient RNGs",
                        t.text
                    ),
                );
            }
        }
    }
}

/// P001 — panic hazards in non-test library code: `.unwrap()`,
/// `.expect(..)`, `panic!(..)`, and indexing with an integer literal
/// (`xs[0]`). A panic mid-simulation corrupts nothing *because* it
/// aborts — but a production-scale run losing hours to a recoverable edge
/// is exactly what ROADMAP's north star forbids.
///
/// Scope: the whole file in sim-affecting crates; elsewhere only the
/// bodies of `impl Persist` blocks. A panicking codec turns a routine
/// snapshot write into a lost run no matter which crate hosts it (the
/// `put_len` overflow panic lived exactly there), so codec bodies are
/// held to the sim-crate standard everywhere.
fn p001_panic_hazards(f: &SourceFile, out: &mut Vec<Finding>) {
    let sim = f.is_sim_affecting();
    let persist_ranges = if sim {
        Vec::new()
    } else {
        persist_impl_ranges(f)
    };
    if !sim && persist_ranges.is_empty() {
        return;
    }
    let in_scope = |i: usize| sim || persist_ranges.iter().any(|&(lo, hi)| lo <= i && i <= hi);
    let context = if sim {
        "sim library code"
    } else {
        "an impl Persist body"
    };
    let n = f.code.len();
    for i in 0..n {
        let Some(t) = f.ct(i) else { break };
        if f.in_test_code(t.line) || !in_scope(i) {
            continue;
        }
        // .unwrap() / .expect(
        if i > 0
            && f.ct_punct(i - 1, '.')
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && f.ct_punct(i + 1, '(')
        {
            emit(
                f,
                out,
                RuleId::P001,
                t.line,
                format!(
                    "`.{}(..)` in {context}: return or propagate instead",
                    t.text
                ),
            );
        }
        // panic!(
        if t.is_ident("panic") && f.ct_punct(i + 1, '!') {
            emit(
                f,
                out,
                RuleId::P001,
                t.line,
                format!("`panic!` in {context}: return an error instead"),
            );
        }
        // xs[0] — literal index on an expression (ident or closing
        // bracket), which panics when the container is shorter.
        if t.is_punct('[')
            && i > 0
            && f.ct(i - 1)
                .is_some_and(|p| p.kind == TokenKind::Ident || p.is_punct(')') || p.is_punct(']'))
            && f.ct(i + 1).is_some_and(|x| x.kind == TokenKind::Int)
            && f.ct_punct(i + 2, ']')
        {
            emit(
                f,
                out,
                RuleId::P001,
                t.line,
                "indexing by integer literal panics when the container is shorter; \
                 use .get(..) or .first()"
                    .into(),
            );
        }
    }
}

/// Primitive numeric types a C001-relevant `as` cast can target.
const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// C001 — raw `as` casts in `SimTime`/`SimDuration` arithmetic (any
/// statement mentioning those types, plus the whole fixed-point
/// implementation in `eards-sim/src/time.rs`). Float→int truncates and
/// int→float loses precision past 2^53; both must flow through the
/// rounding/clamping helpers (`from_secs_f64`, `as_secs_f64`, …) so every
/// conversion decision is made exactly once.
fn c001_simtime_casts(f: &SourceFile, out: &mut Vec<Finding>) {
    if !f.is_sim_affecting() {
        return;
    }
    let whole_file = f.path.ends_with("eards-sim/src/time.rs");
    let n = f.code.len();
    let mut stmt_start = 0usize;
    let mut i = 0;
    while i < n {
        let is_boundary = f.ct_punct(i, ';') || f.ct_punct(i, '{') || f.ct_punct(i, '}');
        if is_boundary || i + 1 == n {
            let end = if is_boundary { i } else { n };
            let mentions_time = whole_file
                || (stmt_start..end).any(|k| f.ct_is(k, "SimTime") || f.ct_is(k, "SimDuration"));
            if mentions_time {
                for k in stmt_start..end {
                    let Some(t) = f.ct(k) else { break };
                    if f.in_test_code(t.line) {
                        continue;
                    }
                    if t.is_ident("as")
                        && f.ct(k + 1)
                            .is_some_and(|ty| NUMERIC_TYPES.contains(&ty.text.as_str()))
                    {
                        emit(
                            f,
                            out,
                            RuleId::C001,
                            t.line,
                            format!(
                                "`as {}` in SimTime arithmetic: use the \
                                 SimTime/SimDuration conversion helpers",
                                f.ct(k + 1).map(|t| t.text.as_str()).unwrap_or("?")
                            ),
                        );
                    }
                }
            }
            stmt_start = i + 1;
        }
        i += 1;
    }
}

/// The codec module itself: its primitive and container impls are the
/// codec, not codecs derived from a type's fields.
const CODEC_FILE: &str = "eards-sim/src/persist.rs";

/// SNAP001 — hand-written codecs. Every `impl Persist` outside the codec
/// module draws a finding on its header unless a reasoned
/// `lint:allow(SNAP001)` there says why `persist_struct!`/`persist_enum!`
/// do not fit (typically: `restore` validates, or the bytes are not the
/// fields in order). The macros make rustc check field and variant
/// coverage; this rule keeps the list of impls outside that check short
/// and explained, and S002 flags an allow whose impl has gone.
fn snap001_hand_written_codecs(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.path.ends_with(CODEC_FILE) {
        return;
    }
    for imp in &f.persist_impls {
        if f.in_test_code(imp.line) {
            continue;
        }
        emit(
            f,
            out,
            RuleId::SNAP001,
            imp.line,
            "hand-written `impl Persist`: derive it with persist_struct!/persist_enum!, \
             or say why they do not fit in a lint:allow(SNAP001) on this header"
                .into(),
        );
    }
}
