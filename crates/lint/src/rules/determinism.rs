//! `determinism` — reports must be a pure function of
//! (artifact, scenario, seed, config).
//!
//! Bans, in lib and bin code (tests exempt):
//!
//! * wall-clock types (`Instant`, `SystemTime`) — timing belongs in
//!   the bench harness, never in simulation or rendering;
//! * hash-order collections (`HashMap`, `HashSet`, `RandomState`,
//!   `DefaultHasher`) — iteration order varies run to run, the exact
//!   bug class PRs 4–6 scrubbed out of render paths;
//! * runtime environment reads (`env::var`, `env::args`, ...) —
//!   ambient inputs that bypass the config hash;
//! * `static` items of interior-mutable type (`Atomic*`, `Mutex`,
//!   `RwLock`, `Cell`, `RefCell`) — process-global mutable state that
//!   concurrent sweeps can corrupt; run options travel as arguments.
//!   Write-once `OnceLock` registries stay allowed, and a `'static`
//!   lifetime is not a `static` item.
//!
//! Legitimate wall-time capture (the sweep/hotpath bench artifacts)
//! and CLI argv intake live behind `lint.toml` allowlists or per-line
//! annotations, each with a recorded reason.

use super::{ident_in, ident_is, punct_is, FileCtx};
use crate::context::FileKind;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Tok, TokKind};

const BANNED_TYPES: [&str; 6] = [
    "Instant",
    "SystemTime",
    "HashMap",
    "HashSet",
    "RandomState",
    "DefaultHasher",
];

const ENV_READS: [&str; 9] = [
    "var",
    "vars",
    "var_os",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "current_exe",
    "temp_dir",
];

/// Interior-mutable types a `static` item must not hold, besides any
/// `Atomic*` type.
const MUTABLE_CELLS: [&str; 4] = ["Mutex", "RwLock", "Cell", "RefCell"];

/// The interior-mutable type named in the declared type of the
/// `static` item (`static [mut] NAME: TYPE = ...;`) starting at token
/// `i`, if there is one.
fn mutable_static_type(toks: &[Tok], i: usize) -> Option<&str> {
    if !ident_is(toks, i, "static") {
        return None;
    }
    let name = if ident_is(toks, i + 1, "mut") {
        i + 2
    } else {
        i + 1
    };
    if !punct_is(toks, name + 1, ":") {
        return None;
    }
    let mut depth = 0usize;
    for t in &toks[name + 2..] {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "[" | "(") => depth += 1,
            (TokKind::Punct, "]" | ")") => depth = depth.saturating_sub(1),
            (TokKind::Punct, "=" | ";") if depth == 0 => break,
            (TokKind::Ident, ty) if ty.starts_with("Atomic") || MUTABLE_CELLS.contains(&ty) => {
                return Some(ty);
            }
            _ => {}
        }
    }
    None
}

/// Scans one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind == FileKind::TestLike {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let line = toks[i].line;
        if ctx.in_test(line) {
            continue;
        }
        if ident_in(toks, i, &BANNED_TYPES) {
            let what = &toks[i].text;
            let hint = match what.as_str() {
                "Instant" | "SystemTime" => {
                    "wall-clock reads make output depend on the host; \
                     timing capture belongs in allowlisted bench code"
                }
                _ => {
                    "iteration order is nondeterministic; \
                      use BTreeMap/BTreeSet or a sorted Vec"
                }
            };
            ctx.diag(
                out,
                line,
                Rule::Determinism,
                format!("banned nondeterministic construct `{what}` — {hint}"),
            );
        }
        if ident_is(toks, i, "env")
            && punct_is(toks, i + 1, "::")
            && ident_in(toks, i + 2, &ENV_READS)
        {
            ctx.diag(
                out,
                line,
                Rule::Determinism,
                format!(
                    "runtime environment read `env::{}` — ambient input \
                     bypasses the (artifact, scenario, seed, config) contract",
                    toks[i + 2].text
                ),
            );
        }
        if let Some(ty) = mutable_static_type(toks, i) {
            ctx.diag(
                out,
                line,
                Rule::Determinism,
                format!(
                    "`static` of interior-mutable type `{ty}` — process-global \
                     state that concurrent sweeps can corrupt; pass the value \
                     as an argument"
                ),
            );
        }
    }
}
