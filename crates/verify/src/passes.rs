//! The five static passes cross-checking the generated P4 program
//! against the executable dataplane model.
//!
//! Each pass appends zero or more [`Diagnostic`]s; an empty result
//! means the program is consistent with the model for the given
//! parameters. Passes are independent — a mutation that breaks one
//! invariant is reported by exactly the pass owning that invariant,
//! with a line span into the generated source.

use crate::eval::{upper_bound, Evaluator};
use crate::ir::{walk_stmts, Control, Expr, Program, Span, Stmt};
use std::collections::HashMap;
use std::fmt;
use unroller_core::params::UnrollerParams;
use unroller_dataplane::header::HeaderLayout;
use unroller_dataplane::pipeline::UnrollerPipeline;

/// Names of the passes, in execution order.
pub const PASS_NAMES: [&str; 5] = [
    "header-layout",
    "parser-deparser-symmetry",
    "register-safety",
    "phase-table",
    "resource-accounting",
];

/// One verification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that produced the finding (one of [`PASS_NAMES`], or
    /// `"front-end"` for lex/parse failures).
    pub pass: &'static str,
    /// Source lines the finding points at.
    pub span: Span,
    /// What invariant was violated.
    pub message: String,
    /// What the model requires.
    pub expected: String,
    /// What the P4 source declares.
    pub found: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} (expected {}, found {})",
            self.pass, self.span, self.message, self.expected, self.found
        )
    }
}

fn diag(
    pass: &'static str,
    span: Span,
    message: impl Into<String>,
    expected: impl fmt::Display,
    found: impl fmt::Display,
) -> Diagnostic {
    Diagnostic {
        pass,
        span,
        message: message.into(),
        expected: expected.to_string(),
        found: found.to_string(),
    }
}

/// Everything the passes need: the parsed program, the optional
/// provisioning script, and the parameters the program was generated
/// from.
pub struct CheckInput<'a> {
    /// The parsed program.
    pub prog: &'a Program,
    /// The controller provisioning script, when available (required to
    /// verify LUT contents for non-power-of-two `b` or `c > 1`).
    pub provisioning: Option<&'a str>,
    /// The parameters the program claims to implement.
    pub params: &'a UnrollerParams,
}

impl CheckInput<'_> {
    fn whole_program(&self) -> Span {
        Span {
            start: 1,
            end: self.prog.lines.max(1),
        }
    }

    /// The dotted path carrying the hop count in the generated logic.
    fn xcnt_path(&self) -> &'static str {
        if self.params.xcnt_in_header {
            "hdr.unroller.xcnt"
        } else {
            "meta.hops"
        }
    }
}

/// Runs all five passes and collects their findings.
pub fn run_all(input: &CheckInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_header_layout(input, &mut out);
    check_parser_deparser_symmetry(input, &mut out);
    check_register_safety(input, &mut out);
    check_phase_table(input, &mut out);
    check_resource_accounting(input, &mut out);
    out
}

// --- Pass 1: header layout ------------------------------------------

/// The `unroller_t` header must match [`HeaderLayout::from_params`]:
/// same fields, widths, and wire order as Table 3.
pub fn check_header_layout(input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
    const PASS: &str = "header-layout";
    let layout = HeaderLayout::from_params(input.params);
    let Some(hdr) = input.prog.header("unroller_t") else {
        out.push(diag(
            PASS,
            input.whole_program(),
            "missing `unroller_t` header declaration",
            "a `header unroller_t { … }` matching the Table 3 layout",
            "no such header",
        ));
        return;
    };

    let mut expected: Vec<(String, u32)> = Vec::new();
    if layout.xcnt_bits > 0 {
        expected.push(("xcnt".into(), layout.xcnt_bits));
    }
    if layout.thcnt_bits > 0 {
        expected.push(("thcnt".into(), layout.thcnt_bits));
    }
    for s in 0..layout.slots {
        expected.push((format!("swid{s}"), layout.z));
    }

    for (i, (name, bits)) in expected.iter().enumerate() {
        match hdr.fields.get(i) {
            None => out.push(diag(
                PASS,
                hdr.span,
                format!("`unroller_t` is missing field `{name}`"),
                format!("`bit<{bits}> {name};` at position {i}"),
                format!("{} field(s)", hdr.fields.len()),
            )),
            Some(f) => {
                let found_bits = match f.ty {
                    crate::ir::Ty::Bits(w) => w,
                    crate::ir::Ty::Named(_) => 0,
                };
                if f.name != *name || found_bits != *bits {
                    out.push(diag(
                        PASS,
                        f.span,
                        format!("`unroller_t` field {i} disagrees with the wire layout"),
                        format!("`bit<{bits}> {name};`"),
                        format!("`bit<{found_bits}> {};`", f.name),
                    ));
                }
            }
        }
    }
    for f in hdr.fields.iter().skip(expected.len()) {
        out.push(diag(
            PASS,
            f.span,
            format!("`unroller_t` declares extra field `{}`", f.name),
            format!("{} fields (Table 3 layout)", expected.len()),
            format!("{} fields", hdr.fields.len()),
        ));
    }

    // Total width must equal the model's overhead accounting.
    let total: u32 = hdr
        .fields
        .iter()
        .map(|f| match f.ty {
            crate::ir::Ty::Bits(w) => w,
            crate::ir::Ty::Named(_) => 0,
        })
        .sum();
    if total != layout.total_bits() {
        out.push(diag(
            PASS,
            hdr.span,
            "`unroller_t` total width disagrees with `HeaderLayout::total_bits`",
            format!("{} bits", layout.total_bits()),
            format!("{total} bits"),
        ));
    }
}

// --- Pass 2: parser/deparser symmetry --------------------------------

/// Every header the parser extracts must be emitted by the deparser,
/// in the same order (and nothing else emitted).
pub fn check_parser_deparser_symmetry(input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
    const PASS: &str = "parser-deparser-symmetry";
    let Some(parser) = input.prog.parsers.first() else {
        out.push(diag(
            PASS,
            input.whole_program(),
            "program declares no parser",
            "one `parser` block",
            "none",
        ));
        return;
    };
    let extracted = parser.extraction_order();

    let Some(dep) = input
        .prog
        .controls
        .iter()
        .find(|c| c.name.contains("Deparser"))
    else {
        out.push(diag(
            PASS,
            input.whole_program(),
            "program declares no deparser control",
            "a control named `*Deparser`",
            "none",
        ));
        return;
    };
    let mut emitted: Vec<(String, Span)> = Vec::new();
    walk_stmts(&dep.apply, &mut |s| {
        if let Stmt::Call { path, args, span } = s {
            if path.last().map(String::as_str) == Some("emit") {
                if let Some(Expr::Path(arg)) = args.first() {
                    emitted.push((arg.join("."), *span));
                }
            }
        }
    });

    for (i, name) in extracted.iter().enumerate() {
        match emitted.get(i) {
            None => out.push(diag(
                PASS,
                dep.span,
                format!("extracted header `{name}` is never emitted"),
                format!("`pkt.emit({name});` at deparse position {i}"),
                format!("{} emit(s)", emitted.len()),
            )),
            Some((e, espan)) if e != name => out.push(diag(
                PASS,
                *espan,
                format!("deparser emit order diverges from extraction order at position {i}"),
                format!("`pkt.emit({name});`"),
                format!("`pkt.emit({e});`"),
            )),
            Some(_) => {}
        }
    }
    for (e, espan) in emitted.iter().skip(extracted.len()) {
        out.push(diag(
            PASS,
            *espan,
            format!("deparser emits `{e}`, which the parser never extracts"),
            format!("{} emit(s), matching extraction", extracted.len()),
            format!("extra `pkt.emit({e});`"),
        ));
    }
}

// --- Pass 3: register safety ------------------------------------------

/// The `bit<N>` locals declared anywhere in a statement list.
fn local_widths(stmts: &[Stmt]) -> HashMap<String, u32> {
    let mut locals = HashMap::new();
    walk_stmts(stmts, &mut |s| {
        if let Stmt::VarDecl { bits, name, .. } = s {
            locals.insert(name.clone(), *bits);
        }
    });
    locals
}

/// Every `reg.read(dst, idx)` / `reg.write(idx, val)` index must be
/// provably within the register's declared size.
pub fn check_register_safety(input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
    const PASS: &str = "register-safety";
    for ctl in &input.prog.controls {
        let mut scopes: Vec<&[Stmt]> = vec![&ctl.apply];
        scopes.extend(ctl.actions.iter().map(|a| a.body.as_slice()));
        for stmts in scopes {
            let locals = local_widths(stmts);
            walk_stmts(stmts, &mut |s| {
                let Stmt::Call { path, args, span } = s else {
                    return;
                };
                let [reg_name, method] = path.as_slice() else {
                    return;
                };
                let Some(reg) = ctl.register(reg_name) else {
                    return;
                };
                let idx = match (method.as_str(), args.as_slice()) {
                    ("read", [_, idx]) => idx,
                    ("write", [idx, _]) => idx,
                    _ => {
                        out.push(diag(
                            PASS,
                            *span,
                            format!("malformed `{reg_name}.{method}` call"),
                            "`read(dst, idx)` or `write(idx, val)`",
                            format!("{} argument(s)", args.len()),
                        ));
                        return;
                    }
                };
                match upper_bound(idx, input.prog, &locals) {
                    None => out.push(diag(
                        PASS,
                        *span,
                        format!("index into `{reg_name}` cannot be bounded"),
                        format!("a provable bound < {}", reg.size),
                        "no derivable bound",
                    )),
                    Some(bound) if bound >= reg.size => out.push(diag(
                        PASS,
                        *span,
                        format!("index into `{reg_name}` may exceed its size"),
                        format!("index < {} (declared on {})", reg.size, reg.span),
                        format!("upper bound {bound}"),
                    )),
                    Some(_) => {}
                }
            });
        }
    }
}

// --- Pass 4: phase-table completeness ---------------------------------

/// Finds the action assigning `meta.fresh` and returns it with the
/// enclosing control.
fn fresh_assignment(prog: &Program) -> Option<(&Control, &Stmt, &Expr)> {
    for ctl in &prog.controls {
        for act in &ctl.actions {
            let mut found = None;
            walk_stmts(&act.body, &mut |s| {
                if let Stmt::Assign { lhs, rhs, .. } = s {
                    if lhs == &["meta".to_string(), "fresh".to_string()] && found.is_none() {
                        found = Some((s, rhs));
                    }
                }
            });
            if let Some((s, rhs)) = found {
                return Some((ctl, s, rhs));
            }
        }
    }
    None
}

/// Parses `register_write <reg> <idx> <val>` provisioning lines for one
/// register into an index→value map.
fn provisioned_values(provisioning: &str, reg: &str) -> HashMap<u64, u64> {
    let mut map = HashMap::new();
    for line in provisioning.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("register_write") || parts.next() != Some(reg) {
            continue;
        }
        if let (Some(Ok(idx)), Some(Ok(val))) = (
            parts.next().map(str::parse::<u64>),
            parts.next().map(str::parse::<u64>),
        ) {
            map.insert(idx, val);
        }
    }
    map
}

/// Checks a provisioned 256-entry LUT register against the model's
/// table for every hop count 1..=255.
fn check_lut(
    input: &CheckInput<'_>,
    ctl: &Control,
    reg_name: &str,
    model: impl Fn(usize) -> u64,
    what: &str,
    out: &mut Vec<Diagnostic>,
) {
    const PASS: &str = "phase-table";
    let Some(reg) = ctl.register(reg_name) else {
        out.push(diag(
            PASS,
            ctl.span,
            format!("missing `{reg_name}` LUT register for {what}"),
            format!("`register<…>(256) {reg_name};`"),
            "no such register",
        ));
        return;
    };
    if reg.size < 256 {
        out.push(diag(
            PASS,
            reg.span,
            format!("`{reg_name}` is too small to cover every 8-bit hop count"),
            "256 entries",
            format!("{} entries", reg.size),
        ));
        return;
    }
    let Some(prov) = input.provisioning else {
        out.push(diag(
            PASS,
            reg.span,
            format!("`{reg_name}` contents cannot be verified without a provisioning script"),
            format!("`register_write {reg_name} …` lines for indices 1..=255"),
            "no provisioning input",
        ));
        return;
    };
    let values = provisioned_values(prov, reg_name);
    for x in 1..256usize {
        let want = model(x);
        match values.get(&(x as u64)) {
            None => out.push(diag(
                PASS,
                reg.span,
                format!("`{reg_name}` is never provisioned for hop count {x}"),
                format!("`register_write {reg_name} {x} {want}`"),
                "no such line",
            )),
            Some(&got) if got != want => out.push(diag(
                PASS,
                reg.span,
                format!("`{reg_name}[{x}]` disagrees with the model's schedule"),
                want,
                got,
            )),
            Some(_) => {}
        }
    }
}

/// The freshness check must agree with
/// [`unroller_core::phase::PhaseSchedule`] for every 8-bit hop count:
/// the bitwise expression is evaluated exhaustively when `b` is a power
/// of two; the 256-entry LUT registers (and, for `c > 1`, the chunk
/// LUT) are checked entry-by-entry against the provisioning script
/// otherwise.
pub fn check_phase_table(input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
    const PASS: &str = "phase-table";
    let p = input.params;
    let starts = p.schedule.phase_start_table(p.b, 256);
    let Some((ctl, stmt, rhs)) = fresh_assignment(input.prog) else {
        out.push(diag(
            PASS,
            input.whole_program(),
            "no action ever assigns `meta.fresh`",
            "a `meta.fresh = …;` phase check",
            "none",
        ));
        return;
    };

    let body = ctl
        .actions
        .iter()
        .find(|a| {
            let mut has = false;
            walk_stmts(&a.body, &mut |s| {
                has = has || std::ptr::eq(s, stmt);
            });
            has
        })
        .map_or(&[][..], |a| a.body.as_slice());
    let locals = local_widths(body);

    if p.b.is_power_of_two() {
        // Bitwise check: run the expression for every hop count.
        let mut ev = Evaluator {
            prog: input.prog,
            locals: &locals,
            env: HashMap::new(),
        };
        for (x, &want) in starts.iter().enumerate().skip(1) {
            ev.env.insert(input.xcnt_path().to_string(), x as u64);
            match ev.eval(rhs) {
                None => {
                    // A LUT-backed assignment (`meta.fresh = fresh_lut;`)
                    // for a power-of-two base: verify like a LUT instead.
                    check_lut(
                        input,
                        ctl,
                        "reg_phase_start",
                        |x| u64::from(starts[x]),
                        "phase starts",
                        out,
                    );
                    break;
                }
                Some(got) if got != u64::from(want) => out.push(diag(
                    PASS,
                    stmt.span(),
                    format!(
                        "freshness expression disagrees with {:?} at hop count {x}",
                        p.schedule
                    ),
                    format!("meta.fresh = {}", u8::from(want)),
                    format!("meta.fresh = {got}"),
                )),
                Some(_) => {}
            }
        }
    } else {
        check_lut(
            input,
            ctl,
            "reg_phase_start",
            |x| u64::from(starts[x]),
            "phase starts",
            out,
        );
    }

    if p.c > 1 {
        let chunks = p.schedule.chunk_table(p.b, p.c, 256);
        check_lut(
            input,
            ctl,
            "reg_chunk",
            |x| u64::from(chunks[x]),
            "chunk indices",
            out,
        );
    }
}

// --- Pass 5: resource accounting --------------------------------------

/// Register bits, table count and header bits derived from the IR must
/// equal the model's
/// [`ResourceReport`](unroller_dataplane::resources::ResourceReport)
/// for the same parameters.
pub fn check_resource_accounting(input: &CheckInput<'_>, out: &mut Vec<Diagnostic>) {
    const PASS: &str = "resource-accounting";
    let report = match UnrollerPipeline::new(1, *input.params) {
        Ok(pipe) => pipe.resources(),
        Err(e) => {
            out.push(diag(
                PASS,
                input.whole_program(),
                "parameters are rejected by the executable model",
                "constructible UnrollerPipeline",
                e,
            ));
            return;
        }
    };

    let mut reg_bits = 0u64;
    let mut reg_span: Option<Span> = None;
    let mut tables = 0u32;
    let mut table_span: Option<Span> = None;
    for ctl in &input.prog.controls {
        for r in &ctl.registers {
            reg_bits += u64::from(r.elem_bits) * r.size;
            reg_span = Some(reg_span.map_or(r.span, |s| s.merge(r.span)));
        }
        for t in &ctl.tables {
            tables += 1;
            table_span = Some(table_span.map_or(t.span, |s| s.merge(t.span)));
        }
    }

    if reg_bits != report.p4_register_bits {
        out.push(diag(
            PASS,
            reg_span.unwrap_or_else(|| input.whole_program()),
            "declared register bits disagree with the model's accounting",
            format!("{} bits", report.p4_register_bits),
            format!("{reg_bits} bits"),
        ));
    }
    if tables != report.p4_tables {
        out.push(diag(
            PASS,
            table_span.unwrap_or_else(|| input.whole_program()),
            "declared table count disagrees with the model's accounting",
            report.p4_tables,
            tables,
        ));
    }
    let header_bits: u32 = input
        .prog
        .header("unroller_t")
        .map(|h| {
            h.fields
                .iter()
                .map(|f| match f.ty {
                    crate::ir::Ty::Bits(w) => w,
                    crate::ir::Ty::Named(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0);
    if header_bits != report.header_bits {
        let span = input
            .prog
            .header("unroller_t")
            .map_or_else(|| input.whole_program(), |h| h.span);
        out.push(diag(
            PASS,
            span,
            "shim header width disagrees with the model's per-packet overhead",
            format!("{} bits", report.header_bits),
            format!("{header_bits} bits"),
        ));
    }
}
