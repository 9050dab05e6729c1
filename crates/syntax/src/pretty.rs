//! Pretty-printing of programs and expressions back to surface syntax.

use std::fmt::Write as _;

use crate::ast::*;

/// Renders a whole program to surface syntax.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.structs {
        struct_to_string_into(s, &mut out);
        out.push('\n');
    }
    for f in &p.funcs {
        fn_to_string_into(f, &mut out);
        out.push('\n');
    }
    out
}

fn struct_to_string_into(s: &StructDef, out: &mut String) {
    let _ = writeln!(out, "struct {} {{", s.name);
    for f in &s.fields {
        let iso = if f.iso { "iso " } else { "" };
        let _ = writeln!(out, "  {iso}{} : {};", f.name, f.ty);
    }
    out.push_str("}\n");
}

fn fn_to_string_into(f: &FnDef, out: &mut String) {
    let params = f
        .params
        .iter()
        .map(|p| format!("{}: {}", p.name, p.ty))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(out, "def {}({params}) : {}", f.name, f.ret);
    let ann = &f.annotations;
    if !ann.consumes.is_empty() {
        let _ = write!(out, " consumes {}", join_syms(&ann.consumes));
    }
    if !ann.pinned.is_empty() {
        let _ = write!(out, " pinned {}", join_syms(&ann.pinned));
    }
    if !ann.before.is_empty() {
        let _ = write!(out, " before: {}", join_rels(&ann.before));
    }
    if !ann.after.is_empty() {
        let _ = write!(out, " after: {}", join_rels(&ann.after));
    }
    out.push_str(" {\n");
    let mut body = String::new();
    expr_into(&f.body, 1, &mut body);
    out.push_str(&body);
    out.push_str("\n}\n");
}

fn join_syms(syms: &[crate::symbol::Symbol]) -> String {
    syms.iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn join_rels(rels: &[RegionRel]) -> String {
    rels.iter()
        .map(|r| format!("{} ~ {}", r.lhs, r.rhs))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders an expression to surface syntax (single line for atoms,
/// indented blocks for control flow).
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    expr_into(e, 0, &mut out);
    out
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn expr_into(e: &Expr, level: usize, out: &mut String) {
    match &e.kind {
        ExprKind::Unit => {
            indent(level, out);
            out.push_str("unit");
        }
        ExprKind::Int(n) => {
            indent(level, out);
            let _ = write!(out, "{n}");
        }
        ExprKind::Bool(b) => {
            indent(level, out);
            let _ = write!(out, "{b}");
        }
        ExprKind::Var(x) => {
            indent(level, out);
            let _ = write!(out, "{x}");
        }
        ExprKind::SelfRef => {
            indent(level, out);
            out.push_str("self");
        }
        ExprKind::Field(recv, f) => {
            indent(level, out);
            let _ = write!(out, "{}.{f}", inline(recv));
        }
        ExprKind::AssignVar(x, rhs) => {
            indent(level, out);
            let _ = write!(out, "{x} = {}", inline(rhs));
        }
        ExprKind::AssignField(recv, f, rhs) => {
            indent(level, out);
            let _ = write!(out, "{}.{f} = {}", inline(recv), inline(rhs));
        }
        ExprKind::Take(recv, f) => {
            indent(level, out);
            let _ = write!(out, "take({}.{f})", inline(recv));
        }
        ExprKind::Let { var, init, body } => {
            indent(level, out);
            let _ = writeln!(out, "let {var} = {};", inline(init));
            expr_into(body, level, out);
        }
        ExprKind::LetSome {
            var,
            init,
            then_branch,
            else_branch,
        } => {
            indent(level, out);
            let _ = writeln!(out, "let some({var}) = {} in {{", inline(init));
            expr_into(then_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push_str("} else {\n");
            expr_into(else_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push('}');
        }
        ExprKind::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(";\n");
                }
                expr_into(item, level, out);
            }
        }
        ExprKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            indent(level, out);
            let _ = writeln!(out, "if ({}) {{", inline(cond));
            expr_into(then_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push_str("} else {\n");
            expr_into(else_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push('}');
        }
        ExprKind::IfDisconnected {
            a,
            b,
            then_branch,
            else_branch,
        } => {
            indent(level, out);
            let _ = writeln!(out, "if disconnected({a}, {b}) {{");
            expr_into(then_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push_str("} else {\n");
            expr_into(else_branch, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push('}');
        }
        ExprKind::While { cond, body } => {
            indent(level, out);
            let _ = writeln!(out, "while ({}) {{", inline(cond));
            expr_into(body, level + 1, out);
            out.push('\n');
            indent(level, out);
            out.push('}');
        }
        ExprKind::New(name, args) => {
            indent(level, out);
            let _ = write!(out, "new {name}({})", inline_args(args));
        }
        ExprKind::SomeOf(inner) => {
            indent(level, out);
            let _ = write!(out, "some({})", inline(inner));
        }
        ExprKind::NoneOf => {
            indent(level, out);
            out.push_str("none");
        }
        ExprKind::IsNone(inner) => {
            indent(level, out);
            let _ = write!(out, "is_none({})", inline(inner));
        }
        ExprKind::IsSome(inner) => {
            indent(level, out);
            let _ = write!(out, "is_some({})", inline(inner));
        }
        ExprKind::Call(name, args) => {
            indent(level, out);
            let _ = write!(out, "{name}({})", inline_args(args));
        }
        ExprKind::Send(inner) => {
            indent(level, out);
            let _ = write!(out, "send({})", inline(inner));
        }
        ExprKind::Recv(ty) => {
            indent(level, out);
            let _ = write!(out, "recv({ty})");
        }
        ExprKind::Binary(op, a, b) => {
            indent(level, out);
            let _ = write!(out, "({} {} {})", inline(a), op.as_str(), inline(b));
        }
        ExprKind::Unary(op, a) => {
            indent(level, out);
            let sym = match op {
                UnOp::Not => "!",
                UnOp::Neg => "-",
            };
            let _ = write!(out, "{sym}{}", inline(a));
        }
    }
}

/// Renders an expression on one line (blocks collapse to `{ … }` bodies).
fn inline(e: &Expr) -> String {
    let mut s = String::new();
    expr_into(e, 0, &mut s);
    s.split('\n').map(str::trim).collect::<Vec<_>>().join(" ")
}

fn inline_args(args: &[Expr]) -> String {
    args.iter().map(inline).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn roundtrips_simple_expr() {
        let e = parse_expr("1 + 2 * x").unwrap();
        assert_eq!(expr_to_string(&e), "(1 + (2 * x))");
    }

    #[test]
    fn prints_struct() {
        let p = parse_program("struct sll { iso hd : sll_node? }").unwrap();
        let text = program_to_string(&p);
        assert!(text.contains("iso hd : sll_node?;"));
    }

    #[test]
    fn printed_program_reparses() {
        let src = "
            struct data { value: int }
            struct sll_node { iso payload : data; iso next : sll_node? }
            def remove_tail(n: sll_node) : data? {
              let some(next) = n.next in {
                if (is_none(next.next)) {
                  n.next = none;
                  some(next.payload)
                } else { remove_tail(next) }
              } else { none }
            }
        ";
        let p = parse_program(src).unwrap();
        let printed = program_to_string(&p);
        let reparsed = crate::parser::parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(reparsed.structs.len(), p.structs.len());
        assert_eq!(reparsed.funcs.len(), p.funcs.len());
    }

    #[test]
    fn prints_annotations() {
        let src = "def concat(l1, l2 : sll_node) : unit consumes l2 { l1.next = some(l2); }";
        let p = parse_program(src).unwrap();
        let text = program_to_string(&p);
        assert!(text.contains("consumes l2"));
    }
}
