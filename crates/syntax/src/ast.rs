//! Abstract syntax for the surface language.
//!
//! The grammar follows Fig. 6 of the paper plus the user-facing function
//! syntax of §4.9 (`consumes`, `after: a ~ b`) and two documented
//! extensions: `before:` input region relations, `pinned` parameters, and a
//! `take(x.f)` destructive read used by the baseline checkers (§9.1).

use crate::span::Span;
use crate::symbol::Symbol;

/// A type in the surface language.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Type {
    /// The unit type.
    Unit,
    /// Machine integers.
    Int,
    /// Booleans.
    Bool,
    /// A named struct type.
    Named(Symbol),
    /// A "maybe" of another type, written `τ?` (Fig. 1).
    Maybe(Box<Type>),
}

impl Type {
    /// Convenience constructor for `Named`.
    pub fn named(name: impl Into<Symbol>) -> Type {
        Type::Named(name.into())
    }

    /// Convenience constructor for `Maybe`.
    pub fn maybe(inner: Type) -> Type {
        Type::Maybe(Box::new(inner))
    }

    /// Whether values of this type are heap references (structs or maybes of
    /// structs). Reference types live in regions; value types do not.
    pub fn is_reference(&self) -> bool {
        match self {
            Type::Named(_) => true,
            Type::Maybe(inner) => inner.is_reference(),
            _ => false,
        }
    }

    /// Strips any number of `Maybe` wrappers, yielding the payload type.
    pub fn strip_maybe(&self) -> &Type {
        match self {
            Type::Maybe(inner) => inner.strip_maybe(),
            other => other,
        }
    }

    /// Returns the struct name if this is a struct or maybe-of-struct type.
    pub fn struct_name(&self) -> Option<&Symbol> {
        match self.strip_maybe() {
            Type::Named(n) => Some(n),
            _ => None,
        }
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Unit => write!(f, "unit"),
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Named(n) => write!(f, "{n}"),
            Type::Maybe(inner) => write!(f, "{inner}?"),
        }
    }
}

/// A field declaration inside a struct (Fig. 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: Symbol,
    /// Whether the field is declared `iso` (transitively dominating unless
    /// tracked, §2.1).
    pub iso: bool,
    /// Declared type.
    pub ty: Type,
    /// Source location of the declaration.
    pub span: Span,
}

/// A struct declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: Symbol,
    /// Ordered field list.
    pub fields: Vec<FieldDef>,
    /// Source location.
    pub span: Span,
}

impl StructDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &Symbol) -> Option<&FieldDef> {
        self.fields.iter().find(|f| &f.name == name)
    }

    /// Index of a field by name.
    pub fn field_index(&self, name: &Symbol) -> Option<usize> {
        self.fields.iter().position(|f| &f.name == name)
    }
}

/// One end of a region-relation annotation: `result`, a parameter, or an
/// `iso` field of a parameter (§4.9, `after: l.hd ~ result`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegionPath {
    /// The function result.
    Result,
    /// A parameter by name.
    Param(Symbol),
    /// An `iso` field of a parameter, e.g. `l.hd`.
    Field(Symbol, Symbol),
}

impl std::fmt::Display for RegionPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionPath::Result => write!(f, "result"),
            RegionPath::Param(x) => write!(f, "{x}"),
            RegionPath::Field(x, fld) => write!(f, "{x}.{fld}"),
        }
    }
}

/// A `a ~ b` region relation in a signature annotation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionRel {
    /// Left path.
    pub lhs: RegionPath,
    /// Right path.
    pub rhs: RegionPath,
    /// Source location.
    pub span: Span,
}

/// A function parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Declared type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// Signature-level annotations (§4.9).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FnAnnotations {
    /// Parameters consumed by the function (absent from the output context).
    pub consumes: Vec<Symbol>,
    /// Parameters whose input region is pinned (partial information;
    /// extension per §4.7/§4.9).
    pub pinned: Vec<Symbol>,
    /// Region relations that hold at function exit.
    pub after: Vec<RegionRel>,
    /// Region relations that hold at function entry (extension).
    pub before: Vec<RegionRel>,
}

impl FnAnnotations {
    /// Total number of annotation items, used for the "Simple" column of
    /// Table 1.
    pub fn count(&self) -> usize {
        self.consumes.len() + self.pinned.len() + self.after.len() + self.before.len()
    }
}

/// A function definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: Symbol,
    /// Ordered parameters.
    pub params: Vec<Param>,
    /// Declared result type.
    pub ret: Type,
    /// Signature annotations.
    pub annotations: FnAnnotations,
    /// Function body.
    pub body: Expr,
    /// Source location.
    pub span: Span,
}

/// A whole program: struct declarations plus function definitions.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Struct declarations, in source order.
    pub structs: Vec<StructDef>,
    /// Function definitions, in source order.
    pub funcs: Vec<FnDef>,
}

impl Program {
    /// Looks up a struct by name.
    pub fn struct_def(&self, name: &Symbol) -> Option<&StructDef> {
        self.structs.iter().find(|s| &s.name == name)
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &Symbol) -> Option<&FnDef> {
        self.funcs.iter().find(|f| &f.name == name)
    }

    /// Merges another program's declarations into this one.
    pub fn extend(&mut self, other: Program) {
        self.structs.extend(other.structs);
        self.funcs.extend(other.funcs);
    }
}

/// A unique identifier for an expression node within one parse.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ExprId(pub u32);

impl std::fmt::Display for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The token text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Whether this operator compares (producing `bool` from `int`s).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this operator is boolean (`&&`/`||`).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Boolean negation `!`.
    Not,
    /// Integer negation `-`.
    Neg,
}

/// An expression with its source span and stable id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Expr {
    /// The expression form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// Stable id assigned by the parser (unique within one parse).
    pub id: ExprId,
}

/// The expression forms of the core language (Fig. 6) plus surface sugar.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExprKind {
    /// The unit literal.
    Unit,
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// A variable reference.
    Var(Symbol),
    /// The `self` keyword, valid only inside `new` initializers.
    SelfRef,
    /// A field read `e.f`.
    Field(Box<Expr>, Symbol),
    /// A variable assignment `x = e`.
    AssignVar(Symbol, Box<Expr>),
    /// A field assignment `e.f = e2`.
    AssignField(Box<Expr>, Symbol, Box<Expr>),
    /// A destructive read `take(e.f)`: swaps the (maybe-typed) field with
    /// `none` and returns the old value. Extension used by the
    /// global-domination baseline (§9.1).
    Take(Box<Expr>, Symbol),
    /// `let x = e; rest` — binds `x` for the remainder of the block.
    Let {
        /// Bound variable.
        var: Symbol,
        /// Initializer.
        init: Box<Expr>,
        /// Remainder of the enclosing block.
        body: Box<Expr>,
    },
    /// `let some(x) = e in { then } else { otherwise }` (Fig. 2).
    LetSome {
        /// Bound variable on success.
        var: Symbol,
        /// Scrutinee (of maybe type).
        init: Box<Expr>,
        /// Branch taken when the scrutinee is `some`.
        then_branch: Box<Expr>,
        /// Branch taken when the scrutinee is `none`.
        else_branch: Box<Expr>,
    },
    /// A sequence `e1; e2; …`, evaluating to the last expression.
    Seq(Vec<Expr>),
    /// A conditional.
    If {
        /// Condition (boolean).
        cond: Box<Expr>,
        /// Then branch.
        then_branch: Box<Expr>,
        /// Else branch (unit if omitted in the source).
        else_branch: Box<Expr>,
    },
    /// The novel `if disconnected(a, b) { … } else { … }` primitive (§2.2).
    IfDisconnected {
        /// First root variable.
        a: Symbol,
        /// Second root variable.
        b: Symbol,
        /// Branch taken when the reachable subgraphs are disjoint.
        then_branch: Box<Expr>,
        /// Branch taken otherwise.
        else_branch: Box<Expr>,
    },
    /// A while loop.
    While {
        /// Condition (boolean).
        cond: Box<Expr>,
        /// Loop body.
        body: Box<Expr>,
    },
    /// Object allocation `new S(a₁, …, aₙ)` with positional field
    /// initializers; `self` may appear among the initializers to create
    /// cycles (size-1 circular lists, Fig. 3).
    New(Symbol, Vec<Expr>),
    /// `some(e)`.
    SomeOf(Box<Expr>),
    /// `none`.
    NoneOf,
    /// `is_none(e)`.
    IsNone(Box<Expr>),
    /// `is_some(e)`.
    IsSome(Box<Expr>),
    /// A function call.
    Call(Symbol, Vec<Expr>),
    /// `send(e)` — blocking send of `e`'s reachable subgraph (§7).
    Send(Box<Expr>),
    /// `recv(τ)` — blocking receive of a value of type `τ` (§7).
    Recv(Type),
    /// A binary operation on values.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation on values.
    Unary(UnOp, Box<Expr>),
}

impl Expr {
    /// Walks the expression tree, invoking `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unit
            | ExprKind::Int(_)
            | ExprKind::Bool(_)
            | ExprKind::Var(_)
            | ExprKind::SelfRef
            | ExprKind::NoneOf
            | ExprKind::Recv(_) => {}
            ExprKind::Field(e, _)
            | ExprKind::Take(e, _)
            | ExprKind::AssignVar(_, e)
            | ExprKind::SomeOf(e)
            | ExprKind::IsNone(e)
            | ExprKind::IsSome(e)
            | ExprKind::Send(e)
            | ExprKind::Unary(_, e) => e.walk(f),
            ExprKind::AssignField(r, _, e) => {
                r.walk(f);
                e.walk(f);
            }
            ExprKind::Let { init, body, .. } => {
                init.walk(f);
                body.walk(f);
            }
            ExprKind::LetSome {
                init,
                then_branch,
                else_branch,
                ..
            } => {
                init.walk(f);
                then_branch.walk(f);
                else_branch.walk(f);
            }
            ExprKind::Seq(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.walk(f);
                then_branch.walk(f);
                else_branch.walk(f);
            }
            ExprKind::IfDisconnected {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(f);
                else_branch.walk(f);
            }
            ExprKind::While { cond, body } => {
                cond.walk(f);
                body.walk(f);
            }
            ExprKind::New(_, args) | ExprKind::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Binary(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
        }
    }

    /// Counts the nodes in this expression tree.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::dummy(),
            id: ExprId(0),
        }
    }

    #[test]
    fn type_reference_classification() {
        assert!(Type::named("sll_node").is_reference());
        assert!(Type::maybe(Type::named("sll_node")).is_reference());
        assert!(!Type::Int.is_reference());
        assert!(!Type::maybe(Type::Int).is_reference());
        assert!(!Type::Unit.is_reference());
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::maybe(Type::named("data")).to_string(), "data?");
        assert_eq!(Type::Int.to_string(), "int");
    }

    #[test]
    fn struct_field_lookup() {
        let s = StructDef {
            name: "sll_node".into(),
            fields: vec![
                FieldDef {
                    name: "payload".into(),
                    iso: true,
                    ty: Type::named("data"),
                    span: Span::dummy(),
                },
                FieldDef {
                    name: "next".into(),
                    iso: true,
                    ty: Type::maybe(Type::named("sll_node")),
                    span: Span::dummy(),
                },
            ],
            span: Span::dummy(),
        };
        assert!(s.field(&"payload".into()).is_some());
        assert_eq!(s.field_index(&"next".into()), Some(1));
        assert!(s.field(&"missing".into()).is_none());
    }

    #[test]
    fn walk_visits_all_nodes() {
        let tree = e(ExprKind::Seq(vec![
            e(ExprKind::Int(1)),
            e(ExprKind::Binary(
                BinOp::Add,
                Box::new(e(ExprKind::Int(2))),
                Box::new(e(ExprKind::Int(3))),
            )),
        ]));
        assert_eq!(tree.node_count(), 5);
    }

    #[test]
    fn annotation_count() {
        let mut ann = FnAnnotations::default();
        assert_eq!(ann.count(), 0);
        ann.consumes.push("l2".into());
        ann.after.push(RegionRel {
            lhs: RegionPath::Field("l".into(), "hd".into()),
            rhs: RegionPath::Result,
            span: Span::dummy(),
        });
        assert_eq!(ann.count(), 2);
    }
}
