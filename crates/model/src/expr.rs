//! Scalar expressions for `Where` predicates and `Select` projections.
//!
//! Expressions are evaluated against a [`Row`] (a named-field view over a
//! tuple). The paper's queries use field references, literals, comparisons,
//! boolean connectives, and arithmetic (e.g. Q8's
//! `response.time - request.time`).

use std::fmt;

use pivot_itc::{DecodeError, Decoder, Encoder};

use crate::tuple::Row;
use crate::value::Value;

/// A binary operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// Returns the query-language spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
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

    /// Encodes the operator as its one-byte tag.
    #[inline]
    pub fn encode(self, enc: &mut Encoder) {
        enc.put_u8(match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Mod => 4,
            BinOp::Eq => 5,
            BinOp::Ne => 6,
            BinOp::Lt => 7,
            BinOp::Le => 8,
            BinOp::Gt => 9,
            BinOp::Ge => 10,
            BinOp::And => 11,
            BinOp::Or => 12,
        });
    }

    /// Decodes an operator from its one-byte tag.
    #[inline]
    pub fn decode(dec: &mut Decoder<'_>) -> Result<BinOp, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Mod,
            5 => BinOp::Eq,
            6 => BinOp::Ne,
            7 => BinOp::Lt,
            8 => BinOp::Le,
            9 => BinOp::Gt,
            10 => BinOp::Ge,
            11 => BinOp::And,
            12 => BinOp::Or,
            t => return Err(DecodeError::BadTag("bin op", t)),
        })
    }
}

/// A unary operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
}

impl UnOp {
    /// Encodes the operator as its one-byte tag.
    #[inline]
    pub fn encode(self, enc: &mut Encoder) {
        enc.put_u8(match self {
            UnOp::Neg => 0,
            UnOp::Not => 1,
        });
    }

    /// Decodes an operator from its one-byte tag.
    #[inline]
    pub fn decode(dec: &mut Decoder<'_>) -> Result<UnOp, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => UnOp::Neg,
            1 => UnOp::Not,
            t => return Err(DecodeError::BadTag("un op", t)),
        })
    }
}

/// Errors raised during expression evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A referenced field is absent from the row.
    UnknownField(String),
    /// An operator was applied to operands of unsupported types.
    TypeMismatch {
        /// The operator's spelling.
        op: &'static str,
        /// The left operand's type.
        left: &'static str,
        /// The right operand's type.
        right: &'static str,
    },
    /// Division or remainder by zero.
    DivideByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownField(name) => {
                write!(f, "unknown field `{name}`")
            }
            EvalError::TypeMismatch { op, left, right } => {
                write!(f, "cannot apply `{op}` to {left} and {right}")
            }
            EvalError::DivideByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A scalar expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A (possibly qualified) field reference such as `incr.delta`.
    Field(String),
    /// A literal value.
    Lit(Value),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand for a field reference.
    pub fn field(name: impl Into<String>) -> Expr {
        Expr::Field(name.into())
    }

    /// Public for tests in other crates.
    ///
    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// Evaluates the expression against `row`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on unknown fields, type mismatches, or division
    /// by zero — advice execution treats an error as "filter this tuple out"
    /// rather than failing the request (paper §3: advice is safe).
    pub fn eval<R: Row + ?Sized>(&self, row: &R) -> Result<Value, EvalError> {
        match self {
            Expr::Field(name) => row
                .field(name)
                .cloned()
                .ok_or_else(|| EvalError::UnknownField(name.clone())),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Unary(op, e) => {
                let v = e.eval(row)?;
                eval_unary(*op, &v)
            }
            Expr::Binary(op, l, r) => {
                // Short-circuit logical connectives.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lv = l
                        .eval(row)?
                        .as_bool()
                        .ok_or_else(|| EvalError::TypeMismatch {
                            op: op.symbol(),
                            left: "non-bool",
                            right: "bool",
                        })?;
                    return match (op, lv) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let rv =
                                r.eval(row)?
                                    .as_bool()
                                    .ok_or_else(|| EvalError::TypeMismatch {
                                        op: op.symbol(),
                                        left: "bool",
                                        right: "non-bool",
                                    })?;
                            Ok(Value::Bool(rv))
                        }
                    };
                }
                let lv = l.eval(row)?;
                let rv = r.eval(row)?;
                eval_binary(*op, &lv, &rv)
            }
        }
    }

    /// Collects every field name referenced by this expression into `out`.
    pub fn fields(&self, out: &mut Vec<String>) {
        match self {
            Expr::Field(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Expr::Lit(_) => {}
            Expr::Unary(_, e) => e.fields(out),
            Expr::Binary(_, l, r) => {
                l.fields(out);
                r.fields(out);
            }
        }
    }

    /// Public for integration tests (`pivot-query`'s round trips).
    ///
    /// Rewrites every field reference with `f`.
    pub fn map_fields(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Field(name) => Expr::Field(f(name)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.map_fields(f))),
            Expr::Binary(op, l, r) => {
                Expr::Binary(*op, Box::new(l.map_fields(f)), Box::new(r.map_fields(f)))
            }
        }
    }
}

/// Applies a unary operator to an already-evaluated operand.
///
/// Shared by the tree-walking [`Expr::eval`] and the bytecode VM so both
/// engines have bit-identical leaf semantics.
///
/// # Errors
///
/// Returns [`EvalError::TypeMismatch`] for unsupported operand types.
pub fn eval_unary(op: UnOp, v: &Value) -> Result<Value, EvalError> {
    match op {
        UnOp::Neg => match v {
            Value::I64(x) => Ok(Value::I64(-x)),
            Value::U64(x) => Ok(Value::I64(-(*x as i64))),
            Value::F64(x) => Ok(Value::F64(-x)),
            other => Err(EvalError::TypeMismatch {
                op: "-",
                left: other.type_name(),
                right: "()",
            }),
        },
        UnOp::Not => match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::TypeMismatch {
                op: "!",
                left: other.type_name(),
                right: "()",
            }),
        },
    }
}

/// Applies a non-short-circuiting binary operator to evaluated operands.
///
/// Shared by the tree-walking [`Expr::eval`] and the bytecode VM so both
/// engines have bit-identical leaf semantics. `And`/`Or` never reach this
/// function: both engines implement their short-circuit evaluation
/// (including the left-operand bool coercion error) before operand
/// evaluation.
///
/// # Errors
///
/// Returns [`EvalError`] on type mismatches or division by zero.
pub fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt | Le | Gt | Ge => {
            let ord = l.compare(r).ok_or(EvalError::TypeMismatch {
                op: op.symbol(),
                left: l.type_name(),
                right: r.type_name(),
            })?;
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Add if matches!((l, r), (Value::Str(_), Value::Str(_))) => {
            let mut s = l.as_str().unwrap_or("").to_owned();
            s.push_str(r.as_str().unwrap_or(""));
            Ok(Value::str(s))
        }
        Add | Sub | Mul | Div | Mod => {
            // Integral arithmetic when both sides are integral; f64 otherwise.
            if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
                if matches!(op, Div | Mod) && b == 0 {
                    return Err(EvalError::DivideByZero);
                }
                return Ok(Value::I64(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => a.wrapping_div(b),
                    Mod => a.wrapping_rem(b),
                    _ => unreachable!(),
                }));
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EvalError::TypeMismatch {
                        op: op.symbol(),
                        left: l.type_name(),
                        right: r.type_name(),
                    })
                }
            };
            if matches!(op, Div | Mod) && b == 0.0 {
                return Err(EvalError::DivideByZero);
            }
            Ok(Value::F64(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a % b,
                _ => unreachable!(),
            }))
        }
        // Callers lower short-circuit connectives themselves; a stray
        // non-bool application reports a mismatch instead of panicking.
        And | Or => Err(EvalError::TypeMismatch {
            op: op.symbol(),
            left: l.type_name(),
            right: r.type_name(),
        }),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Field(name) => write!(f, "{name}"),
            Expr::Lit(Value::Str(s)) => write!(f, "\"{s}\""),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Binary(op, l, r) => {
                write!(f, "({l} {} {r})", op.symbol())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Schema, Tuple};

    fn row() -> (Schema, Tuple) {
        (
            Schema::new(["e.size", "e.user", "e.time"]),
            Tuple::from_iter([Value::I64(8), Value::str("alice"), Value::U64(100)]),
        )
    }

    #[test]
    fn field_lookup_and_literals() {
        let (s, t) = row();
        let r = (&s, &t);
        assert_eq!(Expr::field("size").eval(&r).unwrap(), Value::I64(8));
        assert_eq!(Expr::lit(5).eval(&r).unwrap(), Value::I64(5));
        assert!(matches!(
            Expr::field("nope").eval(&r),
            Err(EvalError::UnknownField(_))
        ));
    }

    #[test]
    fn where_size_lt_10() {
        // Paper Table 1: `Where e.Size < 10`.
        let (s, t) = row();
        let pred = Expr::bin(BinOp::Lt, Expr::field("e.size"), Expr::lit(10));
        assert_eq!(pred.eval(&(&s, &t)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn latency_subtraction() {
        // Paper Q8: `response.time - request.time`.
        let s = Schema::new(["response.time", "request.time"]);
        let t = Tuple::from_iter([Value::U64(150), Value::U64(100)]);
        let e = Expr::bin(
            BinOp::Sub,
            Expr::field("response.time"),
            Expr::field("request.time"),
        );
        assert_eq!(e.eval(&(&s, &t)).unwrap(), Value::I64(50));
    }

    #[test]
    fn string_comparison_and_concat() {
        let (s, t) = row();
        let r = (&s, &t);
        let eq = Expr::bin(BinOp::Ne, Expr::field("user"), Expr::lit("bob"));
        assert_eq!(eq.eval(&r).unwrap(), Value::Bool(true));
        let cat = Expr::bin(BinOp::Add, Expr::field("user"), Expr::lit("!"));
        assert_eq!(cat.eval(&r).unwrap(), Value::str("alice!"));
    }

    #[test]
    fn divide_by_zero_is_error() {
        let (s, t) = row();
        let e = Expr::bin(BinOp::Div, Expr::field("size"), Expr::lit(0));
        assert_eq!(e.eval(&(&s, &t)), Err(EvalError::DivideByZero));
    }

    #[test]
    fn short_circuit_and() {
        let (s, t) = row();
        // Right side would error (unknown field) but is never evaluated.
        let e = Expr::bin(BinOp::And, Expr::lit(false), Expr::field("nope"));
        assert_eq!(e.eval(&(&s, &t)).unwrap(), Value::Bool(false));
    }

    #[test]
    fn collects_and_rewrites_fields() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::field("a.x"),
            Expr::bin(BinOp::Mul, Expr::field("b.y"), Expr::field("a.x")),
        );
        let mut fields = Vec::new();
        e.fields(&mut fields);
        assert_eq!(fields, vec!["a.x".to_owned(), "b.y".to_owned()]);
        let renamed = e.map_fields(&|f| f.replace('.', "_"));
        let mut fields2 = Vec::new();
        renamed.fields(&mut fields2);
        assert_eq!(fields2, vec!["a_x".to_owned(), "b_y".to_owned()]);
    }

    #[test]
    fn display_round_readable() {
        let e = Expr::bin(BinOp::Lt, Expr::field("e.size"), Expr::lit(10));
        assert_eq!(e.to_string(), "(e.size < 10)");
    }
}
