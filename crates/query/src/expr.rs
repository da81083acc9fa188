//! Scalar expressions evaluated over rows.

use crate::error::{QueryError, QueryResult};
use olxp_storage::Value;

/// Aggregate functions supported by [`crate::plan::Plan::Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT of non-null inputs (COUNT(*) when applied to a never-null column).
    Count,
    /// SUM of numeric inputs.
    Sum,
    /// Arithmetic mean of numeric inputs.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Row-shaped access to values by column position.
///
/// Expressions evaluate against anything that can resolve a column position
/// to a value: a materialized row slice, or one selected slot of a
/// [`olxp_storage::ColumnBatch`] (the executor's vectorized representation,
/// where the "row" is a position across column vectors and no tuple is ever
/// materialized).
pub trait ValueAccess {
    /// Number of columns the row exposes.
    fn width(&self) -> usize;
    /// Borrow the value at `pos`, or `None` when out of range.
    fn value_at(&self, pos: usize) -> Option<&Value>;
}

impl ValueAccess for [Value] {
    fn width(&self) -> usize {
        self.len()
    }

    fn value_at(&self, pos: usize) -> Option<&Value> {
        self.get(pos)
    }
}

/// A scalar expression over a row.
///
/// Columns are referenced by position within the input row of the operator
/// evaluating the expression (after joins the right side's columns follow the
/// left side's).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of the column at a position.
    Column(usize),
    /// A literal value.
    Literal(Value),
    /// Equality comparison.
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality comparison.
    Ne(Box<Expr>, Box<Expr>),
    /// Less-than comparison.
    Lt(Box<Expr>, Box<Expr>),
    /// Less-or-equal comparison.
    Le(Box<Expr>, Box<Expr>),
    /// Greater-than comparison.
    Gt(Box<Expr>, Box<Expr>),
    /// Greater-or-equal comparison.
    Ge(Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// SQL LIKE with `%` wildcards — the fuzzy-search operator used by
    /// tabenchmark's Fuzzy Search Transaction (X6).
    Like(Box<Expr>, String),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication (through f64).
    Mul(Box<Expr>, Box<Expr>),
    /// Division (through f64); division by zero yields NULL.
    Div(Box<Expr>, Box<Expr>),
    /// True when the operand is NULL.
    IsNull(Box<Expr>),
}

impl Expr {
    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(other))
    }
    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Ne(Box::new(self), Box::new(other))
    }
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Lt(Box::new(self), Box::new(other))
    }
    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::Le(Box::new(self), Box::new(other))
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Gt(Box::new(self), Box::new(other))
    }
    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Ge(Box::new(self), Box::new(other))
    }
    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }
    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self LIKE pattern` (with `%` wildcards).
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like(Box::new(self), pattern.into())
    }
    /// `self + other`
    // The arithmetic builders intentionally mirror the SQL expression DSL
    // (`col("a").add(col("b"))`); taking `Expr` by value and returning `Expr`
    // also matches the std::ops signatures, so clippy flags the names. The
    // workload suites build expressions through these names, and implementing
    // the operator traits instead would change how every call site resolves.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(other))
    }
    /// `self - other`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(other))
    }
    /// `self * other`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }
    /// `self / other`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(other))
    }
    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Call `f` with every column position the expression names (a position
    /// named twice is reported twice).
    pub fn for_each_column(&self, f: &mut dyn FnMut(usize)) {
        match self {
            Expr::Column(pos) => f(*pos),
            Expr::Literal(_) => {}
            Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b) => {
                a.for_each_column(f);
                b.for_each_column(f);
            }
            Expr::Not(e) | Expr::Like(e, _) | Expr::IsNull(e) => e.for_each_column(f),
        }
    }

    /// Rewrite every column position the expression names through `f`.
    pub fn remap_columns(&mut self, f: &dyn Fn(usize) -> usize) {
        match self {
            Expr::Column(pos) => *pos = f(*pos),
            Expr::Literal(_) => {}
            Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b) => {
                a.remap_columns(f);
                b.remap_columns(f);
            }
            Expr::Not(e) | Expr::Like(e, _) | Expr::IsNull(e) => e.remap_columns(f),
        }
    }

    /// Evaluate against a row of values.
    pub fn eval(&self, row: &[Value]) -> QueryResult<Value> {
        self.eval_access(row)
    }

    /// Evaluate against any [`ValueAccess`] row representation (materialized
    /// slice or batch slot).
    pub fn eval_access<A: ValueAccess + ?Sized>(&self, row: &A) -> QueryResult<Value> {
        match self {
            Expr::Column(pos) => row
                .value_at(*pos)
                .cloned()
                .ok_or(QueryError::ColumnOutOfRange {
                    position: *pos,
                    width: row.width(),
                }),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Eq(a, b) => cmp(a, b, row, |o| o == std::cmp::Ordering::Equal),
            Expr::Ne(a, b) => cmp(a, b, row, |o| o != std::cmp::Ordering::Equal),
            Expr::Lt(a, b) => cmp(a, b, row, |o| o == std::cmp::Ordering::Less),
            Expr::Le(a, b) => cmp(a, b, row, |o| o != std::cmp::Ordering::Greater),
            Expr::Gt(a, b) => cmp(a, b, row, |o| o == std::cmp::Ordering::Greater),
            Expr::Ge(a, b) => cmp(a, b, row, |o| o != std::cmp::Ordering::Less),
            Expr::And(a, b) => {
                let a = a.eval_access(row)?.as_bool().unwrap_or(false);
                if !a {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(b.eval_access(row)?.as_bool().unwrap_or(false)))
            }
            Expr::Or(a, b) => {
                let a = a.eval_access(row)?.as_bool().unwrap_or(false);
                if a {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(b.eval_access(row)?.as_bool().unwrap_or(false)))
            }
            Expr::Not(e) => Ok(Value::Bool(!e.eval_access(row)?.as_bool().unwrap_or(false))),
            Expr::Like(e, pattern) => {
                let v = e.eval_access(row)?;
                match v {
                    Value::Null => Ok(Value::Bool(false)),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
                    other => Err(QueryError::TypeError(format!(
                        "LIKE applied to non-string value {other}"
                    ))),
                }
            }
            Expr::Add(a, b) => arith(a, b, row, Value::checked_add),
            Expr::Sub(a, b) => arith(a, b, row, Value::checked_sub),
            Expr::Mul(a, b) => float_arith(a, b, row, |x, y| Some(x * y)),
            Expr::Div(a, b) => {
                float_arith(a, b, row, |x, y| if y == 0.0 { None } else { Some(x / y) })
            }
            Expr::IsNull(e) => Ok(Value::Bool(e.eval_access(row)?.is_null())),
        }
    }

    /// Evaluate as a boolean predicate (NULL and non-boolean results are
    /// treated as false, matching SQL's WHERE semantics).
    pub fn matches(&self, row: &[Value]) -> QueryResult<bool> {
        self.matches_access(row)
    }

    /// [`Expr::matches`] over any [`ValueAccess`] row representation.
    pub fn matches_access<A: ValueAccess + ?Sized>(&self, row: &A) -> QueryResult<bool> {
        Ok(self.eval_access(row)?.as_bool().unwrap_or(false))
    }
}

fn cmp<A: ValueAccess + ?Sized>(
    a: &Expr,
    b: &Expr,
    row: &A,
    f: impl Fn(std::cmp::Ordering) -> bool,
) -> QueryResult<Value> {
    let a = a.eval_access(row)?;
    let b = b.eval_access(row)?;
    if a.is_null() || b.is_null() {
        return Ok(Value::Bool(false));
    }
    Ok(Value::Bool(f(a.cmp(&b))))
}

fn arith<A: ValueAccess + ?Sized>(
    a: &Expr,
    b: &Expr,
    row: &A,
    f: impl Fn(&Value, &Value) -> Option<Value>,
) -> QueryResult<Value> {
    let a = a.eval_access(row)?;
    let b = b.eval_access(row)?;
    f(&a, &b)
        .ok_or_else(|| QueryError::TypeError(format!("cannot apply arithmetic to {a} and {b}")))
}

fn float_arith<A: ValueAccess + ?Sized>(
    a: &Expr,
    b: &Expr,
    row: &A,
    f: impl Fn(f64, f64) -> Option<f64>,
) -> QueryResult<Value> {
    let av = a.eval_access(row)?;
    let bv = b.eval_access(row)?;
    if av.is_null() || bv.is_null() {
        return Ok(Value::Null);
    }
    let (x, y) = match (av.as_f64(), bv.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(QueryError::TypeError(format!(
                "cannot apply arithmetic to {av} and {bv}"
            )))
        }
    };
    Ok(f(x, y).map_or(Value::Null, Value::Float))
}

/// Simple SQL LIKE matcher supporting `%` (any run of characters).  `_` is not
/// needed by the workloads and is treated as a literal underscore.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8]) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        if p[0] == b'%' {
            // Collapse consecutive '%'.
            let rest = &p[1..];
            if rest.is_empty() {
                return true;
            }
            (0..=t.len()).any(|i| rec(&t[i..], rest))
        } else {
            !t.is_empty() && t[0] == p[0] && rec(&t[1..], &p[1..])
        }
    }
    rec(text.as_bytes(), pattern.as_bytes())
}

/// Column reference helper: `col(2)`.
pub fn col(position: usize) -> Expr {
    Expr::Column(position)
}

/// Literal helper: `lit(5)`, `lit("abc")`.
pub fn lit(value: impl Into<Value>) -> Expr {
    Expr::Literal(value.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Str("widget-42".into()),
            Value::Decimal(995),
            Value::Null,
        ]
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert_eq!(col(0).eq(lit(10)).eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(col(0).lt(lit(11)).eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(
            col(2).ge(lit(Value::Decimal(995))).eval(&r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(col(0).gt(lit(10)).eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = row();
        assert_eq!(col(3).eq(lit(1)).eval(&r).unwrap(), Value::Bool(false));
        assert_eq!(col(3).is_null().eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        let r = row();
        let e = col(0).eq(lit(10)).and(col(1).like("widget%"));
        assert!(e.matches(&r).unwrap());
        let e = col(0).eq(lit(11)).or(col(1).like("%42"));
        assert!(e.matches(&r).unwrap());
        let e = col(0).eq(lit(11)).and(col(99).eq(lit(1)));
        // Short circuit: the out-of-range column is never evaluated.
        assert!(!e.matches(&r).unwrap());
    }

    #[test]
    fn like_matching() {
        assert!(like_match("subscriber-0042", "%0042"));
        assert!(like_match("subscriber-0042", "subscriber%"));
        assert!(like_match("subscriber-0042", "%scriber%"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(!like_match("abc", "%d%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "a%"));
    }

    #[test]
    fn like_requires_string_input() {
        let r = row();
        assert!(col(0).like("%x").eval(&r).is_err());
        // NULL input is simply false, not an error.
        assert_eq!(col(3).like("%x").eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn arithmetic() {
        let r = row();
        assert_eq!(col(0).add(lit(5)).eval(&r).unwrap(), Value::Int(15));
        assert_eq!(
            col(2).sub(lit(Value::Decimal(95))).eval(&r).unwrap(),
            Value::Decimal(900)
        );
        let avg = col(0).div(lit(4)).eval(&r).unwrap();
        assert_eq!(avg, Value::Float(2.5));
        assert_eq!(col(0).div(lit(0)).eval(&r).unwrap(), Value::Null);
        assert_eq!(col(0).mul(lit(3)).eval(&r).unwrap(), Value::Float(30.0));
    }

    #[test]
    fn columns_are_listed_and_rewritten_through_every_operator() {
        let mut e = col(3)
            .eq(lit(1))
            .and(
                col(1)
                    .like("x%")
                    .or(col(3).add(col(5)).mul(lit(2)).ge(col(0))),
            )
            .and(col(7).is_null().not());
        let mut seen = Vec::new();
        e.for_each_column(&mut |pos| seen.push(pos));
        assert_eq!(seen, vec![3, 1, 3, 5, 0, 7]);
        e.remap_columns(&|pos| pos * 10);
        let mut seen = Vec::new();
        e.for_each_column(&mut |pos| seen.push(pos));
        assert_eq!(seen, vec![30, 10, 30, 50, 0, 70]);
    }

    #[test]
    fn out_of_range_column_is_an_error() {
        let r = row();
        assert!(matches!(
            col(9).eval(&r),
            Err(QueryError::ColumnOutOfRange { position: 9, .. })
        ));
    }
}
