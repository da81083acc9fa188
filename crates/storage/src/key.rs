//! Composite keys used by primary and secondary indexes.

use crate::value::Value;
use std::fmt;

/// An ordered, possibly composite key.
///
/// Keys are plain vectors of [`Value`]s compared lexicographically, so a key on
/// `(s_id, sf_type)` — the composite SUBSCRIBER primary key the paper adds to
/// TATP — orders first by `s_id` and then by `sf_type`.  Prefix operations are
/// provided so that an index on `(a, b)` can serve equality lookups on `a`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(Vec<Value>);

impl Key {
    /// Create a key from component values.
    pub fn new(parts: Vec<Value>) -> Key {
        Key(parts)
    }

    /// A single-component integer key (the common case).
    pub fn int(v: i64) -> Key {
        Key(vec![Value::Int(v)])
    }

    /// A composite key of integers.
    pub fn ints(vs: &[i64]) -> Key {
        Key(vs.iter().map(|&v| Value::Int(v)).collect())
    }

    /// Borrow the key components.
    pub fn parts(&self) -> &[Value] {
        &self.0
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the key has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True when `prefix` is a component-wise prefix of this key.
    pub fn starts_with(&self, prefix: &Key) -> bool {
        prefix.0.len() <= self.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }

    /// The smallest key greater than every key having this key as a prefix,
    /// or `None` if no such key exists (all components already maximal).
    ///
    /// Used to turn a prefix lookup into a half-open B-tree range scan:
    /// `[prefix, prefix.prefix_upper_bound())`.
    pub fn prefix_upper_bound(&self) -> Option<Key> {
        let mut parts = self.0.clone();
        for i in (0..parts.len()).rev() {
            match &parts[i] {
                Value::Int(v) if *v < i64::MAX => {
                    parts[i] = Value::Int(v + 1);
                    parts.truncate(i + 1);
                    return Some(Key(parts));
                }
                Value::Decimal(v) if *v < i64::MAX => {
                    parts[i] = Value::Decimal(v + 1);
                    parts.truncate(i + 1);
                    return Some(Key(parts));
                }
                Value::Timestamp(v) if *v < i64::MAX => {
                    parts[i] = Value::Timestamp(v + 1);
                    parts.truncate(i + 1);
                    return Some(Key(parts));
                }
                Value::Str(s) => {
                    let mut s = s.clone();
                    s.push('\u{10FFFF}');
                    parts[i] = Value::Str(s);
                    parts.truncate(i + 1);
                    return Some(Key(parts));
                }
                Value::Bool(false) => {
                    parts[i] = Value::Bool(true);
                    parts.truncate(i + 1);
                    return Some(Key(parts));
                }
                _ => continue,
            }
        }
        None
    }
}

impl From<Vec<Value>> for Key {
    fn from(parts: Vec<Value>) -> Self {
        Key(parts)
    }
}

impl From<i64> for Key {
    fn from(v: i64) -> Self {
        Key::int(v)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_ordering() {
        assert!(Key::ints(&[1, 2]) < Key::ints(&[1, 3]));
        assert!(Key::ints(&[1, 2]) < Key::ints(&[2]));
        assert!(Key::ints(&[1]) < Key::ints(&[1, 0]));
    }

    #[test]
    fn prefix_detection() {
        let k = Key::ints(&[7, 3, 2]);
        assert!(k.starts_with(&Key::ints(&[7])));
        assert!(k.starts_with(&Key::ints(&[7, 3])));
        assert!(!k.starts_with(&Key::ints(&[7, 4])));
        assert!(!k.starts_with(&Key::ints(&[7, 3, 2, 1])));
    }

    #[test]
    fn prefix_upper_bound_covers_all_extensions() {
        let prefix = Key::ints(&[5, 9]);
        let upper = prefix.prefix_upper_bound().unwrap();
        assert_eq!(upper, Key::ints(&[5, 10]));
        // every key starting with the prefix is < upper
        assert!(Key::ints(&[5, 9, i64::MAX]) < upper);
        assert!(Key::ints(&[5, 9]) < upper);
        // and keys beyond the prefix are >= upper
        assert!(Key::ints(&[5, 10]) >= upper);
    }

    #[test]
    fn prefix_upper_bound_string_component() {
        let prefix = Key::new(vec![Value::Str("abc".into())]);
        let upper = prefix.prefix_upper_bound().unwrap();
        assert!(Key::new(vec![Value::Str("abc-suffix".into())]) < upper);
        assert!(Key::new(vec![Value::Str("abd".into())]) > upper);
    }

    #[test]
    fn prefix_upper_bound_saturating_component_falls_back() {
        let prefix = Key::ints(&[3, i64::MAX]);
        // the last component cannot be bumped, so the bound bumps the first
        let upper = prefix.prefix_upper_bound().unwrap();
        assert_eq!(upper, Key::ints(&[4]));
        assert!(Key::ints(&[3, i64::MAX, 42]) < upper);
    }
}
