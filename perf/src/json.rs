//! Small accessors over `serde::Value`, the tree every document here is
//! built from and parsed into.

use crate::Res;
use serde::Value;

/// Set `key` of a map to a number, replacing an earlier value.
pub fn set(map: &mut Value, key: &str, value: f64) {
    set_value(map, key, Value::F64(value));
}

/// Set `key` of a map, replacing an earlier value.
pub fn set_value(map: &mut Value, key: &str, value: Value) {
    let Value::Map(entries) = map else {
        panic!("set on a {} instead of a map", map.kind());
    };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some(entry) => entry.1 = value,
        None => entries.push((key.to_string(), value)),
    }
}

pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn field<'a>(value: &'a Value, key: &str) -> Res<&'a Value> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`").into())
}

pub fn number(value: &Value) -> Res<f64> {
    match value {
        Value::F64(f) => Ok(*f),
        Value::I64(i) => Ok(*i as f64),
        Value::U64(u) => Ok(*u as f64),
        other => Err(format!("expected a number, found {}", other.kind()).into()),
    }
}

pub fn num(value: &Value, key: &str) -> Res<f64> {
    number(field(value, key)?).map_err(|e| format!("`{key}`: {e}").into())
}

pub fn boolean(value: &Value, key: &str) -> Res<bool> {
    match field(value, key)? {
        Value::Bool(b) => Ok(*b),
        other => Err(format!("`{key}`: expected a bool, found {}", other.kind()).into()),
    }
}

pub fn string<'a>(value: &'a Value, key: &str) -> Res<&'a str> {
    match field(value, key)? {
        Value::Str(s) => Ok(s),
        other => Err(format!("`{key}`: expected a string, found {}", other.kind()).into()),
    }
}

pub fn seq<'a>(value: &'a Value, key: &str) -> Res<&'a [Value]> {
    field(value, key)?
        .as_seq()
        .ok_or_else(|| format!("`{key}`: expected a sequence").into())
}

pub fn entries<'a>(value: &'a Value, key: &str) -> Res<&'a [(String, Value)]> {
    field(value, key)?
        .as_map()
        .ok_or_else(|| format!("`{key}`: expected a map").into())
}

pub fn entries_mut(value: &mut Value) -> Res<&mut Vec<(String, Value)>> {
    match value {
        Value::Map(entries) => Ok(entries),
        other => Err(format!("expected a map, found {}", other.kind()).into()),
    }
}

pub fn parse(text: &str) -> Res<Value> {
    Ok(serde_json::from_str::<Value>(text)?)
}

pub fn read(path: &std::path::Path) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()).into())
}

pub fn compact(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree serializes")
}

pub fn pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("a value tree serializes")
}
