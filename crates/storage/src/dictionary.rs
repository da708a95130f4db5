//! String dictionary encoding for categorical columns.

use crate::fx::FxHashMap;

/// A bidirectional mapping between strings and dense `u32` codes.
///
/// Codes are assigned in first-seen order, which makes encoding
/// deterministic for a deterministic input stream — important because cube
/// cell keys, and therefore every downstream artifact (iceberg tables,
/// sample ids), are expressed in terms of these codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    index: FxHashMap<String, u32>,
    values: Vec<String>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `value`, assigning a fresh code on first sight.
    pub fn encode(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(value.to_owned());
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Look up the code for `value` without inserting.
    pub fn lookup(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Decode a code back to its string. Panics on an out-of-range code,
    /// which would indicate corruption rather than a user error.
    pub fn decode(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v.as_str()))
    }

    /// Approximate heap bytes held by the dictionary.
    pub fn heap_bytes(&self) -> usize {
        self.values.iter().map(|v| v.len() + 24).sum::<usize>() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode("cash"), 0);
        assert_eq!(d.encode("credit"), 1);
        assert_eq!(d.encode("cash"), 0);
        assert_eq!(d.encode("dispute"), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.decode(1), "credit");
        assert_eq!(d.lookup("dispute"), Some(2));
        assert_eq!(d.lookup("unknown"), None);
    }

    #[test]
    fn iter_preserves_code_order() {
        let mut d = Dictionary::new();
        for v in ["a", "b", "c"] {
            d.encode(v);
        }
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b"), (2, "c")]);
    }
}
