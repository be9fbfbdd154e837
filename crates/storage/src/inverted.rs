//! LSM inverted indexes: `keyword` and `ngram(k)` index types (§2.2).
//!
//! Both are layered on the LSM B+-tree framework with composite keys
//! `(token, primary-key)`, exactly how AsterixDB LSM-ifies its inverted
//! index. A keyword index tokenizes string fields into words (or bag
//! elements into tokens); an n-gram index tokenizes into k-grams and
//! supports fuzzy (edit-distance) string search via T-occurrence candidate
//! generation followed by verification.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use asterix_adm::strings::{edit_distance_check, gram_tokens, word_tokens};
use asterix_adm::{AdmError, Value};

use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::keycodec::encode_key;
use crate::lsm::{LsmConfig, LsmObserver, LsmTree};

/// How field values are split into tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tokenizer {
    /// Word tokens of a string, or the string elements of a list/bag —
    /// the `keyword` index type.
    Keyword,
    /// Lowercased k-grams with `#` padding — the `ngram(k)` index type.
    NGram(usize),
}

impl Tokenizer {
    /// Tokenize an ADM value. Strings tokenize directly; lists/bags
    /// tokenize element-wise (for keyword indexes on tag bags, Query 13).
    pub fn tokens(&self, v: &Value) -> Result<Vec<String>> {
        match v {
            Value::String(s) => Ok(match self {
                Tokenizer::Keyword => word_tokens(s),
                Tokenizer::NGram(k) => gram_tokens(s, *k),
            }),
            Value::OrderedList(items) | Value::UnorderedList(items) => {
                let mut out = Vec::new();
                for item in items.iter() {
                    match item {
                        Value::String(s) => match self {
                            // Bag elements are whole tokens for keyword
                            // indexes (tags are matched as units).
                            Tokenizer::Keyword => out.push(s.to_lowercase()),
                            Tokenizer::NGram(k) => out.extend(gram_tokens(s, *k)),
                        },
                        other if other.is_unknown() => {}
                        other => {
                            return Err(StorageError::Adm(AdmError::InvalidArgument(format!(
                                "cannot tokenize {} element",
                                other.type_name()
                            ))))
                        }
                    }
                }
                Ok(out)
            }
            v if v.is_unknown() => Ok(Vec::new()),
            other => Err(StorageError::Adm(AdmError::InvalidArgument(format!(
                "cannot tokenize {}",
                other.type_name()
            )))),
        }
    }
}

/// An LSM inverted index mapping tokens to primary keys.
pub struct InvertedIndex {
    tree: LsmTree,
    tokenizer: Tokenizer,
}

impl InvertedIndex {
    /// Open (or create) an inverted index at `dir`.
    pub fn open(
        dir: &Path,
        tokenizer: Tokenizer,
        cfg: LsmConfig,
        cache: Arc<BufferCache>,
        observer: Arc<dyn LsmObserver>,
    ) -> Result<InvertedIndex> {
        Ok(InvertedIndex { tree: LsmTree::open(dir, cfg, cache, observer)?, tokenizer })
    }

    /// The underlying LSM tree.
    pub fn lsm(&self) -> &LsmTree {
        &self.tree
    }

    /// The tokenizer in force.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    fn entry_key(token: &str, pk: &[Value]) -> Result<Vec<u8>> {
        let mut composite = Vec::with_capacity(1 + pk.len());
        composite.push(Value::string(token));
        composite.extend_from_slice(pk);
        encode_key(&composite)
    }

    /// Index `field_value` under primary key `pk`.
    pub fn insert(&self, field_value: &Value, pk: &[Value]) -> Result<()> {
        let mut toks = self.tokenizer.tokens(field_value)?;
        toks.sort_unstable();
        toks.dedup();
        for t in toks {
            self.tree.insert(Self::entry_key(&t, pk)?, Vec::new())?;
        }
        Ok(())
    }

    /// Remove the postings of `field_value` for `pk` (antimatter).
    pub fn delete(&self, field_value: &Value, pk: &[Value]) -> Result<()> {
        let mut toks = self.tokenizer.tokens(field_value)?;
        toks.sort_unstable();
        toks.dedup();
        for t in toks {
            self.tree.delete(Self::entry_key(&t, pk)?)?;
        }
        Ok(())
    }

    /// All primary keys whose indexed value contains `token`.
    pub fn lookup_token(&self, token: &str) -> Result<Vec<Vec<Value>>> {
        let prefix = encode_key(&[Value::string(token)])?;
        let hi = crate::keycodec::prefix_successor(&prefix);
        let mut out = Vec::new();
        self.tree.try_scan_with(Some(&prefix), hi.as_deref(), |k, _| {
            let mut vals = crate::keycodec::decode_key(k)?;
            // Strip the token, keep the pk suffix.
            vals.remove(0);
            out.push(vals);
            Ok(())
        })?;
        Ok(out)
    }

    /// Primary keys that match at least `t` of `tokens` (T-occurrence).
    /// This is the candidate-generation primitive behind indexed fuzzy
    /// selection and indexed similarity joins.
    pub fn t_occurrence(&self, tokens: &[String], t: usize) -> Result<Vec<Vec<Value>>> {
        if tokens.is_empty() || t == 0 {
            return Ok(Vec::new());
        }
        let mut counts: HashMap<Vec<u8>, (usize, Vec<Value>)> = HashMap::new();
        let mut uniq: Vec<&String> = tokens.iter().collect();
        uniq.sort_unstable();
        uniq.dedup();
        for tok in uniq {
            for pk in self.lookup_token(tok)? {
                let key = encode_key(&pk)?;
                let slot = counts.entry(key).or_insert_with(|| (0, pk));
                slot.0 += 1;
            }
        }
        Ok(counts.into_values().filter_map(|(n, pk)| (n >= t).then_some(pk)).collect())
    }

    /// Primary keys containing *all* tokens (conjunctive keyword search).
    pub fn conjunctive(&self, tokens: &[String]) -> Result<Vec<Vec<Value>>> {
        let mut uniq: Vec<&String> = tokens.iter().collect();
        uniq.sort_unstable();
        uniq.dedup();
        self.t_occurrence(&uniq.iter().map(|s| s.to_string()).collect::<Vec<_>>(), uniq.len())
    }

    /// Fuzzy string search on an `ngram(k)` index: candidate primary keys
    /// for strings within edit distance `ed` of `query`, generated with the
    /// standard gram-count lower bound `|G(q)| - k·ed`, then to be verified
    /// against the primary records by the caller (the post-verification
    /// `select` of Figure 6 / §4.4 covers consistency; edit-distance
    /// verification covers filter exactness).
    pub fn fuzzy_candidates(&self, query: &str, ed: usize) -> Result<Vec<Vec<Value>>> {
        let k = match self.tokenizer {
            Tokenizer::NGram(k) => k,
            Tokenizer::Keyword => {
                return Err(StorageError::Adm(AdmError::InvalidArgument(
                    "fuzzy string search requires an ngram index".into(),
                )))
            }
        };
        let grams = gram_tokens(query, k);
        let lower = grams.len().saturating_sub(k * ed);
        if lower == 0 {
            // Threshold degenerates: every record is a candidate; signal the
            // caller to fall back to a scan rather than enumerate the index.
            return Err(StorageError::InvalidState(
                "t-occurrence lower bound is 0; fall back to scan".into(),
            ));
        }
        self.t_occurrence(&grams, lower)
    }

    /// Convenience: verified fuzzy match — candidate pks whose stored
    /// string (fetched by `fetch`) is within `ed` of `query`.
    pub fn fuzzy_search(
        &self,
        query: &str,
        ed: usize,
        mut fetch: impl FnMut(&[Value]) -> Result<Option<String>>,
    ) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        for pk in self.fuzzy_candidates(query, ed)? {
            if let Some(s) = fetch(&pk)? {
                if edit_distance_check(query, &s, ed).is_some() {
                    out.push(pk);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::{MergePolicy, NullObserver};
    use asterix_testkit::TempDir;

    fn open(dir: &Path, tok: Tokenizer) -> InvertedIndex {
        InvertedIndex::open(
            dir,
            tok,
            LsmConfig {
                mem_budget: 1 << 20,
                page_size: 512,
                bloom_fpp: 0.01,
                merge_policy: MergePolicy::NoMerge,
                max_frozen: 2,
                columnar: None,
            },
            BufferCache::new(128),
            Arc::new(NullObserver),
        )
        .unwrap()
    }

    #[test]
    fn keyword_index_over_messages() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::Keyword);
        let msgs = [
            (1i64, "see you tonight"),
            (2, "what a great day"),
            (3, "tonight we dine"),
            (4, "nothing here"),
        ];
        for (id, text) in msgs {
            ix.insert(&Value::string(text), &[Value::Int64(id)]).unwrap();
        }
        let hits = ix.lookup_token("tonight").unwrap();
        let mut ids: Vec<i64> = hits.iter().map(|pk| pk[0].as_i64().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
        // Case-insensitivity through word tokenization.
        ix.insert(&Value::string("TONIGHT!"), &[Value::Int64(5)]).unwrap();
        assert_eq!(ix.lookup_token("tonight").unwrap().len(), 3);
    }

    #[test]
    fn keyword_index_over_tag_bags() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::Keyword);
        let bag = |tags: &[&str]| Value::unordered_list(tags.iter().map(Value::string).collect());
        ix.insert(&bag(&["music", "live"]), &[Value::Int64(1)]).unwrap();
        ix.insert(&bag(&["music", "food"]), &[Value::Int64(2)]).unwrap();
        ix.insert(&bag(&["sports"]), &[Value::Int64(3)]).unwrap();
        assert_eq!(ix.lookup_token("music").unwrap().len(), 2);
        let both = ix.conjunctive(&["music".into(), "live".into()]).unwrap();
        assert_eq!(both.len(), 1);
        assert_eq!(both[0][0], Value::Int64(1));
        // T-occurrence with t=1 is a disjunction.
        let any = ix.t_occurrence(&["music".into(), "sports".into()], 1).unwrap();
        assert_eq!(any.len(), 3);
    }

    #[test]
    fn delete_removes_postings() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::Keyword);
        ix.insert(&Value::string("hello world"), &[Value::Int64(1)]).unwrap();
        ix.lsm().flush().unwrap();
        ix.delete(&Value::string("hello world"), &[Value::Int64(1)]).unwrap();
        assert!(ix.lookup_token("hello").unwrap().is_empty());
        assert!(ix.lookup_token("world").unwrap().is_empty());
    }

    #[test]
    fn ngram_fuzzy_search() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::NGram(2));
        let store: Vec<(i64, &str)> =
            vec![(1, "tonight"), (2, "tonite"), (3, "tomorrow"), (4, "tonsil"), (5, "night")];
        for (id, s) in &store {
            ix.insert(&Value::string(s), &[Value::Int64(*id)]).unwrap();
        }
        ix.lsm().flush().unwrap();
        let fetch = |pk: &[Value]| -> Result<Option<String>> {
            let id = pk[0].as_i64().unwrap();
            Ok(store.iter().find(|(i, _)| *i == id).map(|(_, s)| s.to_string()))
        };
        let mut hits: Vec<i64> = ix
            .fuzzy_search("tonight", 2, fetch)
            .unwrap()
            .iter()
            .map(|pk| pk[0].as_i64().unwrap())
            .collect();
        hits.sort_unstable();
        // edit distances: tonight=0, tonite=3, tomorrow=5, tonsil=4, night=2.
        assert_eq!(hits, vec![1, 5]);
        // With ed=3 the candidate bound loosens and "tonite" verifies too.
        let mut hits3: Vec<i64> = ix
            .fuzzy_search("tonight", 3, fetch)
            .unwrap()
            .iter()
            .map(|pk| pk[0].as_i64().unwrap())
            .collect();
        hits3.sort_unstable();
        assert_eq!(hits3, vec![1, 2, 5]);
    }

    #[test]
    fn fuzzy_on_keyword_index_is_rejected() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::Keyword);
        assert!(ix.fuzzy_candidates("abc", 1).is_err());
    }

    #[test]
    fn degenerate_threshold_falls_back() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::NGram(3));
        ix.insert(&Value::string("ab"), &[Value::Int64(1)]).unwrap();
        // |G("ab")| = 4 with k=3; ed=2 → lower bound 4 - 6 ≤ 0 → fallback.
        assert!(ix.fuzzy_candidates("ab", 2).is_err());
    }

    #[test]
    fn undecodable_postings_are_errors() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::Keyword);
        ix.insert(&Value::string("hello"), &[Value::Int64(1)]).unwrap();
        let mut key = encode_key(&[Value::string("hello")]).unwrap();
        key.extend_from_slice(&[0xEE, 0xEE]);
        ix.lsm().insert(key, Vec::new()).unwrap();
        assert!(ix.lookup_token("hello").is_err());
        assert!(ix.lookup_token("other").unwrap().is_empty());
    }

    #[test]
    fn unknown_values_index_nothing() {
        let dir = TempDir::new().unwrap();
        let ix = open(dir.path(), Tokenizer::Keyword);
        ix.insert(&Value::Null, &[Value::Int64(1)]).unwrap();
        ix.insert(&Value::Missing, &[Value::Int64(2)]).unwrap();
        assert_eq!(ix.lsm().live_count().unwrap(), 0);
    }
}
