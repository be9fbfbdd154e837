//! LSM inverted indexes: `keyword` and `ngram(k)` index types (§2.2).
//!
//! Both are layered on the LSM B+-tree framework with composite keys
//! `(token, primary-key)`, exactly how AsterixDB LSM-ifies its inverted
//! index. A keyword index tokenizes string fields into words (or bag
//! elements into tokens); an n-gram index tokenizes into k-grams. Both
//! answer one search, T-occurrence: the compiler picks the tokens and the
//! threshold (for a fuzzy search, the gram-count bound), and the plan's
//! post-validation verifies the candidates.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use asterix_adm::strings::Tokenizer;
use asterix_adm::Value;

use crate::cache::BufferCache;
use crate::error::Result;
use crate::keycodec::encode_key;
use crate::lsm::{LsmConfig, LsmObserver, LsmTree};

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
        let both = ix.t_occurrence(&["music".into(), "live".into()], 2).unwrap();
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
        let store =
            [(1i64, "tonight"), (2, "tonite"), (3, "tomorrow"), (4, "tonsil"), (5, "night")];
        for (id, s) in store {
            ix.insert(&Value::string(s), &[Value::Int64(id)]).unwrap();
        }
        ix.lsm().flush().unwrap();
        let grams = Tokenizer::NGram(2).tokens(&Value::string("Tonight")).unwrap();
        let hits = |t: usize| {
            let mut ids: Vec<i64> = ix
                .t_occurrence(&grams, t)
                .unwrap()
                .iter()
                .map(|pk| pk[0].as_i64().unwrap())
                .collect();
            ids.sort_unstable();
            ids
        };
        // 8 grams; within edit distance 2 at least 8 - 2·2 = 4 survive:
        // "tonite" shares #t, to, on, ni and is a candidate the post-
        // validation drops (distance 3); "tonsil" shares only three.
        assert_eq!(hits(4), vec![1, 2, 5]);
        assert_eq!(hits(8), vec![1]);
        assert!(hits(0).is_empty() && ix.t_occurrence(&[], 1).unwrap().is_empty());
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
