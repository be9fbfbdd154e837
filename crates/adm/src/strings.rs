//! String builtins from Table 1: `contains`, `like`, `matches`, `replace`,
//! `word-tokens`, `edit-distance` (+ `-check`, `-contains`), and the n-gram
//! tokenizer used by `ngram(k)` indexes and fuzzy string search.

use crate::error::{AdmError, Result};
use crate::Value;

/// `contains(s, sub)` — substring test.
pub fn contains(s: &str, sub: &str) -> bool {
    s.contains(sub)
}

/// SQL `LIKE` with `%` (any run) and `_` (any single char); `\` escapes.
pub fn like(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Try to match the remainder at every suffix of s.
                (0..=s.len()).any(|i| rec(&s[i..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some('\\') if p.len() > 1 => !s.is_empty() && s[0] == p[1] && rec(&s[1..], &p[2..]),
            Some(&c) => !s.is_empty() && s[0] == c && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

// ---------------------------------------------------------------------------
// A small backtracking regex engine for `matches(s, re)` / `replace`.
// Supports: literals, `.`, `*`, `+`, `?`, alternation `|`, groups `(...)`,
// character classes `[a-z]` / `[^...]`, anchors `^` `$`, and escapes `\d`
// `\w` `\s` (plus their negations).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Node {
    Char(char),
    AnyChar,
    Class { neg: bool, ranges: Vec<(char, char)> },
    Start,
    End,
    Group(Box<Node>),
    Concat(Vec<Node>),
    Alt(Vec<Node>),
    Star(Box<Node>),
    Plus(Box<Node>),
    Opt(Box<Node>),
}

struct ReParser<'a> {
    chars: Vec<char>,
    pos: usize,
    _src: &'a str,
}

impl<'a> ReParser<'a> {
    fn new(src: &'a str) -> Self {
        ReParser { chars: src.chars().collect(), pos: 0, _src: src }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn parse_alt(&mut self) -> Result<Node> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 { branches.pop().unwrap() } else { Node::Alt(branches) })
    }

    fn parse_concat(&mut self) -> Result<Node> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        Ok(if items.len() == 1 { items.pop().unwrap() } else { Node::Concat(items) })
    }

    fn parse_repeat(&mut self) -> Result<Node> {
        let atom = self.parse_atom()?;
        Ok(match self.peek() {
            Some('*') => {
                self.bump();
                Node::Star(Box::new(atom))
            }
            Some('+') => {
                self.bump();
                Node::Plus(Box::new(atom))
            }
            Some('?') => {
                self.bump();
                Node::Opt(Box::new(atom))
            }
            _ => atom,
        })
    }

    fn parse_atom(&mut self) -> Result<Node> {
        match self.bump() {
            None => Err(AdmError::Parse("regex: unexpected end".into())),
            Some('(') => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(AdmError::Parse("regex: unclosed group".into()));
                }
                Ok(Node::Group(Box::new(inner)))
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::AnyChar),
            Some('^') => Ok(Node::Start),
            Some('$') => Ok(Node::End),
            Some('\\') => {
                let c = self
                    .bump()
                    .ok_or_else(|| AdmError::Parse("regex: dangling backslash".into()))?;
                Ok(match c {
                    'd' => Node::Class { neg: false, ranges: vec![('0', '9')] },
                    'D' => Node::Class { neg: true, ranges: vec![('0', '9')] },
                    'w' => Node::Class {
                        neg: false,
                        ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                    },
                    'W' => Node::Class {
                        neg: true,
                        ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                    },
                    's' => Node::Class {
                        neg: false,
                        ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                    },
                    'S' => Node::Class {
                        neg: true,
                        ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                    },
                    other => Node::Char(other),
                })
            }
            Some(')') => Err(AdmError::Parse("regex: unmatched ')'".into())),
            Some('*') | Some('+') | Some('?') => {
                Err(AdmError::Parse("regex: repetition without target".into()))
            }
            Some(c) => Ok(Node::Char(c)),
        }
    }

    fn parse_class(&mut self) -> Result<Node> {
        let neg = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let c = match self.bump() {
                None => return Err(AdmError::Parse("regex: unclosed class".into())),
                Some(']') => break,
                Some('\\') => self
                    .bump()
                    .ok_or_else(|| AdmError::Parse("regex: dangling backslash".into()))?,
                Some(c) => c,
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // '-'
                let hi =
                    self.bump().ok_or_else(|| AdmError::Parse("regex: unclosed range".into()))?;
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Node::Class { neg, ranges })
    }
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    root: Node,
}

impl Regex {
    /// Compile a pattern. Errors mirror `AdmError::Parse`.
    pub fn compile(pattern: &str) -> Result<Regex> {
        let mut p = ReParser::new(pattern);
        let root = p.parse_alt()?;
        if p.pos != p.chars.len() {
            return Err(AdmError::Parse(format!(
                "regex: trailing input at {} in {pattern:?}",
                p.pos
            )));
        }
        Ok(Regex { root })
    }

    /// Unanchored search: does the pattern match anywhere in `s`?
    pub fn is_match(&self, s: &str) -> bool {
        self.find(s).is_some()
    }

    /// Find the leftmost match, returning char-index `(start, end)`.
    pub fn find(&self, s: &str) -> Option<(usize, usize)> {
        let chars: Vec<char> = s.chars().collect();
        for start in 0..=chars.len() {
            if let Some(end) = match_here(&self.root, &chars, start, start == 0) {
                return Some((start, end));
            }
        }
        None
    }

    /// Replace every non-overlapping match with `rep`.
    pub fn replace_all(&self, s: &str, rep: &str) -> String {
        let chars: Vec<char> = s.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i <= chars.len() {
            if let Some(end) = match_here(&self.root, &chars, i, i == 0) {
                if end > i {
                    out.push_str(rep);
                    i = end;
                    continue;
                } else {
                    // Empty match: emit replacement, advance one char.
                    out.push_str(rep);
                    if i < chars.len() {
                        out.push(chars[i]);
                    }
                    i += 1;
                    continue;
                }
            }
            if i < chars.len() {
                out.push(chars[i]);
            }
            i += 1;
        }
        out
    }
}

/// Try to match `node` at position `pos`; returns the end position on
/// success. `at_start` is true when pos 0 counts as line start.
fn match_here(node: &Node, s: &[char], pos: usize, at_start: bool) -> Option<usize> {
    match node {
        Node::Char(c) => (pos < s.len() && s[pos] == *c).then_some(pos + 1),
        Node::AnyChar => (pos < s.len()).then_some(pos + 1),
        Node::Class { neg, ranges } => {
            if pos >= s.len() {
                return None;
            }
            let c = s[pos];
            let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
            (inside != *neg).then_some(pos + 1)
        }
        Node::Start => (pos == 0).then_some(pos),
        Node::End => (pos == s.len()).then_some(pos),
        Node::Group(inner) => match_here(inner, s, pos, at_start),
        Node::Concat(items) => {
            fn seq(items: &[Node], s: &[char], pos: usize, at_start: bool) -> Option<usize> {
                match items.split_first() {
                    None => Some(pos),
                    Some((head, tail)) => {
                        // Backtracking: enumerate all end positions of head.
                        for end in match_all(head, s, pos, at_start) {
                            if let Some(fin) = seq(tail, s, end, at_start) {
                                return Some(fin);
                            }
                        }
                        None
                    }
                }
            }
            seq(items, s, pos, at_start)
        }
        Node::Alt(branches) => branches.iter().find_map(|b| match_here(b, s, pos, at_start)),
        Node::Star(inner) => {
            // Greedy: longest repetition first, backtrack to shorter.
            let ends = repeat_ends(inner, s, pos, at_start, 0);
            ends.into_iter().next_back().or(Some(pos))
        }
        Node::Plus(inner) => {
            let ends = repeat_ends(inner, s, pos, at_start, 1);
            ends.into_iter().next_back()
        }
        Node::Opt(inner) => match_here(inner, s, pos, at_start).or(Some(pos)),
    }
}

/// All possible end positions for matching `node` once at `pos` — needed for
/// correct backtracking through concatenations.
fn match_all(node: &Node, s: &[char], pos: usize, at_start: bool) -> Vec<usize> {
    match node {
        Node::Star(inner) => {
            let mut ends = repeat_ends(inner, s, pos, at_start, 0);
            ends.push(pos);
            ends.sort_unstable();
            ends.dedup();
            ends.reverse(); // greedy first
            ends
        }
        Node::Plus(inner) => {
            let mut ends = repeat_ends(inner, s, pos, at_start, 1);
            ends.sort_unstable();
            ends.dedup();
            ends.reverse();
            ends
        }
        Node::Opt(inner) => {
            let mut ends = Vec::new();
            if let Some(e) = match_here(inner, s, pos, at_start) {
                ends.push(e);
            }
            if !ends.contains(&pos) {
                ends.push(pos);
            }
            ends
        }
        Node::Alt(branches) => {
            let mut ends: Vec<usize> =
                branches.iter().filter_map(|b| match_here(b, s, pos, at_start)).collect();
            ends.dedup();
            ends
        }
        Node::Group(inner) => match_all(inner, s, pos, at_start),
        other => match_here(other, s, pos, at_start).into_iter().collect(),
    }
}

fn repeat_ends(inner: &Node, s: &[char], pos: usize, at_start: bool, min: usize) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut frontier = vec![pos];
    let mut count = 0;
    loop {
        let mut next = Vec::new();
        for &p in &frontier {
            if let Some(e) = match_here(inner, s, p, at_start) {
                if e > p && !next.contains(&e) {
                    next.push(e);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        count += 1;
        if count >= min {
            ends.extend(next.iter().copied());
        }
        frontier = next;
        if count > s.len() + 1 {
            break; // safety net
        }
    }
    ends.sort_unstable();
    ends.dedup();
    ends
}

/// `matches(s, pattern)` — unanchored regex match.
pub fn matches(s: &str, pattern: &str) -> Result<bool> {
    Ok(Regex::compile(pattern)?.is_match(s))
}

/// `replace(s, pattern, replacement)` — regex replace-all.
pub fn replace(s: &str, pattern: &str, rep: &str) -> Result<String> {
    Ok(Regex::compile(pattern)?.replace_all(s, rep))
}

/// `word-tokens(s)` — lowercase alphanumeric word tokens, as used by the
/// keyword index and Query 6.
pub fn word_tokens(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// `gram-tokens(s, k)` — the k-gram tokens of `s` (lowercased, padded with
/// `#` sentinels as in the AsterixDB gram tokenizer), used by `ngram(k)`
/// indexes for fuzzy string matching.
pub fn gram_tokens(s: &str, k: usize) -> Vec<String> {
    if k == 0 {
        return Vec::new();
    }
    let lowered: String = s.to_lowercase();
    let mut padded: Vec<char> = Vec::with_capacity(lowered.chars().count() + 2 * (k - 1));
    padded.extend(std::iter::repeat_n('#', k - 1));
    padded.extend(lowered.chars());
    padded.extend(std::iter::repeat_n('#', k - 1));
    if padded.len() < k {
        return Vec::new();
    }
    padded.windows(k).map(|w| w.iter().collect()).collect()
}

/// How an inverted index splits values into tokens — at insert and for a
/// search's needle alike.
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
    /// tokenize element-wise (for keyword indexes on tag bags, Query 13);
    /// unknowns have no tokens.
    pub fn tokens(&self, v: &Value) -> Result<Vec<String>> {
        let mut out = Vec::new();
        match v {
            Value::String(s) => self.push_tokens(s, false, &mut out),
            Value::OrderedList(items) | Value::UnorderedList(items) => {
                for item in items.iter() {
                    match item {
                        Value::String(s) => self.push_tokens(s, true, &mut out),
                        other if other.is_unknown() => {}
                        other => {
                            return Err(AdmError::InvalidArgument(format!(
                                "cannot tokenize {} element",
                                other.type_name()
                            )))
                        }
                    }
                }
            }
            v if v.is_unknown() => {}
            other => {
                return Err(AdmError::InvalidArgument(format!(
                    "cannot tokenize {}",
                    other.type_name()
                )))
            }
        }
        Ok(out)
    }

    fn push_tokens(&self, s: &str, element: bool, out: &mut Vec<String>) {
        match self {
            // Bag elements are whole tokens for keyword indexes (tags are
            // matched as units).
            Tokenizer::Keyword if element => out.push(s.to_lowercase()),
            Tokenizer::Keyword => out.extend(word_tokens(s)),
            Tokenizer::NGram(k) => out.extend(gram_tokens(s, *k)),
        }
    }
}

/// Levenshtein edit distance.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `edit-distance-check(a, b, t)` — banded edit distance with early exit;
/// returns `Some(d)` if `d <= t`, else `None`. This is the primitive the
/// fuzzy `~=` operator compiles to when `simfunction` is `edit-distance`.
pub fn edit_distance_check(a: &str, b: &str, threshold: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > threshold {
        return None;
    }
    if a.is_empty() || b.is_empty() {
        let d = a.len().max(b.len());
        return (d <= threshold).then_some(d);
    }
    let inf = usize::MAX / 2;
    let mut prev = vec![inf; b.len() + 1];
    let mut cur = vec![inf; b.len() + 1];
    for (j, p) in prev.iter_mut().enumerate().take(threshold.min(b.len()) + 1) {
        *p = j;
    }
    for i in 1..=a.len() {
        let lo = i.saturating_sub(threshold).max(1);
        let hi = (i + threshold).min(b.len());
        cur.fill(inf);
        if i <= threshold {
            cur[0] = i;
        }
        if lo > hi {
            return None;
        }
        let mut row_min = cur[0];
        for j in lo..=hi {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j - 1] + cost).min(prev[j] + 1).min(cur[j - 1] + 1);
            row_min = row_min.min(cur[j]);
        }
        if row_min > threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (prev[b.len()] <= threshold).then_some(prev[b.len()])
}

/// `edit-distance-contains(s, pattern, t)` — true if some substring of `s`
/// is within edit distance `t` of `pattern` (approximate substring match).
pub fn edit_distance_contains(s: &str, pattern: &str, threshold: usize) -> bool {
    // Classic Sellers algorithm: dp over pattern rows with free start in s.
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    if p.is_empty() {
        return true;
    }
    let mut prev: Vec<usize> = (0..=p.len()).collect();
    if prev[p.len()] <= threshold {
        return true;
    }
    let mut cur = vec![0usize; p.len() + 1];
    for &tc in &t {
        cur[0] = 0; // free start anywhere in s
        for (j, &pc) in p.iter().enumerate() {
            let cost = usize::from(tc != pc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        if cur[p.len()] <= threshold {
            return true;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(like("hello", "hello"));
        assert!(like("hello", "h%o"));
        assert!(like("hello", "%ell%"));
        assert!(like("hello", "_ello"));
        assert!(!like("hello", "_llo"));
        assert!(like("100%", "100\\%"));
        assert!(!like("1000", "100\\%"));
        assert!(like("", "%"));
        assert!(!like("", "_"));
    }

    #[test]
    fn regex_basics() {
        assert!(matches("tonight", "ton.ght").unwrap());
        assert!(matches("abcccd", "abc+d").unwrap());
        assert!(!matches("abd", "abc+d").unwrap());
        assert!(matches("abd", "abc*d").unwrap());
        assert!(matches("color", "colou?r").unwrap());
        assert!(matches("colour", "colou?r").unwrap());
        assert!(matches("cat", "^(cat|dog)$").unwrap());
        assert!(matches("dog", "^(cat|dog)$").unwrap());
        assert!(!matches("cow", "^(cat|dog)$").unwrap());
        assert!(matches("a1b", "[a-z]\\d[a-z]").unwrap());
        assert!(matches("x9", "\\w\\d$").unwrap());
        assert!(!matches("x9z", "^\\w\\d$").unwrap());
        assert!(matches("GET /list", "^GET .*$").unwrap());
        assert!(matches("abc", "[^xyz]+$").unwrap());
        assert!(Regex::compile("a(b").is_err());
        assert!(Regex::compile("*a").is_err());
    }

    #[test]
    fn regex_backtracking_through_concat() {
        // a*a requires the star to give back one 'a'.
        assert!(matches("aaa", "^a*a$").unwrap());
        assert!(matches("ab", "^(a|ab)b?$").unwrap());
        assert!(matches("xaaay", "a+y").unwrap());
    }

    #[test]
    fn regex_replace() {
        assert_eq!(replace("a1b2c3", "\\d", "#").unwrap(), "a#b#c#");
        assert_eq!(replace("hello world", "o", "0").unwrap(), "hell0 w0rld");
        assert_eq!(replace("aaa", "a+", "X").unwrap(), "X");
    }

    #[test]
    fn tokenizers() {
        assert_eq!(
            word_tokens("Hello, World! it's 2014"),
            vec!["hello", "world", "it", "s", "2014"]
        );
        assert_eq!(gram_tokens("ab", 2), vec!["#a", "ab", "b#"]);
        assert_eq!(gram_tokens("a", 3), vec!["##a", "#a#", "a##"]);
        assert!(gram_tokens("", 0).is_empty());
    }

    #[test]
    fn edit_distances() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
        assert_eq!(edit_distance("tonight", "tonite"), 3);
        assert_eq!(edit_distance_check("tonight", "tonite", 3), Some(3));
        assert_eq!(edit_distance_check("tonight", "tomorrow", 3), None);
        assert_eq!(edit_distance_check("abc", "abc", 0), Some(0));
        assert!(edit_distance_contains("see you tonite!", "tonight", 2));
        assert!(!edit_distance_contains("see you later", "tonight", 2));
    }

    #[test]
    fn edit_distance_check_agrees_with_full() {
        let words = ["", "a", "ab", "abc", "abd", "xabc", "hello", "help", "yelp"];
        for a in words {
            for b in words {
                let d = edit_distance(a, b);
                for t in 0..5 {
                    let got = edit_distance_check(a, b, t);
                    if d <= t {
                        assert_eq!(got, Some(d), "{a} {b} t={t}");
                    } else {
                        assert_eq!(got, None, "{a} {b} t={t}");
                    }
                }
            }
        }
    }
}
