//! The one newest-wins merge behind every read and compaction that sees
//! more than one component (§4.2): components are consulted newest first,
//! a newer version of a key shadows every older one, and antimatter is a
//! version like any other. [`LsmTree`](crate::LsmTree)'s stored-row and
//! projected scans, the rebuilding merge and the column-copy merge
//! ([`DiskComponent::merge_columnar`](crate::DiskComponent::merge_columnar))
//! differ only in what their sources are and in what they do with a
//! winner.

use crate::error::{Result, StorageError};

/// One input of [`merge_newest`]: entries in ascending key order, at most
/// one per key.
pub(crate) trait MergeSource {
    /// The current entry's key; `None` once the source is exhausted.
    fn key(&self) -> Option<&[u8]>;
    /// Move past the current entry without handing it on: an older version
    /// of a key a newer source holds.
    fn skip(&mut self) -> Result<()>;
}

/// Merge `sources`, ordered newest first, in key order. Per key the newest
/// source holding it — the lowest index — wins, every older source moves
/// past its version of the key, and `take` is handed the winner, which it
/// must move past its current entry. The winner is handed on whatever it
/// holds: antimatter and filtered rows shadow older versions like any
/// other, and what a winner means is the caller's to decide. `take`
/// returning `false` stops the merge; the first error ends it and is what
/// the call returns.
pub(crate) fn merge_newest<S: MergeSource, E: From<StorageError>>(
    sources: &mut [S],
    mut take: impl FnMut(&mut S) -> std::result::Result<bool, E>,
) -> std::result::Result<(), E> {
    loop {
        let mut winner: Option<(usize, &[u8])> = None;
        for (i, source) in sources.iter().enumerate() {
            let Some(key) = source.key() else { continue };
            if winner.is_none_or(|(_, best)| key < best) {
                winner = Some((i, key));
            }
        }
        let Some((w, _)) = winner else { return Ok(()) };
        let (newer, older) = sources.split_at_mut(w + 1);
        let win = &mut newer[w];
        for source in older {
            if source.key() == win.key() {
                source.skip()?;
            }
        }
        if !take(win)? {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source over `(key, version)` pairs; its head is the first.
    struct Pairs(&'static [(u8, &'static str)]);

    impl MergeSource for Pairs {
        fn key(&self) -> Option<&[u8]> {
            self.0.first().map(|(k, _)| std::slice::from_ref(k))
        }

        fn skip(&mut self) -> Result<()> {
            self.0 = &self.0[1..];
            Ok(())
        }
    }

    fn merged(sources: &mut [Pairs], stop_after: usize) -> Vec<(u8, &'static str)> {
        let mut out = Vec::new();
        merge_newest(sources, |s| -> Result<bool> {
            out.push(s.0[0]);
            s.skip()?;
            Ok(out.len() < stop_after)
        })
        .unwrap();
        out
    }

    #[test]
    fn the_newest_source_wins_each_key_once() {
        let mut sources = [
            Pairs(&[(2, "new"), (5, "new")]),
            Pairs(&[(1, "mid"), (2, "mid"), (4, "mid")]),
            Pairs(&[(1, "old"), (2, "old"), (3, "old"), (5, "old")]),
        ];
        assert_eq!(
            merged(&mut sources, usize::MAX),
            [(1, "mid"), (2, "new"), (3, "old"), (4, "mid"), (5, "new")]
        );
    }

    #[test]
    fn take_returning_false_stops_the_merge() {
        let mut sources = [Pairs(&[(1, "a"), (3, "a")]), Pairs(&[(2, "b"), (4, "b")])];
        assert_eq!(merged(&mut sources, 2), [(1, "a"), (2, "b")]);
    }

    #[test]
    fn the_first_error_ends_the_merge() {
        let mut sources = [Pairs(&[(1, "a"), (2, "a")])];
        let mut seen = 0;
        let res = merge_newest(&mut sources, |s| {
            seen += 1;
            s.skip()?;
            Err::<bool, _>(StorageError::Corrupt("stop".into()))
        });
        assert!(matches!(res, Err(StorageError::Corrupt(_))));
        assert_eq!(seen, 1);
    }
}
