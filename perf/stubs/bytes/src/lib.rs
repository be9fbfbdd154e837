//! Empty: `bytes` is declared by `asterix-storage` and `asterix-txn` but no code uses it.
