//! Immutable LSM disk components.
//!
//! A disk component is a single file holding a sorted run of
//! `(key, antimatter, value)` entries, a sparse page index, and a bloom
//! filter over its keys. Components are written once (by flush or merge) and
//! then never modified; they are installed atomically by creating a `.valid`
//! marker file after the data file is durable — the paper's "validity bit"
//! shadowing scheme (§4.4). Crash recovery deletes any component file that
//! lacks its marker or fails structural validation.
//!
//! Two on-disk layouts share the `.dat` extension and are told apart by the
//! trailing magic number:
//!
//! * **Row** (`ASTXLSM1`): interleaved `(key, antimatter, value)` pages —
//!   the original format, still used for schema-unstable data and as the
//!   fallback when columnar builds abort.
//! * **Columnar** (`ASTXLSM2`): rows are grouped into page-sized *row
//!   groups*; within each group the keys live on one page run and every
//!   inferred schema column on its own run, with leftover fields in a
//!   per-row "rest" record run and untranslatable rows on a row-stored
//!   "spill" run. A group directory in the footer addresses every run, so
//!   projecting scans read only the columns they need and late-materialize
//!   encoded records without touching the rest of the row.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use asterix_adm::colschema::{self, ColumnSpec, InferredSchema};
use asterix_adm::serde as adm_serde;

use crate::bloom::BloomFilter;
use crate::cache::{next_file_id, BufferCache};
use crate::columnar::{
    ColumnFilter, ColumnarOptions, ColumnarStats, Projection, RowCodec, ScanBound, MAX_COLUMNS,
    MIN_PRESENCE, MIN_SHRED_FRACTION,
};
use crate::error::{Result, StorageError};
use crate::merge::{merge_newest, MergeSource};

const MAGIC: u64 = 0x4153_5458_4c53_4d31; // "ASTXLSM1"
const MAGIC_COLUMNAR: u64 = 0x4153_5458_4c53_4d32; // "ASTXLSM2"

const ROW_FOOTER: u64 = 48;
const COL_FOOTER: u64 = 64;

/// Row-group key-page entry kinds.
const KIND_SHREDDED: u8 = 0;
const KIND_ANTIMATTER: u8 = 1;
const KIND_SPILL: u8 = 2;

/// One entry in a component: key bytes, tombstone flag, value bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub key: Vec<u8>,
    /// Antimatter entries mark deletions of matching keys in older
    /// components (§4.3: deferred-update, append-only structures).
    pub antimatter: bool,
    pub value: Vec<u8>,
}

impl Entry {
    pub fn put(key: Vec<u8>, value: Vec<u8>) -> Self {
        Entry { key, antimatter: false, value }
    }

    pub fn tombstone(key: Vec<u8>) -> Self {
        Entry { key, antimatter: true, value: Vec::new() }
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf.get(*pos).ok_or_else(|| StorageError::Corrupt("truncated varint".into()))?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StorageError::Corrupt("varint overflow".into()));
        }
    }
}

struct PageMeta {
    first_key: Vec<u8>,
    offset: u64,
    len: u32,
    entries: u32,
}

/// One columnar row group: `nrows` keys on chunk 0, each schema column on
/// chunk `1..=ncols`, the rest records on chunk `ncols+1`, spilled rows on
/// chunk `ncols+2`.
struct GroupMeta {
    first_key: Vec<u8>,
    nrows: u32,
    /// `(offset, len)` per chunk; zero-length chunks occupy no file space.
    chunks: Vec<(u64, u32)>,
}

/// Physical layout of a component's payload.
enum Layout {
    Row { pages: Vec<PageMeta> },
    Columnar(ColMeta),
}

struct ColMeta {
    groups: Vec<GroupMeta>,
    schema: InferredSchema,
    codec: Arc<dyn RowCodec>,
    stats: Arc<ColumnarStats>,
}

impl ColMeta {
    fn slots(&self) -> usize {
        self.schema.columns.len() + 3
    }

    /// A row the group reader produced under an all-fields projection,
    /// handed back as the stored entry it was built from.
    fn stored_entry(&self, row: ProjEntry) -> Result<Entry> {
        Ok(match row.kind {
            ProjKind::Anti => Entry::tombstone(row.key),
            ProjKind::Row(value) => Entry::put(row.key, value),
            ProjKind::Assembled(sd) => {
                let value = self.codec.to_stored(&sd).ok_or_else(|| {
                    StorageError::Corrupt("codec rejected reconstructed row".into())
                })?;
                Entry::put(row.key, value)
            }
            ProjKind::Filtered => unreachable!("an all-fields projection carries no filter"),
        })
    }
}

/// Configuration for building components.
#[derive(Debug, Clone)]
pub struct ComponentConfig {
    pub page_size: usize,
    pub bloom_fpp: f64,
}

impl Default for ComponentConfig {
    fn default() -> Self {
        ComponentConfig { page_size: crate::cache::PAGE_SIZE, bloom_fpp: 0.01 }
    }
}

/// An immutable, sorted, bloom-filtered disk component.
pub struct DiskComponent {
    path: PathBuf,
    /// Read handle held for the component's life: a cache miss is one
    /// positioned read, and a reader outliving `destroy()` keeps a valid
    /// descriptor.
    file: File,
    file_id: u64,
    cache: Arc<BufferCache>,
    layout: Layout,
    bloom: BloomFilter,
    entry_count: u64,
    file_len: u64,
    /// Sequence range [min_seq, max_seq] of the flushes merged into this
    /// component (AsterixDB-style component naming).
    pub min_seq: u64,
    pub max_seq: u64,
}

impl DiskComponent {
    /// Path of the data file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn marker_path(path: &Path) -> PathBuf {
        path.with_extension("valid")
    }

    /// Whether this component stores its payload column-major.
    pub fn is_columnar(&self) -> bool {
        matches!(self.layout, Layout::Columnar(_))
    }

    /// The inferred schema of a columnar component (None for row layout).
    pub fn schema(&self) -> Option<&InferredSchema> {
        match &self.layout {
            Layout::Columnar(m) => Some(&m.schema),
            Layout::Row { .. } => None,
        }
    }

    /// Build a row-layout component from an already-sorted, deduplicated
    /// entry stream. The stream MUST be sorted ascending by key with unique
    /// keys.
    pub fn build<I>(
        path: &Path,
        cache: Arc<BufferCache>,
        cfg: &ComponentConfig,
        min_seq: u64,
        max_seq: u64,
        entries: I,
        expected: usize,
    ) -> Result<Arc<DiskComponent>>
    where
        I: IntoIterator<Item = Entry>,
    {
        let mut file = File::create(path)?;
        let mut bloom = BloomFilter::with_capacity(expected, cfg.bloom_fpp);
        let mut pages: Vec<PageMeta> = Vec::new();
        let mut page_buf: Vec<u8> = Vec::with_capacity(cfg.page_size * 2);
        let mut page_first: Option<Vec<u8>> = None;
        let mut page_entries = 0u32;
        let mut offset = 0u64;
        let mut entry_count = 0u64;

        let flush_page = |file: &mut File,
                          pages: &mut Vec<PageMeta>,
                          page_buf: &mut Vec<u8>,
                          page_first: &mut Option<Vec<u8>>,
                          page_entries: &mut u32,
                          offset: &mut u64|
         -> Result<()> {
            if page_buf.is_empty() {
                return Ok(());
            }
            file.write_all(page_buf)?;
            pages.push(PageMeta {
                first_key: page_first.take().unwrap_or_default(),
                offset: *offset,
                len: page_buf.len() as u32,
                entries: *page_entries,
            });
            *offset += page_buf.len() as u64;
            page_buf.clear();
            *page_entries = 0;
            Ok(())
        };

        for e in entries {
            if page_first.is_none() {
                page_first = Some(e.key.clone());
            }
            bloom.insert(&e.key);
            write_varint(&mut page_buf, e.key.len() as u64);
            write_varint(&mut page_buf, e.value.len() as u64);
            page_buf.push(u8::from(e.antimatter));
            page_buf.extend_from_slice(&e.key);
            page_buf.extend_from_slice(&e.value);
            page_entries += 1;
            entry_count += 1;
            if page_buf.len() >= cfg.page_size {
                flush_page(
                    &mut file,
                    &mut pages,
                    &mut page_buf,
                    &mut page_first,
                    &mut page_entries,
                    &mut offset,
                )?;
            }
        }
        flush_page(
            &mut file,
            &mut pages,
            &mut page_buf,
            &mut page_first,
            &mut page_entries,
            &mut offset,
        )?;

        // Page index.
        let index_offset = offset;
        let mut index_buf = Vec::new();
        write_varint(&mut index_buf, pages.len() as u64);
        for p in &pages {
            write_varint(&mut index_buf, p.first_key.len() as u64);
            index_buf.extend_from_slice(&p.first_key);
            index_buf.extend_from_slice(&p.offset.to_le_bytes());
            index_buf.extend_from_slice(&p.len.to_le_bytes());
            index_buf.extend_from_slice(&p.entries.to_le_bytes());
        }
        file.write_all(&index_buf)?;

        // Bloom filter.
        let bloom_offset = index_offset + index_buf.len() as u64;
        let bloom_bytes = bloom.to_bytes();
        file.write_all(&bloom_bytes)?;

        // Footer.
        let mut footer = Vec::with_capacity(ROW_FOOTER as usize);
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&bloom_offset.to_le_bytes());
        footer.extend_from_slice(&entry_count.to_le_bytes());
        footer.extend_from_slice(&min_seq.to_le_bytes());
        footer.extend_from_slice(&max_seq.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        file.write_all(&footer)?;
        file.sync_all()?;

        // Atomic install: the validity marker is created only after the data
        // file is durable.
        let marker = Self::marker_path(path);
        File::create(&marker)?.sync_all()?;

        let file_len = bloom_offset + bloom_bytes.len() as u64 + ROW_FOOTER;
        Ok(Arc::new(DiskComponent {
            path: path.to_path_buf(),
            file: File::open(path)?,
            file_id: next_file_id(),
            cache,
            layout: Layout::Row { pages },
            bloom,
            entry_count,
            file_len,
            min_seq,
            max_seq,
        }))
    }

    /// Attempt to build a columnar component from sorted entries. Returns
    /// `Ok(None)` — the caller then builds the row layout instead — when the
    /// data is schema-unstable: no field qualifies for a column, or fewer
    /// than [`MIN_SHRED_FRACTION`] of the rows shred cleanly.
    ///
    /// Every shredded row is verified round-trip (`to_stored(splice(shred))
    /// == original`) at build time; rows failing verification ride the
    /// spill run verbatim, so reads always reproduce the exact stored
    /// bytes.
    pub fn build_columnar(
        path: &Path,
        cache: Arc<BufferCache>,
        cfg: &ComponentConfig,
        columnar: &ColumnarOptions,
        min_seq: u64,
        max_seq: u64,
        entries: &[Entry],
    ) -> Result<Option<Arc<DiskComponent>>> {
        enum Plan<'a> {
            Anti,
            Spill,
            Shred { cols: Vec<Option<&'a [u8]>>, rest: Option<Vec<u8>> },
        }

        // Pass 1: translate rows to the self-describing encoding and infer
        // the schema from the ones that translate.
        let codec = &columnar.codec;
        let mut builder = colschema::SchemaBuilder::new();
        let mut sds: Vec<Option<Vec<u8>>> = Vec::with_capacity(entries.len());
        let mut live_rows = 0u64;
        for e in entries {
            if e.antimatter {
                sds.push(None);
                continue;
            }
            live_rows += 1;
            let sd = codec.to_self_describing(&e.value).filter(|sd| builder.observe(sd));
            sds.push(sd);
        }
        if live_rows == 0 {
            return Ok(None);
        }
        let schema = builder.finish(codec.declared_fields(), MIN_PRESENCE, MAX_COLUMNS);
        if schema.columns.is_empty() {
            return Ok(None);
        }

        // Pass 2: shred and verify each row; anything surprising spills.
        let mut plans: Vec<Plan<'_>> = Vec::with_capacity(entries.len());
        let mut shredded = 0u64;
        for (e, sd) in entries.iter().zip(&sds) {
            if e.antimatter {
                plans.push(Plan::Anti);
                continue;
            }
            let plan = sd
                .as_deref()
                .and_then(|sd| colschema::shred(&schema, sd))
                .and_then(|s| {
                    let spliced =
                        colschema::splice_full(&schema, &s.cols, s.rest.as_deref()).ok()?;
                    let back = codec.to_stored(&spliced)?;
                    (back == e.value).then_some(Plan::Shred { cols: s.cols, rest: s.rest })
                })
                .unwrap_or(Plan::Spill);
            shredded += u64::from(matches!(plan, Plan::Shred { .. }));
            plans.push(plan);
        }
        if (shredded as f64) < MIN_SHRED_FRACTION * live_rows as f64 {
            return Ok(None);
        }

        // Pass 3: write row groups.
        let mut w = GroupWriter::create(path, cfg, schema.columns.len(), entries.len())?;
        for (e, plan) in entries.iter().zip(&plans) {
            match plan {
                Plan::Anti => w.antimatter(&e.key)?,
                Plan::Spill => w.spill(&e.key, &e.value)?,
                Plan::Shred { cols, rest } => {
                    w.shredded(&e.key, cols.iter().copied(), rest.as_deref())?
                }
            }
        }
        w.finish(path, cache, columnar, schema, min_seq, max_seq).map(Some)
    }

    /// Merge columnar components that share one column list by copying
    /// their rows' bytes: keys merge newest-wins — among equal keys the
    /// input with the highest `max_seq` — and each winner's key, kind,
    /// column values, rest record or spilled row go to the output as they
    /// are, under the inputs' schema, with no codec call, no inference, no
    /// shredding and no re-verification: every shredded row was verified
    /// when it was first written, and the same (name, tag) list splices
    /// it back into the same bytes. Antimatter is dropped when
    /// `drop_antimatter` (the merge includes the oldest component), else
    /// copied like any row. Each input group is read with one positioned
    /// read of the file, outside the buffer cache: a merge reads every byte
    /// once, and caching them would only evict what queries reuse.
    ///
    /// Returns `Ok(None)` — the caller then rebuilds from stored rows —
    /// when an input is row-layout or the inputs' column lists differ.
    pub fn merge_columnar(
        path: &Path,
        cache: Arc<BufferCache>,
        cfg: &ComponentConfig,
        columnar: &ColumnarOptions,
        inputs: &[Arc<DiskComponent>],
        drop_antimatter: bool,
    ) -> Result<Option<Arc<DiskComponent>>> {
        let mut metas = Vec::with_capacity(inputs.len());
        for c in inputs {
            let Layout::Columnar(m) = &c.layout else { return Ok(None) };
            metas.push((c.as_ref(), m));
        }
        let Some(&(_, first)) = metas.first() else { return Ok(None) };
        fn column_list(m: &ColMeta) -> impl Iterator<Item = (&str, u8)> {
            m.schema.columns.iter().map(|c| (c.name.as_str(), c.tag))
        }
        if !metas.iter().all(|(_, m)| column_list(m).eq(column_list(first))) {
            return Ok(None);
        }
        // Newest first, so that among equal keys the first cursor wins.
        metas.sort_by_key(|(c, _)| std::cmp::Reverse(c.max_seq));
        let min_seq = inputs.iter().map(|c| c.min_seq).min().unwrap_or(0);
        let max_seq = inputs.iter().map(|c| c.max_seq).max().unwrap_or(0);
        let ncols = first.schema.columns.len();
        let expected: u64 = inputs.iter().map(|c| c.entry_count).sum();
        let mut w = GroupWriter::create(path, cfg, ncols, expected as usize)?;
        let mut cursors =
            metas.iter().map(|&(c, m)| GroupCursor::new(c, m)).collect::<Result<Vec<_>>>()?;
        // Older versions of a key are passed over unwritten.
        merge_newest(&mut cursors, |c| -> Result<bool> {
            let keep = !(drop_antimatter && c.is_antimatter());
            c.step(keep.then_some(&mut w))?;
            Ok(true)
        })?;
        let schema = InferredSchema {
            columns: first
                .schema
                .columns
                .iter()
                .zip(&w.present)
                .map(|(c, &count)| ColumnSpec { count, ..c.clone() })
                .collect(),
            rows: w.live,
        };
        w.finish(path, cache, columnar, schema, min_seq, max_seq).map(Some)
    }

    /// Open a previously built component, verifying its validity marker.
    /// Columnar components additionally need `columnar` options for their
    /// row codec; opening one without is an error (a tree that ever built
    /// columnar components must keep supplying the codec).
    pub fn open(
        path: &Path,
        cache: Arc<BufferCache>,
        columnar: Option<&ColumnarOptions>,
    ) -> Result<Arc<DiskComponent>> {
        if !Self::marker_path(path).exists() {
            return Err(StorageError::InvalidState(format!(
                "component {} has no validity marker",
                path.display()
            )));
        }
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        match Self::read_magic(&mut file, file_len)? {
            MAGIC => {
                let meta = Self::read_row_meta(&mut file, file_len)?;
                Ok(Arc::new(DiskComponent {
                    path: path.to_path_buf(),
                    file,
                    file_id: next_file_id(),
                    cache,
                    layout: Layout::Row { pages: meta.pages },
                    bloom: meta.bloom,
                    entry_count: meta.entry_count,
                    file_len,
                    min_seq: meta.min_seq,
                    max_seq: meta.max_seq,
                }))
            }
            MAGIC_COLUMNAR => {
                let c = columnar.ok_or_else(|| {
                    StorageError::InvalidState(format!(
                        "columnar component {} opened without a row codec",
                        path.display()
                    ))
                })?;
                let meta = Self::read_col_meta(&mut file, file_len)?;
                Ok(Arc::new(DiskComponent {
                    path: path.to_path_buf(),
                    file,
                    file_id: next_file_id(),
                    cache,
                    layout: Layout::Columnar(ColMeta {
                        groups: meta.groups,
                        schema: meta.schema,
                        codec: Arc::clone(&c.codec),
                        stats: Arc::clone(&c.stats),
                    }),
                    bloom: meta.bloom,
                    entry_count: meta.entry_count,
                    file_len,
                    min_seq: meta.min_seq,
                    max_seq: meta.max_seq,
                }))
            }
            other => Err(StorageError::Corrupt(format!("bad component magic {other:#x}"))),
        }
    }

    fn read_magic(file: &mut File, file_len: u64) -> Result<u64> {
        if file_len < 8 {
            return Err(StorageError::Corrupt("component too small".into()));
        }
        let mut buf = [0u8; 8];
        file.seek(SeekFrom::End(-8))?;
        file.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn read_row_meta(file: &mut File, file_len: u64) -> Result<RowMeta> {
        if file_len < ROW_FOOTER {
            return Err(StorageError::Corrupt("component too small".into()));
        }
        let mut footer = [0u8; ROW_FOOTER as usize];
        file.seek(SeekFrom::End(-(ROW_FOOTER as i64)))?;
        file.read_exact(&mut footer)?;
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let bloom_offset = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let entry_count = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let min_seq = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        let max_seq = u64::from_le_bytes(footer[32..40].try_into().unwrap());
        if index_offset > bloom_offset || bloom_offset > file_len - ROW_FOOTER {
            return Err(StorageError::Corrupt("row footer offsets out of bounds".into()));
        }

        // Page index.
        let index_len = (bloom_offset - index_offset) as usize;
        let mut index_buf = vec![0u8; index_len];
        file.seek(SeekFrom::Start(index_offset))?;
        file.read_exact(&mut index_buf)?;
        let mut pos = 0usize;
        let npages = read_varint(&index_buf, &mut pos)? as usize;
        let mut pages = Vec::with_capacity(npages.min(1 << 20));
        for _ in 0..npages {
            let klen = read_varint(&index_buf, &mut pos)? as usize;
            if pos + klen + 16 > index_buf.len() {
                return Err(StorageError::Corrupt("truncated page index".into()));
            }
            let first_key = index_buf[pos..pos + klen].to_vec();
            pos += klen;
            let offset = u64::from_le_bytes(index_buf[pos..pos + 8].try_into().unwrap());
            pos += 8;
            let len = u32::from_le_bytes(index_buf[pos..pos + 4].try_into().unwrap());
            pos += 4;
            let entries = u32::from_le_bytes(index_buf[pos..pos + 4].try_into().unwrap());
            pos += 4;
            if offset + len as u64 > index_offset {
                return Err(StorageError::Corrupt("page spans past index".into()));
            }
            pages.push(PageMeta { first_key, offset, len, entries });
        }

        // Bloom.
        let bloom_len = (file_len - ROW_FOOTER - bloom_offset) as usize;
        let mut bloom_buf = vec![0u8; bloom_len];
        file.seek(SeekFrom::Start(bloom_offset))?;
        file.read_exact(&mut bloom_buf)?;
        let bloom = BloomFilter::from_bytes(&bloom_buf)
            .ok_or_else(|| StorageError::Corrupt("bad bloom filter".into()))?;

        Ok(RowMeta { pages, bloom, entry_count, min_seq, max_seq })
    }

    fn read_col_meta(file: &mut File, file_len: u64) -> Result<ColFileMeta> {
        if file_len < COL_FOOTER {
            return Err(StorageError::Corrupt("component too small".into()));
        }
        let mut footer = [0u8; COL_FOOTER as usize];
        file.seek(SeekFrom::End(-(COL_FOOTER as i64)))?;
        file.read_exact(&mut footer)?;
        let dir_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let schema_offset = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let bloom_offset = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let entry_count = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        let min_seq = u64::from_le_bytes(footer[32..40].try_into().unwrap());
        let max_seq = u64::from_le_bytes(footer[40..48].try_into().unwrap());
        let ncols = u64::from_le_bytes(footer[48..56].try_into().unwrap()) as usize;
        if dir_offset > schema_offset
            || schema_offset > bloom_offset
            || bloom_offset > file_len - COL_FOOTER
            || ncols > 1 << 16
        {
            return Err(StorageError::Corrupt("columnar footer offsets out of bounds".into()));
        }

        // Group directory.
        let dir_len = (schema_offset - dir_offset) as usize;
        let mut dir_buf = vec![0u8; dir_len];
        file.seek(SeekFrom::Start(dir_offset))?;
        file.read_exact(&mut dir_buf)?;
        let mut pos = 0usize;
        let ngroups = read_varint(&dir_buf, &mut pos)? as usize;
        let mut groups = Vec::with_capacity(ngroups.min(1 << 20));
        for _ in 0..ngroups {
            let klen = read_varint(&dir_buf, &mut pos)? as usize;
            if pos + klen + 4 + 12 * (ncols + 3) > dir_buf.len() {
                return Err(StorageError::Corrupt("truncated group directory".into()));
            }
            let first_key = dir_buf[pos..pos + klen].to_vec();
            pos += klen;
            let nrows = u32::from_le_bytes(dir_buf[pos..pos + 4].try_into().unwrap());
            pos += 4;
            let mut chunks = Vec::with_capacity(ncols + 3);
            for _ in 0..ncols + 3 {
                let off = u64::from_le_bytes(dir_buf[pos..pos + 8].try_into().unwrap());
                pos += 8;
                let len = u32::from_le_bytes(dir_buf[pos..pos + 4].try_into().unwrap());
                pos += 4;
                if off + len as u64 > dir_offset {
                    return Err(StorageError::Corrupt("chunk spans past directory".into()));
                }
                chunks.push((off, len));
            }
            groups.push(GroupMeta { first_key, nrows, chunks });
        }

        // Schema blob.
        let schema_len = (bloom_offset - schema_offset) as usize;
        let mut schema_buf = vec![0u8; schema_len];
        file.seek(SeekFrom::Start(schema_offset))?;
        file.read_exact(&mut schema_buf)?;
        let schema = InferredSchema::from_bytes(&schema_buf)
            .ok_or_else(|| StorageError::Corrupt("bad schema blob".into()))?;
        if schema.columns.len() != ncols {
            return Err(StorageError::Corrupt("schema/footer column count mismatch".into()));
        }

        // Bloom.
        let bloom_len = (file_len - COL_FOOTER - bloom_offset) as usize;
        let mut bloom_buf = vec![0u8; bloom_len];
        file.seek(SeekFrom::Start(bloom_offset))?;
        file.read_exact(&mut bloom_buf)?;
        let bloom = BloomFilter::from_bytes(&bloom_buf)
            .ok_or_else(|| StorageError::Corrupt("bad bloom filter".into()))?;

        Ok(ColFileMeta { groups, schema, bloom, entry_count, min_seq, max_seq })
    }

    /// Structurally validate a component file without installing it: footer
    /// magic, page index or group directory, schema blob, bloom filter.
    /// Catches torn writes — e.g. a crash mid-footer after the validity
    /// marker was created by an earlier, overwritten build of the same
    /// path — that the marker alone cannot.
    pub fn validate(path: &Path) -> Result<()> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        match Self::read_magic(&mut file, file_len)? {
            MAGIC => Self::read_row_meta(&mut file, file_len).map(|_| ()),
            MAGIC_COLUMNAR => Self::read_col_meta(&mut file, file_len).map(|_| ()),
            other => Err(StorageError::Corrupt(format!("bad component magic {other:#x}"))),
        }
    }

    /// Number of entries (including antimatter).
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Read one cached page: a row page, or one columnar group chunk
    /// addressed as `group * slots + slot`.
    fn read_span(&self, page_no: u32, offset: u64, len: usize) -> Result<Arc<Vec<u8>>> {
        if len == 0 {
            return Ok(Arc::new(Vec::new()));
        }
        self.cache.get_or_load((self.file_id, page_no), || {
            let mut buf = vec![0u8; len];
            self.file.read_exact_at(&mut buf, offset)?;
            Ok::<_, StorageError>(buf)
        })
    }

    fn read_chunk(&self, m: &ColMeta, group: usize, slot: usize) -> Result<Arc<Vec<u8>>> {
        let (off, len) = m.groups[group].chunks[slot];
        self.read_span((group * m.slots() + slot) as u32, off, len as usize)
    }

    /// The entries of a row page with keys in `[lo, hi)` (`None` bounds are
    /// open): the page's keys are sorted, so the ones below `lo` are
    /// stepped over without a copy and the first at `hi` ends the parse.
    fn parse_page(buf: &[u8], lo: Option<&[u8]>, hi: Option<&[u8]>) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            let klen = read_varint(buf, &mut pos)? as usize;
            let vlen = read_varint(buf, &mut pos)? as usize;
            let anti =
                *buf.get(pos).ok_or_else(|| StorageError::Corrupt("truncated entry".into()))? != 0;
            pos += 1;
            if pos + klen + vlen > buf.len() {
                return Err(StorageError::Corrupt("entry spans past page".into()));
            }
            let key = &buf[pos..pos + klen];
            if hi.is_some_and(|hi| key >= hi) {
                break;
            }
            if lo.is_none_or(|lo| key >= lo) {
                let value = buf[pos + klen..pos + klen + vlen].to_vec();
                out.push(Entry { key: key.to_vec(), antimatter: anti, value });
            }
            pos += klen + vlen;
        }
        Ok(out)
    }

    /// Parse a columnar key chunk into each row's key byte range in `buf`
    /// and its kind.
    fn parse_key_chunk(buf: &[u8], nrows: u32) -> Result<Vec<KeyRow>> {
        let mut out = Vec::with_capacity(nrows as usize);
        let mut pos = 0usize;
        for _ in 0..nrows {
            let klen = read_varint(buf, &mut pos)? as usize;
            if pos + klen + 1 > buf.len() {
                return Err(StorageError::Corrupt("truncated key chunk".into()));
            }
            let kind = buf[pos + klen];
            if kind > KIND_SPILL {
                return Err(StorageError::Corrupt(format!("bad row kind {kind}")));
            }
            out.push(((pos, pos + klen), kind));
            pos += klen + 1;
        }
        if pos != buf.len() {
            return Err(StorageError::Corrupt("trailing bytes in key chunk".into()));
        }
        Ok(out)
    }

    /// Step a run's cursor through its rows as far as the last of `ords`
    /// (ascending row ordinals): `skip` over the rows before and between
    /// them, and append what `next` yields at each.
    fn rows_at<T>(
        ords: impl IntoIterator<Item = usize>,
        out: &mut Vec<T>,
        mut skip: impl FnMut() -> Result<()>,
        mut next: impl FnMut() -> Result<T>,
    ) -> Result<()> {
        let mut row = 0usize;
        for ord in ords {
            while row < ord {
                skip()?;
                row += 1;
            }
            out.push(next()?);
            row += 1;
        }
        Ok(())
    }

    /// Append the value byte range of each of `ords` — ascending ordinals
    /// among the group's shredded rows — in a presence-prefixed chunk
    /// (column or rest run), walked no further than the last of them.
    fn parse_presence_chunk(
        buf: &[u8],
        ords: impl IntoIterator<Item = usize>,
        out: &mut Vec<Option<(usize, usize)>>,
    ) -> Result<()> {
        // One cursor for both closures. A fetch of a few keys spends most
        // of its time in `skip`, which builds and checks no range: a run
        // that ends early fails at the next row read.
        let pos = std::cell::Cell::new(0usize);
        let skip = || {
            let mut p = pos.get();
            let present =
                *buf.get(p).ok_or_else(|| StorageError::Corrupt("truncated column run".into()))?;
            p += 1;
            if present != 0 {
                let len = read_varint(buf, &mut p)? as usize;
                p = p.saturating_add(len);
            }
            pos.set(p);
            Ok(())
        };
        let next = || {
            let mut p = pos.get();
            let range = Self::presence_next(buf, &mut p);
            pos.set(p);
            range
        };
        Self::rows_at(ords, out, skip, next)
    }

    /// Append the byte range of each of `ords` — ascending ordinals among
    /// the group's spilled rows — in a spill chunk.
    fn parse_spill_chunk(
        buf: &[u8],
        ords: impl IntoIterator<Item = usize>,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        let pos = std::cell::Cell::new(0usize);
        let step = || {
            let mut p = pos.get();
            let range = Self::spill_next(buf, &mut p);
            pos.set(p);
            range
        };
        Self::rows_at(ords, out, || step().map(drop), step)
    }

    /// Advance a presence-prefixed chunk cursor by one row.
    #[inline]
    fn presence_next(buf: &[u8], pos: &mut usize) -> Result<Option<(usize, usize)>> {
        let present =
            *buf.get(*pos).ok_or_else(|| StorageError::Corrupt("truncated column run".into()))?;
        *pos += 1;
        if present == 0 {
            return Ok(None);
        }
        let len = read_varint(buf, pos)? as usize;
        if *pos + len > buf.len() {
            return Err(StorageError::Corrupt("column value spans past run".into()));
        }
        let at = *pos;
        *pos += len;
        Ok(Some((at, at + len)))
    }

    /// Advance a spill chunk cursor by one spilled row.
    #[inline]
    fn spill_next(buf: &[u8], pos: &mut usize) -> Result<(usize, usize)> {
        let len = read_varint(buf, pos)? as usize;
        if *pos + len > buf.len() {
            return Err(StorageError::Corrupt("spill value spans past run".into()));
        }
        let at = *pos;
        *pos += len;
        Ok((at, at + len))
    }

    fn nblocks(&self) -> usize {
        match &self.layout {
            Layout::Row { pages } => pages.len(),
            Layout::Columnar(m) => m.groups.len(),
        }
    }

    /// First key of a block (page or row group).
    fn block_first_key(&self, idx: usize) -> &[u8] {
        match &self.layout {
            Layout::Row { pages } => &pages[idx].first_key,
            Layout::Columnar(m) => &m.groups[idx].first_key,
        }
    }

    /// The entries of one block (page or row group) with keys in `[lo, hi)`
    /// (`None` bounds are open). A row group is read by the scans' group
    /// reader, every field of every selected row and nothing counted, and
    /// its shredded rows are handed back as the stored bytes they were
    /// built from.
    fn load_block(&self, idx: usize, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Result<Vec<Entry>> {
        match &self.layout {
            Layout::Row { pages } => {
                let meta = &pages[idx];
                let page = self.read_span(idx as u32, meta.offset, meta.len as usize)?;
                Self::parse_page(&page, lo, hi)
            }
            Layout::Columnar(m) => {
                let mut reader = self.project_range(ScanBound::ALL, &Projection::all());
                reader.counted = false;
                let rows = reader.materialize_group(idx, Rows::Between(lo, hi))?;
                rows.into_iter().map(|row| m.stored_entry(row)).collect()
            }
        }
    }

    /// Index of the last block whose first key is <= `key` (candidate).
    fn locate_block(&self, key: &[u8]) -> Option<usize> {
        let found = match &self.layout {
            Layout::Row { pages } => pages.binary_search_by(|p| p.first_key.as_slice().cmp(key)),
            Layout::Columnar(m) => m.groups.binary_search_by(|g| g.first_key.as_slice().cmp(key)),
        };
        match found {
            Ok(i) => Some(i),
            Err(0) => None, // key below the first block's first key
            Err(i) => Some(i - 1),
        }
    }

    /// Point lookup; returns the entry (possibly antimatter) if present.
    pub fn get(&self, key: &[u8]) -> Result<Option<Entry>> {
        // First, and before any set-up: most probes of a component are for
        // keys it does not hold (an insert's duplicate check asks them all).
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Some(bidx) = self.locate_block(key) else {
            return Ok(None);
        };
        // A columnar component answers with the one-key, all-fields case of
        // the key-list scan's group read (not counted as a fetch); only the
        // hand-back to stored bytes is its own.
        if let Layout::Columnar(m) = &self.layout {
            let reader = self.project_range(ScanBound::Keys(&[]), &Projection::all());
            let row = reader.materialize_group(bidx, Rows::Holding(&[key]))?.pop();
            return row.map(|row| m.stored_entry(row)).transpose();
        }
        let entries = self.load_block(bidx, None, None)?;
        match entries.binary_search_by(|e| e.key.as_slice().cmp(key)) {
            Ok(i) => Ok(Some(entries[i].clone())),
            Err(_) => Ok(None),
        }
    }

    /// Iterate entries with keys in `[lo, hi)`; `None` bounds are open.
    pub fn range(self: &Arc<Self>, lo: Option<&[u8]>, hi: Option<&[u8]>) -> ComponentIter {
        let start_block = match lo {
            Some(lo) => self.locate_block(lo).unwrap_or(0),
            None => 0,
        };
        ComponentIter {
            comp: Arc::clone(self),
            block_idx: start_block,
            entries: Vec::new().into_iter(),
            lo: lo.map(|b| b.to_vec()),
            hi: hi.map(|b| b.to_vec()),
            error: None,
        }
    }

    /// Filter-first scan over a columnar component, bounded by a key range
    /// or by a sorted key list. Per row group it reads the key run and the
    /// filter columns, decides every pushed filter — comparisons and a
    /// join's partner test alike — on raw column bytes, and only once a
    /// row of the group survives reads the remaining projected runs, each
    /// no further than the last survivor, and assembles the survivors —
    /// the named fields, or the whole record for an all-fields projection.
    /// A key list drops the keys the bloom filter rejects up front, visits
    /// only the groups holding one of the rest, and within a group
    /// decides, reads and yields for the wanted rows alone; a list of
    /// ranges is read as stored rows, and yields an error here. Must only be called when
    /// [`Self::is_columnar`]; row components are scanned with
    /// [`Self::range`] and probed with [`Self::get`].
    pub fn project_range<'a>(
        &'a self,
        bound: ScanBound<'a>,
        proj: &Projection<'a>,
    ) -> ProjectedIter<'a> {
        let Layout::Columnar(m) = &self.layout else {
            panic!("project_range on a row component");
        };
        // Resolve fields against the schema once. Slot `c < ncols` is
        // schema column `c`; slot `ncols` is the rest run, which holds
        // every field that did not earn a column.
        let ncols = m.schema.columns.len();
        let slot_of = |name: &str| m.schema.column_index(name).unwrap_or(ncols);
        let fields: Option<Vec<(String, usize)>> =
            proj.fields.as_ref().map(|fs| fs.iter().map(|f| (f.clone(), slot_of(f))).collect());
        let filters: Vec<(ColumnFilter<'a>, usize)> =
            proj.filters.iter().map(|f| (f.clone(), slot_of(f.field()))).collect();
        let mut filter_slots: Vec<usize> = filters.iter().map(|(_, s)| *s).collect();
        filter_slots.sort_unstable();
        filter_slots.dedup();
        let mut late_slots: Vec<usize> = match &fields {
            Some(fs) => fs.iter().map(|(_, s)| *s).collect(),
            None => (0..=ncols).collect(),
        };
        late_slots.sort_unstable();
        late_slots.dedup();
        late_slots.retain(|s| !filter_slots.contains(s));
        let (group_idx, wanted) = match bound {
            ScanBound::Range { lo, .. } => {
                (lo.and_then(|lo| self.locate_block(lo)).unwrap_or(0), Vec::new())
            }
            ScanBound::Keys(keys) => {
                let wanted =
                    keys.iter().map(Vec::as_slice).filter(|k| self.bloom.may_contain(k)).collect();
                (0, wanted)
            }
            ScanBound::Ranges(_) => (self.nblocks(), Vec::new()),
        };
        let error = matches!(bound, ScanBound::Ranges(_)).then(|| {
            StorageError::InvalidState("a projected read takes a key range or keys".into())
        });
        ProjectedIter {
            comp: self,
            fields,
            filters,
            filter_slots,
            late_slots,
            bound,
            group_idx,
            wanted,
            next_wanted: 0,
            rows: Vec::new().into_iter(),
            error,
            counted: true,
        }
    }

    /// Delete the component's files and invalidate cached pages.
    pub fn destroy(&self) -> Result<()> {
        self.cache.invalidate_file(self.file_id);
        let _ = fs::remove_file(Self::marker_path(&self.path));
        fs::remove_file(&self.path)?;
        Ok(())
    }

    /// Remove any component data files in `dir` lacking a validity marker
    /// or failing structural validation (torn directory or footer from a
    /// partially-written file). Returns the paths of valid components,
    /// sorted by name. This is the crash-recovery garbage collection step
    /// from §4.4.
    pub fn scavenge_dir(dir: &Path) -> Result<Vec<PathBuf>> {
        let mut valid = Vec::new();
        if !dir.exists() {
            return Ok(valid);
        }
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("dat") {
                if Self::marker_path(&path).exists() && Self::validate(&path).is_ok() {
                    valid.push(path);
                } else {
                    let _ = fs::remove_file(Self::marker_path(&path));
                    let _ = fs::remove_file(&path);
                }
            }
        }
        valid.sort();
        Ok(valid)
    }
}

/// The row-group writer of every columnar component: a flush's build and
/// a copy merge hand it rows in key order, and it cuts a group once the
/// key run reaches the page size, writing the group's key run, one run
/// per column, the rest run and the spill run back to back.
struct GroupWriter {
    file: File,
    page_size: usize,
    bloom: BloomFilter,
    groups: Vec<GroupMeta>,
    offset: u64,
    rows: u64,
    /// What was written: per column the shredded rows holding a value, the
    /// live (shredded or spilled) rows, and the spilled ones.
    present: Vec<u64>,
    live: u64,
    spilled: u64,
    key_buf: Vec<u8>,
    col_bufs: Vec<Vec<u8>>,
    rest_buf: Vec<u8>,
    spill_buf: Vec<u8>,
    group_first: Option<Vec<u8>>,
    group_rows: u32,
}

/// Append one row's entry to a presence-prefixed run (column or rest).
fn push_present(run: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        Some(bytes) => {
            run.push(1);
            write_varint(run, bytes.len() as u64);
            run.extend_from_slice(bytes);
        }
        None => run.push(0),
    }
}

impl GroupWriter {
    /// Start a component of `ncols` columns whose bloom filter is sized
    /// for `expected` keys.
    fn create(path: &Path, cfg: &ComponentConfig, ncols: usize, expected: usize) -> Result<Self> {
        Ok(GroupWriter {
            file: File::create(path)?,
            page_size: cfg.page_size,
            bloom: BloomFilter::with_capacity(expected, cfg.bloom_fpp),
            groups: Vec::new(),
            offset: 0,
            rows: 0,
            present: vec![0; ncols],
            live: 0,
            spilled: 0,
            key_buf: Vec::with_capacity(cfg.page_size * 2),
            col_bufs: vec![Vec::new(); ncols],
            rest_buf: Vec::new(),
            spill_buf: Vec::new(),
            group_first: None,
            group_rows: 0,
        })
    }

    /// A row's key and kind on the key run.
    fn key(&mut self, key: &[u8], kind: u8) {
        if self.group_first.is_none() {
            self.group_first = Some(key.to_vec());
        }
        self.bloom.insert(key);
        write_varint(&mut self.key_buf, key.len() as u64);
        self.key_buf.extend_from_slice(key);
        self.key_buf.push(kind);
    }

    fn antimatter(&mut self, key: &[u8]) -> Result<()> {
        self.key(key, KIND_ANTIMATTER);
        self.end_row()
    }

    /// A row stored whole on the spill run.
    fn spill(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.key(key, KIND_SPILL);
        write_varint(&mut self.spill_buf, value.len() as u64);
        self.spill_buf.extend_from_slice(value);
        self.live += 1;
        self.spilled += 1;
        self.end_row()
    }

    /// A shredded row: per column its field's bytes (`None` = absent),
    /// and its rest record.
    fn shredded<'v>(
        &mut self,
        key: &[u8],
        cols: impl IntoIterator<Item = Option<&'v [u8]>>,
        rest: Option<&[u8]>,
    ) -> Result<()> {
        self.key(key, KIND_SHREDDED);
        for ((run, present), col) in self.col_bufs.iter_mut().zip(&mut self.present).zip(cols) {
            *present += u64::from(col.is_some());
            push_present(run, col);
        }
        push_present(&mut self.rest_buf, rest);
        self.live += 1;
        self.end_row()
    }

    fn end_row(&mut self) -> Result<()> {
        self.rows += 1;
        self.group_rows += 1;
        if self.key_buf.len() >= self.page_size {
            self.flush_group()?;
        }
        Ok(())
    }

    /// Write the open group's runs; an empty run occupies no file space.
    fn flush_group(&mut self) -> Result<()> {
        if self.group_rows == 0 {
            return Ok(());
        }
        let GroupWriter { file, offset, key_buf, col_bufs, rest_buf, spill_buf, .. } = self;
        let mut chunks = Vec::with_capacity(col_bufs.len() + 3);
        let runs = std::iter::once(key_buf).chain(col_bufs.iter_mut()).chain([rest_buf, spill_buf]);
        for run in runs {
            chunks.push((*offset, run.len() as u32));
            if !run.is_empty() {
                file.write_all(run)?;
                *offset += run.len() as u64;
                run.clear();
            }
        }
        self.groups.push(GroupMeta {
            first_key: self.group_first.take().unwrap_or_default(),
            nrows: self.group_rows,
            chunks,
        });
        self.group_rows = 0;
        Ok(())
    }

    /// Write the last group, the group directory, the schema blob, the
    /// bloom filter and the footer; make the file durable, then create its
    /// validity marker.
    fn finish(
        mut self,
        path: &Path,
        cache: Arc<BufferCache>,
        columnar: &ColumnarOptions,
        schema: InferredSchema,
        min_seq: u64,
        max_seq: u64,
    ) -> Result<Arc<DiskComponent>> {
        self.flush_group()?;
        let GroupWriter { mut file, groups, offset, bloom, rows, spilled, .. } = self;
        let ncols = schema.columns.len();

        // Group directory.
        let dir_offset = offset;
        let mut dir_buf = Vec::new();
        write_varint(&mut dir_buf, groups.len() as u64);
        for g in &groups {
            write_varint(&mut dir_buf, g.first_key.len() as u64);
            dir_buf.extend_from_slice(&g.first_key);
            dir_buf.extend_from_slice(&g.nrows.to_le_bytes());
            for (off, len) in &g.chunks {
                dir_buf.extend_from_slice(&off.to_le_bytes());
                dir_buf.extend_from_slice(&len.to_le_bytes());
            }
        }
        file.write_all(&dir_buf)?;

        // Schema blob.
        let schema_offset = dir_offset + dir_buf.len() as u64;
        let schema_bytes = schema.to_bytes();
        file.write_all(&schema_bytes)?;

        // Bloom filter.
        let bloom_offset = schema_offset + schema_bytes.len() as u64;
        let bloom_bytes = bloom.to_bytes();
        file.write_all(&bloom_bytes)?;

        // Footer.
        let mut footer = Vec::with_capacity(COL_FOOTER as usize);
        footer.extend_from_slice(&dir_offset.to_le_bytes());
        footer.extend_from_slice(&schema_offset.to_le_bytes());
        footer.extend_from_slice(&bloom_offset.to_le_bytes());
        footer.extend_from_slice(&rows.to_le_bytes());
        footer.extend_from_slice(&min_seq.to_le_bytes());
        footer.extend_from_slice(&max_seq.to_le_bytes());
        footer.extend_from_slice(&(ncols as u64).to_le_bytes());
        footer.extend_from_slice(&MAGIC_COLUMNAR.to_le_bytes());
        file.write_all(&footer)?;
        file.sync_all()?;

        let marker = DiskComponent::marker_path(path);
        File::create(&marker)?.sync_all()?;

        columnar.stats.components.inc();
        columnar.stats.fallback_rows.add(spilled);

        let file_len = bloom_offset + bloom_bytes.len() as u64 + COL_FOOTER;
        Ok(Arc::new(DiskComponent {
            path: path.to_path_buf(),
            file: File::open(path)?,
            file_id: next_file_id(),
            cache,
            layout: Layout::Columnar(ColMeta {
                groups,
                schema,
                codec: Arc::clone(&columnar.codec),
                stats: Arc::clone(&columnar.stats),
            }),
            bloom,
            entry_count: rows,
            file_len,
            min_seq,
            max_seq,
        }))
    }
}

/// One input of a copy merge ([`DiskComponent::merge_columnar`]), a row
/// group at a time: each group is read with one positioned read of the
/// file, and walked with one cursor per run.
struct GroupCursor<'a> {
    comp: &'a DiskComponent,
    groups: &'a [GroupMeta],
    ncols: usize,
    next_group: usize,
    /// The current group's bytes, from its key run to its last run.
    buf: Vec<u8>,
    /// The current group's rows: key range in `buf`, and kind.
    rows: Vec<KeyRow>,
    row: usize,
    /// Per slot — key run, columns, rest run, spill run — the cursor and
    /// the end of the run in `buf`.
    runs: Vec<(usize, usize)>,
    /// The current shredded row's value ranges in `buf`: its columns, then
    /// its rest record.
    values: Vec<Option<(usize, usize)>>,
}

impl<'a> GroupCursor<'a> {
    fn new(comp: &'a DiskComponent, m: &'a ColMeta) -> Result<Self> {
        let mut cursor = GroupCursor {
            comp,
            groups: &m.groups,
            ncols: m.schema.columns.len(),
            next_group: 0,
            buf: Vec::new(),
            rows: Vec::new(),
            row: 0,
            runs: Vec::new(),
            values: Vec::new(),
        };
        cursor.load()?;
        Ok(cursor)
    }

    /// Read the next group holding a row, if any.
    fn load(&mut self) -> Result<()> {
        self.rows.clear();
        self.row = 0;
        while self.rows.is_empty() {
            let Some(g) = self.groups.get(self.next_group) else { return Ok(()) };
            self.next_group += 1;
            let start = g.chunks[0].0;
            let end = g.chunks.iter().map(|&(off, len)| off + len as u64).max().unwrap_or(start);
            self.buf.clear();
            self.buf.resize((end - start) as usize, 0);
            self.comp.file.read_exact_at(&mut self.buf, start)?;
            self.runs.clear();
            for &(off, len) in &g.chunks {
                let at = match (len, off.checked_sub(start)) {
                    (0, _) => 0,
                    (_, Some(at)) => at as usize,
                    (_, None) => {
                        return Err(StorageError::Corrupt(
                            "chunk before its group's key run".into(),
                        ))
                    }
                };
                self.runs.push((at, at + len as usize));
            }
            let (k0, k1) = self.runs[0];
            self.rows = DiskComponent::parse_key_chunk(&self.buf[k0..k1], g.nrows)?;
            for ((a, b), _) in &mut self.rows {
                *a += k0;
                *b += k0;
            }
        }
        Ok(())
    }

    fn is_antimatter(&self) -> bool {
        self.rows.get(self.row).is_some_and(|(_, kind)| *kind == KIND_ANTIMATTER)
    }

    /// Move past the current row, copying it into `out` when given.
    fn step(&mut self, out: Option<&mut GroupWriter>) -> Result<()> {
        let ((a, b), kind) = self.rows[self.row];
        let ncols = self.ncols;
        match kind {
            KIND_SHREDDED => {
                self.values.clear();
                for (pos, end) in &mut self.runs[1..ncols + 2] {
                    self.values.push(DiskComponent::presence_next(&self.buf[..*end], pos)?);
                }
                if let Some(w) = out {
                    let buf = &self.buf;
                    let value = |r: &Option<(usize, usize)>| r.map(|(x, y)| &buf[x..y]);
                    let (cols, rest) = self.values.split_at(ncols);
                    w.shredded(&buf[a..b], cols.iter().map(value), value(&rest[0]))?;
                }
            }
            KIND_SPILL => {
                let (pos, end) = &mut self.runs[ncols + 2];
                let (x, y) = DiskComponent::spill_next(&self.buf[..*end], pos)?;
                if let Some(w) = out {
                    w.spill(&self.buf[a..b], &self.buf[x..y])?;
                }
            }
            _ => {
                if let Some(w) = out {
                    w.antimatter(&self.buf[a..b])?;
                }
            }
        }
        self.row += 1;
        if self.row == self.rows.len() {
            self.load()?;
        }
        Ok(())
    }
}

impl MergeSource for GroupCursor<'_> {
    fn key(&self) -> Option<&[u8]> {
        self.rows.get(self.row).map(|&((a, b), _)| &self.buf[a..b])
    }

    fn skip(&mut self) -> Result<()> {
        self.step(None)
    }
}

struct RowMeta {
    pages: Vec<PageMeta>,
    bloom: BloomFilter,
    entry_count: u64,
    min_seq: u64,
    max_seq: u64,
}

struct ColFileMeta {
    groups: Vec<GroupMeta>,
    schema: InferredSchema,
    bloom: BloomFilter,
    entry_count: u64,
    min_seq: u64,
    max_seq: u64,
}

/// Forward iterator over one component's entries in a key range, as stored
/// (exact row bytes, antimatter included) — what rebuilding merges, and
/// reads that decode whole records, consume. Works on both layouts.
pub struct ComponentIter {
    comp: Arc<DiskComponent>,
    block_idx: usize,
    entries: std::vec::IntoIter<Entry>,
    lo: Option<Vec<u8>>,
    hi: Option<Vec<u8>>,
    error: Option<StorageError>,
}

impl ComponentIter {
    /// Surface any I/O error hit during iteration.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }
}

impl Iterator for ComponentIter {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        loop {
            if let Some(e) = self.entries.next() {
                return Some(e);
            }
            // Blocks are key-ordered: one starting at or past the upper
            // bound ends the scan.
            let idx = self.block_idx;
            let (lo, hi) = (self.lo.as_deref(), self.hi.as_deref());
            if idx >= self.comp.nblocks()
                || hi.is_some_and(|hi| self.comp.block_first_key(idx) >= hi)
            {
                return None;
            }
            self.block_idx += 1;
            match self.comp.load_block(idx, lo, hi) {
                Ok(entries) => self.entries = entries.into_iter(),
                Err(e) => {
                    self.error = Some(e);
                    self.block_idx = self.comp.nblocks();
                    return None;
                }
            }
        }
    }
}

/// One row out of a late-materializing scan, before merge resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjEntry {
    pub key: Vec<u8>,
    pub kind: ProjKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProjKind {
    /// Tombstone: suppresses older versions of the key.
    Anti,
    /// A full stored row (spill rows, or rows from non-columnar sources);
    /// the consumer projects it itself.
    Row(Vec<u8>),
    /// The projected fields — or, for an all-fields projection, the whole
    /// row — assembled into a self-describing record.
    Assembled(Vec<u8>),
    /// Rejected by a pushed-down column filter. Still carries its key so
    /// merge resolution can let it shadow older versions; dropped only
    /// after winning.
    Filtered,
}

/// One row of a parsed key chunk: the key's byte range in the chunk, and
/// the row's kind.
type KeyRow = ((usize, usize), u8);

/// The presence-prefixed runs of a row group read so far, parsed for the
/// shredded rows still in play: the selected ones while the filters are
/// decided, their survivors from then on.
struct Runs {
    /// Per slot (column, or last the rest run): its chunk, and where the
    /// value ranges of the rows in play start in `ranges`.
    chunks: Vec<Option<(Arc<Vec<u8>>, usize)>>,
    ranges: Vec<Option<(usize, usize)>>,
}

impl Runs {
    /// The bytes of the `j`-th row in play in one run: a column value, or
    /// (last slot) the row's rest record.
    fn bytes(&self, slot: usize, j: usize) -> Option<&[u8]> {
        let (buf, at) = self.chunks[slot].as_ref()?;
        self.ranges[at + j].map(|(a, b)| &buf[a..b])
    }

    /// Encoded bytes of one field of that row; a field without a column is
    /// looked up in the rest record.
    fn field(&self, slot: usize, name: &str, j: usize) -> Option<&[u8]> {
        let bytes = self.bytes(slot, j)?;
        if slot + 1 == self.chunks.len() {
            adm_serde::encoded_record_field(bytes, name)
        } else {
            Some(bytes)
        }
    }

    /// Take the rejected ones out of the `rejected.len()` rows in play:
    /// the runs read so far keep the survivors' ranges alone, and later
    /// runs are parsed for them alone.
    fn drop_rejected(&mut self, rejected: &[bool]) {
        let Runs { chunks, ranges } = self;
        let mut kept = Vec::with_capacity(ranges.capacity());
        for (_, at) in chunks.iter_mut().flatten() {
            let of_run = &ranges[*at..*at + rejected.len()];
            *at = kept.len();
            kept.extend(of_run.iter().zip(rejected).filter(|(_, r)| !**r).map(|(range, _)| *range));
        }
        *ranges = kept;
    }
}

/// Filter-first iterator over one columnar component (see
/// [`DiskComponent::project_range`]): yields every key the bound selects,
/// so merge resolution sees filtered and deleted versions too.
pub struct ProjectedIter<'a> {
    comp: &'a DiskComponent,
    /// Fields to assemble with their slot; `None` = the whole record.
    fields: Option<Vec<(String, usize)>>,
    filters: Vec<(ColumnFilter<'a>, usize)>,
    /// Slots the filters read, and the further slots assembly reads —
    /// both sorted and de-duplicated.
    filter_slots: Vec<usize>,
    late_slots: Vec<usize>,
    bound: ScanBound<'a>,
    /// Range bound: the next group to read.
    group_idx: usize,
    /// Key-list bound: the keys the bloom filter let through, and how many
    /// of them have been looked for.
    wanted: Vec<&'a [u8]>,
    next_wanted: usize,
    rows: std::vec::IntoIter<ProjEntry>,
    error: Option<StorageError>,
    /// Whether the groups read add to `storage.columnar.*`: a query's
    /// reads do, a [`ComponentIter`]'s (rebuilding merges, whole-record
    /// reads) do not.
    counted: bool,
}

/// The rows of one group a [`ProjectedIter`] wants: those with keys in
/// `[lo, hi)`, or those holding one of a sorted run of keys.
enum Rows<'k> {
    Between(Option<&'k [u8]>, Option<&'k [u8]>),
    Holding(&'k [&'k [u8]]),
}

impl ProjectedIter<'_> {
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }

    /// Materialize the next group with something to yield.
    fn load_group(&mut self) -> bool {
        loop {
            let loaded = match self.bound {
                ScanBound::Range { lo, hi } => {
                    let g = self.group_idx;
                    // Groups are key-ordered: one starting at or past the
                    // upper bound ends the scan.
                    if g >= self.comp.nblocks()
                        || hi.is_some_and(|hi| self.comp.block_first_key(g) >= hi)
                    {
                        return false;
                    }
                    self.group_idx += 1;
                    self.materialize_group(g, Rows::Between(lo, hi))
                }
                ScanBound::Ranges(_) => return false,
                ScanBound::Keys(_) => {
                    let Some(&key) = self.wanted.get(self.next_wanted) else { return false };
                    // Jump to the one group that can hold the next wanted
                    // key; it is asked for every wanted key below the group
                    // after it.
                    let Some(g) = self.comp.locate_block(key) else {
                        self.next_wanted += 1;
                        continue;
                    };
                    let rest = &self.wanted[self.next_wanted..];
                    let n = if g + 1 < self.comp.nblocks() {
                        let end = self.comp.block_first_key(g + 1);
                        rest.partition_point(|k| *k < end)
                    } else {
                        rest.len()
                    };
                    self.next_wanted += n;
                    let found = self.materialize_group(g, Rows::Holding(&rest[..n]));
                    if let (Layout::Columnar(m), Ok(rows)) = (&self.comp.layout, &found) {
                        m.stats.fetch_groups.inc();
                        m.stats.fetch_keys.add(rows.len() as u64);
                    }
                    found
                }
            };
            match loaded {
                Ok(rows) if rows.is_empty() => {}
                Ok(rows) => {
                    self.rows = rows.into_iter();
                    return true;
                }
                Err(e) => {
                    self.error = Some(e);
                    return false;
                }
            }
        }
    }

    /// Read group `g` for the rows `select` names: decide the filters on
    /// them, read the late runs only if one survives (and each run only as
    /// far as the last survivor), and yield the selected rows alone.
    fn materialize_group(&self, g: usize, select: Rows<'_>) -> Result<Vec<ProjEntry>> {
        let Layout::Columnar(m) = &self.comp.layout else { unreachable!() };
        let meta = &m.groups[g];
        let key_buf = self.comp.read_chunk(m, g, 0)?;
        let rows = DiskComponent::parse_key_chunk(&key_buf, meta.nrows)?;
        let key_at = |((a, b), _): &KeyRow| &key_buf[*a..*b];
        // Selected rows, ascending.
        let selected: Vec<usize> = match select {
            Rows::Between(lo, hi) => {
                let start = lo.map_or(0, |lo| rows.partition_point(|r| key_at(r) < lo));
                let end = hi.map_or(rows.len(), |hi| rows.partition_point(|r| key_at(r) < hi));
                (start..end.max(start)).collect()
            }
            Rows::Holding(keys) => keys
                .iter()
                .filter_map(|k| rows.binary_search_by(|r| key_at(r).cmp(k)).ok())
                .collect(),
        };
        // Each selected row's ordinal within its kind's run: the rows of
        // that kind before it.
        let (mut shred_ords, mut spill_ords) = (Vec::new(), Vec::new());
        let (mut si, mut pi) = (0usize, 0usize);
        let mut counted = 0usize;
        for &row in &selected {
            for (_, kind) in &rows[counted..row] {
                si += usize::from(*kind == KIND_SHREDDED);
                pi += usize::from(*kind == KIND_SPILL);
            }
            match rows[row].1 {
                KIND_SHREDDED => {
                    shred_ords.push(si);
                    si += 1;
                }
                KIND_SPILL => {
                    spill_ords.push(pi);
                    pi += 1;
                }
                _ => {}
            }
            counted = row + 1;
        }
        let nshred = shred_ords.len();
        let ncols = m.schema.columns.len();

        let mut runs = Runs {
            chunks: vec![None; ncols + 1],
            ranges: Vec::with_capacity((self.filter_slots.len() + self.late_slots.len()) * nshred),
        };
        let load = |runs: &mut Runs, slot: usize, ords: &[usize]| -> Result<()> {
            let buf = self.comp.read_chunk(m, g, 1 + slot)?;
            let at = runs.ranges.len();
            DiskComponent::parse_presence_chunk(&buf, ords.iter().copied(), &mut runs.ranges)?;
            runs.chunks[slot] = Some((buf, at));
            Ok(())
        };

        // Filter first: only the filter columns are read to decide which
        // rows are worth assembling. `rejected` stays empty without filters.
        let mut rejected: Vec<bool> = Vec::new();
        if nshred > 0 && !self.filters.is_empty() {
            for &slot in &self.filter_slots {
                load(&mut runs, slot, &shred_ords)?;
            }
            self.filters.iter().for_each(|(f, _)| f.begin_group());
            let mut scratch = Vec::new();
            rejected = (0..nshred)
                .map(|j| {
                    self.filters
                        .iter()
                        .any(|(f, slot)| f.rejects(runs.field(*slot, f.field(), j), &mut scratch))
                })
                .collect();
            if rejected.contains(&true) {
                runs.drop_rejected(&rejected);
                let mut row = rejected.iter();
                shred_ords.retain(|_| !row.next().expect("a verdict per shredded row"));
            }
        }
        // The late runs are read for the survivors alone, each no further
        // than the last of them.
        let survivors = shred_ords.len();
        if survivors > 0 {
            for &slot in &self.late_slots {
                load(&mut runs, slot, &shred_ords)?;
            }
        }
        if self.counted {
            m.stats.rows_filtered.add((nshred - survivors) as u64);
            m.stats.rows_assembled.add(survivors as u64);
            let columns = &runs.chunks[..ncols];
            m.stats.columns_projected.add(columns.iter().flatten().count() as u64);
            let skipped: u64 = (0..ncols)
                .filter(|&c| columns[c].is_none())
                .map(|c| meta.chunks[1 + c].1 as u64)
                .sum();
            m.stats.bytes_skipped.add(skipped);
        }

        let spill = if spill_ords.is_empty() {
            None
        } else {
            let buf = self.comp.read_chunk(m, g, 2 + ncols)?;
            let mut ranges = Vec::with_capacity(spill_ords.len());
            DiskComponent::parse_spill_chunk(&buf, spill_ords.iter().copied(), &mut ranges)?;
            Some((buf, ranges))
        };

        let mut out = Vec::with_capacity(selected.len());
        // A verdict per selected shredded row (none without filters), and
        // the ordinals of the next survivor and the next spilled row.
        let mut verdicts = rejected.iter();
        let (mut sj, mut pj) = (0usize, 0usize);
        let mut parts: Vec<(&str, &[u8])> = Vec::new();
        let mut cols: Vec<Option<&[u8]>> = Vec::with_capacity(ncols);
        for row in selected {
            let kind = match rows[row].1 {
                KIND_ANTIMATTER => ProjKind::Anti,
                KIND_SPILL => {
                    let (buf, ranges) = spill.as_ref().expect("spill run read above");
                    let (a, b) = ranges[pj];
                    pj += 1;
                    ProjKind::Row(buf[a..b].to_vec())
                }
                _ => {
                    if verdicts.next() == Some(&true) {
                        ProjKind::Filtered
                    } else {
                        let survivor = sj;
                        sj += 1;
                        if let Some(fields) = &self.fields {
                            parts.clear();
                            for (name, slot) in fields {
                                if let Some(b) = runs.field(*slot, name, survivor) {
                                    parts.push((name.as_str(), b));
                                }
                            }
                            ProjKind::Assembled(colschema::encode_record_from_parts(&parts))
                        } else {
                            cols.clear();
                            cols.extend((0..ncols).map(|c| runs.bytes(c, survivor)));
                            let rest = runs.bytes(ncols, survivor);
                            let sd =
                                colschema::splice_full(&m.schema, &cols, rest).map_err(|e| {
                                    StorageError::Corrupt(format!("splice failed: {e}"))
                                })?;
                            ProjKind::Assembled(sd)
                        }
                    }
                }
            };
            out.push(ProjEntry { key: key_at(&rows[row]).to_vec(), kind });
        }
        Ok(out)
    }
}

impl Iterator for ProjectedIter<'_> {
    type Item = ProjEntry;

    fn next(&mut self) -> Option<ProjEntry> {
        loop {
            if let Some(r) = self.rows.next() {
                return Some(r);
            }
            if !self.load_group() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{CmpOp, ColumnFilter, SelfDescribingCodec};
    use asterix_adm::serde::encode;
    use asterix_adm::value::{Record, Value};
    use asterix_testkit::TempDir;

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn build_n(dir: &Path, n: u32) -> Arc<DiskComponent> {
        let cache = BufferCache::new(64);
        let entries = (0..n).map(|i| Entry::put(key(i * 2), vec![i as u8; 8]));
        DiskComponent::build(
            &dir.join("c_0_0.dat"),
            cache,
            &ComponentConfig { page_size: 256, bloom_fpp: 0.01 },
            0,
            0,
            entries,
            n as usize,
        )
        .unwrap()
    }

    #[test]
    fn build_get_roundtrip() {
        let dir = TempDir::new().unwrap();
        let c = build_n(dir.path(), 1000);
        assert_eq!(c.entry_count(), 1000);
        for i in 0..1000u32 {
            let got = c.get(&key(i * 2)).unwrap().unwrap();
            assert_eq!(got.value, vec![i as u8; 8]);
            assert!(c.get(&key(i * 2 + 1)).unwrap().is_none());
        }
    }

    #[test]
    fn open_roundtrip() {
        let dir = TempDir::new().unwrap();
        let c = build_n(dir.path(), 500);
        let path = c.path().to_path_buf();
        drop(c);
        let cache = BufferCache::new(64);
        let c2 = DiskComponent::open(&path, cache, None).unwrap();
        assert_eq!(c2.entry_count(), 500);
        assert!(c2.get(&key(10)).unwrap().is_some());
        assert!(c2.get(&key(11)).unwrap().is_none());
    }

    #[test]
    fn range_scans() {
        let dir = TempDir::new().unwrap();
        let c = build_n(dir.path(), 100);
        let all: Vec<Entry> = c.range(None, None).collect();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        let mid: Vec<Entry> = c.range(Some(&key(10)), Some(&key(20))).collect();
        assert_eq!(mid.len(), 5); // keys 10,12,14,16,18
        assert_eq!(mid[0].key, key(10));
        let from_odd: Vec<Entry> = c.range(Some(&key(11)), Some(&key(15))).collect();
        assert_eq!(from_odd.len(), 2); // 12, 14
        let none: Vec<Entry> = c.range(Some(&key(500)), None).collect();
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn validity_marker_enforced() {
        let dir = TempDir::new().unwrap();
        let c = build_n(dir.path(), 10);
        let path = c.path().to_path_buf();
        fs::remove_file(path.with_extension("valid")).unwrap();
        let cache = BufferCache::new(8);
        assert!(DiskComponent::open(&path, cache, None).is_err());
        // Scavenge removes the orphaned data file.
        let valid = DiskComponent::scavenge_dir(dir.path()).unwrap();
        assert!(valid.is_empty());
        assert!(!path.exists());
    }

    #[test]
    fn scavenge_keeps_valid() {
        let dir = TempDir::new().unwrap();
        let c = build_n(dir.path(), 10);
        let valid = DiskComponent::scavenge_dir(dir.path()).unwrap();
        assert_eq!(valid, vec![c.path().to_path_buf()]);
    }

    #[test]
    fn antimatter_entries_survive_roundtrip() {
        let dir = TempDir::new().unwrap();
        let cache = BufferCache::new(8);
        let entries = vec![
            Entry::put(key(1), b"v1".to_vec()),
            Entry::tombstone(key(2)),
            Entry::put(key(3), b"v3".to_vec()),
        ];
        let c = DiskComponent::build(
            &dir.path().join("c_1_1.dat"),
            cache,
            &ComponentConfig::default(),
            1,
            1,
            entries,
            3,
        )
        .unwrap();
        let e = c.get(&key(2)).unwrap().unwrap();
        assert!(e.antimatter);
        let e = c.get(&key(3)).unwrap().unwrap();
        assert!(!e.antimatter);
    }

    #[test]
    fn destroy_removes_files() {
        let dir = TempDir::new().unwrap();
        let c = build_n(dir.path(), 10);
        let path = c.path().to_path_buf();
        c.destroy().unwrap();
        assert!(!path.exists());
        assert!(!path.with_extension("valid").exists());
    }

    // ------------------------------------------------------------------
    // Columnar layout
    // ------------------------------------------------------------------

    fn record_value(i: u32) -> Vec<u8> {
        let mut r = Record::new();
        r.set("id", Value::Int64(i as i64));
        r.set("name", Value::string(format!("user-{i:04}")));
        r.set("score", Value::Double(i as f64 / 7.0));
        if i.is_multiple_of(5) {
            r.set("flag", Value::Boolean(true));
        }
        encode(&Value::record(r))
    }

    fn columnar_opts() -> ColumnarOptions {
        ColumnarOptions::new(Arc::new(SelfDescribingCodec))
    }

    fn id_filter(op: CmpOp, v: i64) -> ColumnFilter<'static> {
        ColumnFilter::Cmp {
            field: "id".into(),
            op,
            key: asterix_adm::ordkey::encode_value(&Value::Int64(v)),
        }
    }

    fn build_columnar_n(dir: &Path, n: u32, opts: &ColumnarOptions) -> Arc<DiskComponent> {
        let cache = BufferCache::new(256);
        let entries: Vec<Entry> = (0..n)
            .map(|i| {
                if i % 17 == 3 {
                    Entry::tombstone(key(i))
                } else {
                    Entry::put(key(i), record_value(i))
                }
            })
            .collect();
        DiskComponent::build_columnar(
            &dir.join("c_0_0.dat"),
            cache,
            &ComponentConfig { page_size: 512, bloom_fpp: 0.01 },
            opts,
            0,
            0,
            &entries,
        )
        .unwrap()
        .expect("stable records should build columnar")
    }

    #[test]
    fn columnar_build_reconstructs_exact_rows() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 500, &opts);
        assert!(c.is_columnar());
        assert_eq!(c.entry_count(), 500);
        assert_eq!(opts.stats.components.get(), 1);
        let schema = c.schema().unwrap();
        assert!(schema.column_index("id").is_some());
        assert!(schema.column_index("name").is_some());
        for i in 0..500u32 {
            let got = c.get(&key(i)).unwrap().unwrap();
            if i % 17 == 3 {
                assert!(got.antimatter);
            } else {
                assert_eq!(got.value, record_value(i), "row {i} must reconstruct exactly");
            }
        }
        // Full range matches too, preserving order.
        let all: Vec<Entry> = c.range(None, None).collect();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn columnar_open_roundtrip_requires_codec() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 100, &opts);
        let path = c.path().to_path_buf();
        drop(c);
        let cache = BufferCache::new(64);
        assert!(DiskComponent::open(&path, Arc::clone(&cache), None).is_err());
        let c2 = DiskComponent::open(&path, cache, Some(&opts)).unwrap();
        assert!(c2.is_columnar());
        assert_eq!(c2.get(&key(7)).unwrap().unwrap().value, record_value(7));
    }

    #[test]
    fn projected_scan_assembles_requested_fields_and_skips_bytes() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 300, &opts);
        let proj =
            Projection { fields: Some(vec!["id".into(), "flag".into()]), filters: Vec::new() };
        let rows: Vec<ProjEntry> = c.project_range(ScanBound::ALL, &proj).collect();
        assert_eq!(rows.len(), 300);
        for (i, r) in rows.iter().enumerate() {
            let i = i as u32;
            if i % 17 == 3 {
                assert_eq!(r.kind, ProjKind::Anti);
                continue;
            }
            let ProjKind::Assembled(rec) = &r.kind else { panic!("expected assembled row") };
            let id = adm_serde::encoded_record_field(rec, "id").expect("id field");
            assert_eq!(adm_serde::decode(id).unwrap(), Value::Int64(i as i64));
            // "name" was not requested and must be absent from the output.
            assert!(adm_serde::encoded_record_field(rec, "name").is_none());
            let flag = adm_serde::encoded_record_field(rec, "flag");
            assert_eq!(flag.is_some(), i.is_multiple_of(5));
        }
        // The name/score columns were never read.
        assert!(opts.stats.bytes_skipped.get() > 0);
        assert!(opts.stats.columns_projected.get() > 0);
    }

    #[test]
    fn projected_scan_filters_on_column_bytes() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 200, &opts);
        let proj = Projection {
            fields: Some(vec!["id".into()]),
            filters: vec![id_filter(CmpOp::Ge, 150)],
        };
        let rows: Vec<ProjEntry> = c.project_range(ScanBound::ALL, &proj).collect();
        let assembled = rows.iter().filter(|r| matches!(r.kind, ProjKind::Assembled(_))).count();
        let filtered = rows.iter().filter(|r| r.kind == ProjKind::Filtered).count();
        let anti = rows.iter().filter(|r| r.kind == ProjKind::Anti).count();
        assert_eq!(rows.len(), 200, "every key is still yielded for merge resolution");
        let expected_live: Vec<u32> = (150..200).filter(|i| i % 17 != 3).collect();
        assert_eq!(assembled, expected_live.len());
        assert_eq!(anti, (0..200).filter(|i| i % 17 == 3).count());
        assert_eq!(filtered, 200 - assembled - anti);
    }

    #[test]
    fn two_sided_filter_assembles_whole_rows_of_survivors_only() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 400, &opts);
        let window = Projection {
            fields: None,
            filters: vec![id_filter(CmpOp::Ge, 150), id_filter(CmpOp::Lt, 160)],
        };
        let rows: Vec<ProjEntry> = c.project_range(ScanBound::ALL, &window).collect();
        assert_eq!(rows.len(), 400, "every key is still yielded for merge resolution");
        for (i, r) in rows.iter().enumerate() {
            let i = i as u32;
            match &r.kind {
                ProjKind::Anti => assert_eq!(i % 17, 3),
                // All-fields projection: the spliced record is the stored
                // row itself (identity codec), every field in place.
                ProjKind::Assembled(rec) => {
                    assert!((150..160).contains(&i), "row {i} is outside the window");
                    assert_eq!(rec, &record_value(i));
                }
                ProjKind::Filtered => assert!(!(150..160).contains(&i)),
                ProjKind::Row(_) => panic!("no row of this component spills"),
            }
        }
        let assembled = opts.stats.rows_assembled.get();
        assert_eq!(assembled, (150..160).filter(|i| i % 17 != 3).count() as u64);
        assert_eq!(
            opts.stats.rows_filtered.get() + assembled,
            (0..400).filter(|i| i % 17 != 3).count() as u64,
            "every shredded row is either filtered or assembled"
        );
        // Row groups without a survivor read the filter column only.
        let skipped_by_window = opts.stats.bytes_skipped.get();
        assert!(skipped_by_window > 0);
        // The same scan without filters reads every run of every group.
        let all: Vec<ProjEntry> = c.project_range(ScanBound::ALL, &Projection::all()).collect();
        assert_eq!(opts.stats.bytes_skipped.get(), skipped_by_window);
        assert!(all.iter().all(|r| matches!(r.kind, ProjKind::Anti | ProjKind::Assembled(_))));
    }

    /// Rows the filter cannot decide stay in; rows it decides against go.
    #[test]
    fn filter_drops_only_definite_rejects() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let mk = |i: u32| -> Vec<u8> {
            let mut r = Record::new();
            r.set("id", Value::Int64(i as i64));
            match i % 5 {
                0 => {}                                 // MISSING
                1 => r.set("x", Value::Null),           // NULL
                2 => r.set("x", Value::Double(1.0e16)), // past the ordkey exact bound
                3 => r.set("x", Value::Double(5.0)),    // fails `x >= 10`
                _ => r.set("x", Value::Double(50.0)),   // passes
            }
            encode(&Value::record(r))
        };
        let entries: Vec<Entry> = (0..100u32).map(|i| Entry::put(key(i), mk(i))).collect();
        let c = DiskComponent::build_columnar(
            &dir.path().join("c_0_0.dat"),
            BufferCache::new(64),
            &ComponentConfig { page_size: 512, bloom_fpp: 0.01 },
            &opts,
            0,
            0,
            &entries,
        )
        .unwrap()
        .expect("stable records build columnar");
        assert!(c.schema().unwrap().column_index("x").is_some());
        let proj = Projection {
            fields: None,
            filters: vec![ColumnFilter::Cmp {
                field: "x".into(),
                op: CmpOp::Ge,
                key: asterix_adm::ordkey::encode_value(&Value::Double(10.0)),
            }],
        };
        for (i, r) in c.project_range(ScanBound::ALL, &proj).enumerate() {
            let kept = matches!(r.kind, ProjKind::Assembled(_));
            // MISSING and NULL make the comparison unknown, which a select
            // drops; 1e16 is left to the select; 5 < 10 is a definite no.
            assert_eq!(kept, matches!(i % 5, 2 | 4), "row {i}: {:?}", r.kind);
        }
    }

    #[test]
    fn unstable_data_falls_back_to_row_layout() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let cache = BufferCache::new(64);
        // Values that aren't records at all: nothing to infer.
        let entries: Vec<Entry> =
            (0..50u32).map(|i| Entry::put(key(i), encode(&Value::Int64(i as i64)))).collect();
        let built = DiskComponent::build_columnar(
            &dir.path().join("c_0_0.dat"),
            cache,
            &ComponentConfig::default(),
            &opts,
            0,
            0,
            &entries,
        )
        .unwrap();
        assert!(built.is_none(), "schema-unstable data must not build columnar");
    }

    #[test]
    fn heterogeneous_rows_spill_and_reconstruct() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let cache = BufferCache::new(64);
        let mk = |i: u32| -> Vec<u8> {
            if i % 10 == 7 {
                // Occasionally the "id" field is a string: this row spills.
                let mut r = Record::new();
                r.set("id", Value::string(format!("weird-{i}")));
                encode(&Value::record(r))
            } else {
                record_value(i)
            }
        };
        let entries: Vec<Entry> = (0..200u32).map(|i| Entry::put(key(i), mk(i))).collect();
        let c = DiskComponent::build_columnar(
            &dir.path().join("c_0_0.dat"),
            cache,
            &ComponentConfig { page_size: 512, bloom_fpp: 0.01 },
            &opts,
            0,
            0,
            &entries,
        )
        .unwrap()
        .expect("mostly-stable data still builds columnar");
        assert!(opts.stats.fallback_rows.get() > 0);
        for i in 0..200u32 {
            assert_eq!(c.get(&key(i)).unwrap().unwrap().value, mk(i));
        }
        // Projected scans hand spilled rows back whole — also from a group
        // whose shredded rows the filter rejects: a spilled row's fields
        // are not in the column runs, so only the select can judge it.
        for filters in [Vec::new(), vec![id_filter(CmpOp::Lt, 0)]] {
            let proj = Projection { fields: Some(vec!["id".into()]), filters };
            let rows: Vec<ProjEntry> = c.project_range(ScanBound::ALL, &proj).collect();
            for (i, r) in rows.iter().enumerate() {
                match &r.kind {
                    ProjKind::Row(v) => assert_eq!(v, &mk(i as u32)),
                    _ => assert_ne!(i % 10, 7, "spilled row {i} must come through as Row"),
                }
            }
            let spills = rows.iter().filter(|r| matches!(r.kind, ProjKind::Row(_))).count();
            assert_eq!(spills, (0..200u32).filter(|i| i % 10 == 7).count());
        }
    }

    // ------------------------------------------------------------------
    // Key-list bound
    // ------------------------------------------------------------------

    /// Group index holding each key of `c`, from a full scan's order.
    fn group_of(c: &DiskComponent, k: u32) -> usize {
        c.locate_block(&key(k)).expect("key at or above the first group")
    }

    fn fetch(c: &DiskComponent, keys: &[u32], proj: &Projection) -> Vec<ProjEntry> {
        let keys: Vec<Vec<u8>> = keys.iter().map(|k| key(*k)).collect();
        let mut it = c.project_range(ScanBound::Keys(&keys), proj);
        let rows: Vec<ProjEntry> = it.by_ref().collect();
        assert!(it.take_error().is_none());
        rows
    }

    #[test]
    fn key_list_visits_only_the_groups_holding_a_wanted_key() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 2000, &opts);
        let ngroups = c.nblocks();
        assert!(ngroups > 10, "the component must span many groups, has {ngroups}");
        // Three keys of one group and one of another, far apart.
        let (a, b) = (group_of(&c, 100), group_of(&c, 1900));
        assert_ne!(a, b);
        let first_of_a = u32::from_be_bytes(c.block_first_key(a).try_into().unwrap());
        let mut wanted: Vec<u32> = (first_of_a..).filter(|k| k % 17 != 3).take(3).collect();
        wanted.push(1900);
        assert!(wanted[..3].iter().all(|k| group_of(&c, *k) == a));

        let proj = Projection { fields: Some(vec!["name".into()]), filters: Vec::new() };
        let (_, misses0) = c.cache.stats();
        let skipped0 = opts.stats.bytes_skipped.get();
        let rows = fetch(&c, &wanted, &proj);
        let keys_of = |rows: &[ProjEntry]| rows.iter().map(|r| r.key.clone()).collect::<Vec<_>>();
        assert_eq!(keys_of(&rows), wanted.iter().map(|k| key(*k)).collect::<Vec<_>>());
        for (r, &k) in rows.iter().zip(&wanted) {
            let ProjKind::Assembled(rec) = &r.kind else { panic!("row {k}: {:?}", r.kind) };
            let name = adm_serde::encoded_record_field(rec, "name").expect("name field");
            assert_eq!(adm_serde::decode(name).unwrap(), Value::string(format!("user-{k:04}")));
            assert!(adm_serde::encoded_record_field(rec, "id").is_none());
        }
        // Two group visits, four keys found in them; per visit the key run
        // and the one projected column were read and nothing else.
        assert_eq!(opts.stats.fetch_groups.get(), 2);
        assert_eq!(opts.stats.fetch_keys.get(), 4);
        let (_, misses) = c.cache.stats();
        // A point probe reads the same way but is no fetch.
        assert!(c.get(&key(1000)).unwrap().is_some());
        assert_eq!((opts.stats.fetch_groups.get(), opts.stats.fetch_keys.get()), (2, 4));
        assert_eq!(misses - misses0, 4, "2 groups x (key run + name run)");
        let Layout::Columnar(m) = &c.layout else { unreachable!() };
        let unread_cols = |g: usize| -> u64 {
            let name = m.schema.column_index("name").unwrap();
            (0..m.schema.columns.len())
                .filter(|col| *col != name)
                .map(|col| m.groups[g].chunks[1 + col].1 as u64)
                .sum()
        };
        assert_eq!(opts.stats.bytes_skipped.get() - skipped0, unread_cols(a) + unread_cols(b));
    }

    #[test]
    fn absent_and_bloom_false_positive_keys_yield_nothing() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        // Even keys only, so every odd key is absent from inside a group.
        let entries: Vec<Entry> =
            (0..1000u32).map(|i| Entry::put(key(i * 2), record_value(i))).collect();
        let c = DiskComponent::build_columnar(
            &dir.path().join("c_0_0.dat"),
            BufferCache::new(256),
            &ComponentConfig { page_size: 512, bloom_fpp: 0.01 },
            &opts,
            0,
            0,
            &entries,
        )
        .unwrap()
        .expect("stable records build columnar");
        let odd = (0..1000u32).map(|i| i * 2 + 1);
        let (fp, rejected): (Vec<u32>, Vec<u32>) = odd.partition(|k| c.bloom.may_contain(&key(*k)));
        assert!(!fp.is_empty() && rejected.len() > 900, "1 % of 1000 absent keys pass the bloom");

        // Keys the bloom filter rejects never reach a group.
        let (_, misses0) = c.cache.stats();
        assert!(fetch(&c, &rejected, &Projection::all()).is_empty());
        assert_eq!(opts.stats.fetch_groups.get(), 0);
        assert_eq!(c.cache.stats().1, misses0);
        // A false positive costs a key run and finds nothing; so does a
        // key past the last group's rows, and one below the first group is
        // dropped without a read.
        assert!(fetch(&c, &fp, &Projection::all()).is_empty());
        assert!(opts.stats.fetch_groups.get() > 0);
        assert_eq!(opts.stats.fetch_keys.get(), 0);
        assert_eq!(opts.stats.rows_assembled.get(), 0);
        // Absent keys beside present ones change nothing about the latter.
        let mut mixed: Vec<u32> = fp.clone();
        mixed.extend([10, 500, 1998]);
        mixed.sort_unstable();
        let rows = fetch(&c, &mixed, &Projection::all());
        assert_eq!(
            rows.iter().map(|r| r.key.clone()).collect::<Vec<_>>(),
            [10, 500, 1998].map(key)
        );
        for (r, k) in rows.iter().zip([10u32, 500, 1998]) {
            assert_eq!(r.kind, ProjKind::Assembled(record_value(k / 2)));
            assert_eq!(c.get(&key(k)).unwrap().unwrap().value, record_value(k / 2));
        }
        assert!(c.get(&key(fp[0])).unwrap().is_none());
    }

    /// Entry `i` of a corpus of every row kind: row 3 mod 17 is antimatter,
    /// row 7 mod 10 spills (string id), the rest shred.
    fn mixed_entry(i: u32) -> Entry {
        if i % 17 == 3 {
            Entry::tombstone(key(i))
        } else if i % 10 == 7 {
            let mut r = Record::new();
            r.set("id", Value::string(format!("weird-{i}")));
            Entry::put(key(i), encode(&Value::record(r)))
        } else {
            Entry::put(key(i), record_value(i))
        }
    }

    /// 600 [`mixed_entry`]s as one columnar component with a cold cache.
    fn build_mixed(dir: &Path, opts: &ColumnarOptions) -> Arc<DiskComponent> {
        let entries: Vec<Entry> = (0..600u32).map(mixed_entry).collect();
        DiskComponent::build_columnar(
            &dir.join("c_0_0.dat"),
            BufferCache::new(256),
            &ComponentConfig { page_size: 512, bloom_fpp: 0.01 },
            opts,
            0,
            0,
            &entries,
        )
        .unwrap()
        .expect("mostly-stable data builds columnar")
    }

    /// A key range over a columnar component reads as the same range over
    /// a row component of the same entries — antimatter, spilled and
    /// shredded rows alike — whatever its bounds: a group's first key and
    /// the keys beside it, keys inside a group, past the end, or open.
    #[test]
    fn columnar_ranges_read_as_row_ranges_on_every_bound() {
        let dir = TempDir::new().unwrap();
        let col = build_mixed(dir.path(), &columnar_opts());
        let row = DiskComponent::build(
            &dir.path().join("c_1_1.dat"),
            BufferCache::new(256),
            &ComponentConfig { page_size: 512, bloom_fpp: 0.01 },
            1,
            1,
            (0..600u32).map(mixed_entry),
            600,
        )
        .unwrap();
        assert!(col.is_columnar() && !row.is_columnar() && col.nblocks() > 2);
        let all: Vec<Entry> = col.range(None, None).collect();
        assert_eq!(all, (0..600u32).map(mixed_entry).collect::<Vec<_>>());

        let group_starts = (0..col.nblocks())
            .map(|g| u32::from_be_bytes(col.block_first_key(g).try_into().unwrap()));
        let mut bounds: Vec<Option<Vec<u8>>> = vec![None];
        for k in group_starts.chain((0..600).step_by(97)).chain([599]) {
            bounds.extend(
                [k.checked_sub(1), Some(k), Some(k + 1)]
                    .into_iter()
                    .flatten()
                    .map(|k| Some(key(k))),
            );
        }
        for lo in &bounds {
            for hi in &bounds {
                let got: Vec<Entry> = col.range(lo.as_deref(), hi.as_deref()).collect();
                let want: Vec<Entry> = row.range(lo.as_deref(), hi.as_deref()).collect();
                assert_eq!(got, want, "{lo:?}..{hi:?}");
            }
        }
    }

    #[test]
    fn wanted_rows_keep_their_kind_and_rejected_groups_skip_the_late_runs() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let mk = mixed_entry;
        let c = build_mixed(dir.path(), &opts);
        let proj = Projection {
            fields: Some(vec!["name".into()]),
            filters: vec![id_filter(CmpOp::Ge, 300)],
        };
        // 20 anti, 27 spilled, 21 shredded and rejected; 320 shredded and
        // kept, 327 spilled (only the select can judge it), 343 % 17 == 3.
        let rows = fetch(&c, &[20, 21, 27, 320, 327, 343], &proj);
        let kinds: Vec<&ProjKind> = rows.iter().map(|r| &r.kind).collect();
        assert_eq!(rows.len(), 6);
        assert_eq!(*kinds[0], ProjKind::Anti);
        assert_eq!(*kinds[1], ProjKind::Filtered);
        assert_eq!(*kinds[2], ProjKind::Row(mk(27).value));
        assert!(matches!(kinds[3], ProjKind::Assembled(_)));
        assert_eq!(*kinds[4], ProjKind::Row(mk(327).value));
        assert_eq!(*kinds[5], ProjKind::Anti);

        // A group whose wanted rows the filter all rejects reads its key
        // run and the filter column, never the projected one.
        let g = group_of(&c, 100);
        let first = u32::from_be_bytes(c.block_first_key(g).try_into().unwrap());
        let wanted: Vec<u32> = (first..first + 8).filter(|i| i % 17 != 3 && i % 10 != 7).collect();
        assert!(wanted.iter().all(|k| group_of(&c, *k) == g && *k < 300));
        let (_, misses0) = c.cache.stats();
        let (filtered0, assembled0) =
            (opts.stats.rows_filtered.get(), opts.stats.rows_assembled.get());
        let rows = fetch(&c, &wanted, &proj);
        assert!(rows.iter().all(|r| r.kind == ProjKind::Filtered) && rows.len() == wanted.len());
        assert_eq!(c.cache.stats().1 - misses0, 2, "key run + id run");
        assert_eq!(opts.stats.rows_filtered.get() - filtered0, wanted.len() as u64);
        assert_eq!(opts.stats.rows_assembled.get(), assembled0);
    }

    /// A partner test that knows which `id`s have one, and counts what it
    /// is asked.
    #[derive(Default)]
    struct IdPartners {
        ids: Vec<i64>,
        polls: std::cell::Cell<usize>,
        asked: std::cell::Cell<usize>,
    }

    impl crate::columnar::PartnerTest for IdPartners {
        fn poll(&self) {
            self.polls.set(self.polls.get() + 1);
        }

        fn rejects(&self, value: &[u8]) -> bool {
            self.asked.set(self.asked.get() + 1);
            !matches!(adm_serde::decode(value), Ok(Value::Int64(i)) if self.ids.contains(&i))
        }
    }

    #[test]
    fn partner_conjunct_reads_the_late_runs_of_groups_with_a_partner_only() {
        let mk = mixed_entry;
        let shredded = |i: &u32| i % 17 != 3 && i % 10 != 7;
        // A cold cache per scan, so that misses count the runs it read.
        let scan = |filters: Vec<ColumnFilter<'_>>| {
            let dir = TempDir::new().unwrap();
            let opts = columnar_opts();
            let c = build_mixed(dir.path(), &opts);
            let proj = Projection { fields: Some(vec!["name".into()]), filters };
            let mut it = c.project_range(ScanBound::ALL, &proj);
            let rows: Vec<ProjEntry> = it.by_ref().collect();
            assert!(it.take_error().is_none());
            let name_run = |k: u32| {
                let Layout::Columnar(m) = &c.layout else { unreachable!() };
                let name = m.schema.column_index("name").unwrap();
                (group_of(&c, k), m.groups[group_of(&c, k)].chunks[1 + name].1 as u64)
            };
            let name_runs: Vec<(usize, u64)> = [100, 101, 450].map(name_run).to_vec();
            (rows, c.cache.stats().1, opts.stats.bytes_skipped.get(), c.nblocks(), name_runs)
        };
        let id_of = |r: &ProjEntry| u32::from_be_bytes(r.key.as_slice().try_into().unwrap());
        let assembled = |rows: &[ProjEntry]| -> Vec<u32> {
            rows.iter().filter(|r| matches!(r.kind, ProjKind::Assembled(_))).map(id_of).collect()
        };

        // Nobody has a partner: every shredded row is decided on the `id`
        // run, no `name` run is read.
        let nobody = IdPartners::default();
        let partner = |test| ColumnFilter::Partner { field: "id".into(), test };
        let (rows, misses_nobody, skipped_nobody, groups, name_runs) = scan(vec![partner(&nobody)]);
        assert_eq!(rows.len(), 600, "every key is yielded");
        assert_eq!(nobody.polls.get(), groups, "polled once per row group");
        assert_eq!(nobody.asked.get(), (0..600).filter(shredded).count());
        for r in &rows {
            let i = id_of(r);
            match &r.kind {
                ProjKind::Anti => assert_eq!(i % 17, 3),
                ProjKind::Row(v) => assert_eq!((i % 10, v), (7, &mk(i).value)),
                kind => assert_eq!((kind, shredded(&i)), (&ProjKind::Filtered, true), "row {i}"),
            }
        }

        // Three ids in two groups have one: those rows are assembled, and
        // only their groups' `name` runs are read on top.
        let some = IdPartners { ids: vec![100, 101, 450], ..Default::default() };
        let (rows, misses_some, skipped_some, _, _) = scan(vec![partner(&some)]);
        assert_eq!(assembled(&rows), vec![100, 101, 450]);
        assert_eq!(
            rows.iter().filter(|r| r.kind == ProjKind::Filtered).count(),
            some.asked.get() - 3
        );
        let mut partner_groups = name_runs.clone();
        partner_groups.dedup();
        assert_eq!(partner_groups.len(), 2, "100 and 101 share a group: {name_runs:?}");
        assert_eq!(misses_some - misses_nobody, 2);
        assert_eq!(
            skipped_nobody - skipped_some,
            partner_groups.iter().map(|(_, len)| len).sum::<u64>()
        );

        // Behind a range conjunct the test is asked about the rows the
        // range keeps, and only the group of 450 reads its `name` run.
        let behind = IdPartners { ids: vec![100, 101, 450], ..Default::default() };
        let (rows, misses_behind, _, _, _) =
            scan(vec![id_filter(CmpOp::Ge, 300), partner(&behind)]);
        assert_eq!(assembled(&rows), vec![450]);
        assert_eq!(behind.asked.get(), (300..600).filter(shredded).count());
        assert_eq!(misses_behind - misses_nobody, 1);
        let spilled = (0..600).filter(|i| i % 17 != 3 && i % 10 == 7).count();
        assert_eq!(rows.iter().filter(|r| matches!(r.kind, ProjKind::Row(_))).count(), spilled);

        // A row without the key field is not decided: `flag`, set on every
        // fifth row, lives in the rest record.
        let no_flag = IdPartners::default();
        let (rows, ..) = scan(vec![ColumnFilter::Partner { field: "flag".into(), test: &no_flag }]);
        let kept: Vec<u32> = (0..600).filter(|i| shredded(i) && i % 5 != 0).collect();
        assert_eq!(assembled(&rows), kept);
        assert_eq!(no_flag.asked.get(), (0..600).filter(|i| shredded(i) && i % 5 == 0).count());
    }

    /// A reader that holds the component keeps reading after `destroy()`.
    #[test]
    fn reads_survive_destroy_through_the_held_descriptor() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 300, &opts);
        c.destroy().unwrap();
        assert!(!c.path().exists());
        assert_eq!(c.get(&key(7)).unwrap().unwrap().value, record_value(7));
        assert_eq!(c.range(None, None).count(), 300);
    }

    #[test]
    fn scavenge_deletes_torn_columnar_component() {
        let dir = TempDir::new().unwrap();
        let opts = columnar_opts();
        let c = build_columnar_n(dir.path(), 300, &opts);
        let path = c.path().to_path_buf();
        drop(c);
        // Tear the file mid-footer: the validity marker survives but the
        // group directory can no longer be addressed.
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 40).unwrap();
        drop(f);
        assert!(path.with_extension("valid").exists());
        assert!(DiskComponent::validate(&path).is_err());
        let valid = DiskComponent::scavenge_dir(dir.path()).unwrap();
        assert!(valid.is_empty());
        assert!(!path.exists());
        assert!(!path.with_extension("valid").exists());
    }
}
