//! # asterix-metadata — the system catalog, stored as data
//!
//! "AsterixDB eats its own dog food with respect to system catalogs —
//! AsterixDB metadata is AsterixDB data" (§3, Query 1). This crate holds
//! the catalog structures (dataverses, datatypes, datasets, indexes,
//! functions, feeds) and can render them as ADM records so that queries
//! over `Metadata.Dataset`, `Metadata.Index`, and friends work exactly like
//! queries over user data.

use std::collections::BTreeMap;

use asterix_adm::{Datatype, Record, TypeRegistry, Value};

/// Index kinds, mirroring §2.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKindMeta {
    BTree,
    RTree,
    Keyword,
    NGram(usize),
}

impl IndexKindMeta {
    pub fn name(&self) -> String {
        match self {
            IndexKindMeta::BTree => "BTREE".into(),
            IndexKindMeta::RTree => "RTREE".into(),
            IndexKindMeta::Keyword => "KEYWORD".into(),
            IndexKindMeta::NGram(k) => format!("NGRAM({k})"),
        }
    }
}

/// A secondary index declaration.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub name: String,
    pub fields: Vec<String>,
    pub kind: IndexKindMeta,
}

/// Internal (managed) vs. external (in-situ) datasets (§2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetKind {
    Internal,
    External { adaptor: String, properties: Vec<(String, String)> },
}

/// A dataset declaration.
#[derive(Debug, Clone)]
pub struct DatasetMeta {
    pub dataverse: String,
    pub name: String,
    pub type_name: String,
    pub primary_key: Vec<String>,
    /// Auto-generate the (single-field) primary key on insert when the
    /// record omits it — the paper's announced next-release feature.
    pub autogenerated: bool,
    pub kind: DatasetKind,
    pub indexes: Vec<IndexMeta>,
}

impl DatasetMeta {
    /// Dataverse-qualified name.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.dataverse, self.name)
    }
}

/// A stored user-defined function (§2.5). The body is kept as AQL source
/// and re-parsed at use (metadata must not depend on the parser).
#[derive(Debug, Clone)]
pub struct FunctionMeta {
    pub name: String,
    pub params: Vec<String>,
    pub body_src: String,
}

/// A feed declaration (§2.4).
#[derive(Debug, Clone)]
pub struct FeedMeta {
    pub name: String,
    pub adaptor: String,
    pub properties: Vec<(String, String)>,
    /// For secondary feeds: the feed this one cascades from (§2.4).
    pub parent: Option<String>,
    /// Datasets this feed is currently connected to.
    pub connections: Vec<String>,
}

/// One dataverse: types, datasets, functions, feeds.
#[derive(Debug, Clone, Default)]
pub struct Dataverse {
    pub types: TypeRegistry,
    pub datasets: BTreeMap<String, DatasetMeta>,
    pub functions: BTreeMap<String, FunctionMeta>,
    pub feeds: BTreeMap<String, FeedMeta>,
}

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogError(pub String);

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "catalog error: {}", self.0)
    }
}

impl std::error::Error for CatalogError {}

type CResult<T> = Result<T, CatalogError>;

/// The system catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    dataverses: BTreeMap<String, Dataverse>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

/// The reserved system dataverse.
pub const METADATA_DATAVERSE: &str = "Metadata";

/// Live system views served by the instance (not the catalog): queryable
/// pseudo-datasets in the Metadata dataverse whose records are computed at
/// scan time from runtime state.
pub const ACTIVE_JOBS_DATASET: &str = "ActiveJobs";
pub const METRICS_DATASET: &str = "Metrics";

impl Catalog {
    /// A new catalog containing only the Metadata dataverse.
    pub fn new() -> Catalog {
        let mut dataverses = BTreeMap::new();
        dataverses.insert(METADATA_DATAVERSE.to_string(), Dataverse::default());
        Catalog { dataverses }
    }

    pub fn create_dataverse(&mut self, name: &str) -> CResult<()> {
        if self.dataverses.contains_key(name) {
            return Err(CatalogError(format!("dataverse {name} already exists")));
        }
        self.dataverses.insert(name.to_string(), Dataverse::default());
        Ok(())
    }

    pub fn drop_dataverse(&mut self, name: &str) -> CResult<Dataverse> {
        if name == METADATA_DATAVERSE {
            return Err(CatalogError("cannot drop the Metadata dataverse".into()));
        }
        self.dataverses
            .remove(name)
            .ok_or_else(|| CatalogError(format!("unknown dataverse {name}")))
    }

    pub fn dataverse(&self, name: &str) -> Option<&Dataverse> {
        self.dataverses.get(name)
    }

    pub fn dataverse_mut(&mut self, name: &str) -> CResult<&mut Dataverse> {
        self.dataverses
            .get_mut(name)
            .ok_or_else(|| CatalogError(format!("unknown dataverse {name}")))
    }

    /// Define a type in a dataverse.
    pub fn create_type(&mut self, dataverse: &str, name: &str, ty: Datatype) -> CResult<()> {
        let dv = self.dataverse_mut(dataverse)?;
        if dv.types.get(name).is_some() {
            return Err(CatalogError(format!("type {dataverse}.{name} already exists")));
        }
        dv.types.define(name, ty);
        Ok(())
    }

    pub fn drop_type(&mut self, dataverse: &str, name: &str) -> CResult<()> {
        let dv = self.dataverse_mut(dataverse)?;
        // Refuse while in use by a dataset (the §5.2 metadata-compatibility
        // lesson argues for defensive catalogs).
        if dv.datasets.values().any(|d| d.type_name == name) {
            return Err(CatalogError(format!("type {name} is in use by a dataset")));
        }
        dv.types
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| CatalogError(format!("unknown type {dataverse}.{name}")))
    }

    pub fn create_dataset(&mut self, meta: DatasetMeta) -> CResult<()> {
        let dv = self.dataverse_mut(&meta.dataverse.clone())?;
        if dv.types.get(&meta.type_name).is_none() {
            return Err(CatalogError(format!(
                "unknown type {} for dataset {}",
                meta.type_name, meta.name
            )));
        }
        if dv.datasets.contains_key(&meta.name) {
            return Err(CatalogError(format!("dataset {} already exists", meta.qualified())));
        }
        dv.datasets.insert(meta.name.clone(), meta);
        Ok(())
    }

    pub fn drop_dataset(&mut self, dataverse: &str, name: &str) -> CResult<DatasetMeta> {
        let dv = self.dataverse_mut(dataverse)?;
        dv.datasets
            .remove(name)
            .ok_or_else(|| CatalogError(format!("unknown dataset {dataverse}.{name}")))
    }

    pub fn dataset(&self, dataverse: &str, name: &str) -> Option<&DatasetMeta> {
        self.dataverses.get(dataverse).and_then(|dv| dv.datasets.get(name))
    }

    /// Resolve a (possibly unqualified) dataset name against a default
    /// dataverse; returns the qualified name.
    pub fn resolve_dataset(&self, default_dv: &str, name: &str) -> Option<String> {
        if let Some((dv, n)) = name.split_once('.') {
            return self.dataset(dv, n).map(|d| d.qualified());
        }
        self.dataset(default_dv, name).map(|d| d.qualified())
    }

    pub fn add_index(&mut self, dataverse: &str, dataset: &str, ix: IndexMeta) -> CResult<()> {
        let dv = self.dataverse_mut(dataverse)?;
        let ds = dv
            .datasets
            .get_mut(dataset)
            .ok_or_else(|| CatalogError(format!("unknown dataset {dataverse}.{dataset}")))?;
        if ds.kind != DatasetKind::Internal {
            // §2.3: "indexes cannot be created on [external datasets]".
            return Err(CatalogError("indexes cannot be created on external datasets".into()));
        }
        if ds.indexes.iter().any(|i| i.name == ix.name) {
            return Err(CatalogError(format!("index {} already exists", ix.name)));
        }
        ds.indexes.push(ix);
        Ok(())
    }

    pub fn drop_index(&mut self, dataverse: &str, dataset: &str, name: &str) -> CResult<()> {
        let dv = self.dataverse_mut(dataverse)?;
        let ds = dv
            .datasets
            .get_mut(dataset)
            .ok_or_else(|| CatalogError(format!("unknown dataset {dataverse}.{dataset}")))?;
        let before = ds.indexes.len();
        ds.indexes.retain(|i| i.name != name);
        if ds.indexes.len() == before {
            return Err(CatalogError(format!("unknown index {name}")));
        }
        Ok(())
    }

    /// Every dataset across dataverses.
    pub fn all_datasets(&self) -> impl Iterator<Item = &DatasetMeta> {
        self.dataverses.values().flat_map(|dv| dv.datasets.values())
    }

    // -- dog food: the catalog rendered as ADM records ------------------------

    /// Records of `Metadata.Dataverse`.
    pub fn dataverse_records(&self) -> Vec<Value> {
        self.dataverses
            .keys()
            .map(|name| {
                Value::record(Record::from_fields([("DataverseName", Value::string(name))]))
            })
            .collect()
    }

    /// Records of `Metadata.Dataset` (Query 1's first target).
    pub fn dataset_records(&self) -> Vec<Value> {
        self.all_datasets()
            .map(|d| {
                Value::record(Record::from_fields([
                    ("DataverseName", Value::string(&d.dataverse)),
                    ("DatasetName", Value::string(&d.name)),
                    ("DatatypeName", Value::string(&d.type_name)),
                    (
                        "DatasetType",
                        Value::string(match d.kind {
                            DatasetKind::Internal => "INTERNAL",
                            DatasetKind::External { .. } => "EXTERNAL",
                        }),
                    ),
                    (
                        "PrimaryKey",
                        Value::ordered_list(d.primary_key.iter().map(Value::string).collect()),
                    ),
                ]))
            })
            .collect()
    }

    /// Records of `Metadata.Index` (Query 1's second target). Each dataset
    /// contributes its primary index plus its secondary indexes, as in
    /// AsterixDB.
    pub fn index_records(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for d in self.all_datasets() {
            if d.kind == DatasetKind::Internal {
                out.push(Value::record(Record::from_fields([
                    ("DataverseName", Value::string(&d.dataverse)),
                    ("DatasetName", Value::string(&d.name)),
                    ("IndexName", Value::string(&d.name)), // primary
                    ("IndexStructure", Value::string("BTREE")),
                    (
                        "SearchKey",
                        Value::ordered_list(d.primary_key.iter().map(Value::string).collect()),
                    ),
                    ("IsPrimary", Value::Boolean(true)),
                ])));
            }
            for ix in &d.indexes {
                out.push(Value::record(Record::from_fields([
                    ("DataverseName", Value::string(&d.dataverse)),
                    ("DatasetName", Value::string(&d.name)),
                    ("IndexName", Value::string(&ix.name)),
                    ("IndexStructure", Value::string(ix.kind.name())),
                    (
                        "SearchKey",
                        Value::ordered_list(ix.fields.iter().map(Value::string).collect()),
                    ),
                    ("IsPrimary", Value::Boolean(false)),
                ])));
            }
        }
        out
    }

    /// Records of `Metadata.Datatype`.
    pub fn datatype_records(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for (dv_name, dv) in &self.dataverses {
            for ty_name in dv.types.names() {
                let ty = dv.types.get(ty_name).unwrap();
                out.push(Value::record(Record::from_fields([
                    ("DataverseName", Value::string(dv_name)),
                    ("DatatypeName", Value::string(ty_name)),
                    ("Derived", Value::string(format!("{ty}"))),
                ])));
            }
        }
        out
    }

    /// Records of `Metadata.Function`.
    pub fn function_records(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for (dv_name, dv) in &self.dataverses {
            for f in dv.functions.values() {
                out.push(Value::record(Record::from_fields([
                    ("DataverseName", Value::string(dv_name)),
                    ("Name", Value::string(&f.name)),
                    ("Arity", Value::Int64(f.params.len() as i64)),
                    ("Params", Value::ordered_list(f.params.iter().map(Value::string).collect())),
                    ("Definition", Value::string(&f.body_src)),
                ])));
            }
        }
        out
    }

    /// Records of `Metadata.Feed`.
    pub fn feed_records(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for (dv_name, dv) in &self.dataverses {
            for f in dv.feeds.values() {
                out.push(Value::record(Record::from_fields([
                    ("DataverseName", Value::string(dv_name)),
                    ("FeedName", Value::string(&f.name)),
                    ("Adaptor", Value::string(&f.adaptor)),
                    (
                        "Connections",
                        Value::ordered_list(f.connections.iter().map(Value::string).collect()),
                    ),
                ])));
            }
        }
        out
    }

    /// The virtual datasets of the Metadata dataverse, by name.
    pub fn metadata_dataset_records(&self, name: &str) -> Option<Vec<Value>> {
        match name {
            "Dataverse" => Some(self.dataverse_records()),
            "Dataset" => Some(self.dataset_records()),
            "Index" => Some(self.index_records()),
            "Datatype" => Some(self.datatype_records()),
            "Function" => Some(self.function_records()),
            "Feed" => Some(self.feed_records()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::{PrimitiveType, RecordTypeBuilder};

    fn user_type() -> Datatype {
        RecordTypeBuilder::open().field("id", Datatype::Primitive(PrimitiveType::Int32)).build()
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_dataverse("TinySocial").unwrap();
        c.create_type("TinySocial", "MugshotUserType", user_type()).unwrap();
        c.create_dataset(DatasetMeta {
            dataverse: "TinySocial".into(),
            name: "MugshotUsers".into(),
            type_name: "MugshotUserType".into(),
            primary_key: vec!["id".into()],
            autogenerated: false,
            kind: DatasetKind::Internal,
            indexes: vec![],
        })
        .unwrap();
        c.add_index(
            "TinySocial",
            "MugshotUsers",
            IndexMeta {
                name: "msUserSinceIdx".into(),
                fields: vec!["user-since".into()],
                kind: IndexKindMeta::BTree,
            },
        )
        .unwrap();
        c
    }

    #[test]
    fn create_and_resolve() {
        let c = sample_catalog();
        assert_eq!(
            c.resolve_dataset("TinySocial", "MugshotUsers"),
            Some("TinySocial.MugshotUsers".into())
        );
        assert_eq!(
            c.resolve_dataset("Other", "TinySocial.MugshotUsers"),
            Some("TinySocial.MugshotUsers".into())
        );
        assert_eq!(c.resolve_dataset("TinySocial", "Nope"), None);
    }

    #[test]
    fn duplicate_creation_fails() {
        let mut c = sample_catalog();
        assert!(c.create_dataverse("TinySocial").is_err());
        assert!(c.create_type("TinySocial", "MugshotUserType", user_type()).is_err());
        assert!(c
            .create_dataset(DatasetMeta {
                dataverse: "TinySocial".into(),
                name: "MugshotUsers".into(),
                type_name: "MugshotUserType".into(),
                primary_key: vec!["id".into()],
                autogenerated: false,
                kind: DatasetKind::Internal,
                indexes: vec![],
            })
            .is_err());
    }

    #[test]
    fn type_in_use_cannot_drop() {
        let mut c = sample_catalog();
        assert!(c.drop_type("TinySocial", "MugshotUserType").is_err());
        c.drop_dataset("TinySocial", "MugshotUsers").unwrap();
        assert!(c.drop_type("TinySocial", "MugshotUserType").is_ok());
    }

    #[test]
    fn metadata_dataverse_is_protected() {
        let mut c = Catalog::new();
        assert!(c.drop_dataverse("Metadata").is_err());
    }

    #[test]
    fn dog_food_records() {
        let c = sample_catalog();
        let datasets = c.dataset_records();
        assert_eq!(datasets.len(), 1);
        assert_eq!(datasets[0].field("DatasetName"), Value::string("MugshotUsers"));
        // Primary + secondary index records.
        let indexes = c.index_records();
        assert_eq!(indexes.len(), 2);
        assert!(indexes.iter().any(|r| r.field("IsPrimary") == Value::Boolean(true)));
        assert!(indexes.iter().any(|r| r.field("IndexName") == Value::string("msUserSinceIdx")));
        assert!(c.metadata_dataset_records("Index").is_some());
        assert!(c.metadata_dataset_records("NoSuch").is_none());
    }

    #[test]
    fn external_dataset_rejects_indexes() {
        let mut c = Catalog::new();
        c.create_dataverse("DV").unwrap();
        c.create_type("DV", "T", user_type()).unwrap();
        c.create_dataset(DatasetMeta {
            dataverse: "DV".into(),
            name: "Ext".into(),
            type_name: "T".into(),
            primary_key: vec![],
            autogenerated: false,
            kind: DatasetKind::External { adaptor: "localfs".into(), properties: vec![] },
            indexes: vec![],
        })
        .unwrap();
        let err = c
            .add_index(
                "DV",
                "Ext",
                IndexMeta {
                    name: "ix".into(),
                    fields: vec!["a".into()],
                    kind: IndexKindMeta::BTree,
                },
            )
            .unwrap_err();
        assert!(err.0.contains("external"));
    }
}
