//! The ADM type system: Datatypes with open and closed record types.
//!
//! Section 2.1: a Datatype tells AsterixDB, a priori, what it should know
//! about data stored in a Dataset. Open record types admit extra fields at
//! the instance level; closed types do not. Optional fields (`?`) may be
//! missing or null, but when present must conform.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{AdmError, Result};
use crate::value::Value;

/// Tags for the primitive ADM types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveType {
    Boolean,
    Int8,
    Int16,
    Int32,
    Int64,
    Float,
    Double,
    String,
    Date,
    Time,
    DateTime,
    Duration,
    YearMonthDuration,
    DayTimeDuration,
    Interval,
    Point,
    Line,
    Rectangle,
    Circle,
    Polygon,
    Binary,
    /// `null` as a type (rarely declared, but valid).
    Null,
    /// The `any` wildcard — every value conforms.
    Any,
}

impl PrimitiveType {
    /// The surface-syntax name used in `create type` statements.
    pub fn name(&self) -> &'static str {
        use PrimitiveType::*;
        match self {
            Boolean => "boolean",
            Int8 => "int8",
            Int16 => "int16",
            Int32 => "int32",
            Int64 => "int64",
            Float => "float",
            Double => "double",
            String => "string",
            Date => "date",
            Time => "time",
            DateTime => "datetime",
            Duration => "duration",
            YearMonthDuration => "year-month-duration",
            DayTimeDuration => "day-time-duration",
            Interval => "interval",
            Point => "point",
            Line => "line",
            Rectangle => "rectangle",
            Circle => "circle",
            Polygon => "polygon",
            Binary => "binary",
            Null => "null",
            Any => "any",
        }
    }

    /// Resolve a surface-syntax type name (accepting common aliases).
    pub fn from_name(name: &str) -> Option<PrimitiveType> {
        use PrimitiveType::*;
        Some(match name {
            "boolean" => Boolean,
            "int8" | "tinyint" => Int8,
            "int16" | "smallint" => Int16,
            "int32" | "int" | "integer" => Int32,
            "int64" | "bigint" => Int64,
            "float" => Float,
            "double" => Double,
            "string" => String,
            "date" => Date,
            "time" => Time,
            "datetime" => DateTime,
            "duration" => Duration,
            "year-month-duration" => YearMonthDuration,
            "day-time-duration" => DayTimeDuration,
            "interval" => Interval,
            "point" => Point,
            "line" => Line,
            "rectangle" => Rectangle,
            "circle" => Circle,
            "polygon" => Polygon,
            "binary" => Binary,
            "null" => Null,
            "any" => Any,
            _ => return None,
        })
    }
}

/// One declared field of a record type.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldType {
    pub name: String,
    pub ty: Datatype,
    /// `true` for fields declared with a trailing `?` — may be missing/null.
    pub optional: bool,
}

/// A record type: declared fields plus the open/closed flag.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordType {
    pub fields: Vec<FieldType>,
    /// Open types admit undeclared extra fields (the default, §2.1).
    pub open: bool,
}

impl RecordType {
    pub fn field(&self, name: &str) -> Option<&FieldType> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// An ADM Datatype: primitive, record, list, or a reference to a named type.
#[derive(Debug, Clone, PartialEq)]
pub enum Datatype {
    Primitive(PrimitiveType),
    Record(Arc<RecordType>),
    /// `[ T ]` — an ordered list of `T`.
    OrderedList(Arc<Datatype>),
    /// `{{ T }}` — a bag of `T`.
    UnorderedList(Arc<Datatype>),
    /// A reference to a named type, resolved against a [`TypeRegistry`].
    Named(String),
}

impl Datatype {
    pub fn any() -> Datatype {
        Datatype::Primitive(PrimitiveType::Any)
    }

    pub fn as_record(&self) -> Option<&RecordType> {
        match self {
            Datatype::Record(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datatype::Primitive(p) => write!(f, "{}", p.name()),
            Datatype::Named(n) => write!(f, "{n}"),
            Datatype::OrderedList(t) => write!(f, "[{t}]"),
            Datatype::UnorderedList(t) => write!(f, "{{{{{t}}}}}"),
            Datatype::Record(r) => {
                write!(f, "{}{{ ", if r.open { "open " } else { "closed " })?;
                for (i, fld) in r.fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}{}", fld.name, fld.ty, if fld.optional { "?" } else { "" })?;
                }
                write!(f, " }}")
            }
        }
    }
}

/// A registry of named Datatypes belonging to a Dataverse.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    types: BTreeMap<String, Datatype>,
}

impl TypeRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn define(&mut self, name: impl Into<String>, ty: Datatype) {
        self.types.insert(name.into(), ty);
    }

    pub fn get(&self, name: &str) -> Option<&Datatype> {
        self.types.get(name)
    }

    pub fn remove(&mut self, name: &str) -> Option<Datatype> {
        self.types.remove(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.types.keys().map(|s| s.as_str())
    }

    /// Resolve `Named` references (transitively) to a concrete type.
    pub fn resolve<'a>(&'a self, ty: &'a Datatype) -> Result<Datatype> {
        match ty {
            Datatype::Named(n) => {
                let inner = self
                    .get(n)
                    .ok_or_else(|| AdmError::TypeMismatch(format!("unknown type {n}")))?;
                self.resolve(inner)
            }
            other => Ok(other.clone()),
        }
    }

    /// Validate `value` against `ty` (Section 2.1 semantics).
    ///
    /// * Closed records reject undeclared fields.
    /// * Open records accept extra fields of any type.
    /// * Optional fields may be missing or null.
    /// * Numeric values are accepted at any declared integer/float width
    ///   that can represent them (insert coercion is done separately).
    pub fn validate(&self, value: &Value, ty: &Datatype) -> Result<()> {
        match ty {
            Datatype::Named(n) => {
                let resolved = self
                    .get(n)
                    .ok_or_else(|| AdmError::TypeMismatch(format!("unknown type {n}")))?
                    .clone();
                self.validate(value, &resolved)
            }
            Datatype::Primitive(p) => self.validate_primitive(value, *p),
            Datatype::OrderedList(elem) => match value {
                Value::OrderedList(items) => {
                    for (i, v) in items.iter().enumerate() {
                        self.validate(v, elem).map_err(|e| {
                            AdmError::TypeMismatch(format!("list element {i}: {e}"))
                        })?;
                    }
                    Ok(())
                }
                other => Err(AdmError::TypeMismatch(format!(
                    "expected ordered list, got {}",
                    other.type_name()
                ))),
            },
            Datatype::UnorderedList(elem) => match value {
                Value::UnorderedList(items) => {
                    for (i, v) in items.iter().enumerate() {
                        self.validate(v, elem)
                            .map_err(|e| AdmError::TypeMismatch(format!("bag element {i}: {e}")))?;
                    }
                    Ok(())
                }
                other => Err(AdmError::TypeMismatch(format!(
                    "expected unordered list (bag), got {}",
                    other.type_name()
                ))),
            },
            Datatype::Record(rt) => {
                let rec = value.as_record().ok_or_else(|| {
                    AdmError::TypeMismatch(format!("expected record, got {}", value.type_name()))
                })?;
                for fld in &rt.fields {
                    match rec.get(&fld.name) {
                        None | Some(Value::Missing) => {
                            if !fld.optional {
                                return Err(AdmError::TypeMismatch(format!(
                                    "missing required field '{}'",
                                    fld.name
                                )));
                            }
                        }
                        Some(Value::Null) if fld.optional => {}
                        Some(v) => self.validate(v, &fld.ty).map_err(|e| {
                            AdmError::TypeMismatch(format!("field '{}': {e}", fld.name))
                        })?,
                    }
                }
                if !rt.open {
                    for (name, _) in rec.iter() {
                        if rt.field(name).is_none() {
                            return Err(AdmError::TypeMismatch(format!(
                                "closed type does not allow extra field '{name}'"
                            )));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn validate_primitive(&self, value: &Value, p: PrimitiveType) -> Result<()> {
        use PrimitiveType as P;
        let ok = match (p, value) {
            (P::Any, _) => true,
            (P::Null, Value::Null) => true,
            (P::Boolean, Value::Boolean(_)) => true,
            // Integers conform to a declared width when representable there.
            (P::Int8, v) => v.as_i64().is_some_and(|i| i8::try_from(i).is_ok()),
            (P::Int16, v) => v.as_i64().is_some_and(|i| i16::try_from(i).is_ok()),
            (P::Int32, v) => v.as_i64().is_some_and(|i| i32::try_from(i).is_ok()),
            (P::Int64, v) => v.as_i64().is_some(),
            (P::Float, v) => v.is_numeric(),
            (P::Double, v) => v.is_numeric(),
            (P::String, Value::String(_)) => true,
            (P::Date, Value::Date(_)) => true,
            (P::Time, Value::Time(_)) => true,
            (P::DateTime, Value::DateTime(_)) => true,
            (P::Duration, Value::Duration(_)) => true,
            (P::Duration, Value::YearMonthDuration(_)) => true,
            (P::Duration, Value::DayTimeDuration(_)) => true,
            (P::YearMonthDuration, Value::YearMonthDuration(_)) => true,
            (P::DayTimeDuration, Value::DayTimeDuration(_)) => true,
            (P::Interval, Value::Interval(_)) => true,
            (P::Point, Value::Point(_)) => true,
            (P::Line, Value::Line(_)) => true,
            (P::Rectangle, Value::Rectangle(_)) => true,
            (P::Circle, Value::Circle(_)) => true,
            (P::Polygon, Value::Polygon(_)) => true,
            (P::Binary, Value::Binary(_)) => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(AdmError::TypeMismatch(format!("expected {}, got {}", p.name(), value.type_name())))
        }
    }

    /// Coerce integer literals to the declared width on the storage path,
    /// so an `int32`-typed field stores `Value::Int32` even when the parser
    /// produced an `Int64` literal. Leaves everything else untouched.
    pub fn coerce(&self, value: &Value, ty: &Datatype) -> Result<Value> {
        match ty {
            Datatype::Named(n) => {
                let resolved = self
                    .get(n)
                    .ok_or_else(|| AdmError::TypeMismatch(format!("unknown type {n}")))?
                    .clone();
                self.coerce(value, &resolved)
            }
            Datatype::Primitive(p) => {
                use PrimitiveType as P;
                Ok(match (p, value) {
                    (P::Int8, v) if v.as_i64().is_some() => crate::value::coerce_int(v, "int8")?,
                    (P::Int16, v) if v.as_i64().is_some() => crate::value::coerce_int(v, "int16")?,
                    (P::Int32, v) if v.as_i64().is_some() => crate::value::coerce_int(v, "int32")?,
                    (P::Int64, v) if v.as_i64().is_some() => Value::Int64(v.as_i64().unwrap()),
                    (P::Float, v) if v.is_numeric() => Value::Float(v.as_f64().unwrap() as f32),
                    (P::Double, v) if v.is_numeric() => Value::Double(v.as_f64().unwrap()),
                    _ => value.clone(),
                })
            }
            Datatype::OrderedList(elem) => match value {
                Value::OrderedList(items) => {
                    let coerced: Result<Vec<Value>> =
                        items.iter().map(|v| self.coerce(v, elem)).collect();
                    Ok(Value::ordered_list(coerced?))
                }
                other => Ok(other.clone()),
            },
            Datatype::UnorderedList(elem) => match value {
                Value::UnorderedList(items) => {
                    let coerced: Result<Vec<Value>> =
                        items.iter().map(|v| self.coerce(v, elem)).collect();
                    Ok(Value::unordered_list(coerced?))
                }
                other => Ok(other.clone()),
            },
            Datatype::Record(rt) => match value {
                Value::Record(rec) => {
                    let mut out = crate::value::Record::with_capacity(rec.len());
                    for (name, v) in rec.iter() {
                        let coerced = match rt.field(name) {
                            Some(f) => self.coerce(v, &f.ty)?,
                            None => v.clone(),
                        };
                        out.push_unchecked(name, coerced);
                    }
                    Ok(Value::record(out))
                }
                other => Ok(other.clone()),
            },
        }
    }
}

/// Builder for record types, used by tests and the metadata bootstrap.
pub struct RecordTypeBuilder {
    fields: Vec<FieldType>,
    open: bool,
}

impl RecordTypeBuilder {
    pub fn open() -> Self {
        RecordTypeBuilder { fields: Vec::new(), open: true }
    }

    pub fn closed() -> Self {
        RecordTypeBuilder { fields: Vec::new(), open: false }
    }

    pub fn field(mut self, name: impl Into<String>, ty: Datatype) -> Self {
        self.fields.push(FieldType { name: name.into(), ty, optional: false });
        self
    }

    pub fn optional_field(mut self, name: impl Into<String>, ty: Datatype) -> Self {
        self.fields.push(FieldType { name: name.into(), ty, optional: true });
        self
    }

    pub fn build(self) -> Datatype {
        Datatype::Record(Arc::new(RecordType { fields: self.fields, open: self.open }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Record;

    fn p(t: PrimitiveType) -> Datatype {
        Datatype::Primitive(t)
    }

    #[test]
    fn open_type_allows_extra_fields() {
        let ty = RecordTypeBuilder::open()
            .field("id", p(PrimitiveType::Int32))
            .field("name", p(PrimitiveType::String))
            .build();
        let reg = TypeRegistry::new();
        let v = Value::record(Record::from_fields([
            ("id", Value::Int32(1)),
            ("name", Value::string("a")),
            ("extra", Value::Boolean(true)),
        ]));
        assert!(reg.validate(&v, &ty).is_ok());
    }

    #[test]
    fn closed_type_rejects_extra_fields() {
        let ty = RecordTypeBuilder::closed().field("id", p(PrimitiveType::Int32)).build();
        let reg = TypeRegistry::new();
        let v = Value::record(Record::from_fields([
            ("id", Value::Int32(1)),
            ("extra", Value::Boolean(true)),
        ]));
        let err = reg.validate(&v, &ty).unwrap_err();
        assert!(matches!(err, AdmError::TypeMismatch(_)), "{err}");
    }

    #[test]
    fn required_field_must_be_present() {
        let ty = RecordTypeBuilder::open()
            .field("id", p(PrimitiveType::Int32))
            .optional_field("end-date", p(PrimitiveType::Date))
            .build();
        let reg = TypeRegistry::new();
        let missing_required = Value::record(Record::from_fields([("end-date", Value::Date(0))]));
        assert!(reg.validate(&missing_required, &ty).is_err());
        let ok = Value::record(Record::from_fields([("id", Value::Int32(1))]));
        assert!(reg.validate(&ok, &ty).is_ok());
        let with_null_opt = Value::record(Record::from_fields([
            ("id", Value::Int32(1)),
            ("end-date", Value::Null),
        ]));
        assert!(reg.validate(&with_null_opt, &ty).is_ok());
    }

    #[test]
    fn named_type_resolution_and_nested_lists() {
        let mut reg = TypeRegistry::new();
        reg.define(
            "EmploymentType",
            RecordTypeBuilder::open()
                .field("organization-name", p(PrimitiveType::String))
                .field("start-date", p(PrimitiveType::Date))
                .optional_field("end-date", p(PrimitiveType::Date))
                .build(),
        );
        let user_ty = RecordTypeBuilder::open()
            .field("id", p(PrimitiveType::Int32))
            .field(
                "employment",
                Datatype::OrderedList(Arc::new(Datatype::Named("EmploymentType".into()))),
            )
            .field("friend-ids", Datatype::UnorderedList(Arc::new(p(PrimitiveType::Int32))))
            .build();
        let v = Value::record(Record::from_fields([
            ("id", Value::Int32(1)),
            (
                "employment",
                Value::ordered_list(vec![Value::record(Record::from_fields([
                    ("organization-name", Value::string("Kongreen")),
                    ("start-date", Value::Date(15000)),
                ]))]),
            ),
            ("friend-ids", Value::unordered_list(vec![Value::Int32(5), Value::Int32(9)])),
        ]));
        assert!(reg.validate(&v, &user_ty).is_ok());

        // Wrong element type inside the bag.
        let bad = Value::record(Record::from_fields([
            ("id", Value::Int32(1)),
            ("employment", Value::ordered_list(vec![])),
            ("friend-ids", Value::unordered_list(vec![Value::string("not an int")])),
        ]));
        assert!(reg.validate(&bad, &user_ty).is_err());
    }

    #[test]
    fn int_width_conformance_and_coercion() {
        let reg = TypeRegistry::new();
        assert!(reg.validate(&Value::Int64(5), &p(PrimitiveType::Int32)).is_ok());
        assert!(reg.validate(&Value::Int64(5_000_000_000), &p(PrimitiveType::Int32)).is_err());
        let c = reg.coerce(&Value::Int64(5), &p(PrimitiveType::Int32)).unwrap();
        assert_eq!(c, Value::Int32(5));
        let c = reg.coerce(&Value::Int32(5), &p(PrimitiveType::Double)).unwrap();
        assert_eq!(c, Value::Double(5.0));
    }

    #[test]
    fn coerce_recurses_into_records() {
        let ty = RecordTypeBuilder::open().field("id", p(PrimitiveType::Int32)).build();
        let reg = TypeRegistry::new();
        let v = Value::record(Record::from_fields([("id", Value::Int64(7))]));
        let c = reg.coerce(&v, &ty).unwrap();
        assert_eq!(c.field("id"), Value::Int32(7));
    }
}
