//! The wire surface of the engine: a complete repair call — instance
//! *and* request — parsed from untrusted JSON, plus the cache-key
//! hashing that lets a server memoize reports.
//!
//! This is what `fd-serve` speaks. A [`RepairCall`] document looks like:
//!
//! ```json
//! {
//!   "relation": "Office",
//!   "attrs": ["facility", "room", "floor", "city"],
//!   "fds": "facility -> city; facility room -> floor",
//!   "rows": [
//!     {"weight": 2, "values": ["HQ", 322, 3, "Paris"]},
//!     ["HQ", 322, 30, "Madrid"]
//!   ],
//!   "request": {"notion": "s", "optimality": "best"}
//! }
//! ```
//!
//! Rows may be bare value arrays (weight 1) or objects with `weight` /
//! `values`; the `request` object and all of its fields are optional and
//! default to [`RepairRequest::subset`]'s settings. Value conversion
//! inverts the report writer ([`crate::RepairReport::write_json`]): JSON
//! numbers with integral values become [`Value::Int`], strings become
//! [`Value::Str`]. Parsing is strict — unknown request fields are
//! errors, not silent no-ops — and bounded by [`JsonLimits`], so a
//! hostile body can neither crash nor overload the parser.
//!
//! A body is read without a JSON tree: one pass checks its syntax,
//! size and depth and notes where each top-level member starts, then
//! the rows stream off the text into a [`TableBuilder`]. The errors are
//! those a tree reader gives, in the same order: syntax first, then the
//! alphabetically first unknown member, then the schema, then the first
//! bad row as `row {i}: …`, then Δ and the request.

use crate::json::{
    scan_members, write_arr, write_escaped, write_num, Json, JsonError, JsonLimits, Members,
    ObjWriter, Out, Reader,
};
use crate::report::{value_to_json, write_cell};
use crate::request::{Budgets, Notion, Optimality, RepairRequest};
use fd_core::{Cell, FdSet, Mutation, Schema, Table, TableBuilder, Tuple, TupleId, Value};
use fd_urepair::MixedCosts;
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a, the byte-wise hash of symbol keys
/// ([`fd_core::FnvHasher`]), under the name the engine's callers use:
/// cache keys and the framing of [`table_fingerprint`] (schema,
/// dictionary pools, row count). It goes a byte at a time, so it suits
/// short inputs only: the rows themselves go through a word-at-a-time
/// hash instead. Not cryptographic; the full (instance, Δ, knobs) state
/// is fed in with length/tag framing so that accidental collisions stay
/// implausible, and a server verifies every hit against the canonical
/// call anyway.
pub use fd_core::FnvHasher as Fnv64;

/// Why a wire document could not be turned into a [`RepairCall`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description, safe to echo back to the client.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> WireError {
        WireError::new(e.to_string())
    }
}

/// One complete engine invocation as it travels over the wire: the
/// instance (schema, FDs, table) plus the [`RepairRequest`] and the
/// response-shaping options.
#[derive(Clone, Debug)]
pub struct RepairCall {
    /// The (possibly dirty) input table.
    pub table: Table,
    /// The FD set Δ.
    pub fds: FdSet,
    /// What to compute and under which budgets.
    pub request: RepairRequest,
    /// Whether the response should carry real wall-clock timings.
    /// `false` zeroes them, making responses byte-for-byte deterministic
    /// for identical calls (used by the parity tests and friendly to
    /// caches).
    pub include_timings: bool,
}

impl RepairCall {
    /// Parses a wire document under the given limits.
    ///
    /// # Examples
    ///
    /// The exact body `POST /repair` accepts (see `docs/API.md`):
    ///
    /// ```
    /// use fd_engine::{JsonLimits, Notion, Planner, RepairCall, RepairEngine};
    ///
    /// let body = r#"{
    ///     "relation": "Office",
    ///     "attrs": ["facility", "room", "floor", "city"],
    ///     "fds": "facility -> city; facility room -> floor",
    ///     "rows": [
    ///         {"weight": 2, "values": ["HQ", 322, 3, "Paris"]},
    ///         {"weight": 1, "values": ["HQ", 322, 30, "Madrid"]},
    ///         {"weight": 1, "values": ["HQ", 122, 1, "Madrid"]},
    ///         {"weight": 2, "values": ["Lab1", "B35", 3, "London"]}
    ///     ],
    ///     "request": {"notion": "s", "include_timings": false}
    /// }"#;
    /// let call = RepairCall::parse(body, &JsonLimits::UNTRUSTED).unwrap();
    /// assert_eq!(call.request.notion, Notion::Subset);
    ///
    /// // What the server does with it: run the engine, serialize the
    /// // report — Figure 1's optimal subset repair costs 2.
    /// let report = Planner.run(&call.table, &call.fds, &call.request).unwrap();
    /// assert_eq!(report.cost, 2.0);
    /// assert!(report.to_json().starts_with("{\"notion\":\"s\",\"cost\":2,"));
    /// ```
    ///
    /// Unknown fields are rejected, not ignored — a typo in a request
    /// knob is a `400`, never a silently different repair:
    ///
    /// ```
    /// use fd_engine::{JsonLimits, RepairCall};
    ///
    /// let err = RepairCall::parse(
    ///     r#"{"attrs": ["A"], "rows": [[1]], "request": {"notio": "s"}}"#,
    ///     &JsonLimits::UNTRUSTED,
    /// ).unwrap_err();
    /// assert!(err.to_string().contains("unknown request field"));
    /// ```
    pub fn parse(text: &str, limits: &JsonLimits) -> Result<RepairCall, WireError> {
        RepairCall::from_doc(&Doc::read(text, limits)?)
    }

    fn from_doc(doc: &Doc<'_>) -> Result<RepairCall, WireError> {
        check_fields(
            doc,
            &["relation", "attrs", "fds", "rows", "request"],
            &["table_ref"],
            "needs a server-side table store; this entry point only accepts inline tables",
        )?;
        let table = read_table(doc)?;
        let fds = resolve_fds(fds_spec(doc)?.as_deref(), table.schema())?;
        let (request, include_timings) = request_of(doc)?;
        Ok(RepairCall {
            table,
            fds,
            request,
            include_timings,
        })
    }

    /// The call rendered back as a wire document (request fixtures,
    /// tests, benches): [`RepairCall::canonical`], read back.
    pub fn to_json_value(&self) -> Json {
        Json::parse(&self.canonical()).expect("the canonical writer emits valid JSON")
    }

    /// The call's canonical form, the form a server verifies cache hits
    /// against, and the one writer of a call document: written straight
    /// from the table's columns into bytes, with no tree in between.
    /// Read back and written again as a tree, it keeps its text.
    ///
    /// # Examples
    ///
    /// ```
    /// use fd_engine::{JsonLimits, RepairCall};
    ///
    /// let body = r#"{"attrs": ["A"], "rows": [[1], {"values": ["x"]}]}"#;
    /// let call = RepairCall::parse(body, &JsonLimits::UNTRUSTED).unwrap();
    /// assert_eq!(call.canonical(), call.to_json_value().to_string());
    /// ```
    pub fn canonical(&self) -> String {
        let schema = self.table.schema();
        let dict = self.table.dictionary();
        let cols = self.table.sym_cols();
        let mut out = Out::buffer(Vec::with_capacity(
            512 + self.table.len() * (24 + 8 * cols.len()),
        ));
        let mut obj = ObjWriter::begin(&mut out);
        write_escaped(obj.key("relation"), schema.relation());
        write_arr(obj.key("attrs"), schema.attr_names(), |out, a| {
            write_escaped(out, a)
        });
        write_escaped(obj.key("fds"), &self.fd_spec());
        let rows = self.table.weights().iter().enumerate();
        write_arr(obj.key("rows"), rows, |out, (pos, &weight)| {
            out.extend_from_slice(b"{\"weight\":");
            write_num(out, weight);
            out.extend_from_slice(b",\"values\":[");
            for (i, col) in cols.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_cell(out, dict, col[pos]);
            }
            out.extend_from_slice(b"]}");
        });
        obj.field(
            "request",
            &request_to_json(&self.request, self.include_timings),
        );
        obj.end();
        let bytes = out.finish().expect("a buffer has no target to fail");
        String::from_utf8(bytes).expect("the writer emits UTF-8")
    }

    /// Δ as the `"fds"` spec it travels as: `"A -> B; C -> D"`.
    fn fd_spec(&self) -> String {
        let schema = self.table.schema();
        let fds: Vec<String> = self
            .fds
            .iter()
            .map(|fd| {
                format!(
                    "{} -> {}",
                    fd.lhs().display(schema),
                    fd.rhs().display(schema)
                )
            })
            .collect();
        fds.join("; ")
    }

    /// Whether identical calls always produce identical responses — the
    /// precondition for serving a memoized one. Two things break that:
    /// unseeded sampling (nondeterministic repair) and
    /// `include_timings: true` (real wall-clock timings differ per
    /// call, so a replay would serve the first call's timings as if
    /// they were fresh).
    ///
    /// # Examples
    ///
    /// ```
    /// use fd_engine::{JsonLimits, RepairCall};
    ///
    /// let doc = r#"{"attrs": ["A"], "rows": [[1]],
    ///               "request": {"include_timings": false}}"#;
    /// let cached = RepairCall::parse(doc, &JsonLimits::UNTRUSTED).unwrap();
    /// assert!(cached.cacheable());
    ///
    /// // Live timings vary per call, so the default is uncacheable.
    /// let live = RepairCall::parse(
    ///     r#"{"attrs": ["A"], "rows": [[1]]}"#,
    ///     &JsonLimits::UNTRUSTED,
    /// ).unwrap();
    /// assert!(!live.cacheable());
    /// ```
    pub fn cacheable(&self) -> bool {
        deterministic(&self.request, self.include_timings)
    }

    /// The cache key of this call: [`cache_key`] plus the
    /// response-shaping options.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(cache_key(&self.table, &self.fds, &self.request));
        h.write_u8(self.include_timings as u8);
        h.finish()
    }
}

/// A wire document after its one syntax pass: the text, and where each
/// top-level member's value starts (`None` when the document is not an
/// object). Members are read off the text when asked for; of duplicate
/// keys the first wins, as in [`Json::get`].
struct Doc<'a> {
    text: &'a str,
    members: Option<Members<'a>>,
}

impl<'a> Doc<'a> {
    /// Scans `text` whole under `limits`: every syntax, size and depth
    /// error comes out here, before any semantic one.
    fn read(text: &'a str, limits: &JsonLimits) -> Result<Doc<'a>, WireError> {
        Ok(Doc {
            text,
            members: scan_members(text, limits)?,
        })
    }

    fn keys(&self) -> impl Iterator<Item = &str> {
        self.members.iter().flatten().map(|(key, _)| key.as_ref())
    }

    /// A cursor at the value of the first `key` member.
    fn at(&self, key: &str) -> Option<Reader<'a>> {
        let members = self.members.as_ref()?;
        let (_, pos) = members.iter().find(|(k, _)| k == key)?;
        Some(Reader::at(self.text, *pos))
    }

    /// The first `key` member as a tree: for the small members (schema,
    /// request, mutations), never for rows.
    fn get(&self, key: &str) -> Result<Option<Json>, WireError> {
        match self.at(key) {
            None => Ok(None),
            Some(mut value) => Ok(Some(value.tree()?)),
        }
    }
}

/// Reads the interned [`Table`] from a document's `relation` / `attrs`
/// / `rows` members (shared by inline calls and stored-table uploads, so
/// both intern values identically and reports stay byte-compatible).
/// Rows stream off the text into a [`TableBuilder`], one cell at a
/// time.
fn read_table(doc: &Doc<'_>) -> Result<Table, WireError> {
    let relation = doc.get("relation")?;
    let relation = match &relation {
        None => "R",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(WireError::new("\"relation\" must be a string")),
    };
    let attrs = match doc.get("attrs")? {
        Some(Json::Arr(items)) => items
            .into_iter()
            .map(|a| match a {
                Json::Str(s) => Ok(s),
                _ => Err(WireError::new("\"attrs\" must be an array of strings")),
            })
            .collect::<Result<Vec<String>, WireError>>()?,
        _ => {
            return Err(WireError::new(
                "missing \"attrs\": an array of attribute names",
            ))
        }
    };
    let schema =
        Schema::new(relation, attrs).map_err(|e| WireError::new(format!("invalid schema: {e}")))?;
    let mut rows = match doc.at("rows") {
        Some(rows) if rows.peek() == Some(b'[') => rows,
        _ => return Err(WireError::new("missing \"rows\": an array of rows")),
    };
    let mut table = TableBuilder::new(schema.arity());
    let mut cells = Vec::with_capacity(schema.arity());
    let mut i = 0;
    rows.items(|row| {
        let weight = read_row(row, &mut cells)
            .map_err(|e| WireError::new(format!("row {i}: {}", e.message)))?;
        table
            .push_row(cells.iter().map(Scalar::cell), weight)
            .map_err(|e| WireError::new(format!("row {i}: {e}")))?;
        i += 1;
        Ok::<(), WireError>(())
    })?;
    Ok(TableBuilder::finish(schema, [table]))
}

/// Parses a stored-table document — `{relation?, attrs, rows}` and
/// nothing else — as uploaded by `PUT /tables/{id}`. FDs and request
/// knobs travel with each call, never with the stored table, so the
/// same relation can be repaired under different Δ without re-upload.
pub fn parse_table_doc(text: &str, limits: &JsonLimits) -> Result<Table, WireError> {
    let doc = Doc::read(text, limits)?;
    if doc.members.is_none() {
        return Err(WireError::new("the table document must be a JSON object"));
    }
    check_fields(
        &doc,
        &["relation", "attrs", "rows"],
        &["fds", "request"],
        "does not belong in a stored table; send it with each /repair call",
    )?;
    read_table(&doc)
}

/// A `/repair` or `/explain` body, which either inlines its table or
/// references one stored server-side (`"table_ref": "<id>"`).
#[derive(Clone, Debug)]
pub enum ParsedCall {
    /// The classic self-contained document: table, Δ, request.
    Inline(RepairCall),
    /// A by-reference call; the server resolves the table from its
    /// store.
    ByRef(RefCall),
}

impl ParsedCall {
    /// Parses either call shape under the given limits. A document with
    /// `"table_ref"` must not also carry inline table fields.
    pub fn parse(text: &str, limits: &JsonLimits) -> Result<ParsedCall, WireError> {
        let doc = Doc::read(text, limits)?;
        if doc.at("table_ref").is_none() {
            return RepairCall::from_doc(&doc).map(ParsedCall::Inline);
        }
        check_fields(
            &doc,
            &["table_ref", "fds", "request"],
            &["relation", "attrs", "rows"],
            "cannot be combined with \"table_ref\"; the stored table already carries the instance",
        )?;
        let table_ref = match doc.get("table_ref")? {
            Some(Json::Str(s)) if !s.is_empty() => s,
            _ => return Err(WireError::new("\"table_ref\" must be a non-empty string")),
        };
        let fds = fds_spec(&doc)?.map(Cow::into_owned);
        let (request, include_timings) = request_of(&doc)?;
        Ok(ParsedCall::ByRef(RefCall {
            table_ref,
            fds,
            request,
            include_timings,
        }))
    }

    /// What the call computes and under which budgets.
    pub fn request(&self) -> &RepairRequest {
        match self {
            ParsedCall::Inline(call) => &call.request,
            ParsedCall::ByRef(call) => &call.request,
        }
    }

    /// Same determinism rule as [`RepairCall::cacheable`].
    pub fn cacheable(&self) -> bool {
        match self {
            ParsedCall::Inline(call) => call.cacheable(),
            ParsedCall::ByRef(call) => call.cacheable(),
        }
    }
}

/// A by-reference call: everything an inline [`RepairCall`] carries
/// except the table itself, which the server resolves from its store.
#[derive(Clone, Debug)]
pub struct RefCall {
    /// The stored-table id the call runs against.
    pub table_ref: String,
    /// The FD spec, parsed against the *stored* schema at resolve time
    /// (`None` means the empty Δ, like an inline call omitting `fds`).
    pub fds: Option<String>,
    /// What to compute and under which budgets.
    pub request: RepairRequest,
    /// Whether the response should carry real wall-clock timings (see
    /// [`RepairCall::include_timings`]).
    pub include_timings: bool,
}

/// Domain-separation tag for by-reference cache keys: a ref call and an
/// inline call hash different canonical forms, so their key spaces must
/// not overlap.
const REF_KEY_TAG: u64 = 0x72ef_7ab1_e5a7_4e57;

impl RefCall {
    /// Parses the call's FD spec against the stored table's schema.
    pub fn resolve_fds(&self, schema: &Schema) -> Result<FdSet, WireError> {
        resolve_fds(self.fds.as_deref(), schema)
    }

    /// Same determinism rule as [`RepairCall::cacheable`].
    pub fn cacheable(&self) -> bool {
        deterministic(&self.request, self.include_timings)
    }

    /// The cache key of this call against a resolved table. O(Δ +
    /// request): the instance enters through the precomputed
    /// `fingerprint`, never by rehashing rows.
    pub fn cache_key(&self, fingerprint: u64, fds: &FdSet, schema: &Schema) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(REF_KEY_TAG);
        h.write_u64(fingerprint);
        fds.display(schema).hash(&mut h);
        hash_request_knobs(&mut h, &self.request);
        h.write_u8(self.include_timings as u8);
        h.finish()
    }

    /// The canonical form cache hits are verified against — short (no
    /// rows), but pinned to the exact stored table via its fingerprint,
    /// so a re-uploaded id can never replay the old table's bytes.
    pub fn canonical(&self, fingerprint: u64, fds: &FdSet, schema: &Schema) -> String {
        format!(
            "ref:{}\nfp:{:016x}\nfds:{}\n{}",
            self.table_ref,
            fingerprint,
            fds.display(schema),
            request_to_json(&self.request, self.include_timings)
        )
    }
}

/// One table edit as it travels over the wire. `POST
/// /tables/{id}/mutate` bodies carry an array of these under
/// `"mutations"`, and `fdrepair mutate --mutations <file>` replays trace
/// files that are bare JSON arrays of the same objects:
///
/// ```json
/// [
///   {"op": "insert", "values": ["HQ", 322, 3, "Paris"], "weight": 2},
///   {"op": "set", "id": 1, "attr": "city", "value": "Oslo"},
///   {"op": "delete", "id": 0}
/// ]
/// ```
///
/// Unlike [`Mutation`], the wire form names attributes by string and is
/// schema-free; [`WireMutation::resolve`] binds it to a concrete table.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMutation {
    /// Append a row (`"weight"` defaults to 1; the id is assigned by the
    /// table, fresh above every id it has ever used).
    Insert {
        /// The new tuple's values, in schema attribute order.
        values: Vec<Value>,
        /// The new row's weight.
        weight: f64,
    },
    /// Remove the row with this identifier.
    Delete {
        /// The identifier to remove.
        id: u64,
    },
    /// Replace one cell of an existing row.
    Set {
        /// The row to edit.
        id: u64,
        /// The attribute name, resolved against the table's schema.
        attr: String,
        /// The new value.
        value: Value,
    },
}

impl WireMutation {
    /// Builds a wire mutation from a parsed JSON value. Strict like
    /// every other wire parser: unknown ops and unknown fields are
    /// errors, never silent no-ops.
    pub fn from_json(doc: &Json) -> Result<WireMutation, WireError> {
        let Json::Obj(pairs) = doc else {
            return Err(WireError::new("each mutation must be a JSON object"));
        };
        let op = match doc.get("op") {
            Some(Json::Str(s)) => s.as_str(),
            _ => {
                return Err(WireError::new(
                    "each mutation needs an \"op\" of \"insert\", \"delete\" or \"set\"",
                ))
            }
        };
        let allowed: &[&str] = match op {
            "insert" => &["op", "values", "weight"],
            "delete" => &["op", "id"],
            "set" => &["op", "id", "attr", "value"],
            other => return Err(WireError::new(format!("unknown mutation op {other:?}"))),
        };
        if let Some(key) = unknown_key(pairs.iter().map(|(k, _)| k.as_str()), allowed) {
            return Err(WireError::new(format!(
                "unknown field {key:?} in an {op:?} mutation"
            )));
        }
        match op {
            "insert" => {
                let values = match doc.get("values") {
                    Some(Json::Arr(values)) => parse_values(values)?,
                    _ => return Err(WireError::new("\"insert\" needs a \"values\" array")),
                };
                let weight = weight_of(doc)?;
                Ok(WireMutation::Insert { values, weight })
            }
            _ => {
                let id = match doc.get("id") {
                    Some(v) => as_usize("id", v)? as u64,
                    None => return Err(WireError::new(format!("{op:?} needs an \"id\""))),
                };
                if op == "delete" {
                    return Ok(WireMutation::Delete { id });
                }
                let attr = match doc.get("attr") {
                    Some(Json::Str(s)) => s.clone(),
                    _ => return Err(WireError::new("\"set\" needs a string \"attr\"")),
                };
                let value = match doc.get("value") {
                    Some(v) => parse_value(v)?,
                    None => return Err(WireError::new("\"set\" needs a \"value\"")),
                };
                Ok(WireMutation::Set { id, attr, value })
            }
        }
    }

    /// Renders the mutation back as a wire document (trace files, the
    /// fuzzer's shrunk counterexamples, fixtures).
    pub fn to_json_value(&self) -> Json {
        match self {
            WireMutation::Insert { values, weight } => Json::obj([
                ("op", Json::str("insert")),
                (
                    "values",
                    Json::Arr(values.iter().map(value_to_json).collect()),
                ),
                ("weight", (*weight).into()),
            ]),
            WireMutation::Delete { id } => {
                Json::obj([("op", Json::str("delete")), ("id", Json::Num(*id as f64))])
            }
            WireMutation::Set { id, attr, value } => Json::obj([
                ("op", Json::str("set")),
                ("id", Json::Num(*id as f64)),
                ("attr", Json::str(attr.as_str())),
                ("value", value_to_json(value)),
            ]),
        }
    }

    /// Binds the wire form to a concrete schema, yielding the in-memory
    /// [`Mutation`] the engine applies. Unknown attribute names and
    /// out-of-range ids are errors.
    pub fn resolve(&self, schema: &Schema) -> Result<Mutation, WireError> {
        match self {
            WireMutation::Insert { values, weight } => Ok(Mutation::Insert {
                tuple: Tuple::new(values.clone()),
                weight: *weight,
            }),
            WireMutation::Delete { id } => Ok(Mutation::Delete {
                id: wire_tuple_id(*id)?,
            }),
            WireMutation::Set { id, attr, value } => {
                let attr = schema
                    .attr(attr)
                    .map_err(|e| WireError::new(e.to_string()))?;
                Ok(Mutation::SetCell {
                    id: wire_tuple_id(*id)?,
                    attr,
                    value: value.clone(),
                })
            }
        }
    }

    /// The wire form of an in-memory [`Mutation`] — the inverse of
    /// [`WireMutation::resolve`] under the same schema.
    pub fn from_mutation(m: &Mutation, schema: &Schema) -> WireMutation {
        match m {
            Mutation::Insert { tuple, weight } => WireMutation::Insert {
                values: tuple.values().to_vec(),
                weight: *weight,
            },
            Mutation::Delete { id } => WireMutation::Delete {
                id: u64::from(id.0),
            },
            Mutation::SetCell { id, attr, value } => WireMutation::Set {
                id: u64::from(id.0),
                attr: schema.attr_name(*attr).to_string(),
                value: value.clone(),
            },
        }
    }
}

fn wire_tuple_id(id: u64) -> Result<TupleId, WireError> {
    u32::try_from(id)
        .map(TupleId)
        .map_err(|_| WireError::new(format!("tuple id {id} is out of range")))
}

/// Parses a mutation trace — a bare JSON array of mutation objects, the
/// file format `fdrepair mutate --mutations <file>` replays and the
/// fuzzer's shrunk `.trace` counterexamples are written in.
pub fn parse_mutation_trace(
    text: &str,
    limits: &JsonLimits,
) -> Result<Vec<WireMutation>, WireError> {
    let doc = Json::parse_with_limits(text, limits)?;
    mutations_from_json(&doc)
}

fn mutations_from_json(doc: &Json) -> Result<Vec<WireMutation>, WireError> {
    let Json::Arr(items) = doc else {
        return Err(WireError::new("\"mutations\" must be a JSON array"));
    };
    if items.is_empty() {
        return Err(WireError::new("\"mutations\" must not be empty"));
    }
    items.iter().map(WireMutation::from_json).collect()
}

/// A `POST /tables/{id}/mutate` body: the edits to apply, in order, to a
/// stored table, plus the Δ and request the post-mutation repair report
/// answers. Like [`RefCall`], the table itself never travels — the
/// server resolves it (and the live incremental session) from its store.
#[derive(Clone, Debug)]
pub struct MutateCall {
    /// The FD spec, parsed against the *stored* schema at resolve time
    /// (`None` means the empty Δ, like an inline call omitting `fds`).
    pub fds: Option<String>,
    /// What the post-mutation report computes and under which budgets.
    pub request: RepairRequest,
    /// Parsed for symmetry with the other call shapes, but session
    /// reports zero their timings regardless (a spliced answer has no
    /// meaningful wall-clock to report).
    pub include_timings: bool,
    /// The edits, applied in order; at least one.
    pub mutations: Vec<WireMutation>,
}

impl MutateCall {
    /// Parses a mutate body under the given limits. The document is
    /// `{fds?, request?, mutations}` and nothing else; inline table
    /// fields belong in `PUT /tables/{id}`, not here.
    pub fn parse(text: &str, limits: &JsonLimits) -> Result<MutateCall, WireError> {
        let doc = Doc::read(text, limits)?;
        check_fields(
            &doc,
            &["fds", "request", "mutations"],
            &["relation", "attrs", "rows", "table_ref"],
            "does not belong in a mutate call; the URL already names the stored table",
        )?;
        let fds = fds_spec(&doc)?.map(Cow::into_owned);
        let (request, include_timings) = request_of(&doc)?;
        let mutations = match doc.get("mutations")? {
            Some(doc) => mutations_from_json(&doc)?,
            None => return Err(WireError::new("\"mutations\" is required")),
        };
        Ok(MutateCall {
            fds,
            request,
            include_timings,
            mutations,
        })
    }

    /// Parses the call's FD spec against the stored table's schema.
    pub fn resolve_fds(&self, schema: &Schema) -> Result<FdSet, WireError> {
        resolve_fds(self.fds.as_deref(), schema)
    }

    /// The call rendered back as a wire document (fixtures, tests).
    pub fn to_json_value(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(fds) = &self.fds {
            fields.push(("fds", Json::str(fds.as_str())));
        }
        fields.push((
            "request",
            request_to_json(&self.request, self.include_timings),
        ));
        fields.push((
            "mutations",
            Json::Arr(
                self.mutations
                    .iter()
                    .map(WireMutation::to_json_value)
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }

    /// The by-reference `/repair` call whose answer a successful mutate
    /// of table `id` has already computed: same Δ, same request, timings
    /// off. Its [`RefCall::cache_key`] and [`RefCall::canonical`] against
    /// the new snapshot are where a server can publish the mutate's
    /// report, so that the next by-ref read of the table is a cache hit.
    pub fn published_ref(&self, id: &str) -> RefCall {
        RefCall {
            table_ref: id.to_string(),
            fds: self.fds.clone(),
            request: self.request,
            include_timings: false,
        }
    }
}

/// Hashes one engine call — instance, FD set, and every request knob —
/// into the key an LRU result cache indexes by. Deterministic across
/// processes and runs (FNV-1a, no randomized state).
pub fn cache_key(table: &Table, fds: &FdSet, request: &RepairRequest) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(table_fingerprint(table));
    fds.display(table.schema()).hash(&mut h);
    hash_request_knobs(&mut h, request);
    h.finish()
}

/// A deterministic 64-bit digest of one table's content: schema,
/// dictionary pools, row ids, weight bit patterns, and every cell in
/// symbol space. It depends on nothing else — no per-process seed — so
/// the same table hashes the same in every process and run. This is
/// the instance half of [`cache_key`], split out so a server storing
/// tables at rest can hash each table **once** at `PUT` time and key
/// every later by-reference call in O(request) instead of O(rows).
///
/// The framing (schema, pools, row count) goes through [`Fnv64`]; the
/// rows, the bulk of the work, are hashed 8 bytes at a time in four
/// independent multiply lanes, and their digest closes the framing.
/// The values are stable across processes, not across versions that
/// change the hash: a test pins the Figure-1 office table's value, so
/// any such change is deliberate and shows in the docs.
pub fn table_fingerprint(table: &Table) -> u64 {
    // fdlint: allow(O001, "observation only: the span records the row count; the digest is computed from the table alone")
    let mut sp = fd_trace::span("engine/fingerprint");
    sp.attr("rows", table.len());
    let mut h = Fnv64::new();
    let schema = table.schema();
    schema.relation().hash(&mut h);
    schema.attr_names().hash(&mut h);
    // Rows are hashed in symbol space: the dictionary pools pin what
    // each symbol means, then ids/weights/cells are fixed-width words —
    // no per-row value decoding or string traversal.
    table.dictionary().hash_pools(&mut h);
    h.write_usize(table.len());
    let mut rows = RowHash::new();
    rows.u32s(table.id_col(), |id| id.0);
    rows.u64s(table.weights(), f64::to_bits);
    for col in table.sym_cols() {
        rows.u32s(col, fd_core::Sym::raw);
    }
    h.write_u64(rows.finish());
    h.finish()
}

/// The row stream's hash: 64-bit words dealt round-robin to four
/// independent multiply lanes (xxHash64's round), so the multiplies of
/// neighbouring words overlap instead of waiting on each other, then
/// merged and finished with SplitMix64's full avalanche. A round is a
/// bijection of its lane for a fixed word and of the word for a fixed
/// lane, and the merge is a bijection of each lane for fixed others, so
/// two streams of equal length that differ in one word never collide.
struct RowHash([u64; 4]);

const ROW_P1: u64 = 0x9e37_79b1_85eb_ca87;
const ROW_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

impl RowHash {
    fn new() -> RowHash {
        RowHash([
            ROW_P1.wrapping_add(ROW_P2),
            ROW_P2,
            0,
            ROW_P1.wrapping_neg(),
        ])
    }

    #[inline]
    fn round(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(ROW_P2))
            .rotate_left(31)
            .wrapping_mul(ROW_P1)
    }

    /// Feeds `xs` as `raw` words, two to a 64-bit word (the first in
    /// the low half); an odd last one is padded with zero. The lengths
    /// are in the framing, so the padding is unambiguous.
    fn u32s<T: Copy>(&mut self, xs: &[T], raw: impl Fn(T) -> u32) {
        let pair = |lo: T, hi: Option<T>| u64::from(raw(lo)) | u64::from(hi.map_or(0, &raw)) << 32;
        let mut chunks = xs.chunks_exact(8);
        for c in &mut chunks {
            for (lane, acc) in self.0.iter_mut().enumerate() {
                *acc = RowHash::round(*acc, pair(c[2 * lane], Some(c[2 * lane + 1])));
            }
        }
        let tail = chunks.remainder().chunks(2);
        for (acc, c) in self.0.iter_mut().zip(tail) {
            *acc = RowHash::round(*acc, pair(c[0], c.get(1).copied()));
        }
    }

    /// Feeds `xs` as `raw` words, one each.
    fn u64s<T: Copy>(&mut self, xs: &[T], raw: impl Fn(T) -> u64) {
        let mut chunks = xs.chunks_exact(4);
        for c in &mut chunks {
            for (acc, &x) in self.0.iter_mut().zip(c) {
                *acc = RowHash::round(*acc, raw(x));
            }
        }
        for (acc, &x) in self.0.iter_mut().zip(chunks.remainder()) {
            *acc = RowHash::round(*acc, raw(x));
        }
    }

    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.0;
        let mut z = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Feeds every request knob into `h` — the request half of
/// [`cache_key`], shared with the by-reference key so the two key
/// spaces react identically to knob changes.
fn hash_request_knobs(h: &mut Fnv64, request: &RepairRequest) {
    request.notion.name().hash(h);
    match request.optimality {
        Optimality::Best => h.write_u8(0),
        Optimality::Exact => h.write_u8(1),
        Optimality::Approximate { max_ratio } => {
            h.write_u8(2);
            h.write_u64(max_ratio.to_bits());
        }
    }
    let Budgets {
        exact_fallback_limit,
        exact_row_limit,
        exact_node_budget,
        time_cap_ms,
        threads,
        component_exact_limit,
    } = request.budgets;
    h.write_usize(exact_fallback_limit);
    h.write_usize(exact_row_limit);
    h.write_u64(exact_node_budget);
    time_cap_ms.hash(h);
    h.write_usize(threads);
    h.write_usize(component_exact_limit);
    h.write_u64(request.mixed_costs.delete.to_bits());
    h.write_u64(request.mixed_costs.update.to_bits());
    request.seed.hash(h);
}

/// A row value as read off the wire: a string borrowed from the body
/// (owned only when it had escapes), or an integer.
enum Scalar<'a> {
    Int(i64),
    Str(Cow<'a, str>),
}

impl Scalar<'_> {
    fn cell(&self) -> Cell<'_> {
        match self {
            Scalar::Int(i) => Cell::Int(*i),
            Scalar::Str(s) => Cell::Str(s),
        }
    }
}

/// Reads one row into `cells` and returns its weight. A row is either a
/// bare array of values (weight 1), or `{"weight": w, "values": [...]}`
/// (an `"id"` field, as emitted by report tables, is accepted and
/// ignored — ids are reassigned on load). An object row's errors rank:
/// an unknown field (the alphabetically first), then the weight, then
/// the values.
fn read_row<'a>(row: &mut Reader<'a>, cells: &mut Vec<Scalar<'a>>) -> Result<f64, WireError> {
    cells.clear();
    match row.peek() {
        Some(b'[') => read_values(row, cells).map(|()| 1.0),
        Some(b'{') => {
            let mut unknown: Option<Cow<'a, str>> = None;
            let mut weight = None;
            let mut values = None;
            row.members(|key, value| {
                match key.as_ref() {
                    "weight" if weight.is_none() => {
                        weight = Some(if is_number(value.peek()) {
                            Some(value.number()?)
                        } else {
                            value.skip_checked()?;
                            None
                        });
                    }
                    "values" if values.is_none() => {
                        values = Some(if value.peek() == Some(b'[') {
                            read_values(value, cells)
                        } else {
                            value.skip_checked()?;
                            Err(missing_values())
                        });
                    }
                    "weight" | "values" | "id" => value.skip_checked()?,
                    _ => {
                        if unknown.as_ref().is_none_or(|first| key < *first) {
                            unknown = Some(key);
                        }
                        value.skip_checked()?;
                    }
                }
                Ok::<(), WireError>(())
            })?;
            if let Some(key) = unknown {
                return Err(WireError::new(format!("unknown row field {key:?}")));
            }
            let weight = match weight {
                None => 1.0,
                Some(Some(w)) => w,
                Some(None) => return Err(not_a_weight()),
            };
            values.unwrap_or_else(|| Err(missing_values()))?;
            Ok(weight)
        }
        _ => Err(WireError::new(
            "each row must be an array of values or an object with \"values\"",
        )),
    }
}

fn missing_values() -> WireError {
    WireError::new("missing \"values\" array")
}

/// Whether a value starting with `first` is a JSON number: in checked
/// text, whatever is not a literal, a string, an array or an object.
fn is_number(first: Option<u8>) -> bool {
    !matches!(first, None | Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{'))
}

/// Reads a row's values array into `cells`, in order, under
/// [`parse_value`]'s rule. The array is read whole even past a bad
/// value; the first bad value's error comes back then.
fn read_values<'a>(values: &mut Reader<'a>, cells: &mut Vec<Scalar<'a>>) -> Result<(), WireError> {
    let mut bad = None;
    values.items(|value| {
        match value.peek() {
            _ if bad.is_some() => value.skip_checked()?,
            Some(b'"') => cells.push(Scalar::Str(value.string()?)),
            first if is_number(first) => match wire_int(value.number()?) {
                Ok(i) => cells.push(Scalar::Int(i)),
                Err(e) => bad = Some(e),
            },
            _ => bad = Some(not_a_value(&value.tree()?)),
        }
        Ok::<(), WireError>(())
    })?;
    bad.map_or(Ok(()), Err)
}

/// An insert's `"weight"`, 1 when absent.
fn weight_of(doc: &Json) -> Result<f64, WireError> {
    match doc.get("weight") {
        None => Ok(1.0),
        Some(w) => w.as_num().ok_or_else(not_a_weight),
    }
}

fn not_a_weight() -> WireError {
    WireError::new("\"weight\" must be a number")
}

fn parse_values(values: &[Json]) -> Result<Vec<Value>, WireError> {
    values.iter().map(parse_value).collect()
}

/// The one value rule of every wire shape: strings stay strings, numbers
/// with integral values become integers, and nothing else is a value.
fn parse_value(v: &Json) -> Result<Value, WireError> {
    match v {
        Json::Str(s) => Ok(Value::str(s)),
        other => match other.as_num() {
            Some(n) => wire_int(n).map(Value::Int),
            None => Err(not_a_value(other)),
        },
    }
}

fn wire_int(n: f64) -> Result<i64, WireError> {
    // Below 9·10¹⁵ the cast truncates exactly, so it round-trips just
    // when `n` has no fractional part (the rule `write_num` prints by).
    if n.abs() < 9.0e15 && (n as i64) as f64 == n {
        Ok(n as i64)
    } else {
        Err(WireError::new(format!(
            "value {n} is not an integer; send non-integral values as strings"
        )))
    }
}

fn not_a_value(other: &Json) -> WireError {
    WireError::new(format!("values must be strings or integers, got {other}"))
}

/// The grammar every call shape shares for its top level: the document
/// is an object, and each key is `allowed`, or `misplaced` (a field of
/// another shape, refused as `"<key>" <why>`), or unknown. Keys are
/// checked in sorted order, so the first bad key reported is the
/// alphabetically first.
fn check_fields(
    doc: &Doc<'_>,
    allowed: &[&str],
    misplaced: &[&str],
    why: &str,
) -> Result<(), WireError> {
    if doc.members.is_none() {
        return Err(WireError::new("the document must be a JSON object"));
    }
    match unknown_key(doc.keys(), allowed) {
        Some(key) if misplaced.contains(&key) => Err(WireError::new(format!("{key:?} {why}"))),
        Some(key) => Err(WireError::new(format!("unknown field {key:?}"))),
        None => Ok(()),
    }
}

/// The first of an object's keys, in sorted order, that `allowed` does
/// not list: the one key every strict field check reports.
fn unknown_key<'k>(keys: impl Iterator<Item = &'k str>, allowed: &[&str]) -> Option<&'k str> {
    keys.filter(|key| !allowed.contains(key)).min()
}

/// A call's `"fds"` spec, unparsed: `None` when absent (the empty Δ).
fn fds_spec<'a>(doc: &Doc<'a>) -> Result<Option<Cow<'a, str>>, WireError> {
    match doc.at("fds") {
        None => Ok(None),
        Some(mut spec) if spec.peek() == Some(b'"') => Ok(Some(spec.string()?)),
        Some(_) => Err(WireError::new(
            "\"fds\" must be a string like \"A -> B; B -> C\"",
        )),
    }
}

/// Parses an `"fds"` spec against the schema the call runs on.
fn resolve_fds(spec: Option<&str>, schema: &Schema) -> Result<FdSet, WireError> {
    match spec {
        None => Ok(FdSet::empty()),
        Some(spec) => {
            FdSet::parse(schema, spec).map_err(|e| WireError::new(format!("invalid \"fds\": {e}")))
        }
    }
}

/// The cacheability rule every call shape shares (see
/// [`RepairCall::cacheable`]).
fn deterministic(request: &RepairRequest, include_timings: bool) -> bool {
    !include_timings && (request.notion != Notion::Sample || request.seed.is_some())
}

/// A call's `"request"` member and its timing flag; absent, the
/// defaults of [`RepairRequest::subset`] with live timings.
fn request_of(doc: &Doc<'_>) -> Result<(RepairRequest, bool), WireError> {
    match doc.get("request")? {
        None => Ok((RepairRequest::subset(), true)),
        Some(req) => parse_request(&req),
    }
}

fn parse_request(req: &Json) -> Result<(RepairRequest, bool), WireError> {
    let Json::Obj(_) = req else {
        return Err(WireError::new("\"request\" must be an object"));
    };
    for (key, _) in req.to_map().expect("checked object") {
        if !matches!(
            key,
            "notion" | "optimality" | "budgets" | "mixed_costs" | "seed" | "include_timings"
        ) {
            return Err(WireError::new(format!("unknown request field {key:?}")));
        }
    }
    let notion = match req.get("notion") {
        None => Notion::Subset,
        Some(Json::Str(name)) => {
            Notion::parse(name).ok_or_else(|| WireError::new(format!("unknown notion {name:?}")))?
        }
        Some(_) => return Err(WireError::new("\"notion\" must be a string")),
    };
    let mut request = RepairRequest::new(notion);
    match req.get("optimality") {
        None => {}
        Some(Json::Str(s)) if s == "best" => {}
        Some(Json::Str(s)) if s == "exact" => {
            request = request.optimality(Optimality::Exact);
        }
        Some(obj @ Json::Obj(_)) => {
            let Some(max_ratio) = obj.get("max_ratio").and_then(Json::as_num) else {
                return Err(WireError::new(
                    "\"optimality\" object needs a numeric \"max_ratio\"",
                ));
            };
            request = request.optimality(Optimality::Approximate { max_ratio });
        }
        Some(_) => {
            return Err(WireError::new(
                "\"optimality\" must be \"best\", \"exact\", or {\"max_ratio\": r}",
            ))
        }
    }
    if let Some(budgets) = req.get("budgets") {
        let Json::Obj(_) = budgets else {
            return Err(WireError::new("\"budgets\" must be an object"));
        };
        let mut b = Budgets::default();
        for (key, value) in budgets.to_map().expect("checked object") {
            match key {
                "exact_fallback_limit" => b.exact_fallback_limit = as_usize(key, value)?,
                "exact_row_limit" => b.exact_row_limit = as_usize(key, value)?,
                "exact_node_budget" => b.exact_node_budget = as_usize(key, value)? as u64,
                "time_cap_ms" => b.time_cap_ms = Some(as_usize(key, value)? as u64),
                "threads" => b.threads = as_usize(key, value)?,
                "component_exact_limit" => b.component_exact_limit = as_usize(key, value)?,
                other => {
                    return Err(WireError::new(format!("unknown budget field {other:?}")));
                }
            }
        }
        request = request.budgets(b);
    }
    if let Some(costs) = req.get("mixed_costs") {
        let (Some(delete), Some(update)) = (
            costs.get("delete").and_then(Json::as_num),
            costs.get("update").and_then(Json::as_num),
        ) else {
            return Err(WireError::new(
                "\"mixed_costs\" needs numeric \"delete\" and \"update\"",
            ));
        };
        // MixedCosts::new asserts; turn bad multipliers into wire errors.
        if !(delete.is_finite() && delete > 0.0 && update.is_finite() && update > 0.0) {
            return Err(WireError::new(
                "\"mixed_costs\" multipliers must be positive finite numbers",
            ));
        }
        request = request.mixed_costs(MixedCosts::new(delete, update));
    }
    match req.get("seed") {
        None => {}
        Some(seed) => {
            request = request.seed(as_usize("seed", seed)? as u64);
        }
    }
    let include_timings = match req.get("include_timings") {
        None => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(WireError::new("\"include_timings\" must be a boolean")),
    };
    Ok((request, include_timings))
}

fn as_usize(key: &str, value: &Json) -> Result<usize, WireError> {
    match value.as_num() {
        Some(n) if n.fract() == 0.0 && (0.0..=9.0e15).contains(&n) => Ok(n as usize),
        _ => Err(WireError::new(format!(
            "{key:?} must be a non-negative integer"
        ))),
    }
}

fn request_to_json(request: &RepairRequest, include_timings: bool) -> Json {
    let optimality = match request.optimality {
        Optimality::Best => Json::str("best"),
        Optimality::Exact => Json::str("exact"),
        Optimality::Approximate { max_ratio } => Json::obj([("max_ratio", max_ratio.into())]),
    };
    let mut budgets = vec![
        (
            "exact_fallback_limit",
            request.budgets.exact_fallback_limit.into(),
        ),
        ("exact_row_limit", request.budgets.exact_row_limit.into()),
        (
            "exact_node_budget",
            Json::Num(request.budgets.exact_node_budget as f64),
        ),
        ("threads", request.budgets.threads.into()),
        (
            "component_exact_limit",
            // The builder clamps to WIRE_INT_MAX; clamp again here so
            // even hand-built Budgets literals serialize parseably.
            Json::Num(
                request
                    .budgets
                    .component_exact_limit
                    .min(crate::request::WIRE_INT_MAX) as f64,
            ),
        ),
    ];
    if let Some(cap) = request.budgets.time_cap_ms {
        budgets.push(("time_cap_ms", Json::Num(cap as f64)));
    }
    let mut fields = vec![
        ("notion", Json::str(request.notion.name())),
        ("optimality", optimality),
        ("budgets", Json::obj(budgets)),
        (
            "mixed_costs",
            Json::obj([
                ("delete", request.mixed_costs.delete.into()),
                ("update", request.mixed_costs.update.into()),
            ]),
        ),
        ("include_timings", include_timings.into()),
    ];
    if let Some(seed) = request.seed {
        fields.push(("seed", Json::Num(seed as f64)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFICE: &str = r#"{
        "relation": "Office",
        "attrs": ["facility", "room", "floor", "city"],
        "fds": "facility -> city; facility room -> floor",
        "rows": [
            {"weight": 2, "values": ["HQ", 322, 3, "Paris"]},
            {"weight": 1, "values": ["HQ", 322, 30, "Madrid"]},
            {"weight": 1, "values": ["HQ", 122, 1, "Madrid"]},
            {"weight": 2, "values": ["Lab1", "B35", 3, "London"]},
            ["Lab2", 9, 1, "Oslo"]
        ],
        "request": {"notion": "s", "optimality": "best", "include_timings": false}
    }"#;

    #[test]
    fn parses_the_office_wire_document() {
        let call = RepairCall::parse(OFFICE, &JsonLimits::UNTRUSTED).unwrap();
        assert_eq!(call.table.len(), 5);
        assert_eq!(call.fds.len(), 2);
        assert_eq!(call.request.notion, Notion::Subset);
        assert!(!call.include_timings);
        // The bare-array row defaults to weight 1.
        let last = call.table.rows().last().unwrap();
        assert_eq!(last.weight, 1.0);
        assert_eq!(last.tuple.values()[0], Value::str("Lab2"));
        assert_eq!(last.tuple.values()[1], Value::Int(9));
    }

    #[test]
    fn wire_round_trips() {
        let mut call = RepairCall::parse(OFFICE, &JsonLimits::UNTRUSTED).unwrap();
        // Every budget knob must survive the trip, time cap included.
        call.request = call.request.time_cap_ms(750).threads(3).seed(11);
        let text = call.to_json_value().to_string();
        let again = RepairCall::parse(&text, &JsonLimits::UNTRUSTED).unwrap();
        assert_eq!(again.table, call.table);
        assert_eq!(again.fds, call.fds);
        assert_eq!(again.request, call.request);
        assert_eq!(again.include_timings, call.include_timings);
        assert_eq!(again.cache_key(), call.cache_key());
    }

    #[test]
    fn defaults_are_permissive_and_unknown_fields_are_not() {
        let minimal = r#"{"attrs": ["A"], "rows": [[1]]}"#;
        let call = RepairCall::parse(minimal, &JsonLimits::UNTRUSTED).unwrap();
        assert_eq!(call.table.schema().relation(), "R");
        assert!(call.fds.is_empty());
        assert_eq!(call.request, RepairRequest::subset());
        assert!(call.include_timings);

        for bad in [
            r#"{"attrs": ["A"], "rows": [[1]], "extra": 1}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "request": {"notio": "s"}}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "request": {"budgets": {"thread": 2}}}"#,
            r#"{"attrs": ["A"], "rows": [[1.5]]}"#,
            r#"{"attrs": ["A"], "rows": [[true]]}"#,
            r#"{"attrs": ["A"], "rows": [{"weight": 1}]}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "fds": "A -> Z"}"#,
            r#"{"attrs": "A", "rows": [[1]]}"#,
            r#"{"attrs": ["A"]}"#,
            r#"[1, 2]"#,
            r#"{"attrs": ["A"], "rows": [[1]], "request": {"mixed_costs": {"delete": 0, "update": 1}}}"#,
        ] {
            assert!(
                RepairCall::parse(bad, &JsonLimits::UNTRUSTED).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn request_knobs_parse() {
        let doc = r#"{
            "attrs": ["A", "B"],
            "fds": "A -> B",
            "rows": [[1, 2], [1, 3]],
            "request": {
                "notion": "mixed",
                "optimality": {"max_ratio": 2.5},
                "budgets": {"exact_fallback_limit": 32, "threads": 4, "time_cap_ms": 500},
                "mixed_costs": {"delete": 2.0, "update": 0.5},
                "seed": 7
            }
        }"#;
        let call = RepairCall::parse(doc, &JsonLimits::UNTRUSTED).unwrap();
        assert_eq!(call.request.notion, Notion::Mixed);
        assert_eq!(
            call.request.optimality,
            Optimality::Approximate { max_ratio: 2.5 }
        );
        assert_eq!(call.request.budgets.exact_fallback_limit, 32);
        assert_eq!(call.request.budgets.threads, 4);
        assert_eq!(call.request.budgets.time_cap_ms, Some(500));
        assert_eq!(call.request.mixed_costs.delete, 2.0);
        assert_eq!(call.request.seed, Some(7));
    }

    #[test]
    fn retired_shard_min_rows_is_rejected() {
        let doc = r#"{"attrs": ["A", "B"], "fds": "A -> B", "rows": [[1, 2], [1, 3]],
                      "request": {"budgets": {"shard_min_rows": 0}}}"#;
        let err = RepairCall::parse(doc, &JsonLimits::UNTRUSTED).unwrap_err();
        assert_eq!(err.to_string(), r#"unknown budget field "shard_min_rows""#);
    }

    #[test]
    fn cache_keys_separate_distinct_calls() {
        let base = RepairCall::parse(OFFICE, &JsonLimits::UNTRUSTED).unwrap();
        let mut other = base.clone();
        other.request = other.request.threads(8);
        assert_ne!(base.cache_key(), other.cache_key());
        let mut timings = base.clone();
        timings.include_timings = true;
        assert_ne!(base.cache_key(), timings.cache_key());
        // Stability: the key is a pure function of the call.
        assert_eq!(base.cache_key(), base.clone().cache_key());
    }

    #[test]
    fn table_docs_parse_and_reject_call_fields() {
        let table = parse_table_doc(
            r#"{"relation": "T", "attrs": ["A", "B"], "rows": [[1, 2], ["x", "y"]]}"#,
            &JsonLimits::UNTRUSTED,
        )
        .unwrap();
        assert_eq!(table.schema().relation(), "T");
        assert_eq!(table.len(), 2);

        for bad in [
            r#"{"attrs": ["A"], "rows": [[1]], "fds": "A -> A"}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "request": {}}"#,
            r#"{"attrs": ["A"], "rows": [[1]], "table_ref": "t"}"#,
            r#"{"attrs": ["A"]}"#,
            r#"[1]"#,
        ] {
            assert!(
                parse_table_doc(bad, &JsonLimits::UNTRUSTED).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn table_doc_errors_name_the_failing_row() {
        // Rows 0-2 are fine, row 3 is bad, row 4 would be fine again:
        // the message names row 3 whether the row fails to parse or the
        // table refuses it.
        let doc = |bad: &str| {
            format!(
                r#"{{"attrs": ["A", "B"],
                    "rows": [[1, 2], [3, 4], {{"weight": 2, "values": [5, 6]}}, {bad}, [7, 8]]}}"#
            )
        };
        for (bad, expected) in [
            (
                "[1.5, 2]",
                "row 3: value 1.5 is not an integer; send non-integral values as strings",
            ),
            (
                r#"{"values": [1, 2], "w": 1}"#,
                "row 3: unknown row field \"w\"",
            ),
            (
                "true",
                "row 3: each row must be an array of values or an object with \"values\"",
            ),
            ("[1]", "row 3: tuple arity 1 does not match schema arity 2"),
            (
                r#"{"weight": 0, "values": [1, 2]}"#,
                "row 3: tuple weight 0 is not strictly positive and finite",
            ),
        ] {
            let err = parse_table_doc(&doc(bad), &JsonLimits::UNTRUSTED).unwrap_err();
            assert_eq!(err.message, expected, "{bad}");
        }
    }

    #[test]
    fn by_ref_calls_parse_and_inline_fields_conflict() {
        let call = ParsedCall::parse(
            r#"{"table_ref": "office", "fds": "A -> B",
                "request": {"notion": "u", "include_timings": false}}"#,
            &JsonLimits::UNTRUSTED,
        )
        .unwrap();
        let ParsedCall::ByRef(call) = call else {
            panic!("must parse as a by-reference call");
        };
        assert_eq!(call.table_ref, "office");
        assert_eq!(call.fds.as_deref(), Some("A -> B"));
        assert_eq!(call.request.notion, Notion::Update);
        assert!(call.cacheable());

        // An inline document still parses as one through the same entry.
        assert!(matches!(
            ParsedCall::parse(r#"{"attrs": ["A"], "rows": [[1]]}"#, &JsonLimits::UNTRUSTED),
            Ok(ParsedCall::Inline(_))
        ));

        for bad in [
            r#"{"table_ref": "t", "rows": [[1]]}"#,
            r#"{"table_ref": "t", "attrs": ["A"]}"#,
            r#"{"table_ref": ""}"#,
            r#"{"table_ref": 7}"#,
            r#"{"table_ref": "t", "bogus": 1}"#,
        ] {
            assert!(
                ParsedCall::parse(bad, &JsonLimits::UNTRUSTED).is_err(),
                "accepted {bad:?}"
            );
        }

        // The engine-level inline entry point refuses refs with a hint.
        let err = RepairCall::parse(r#"{"table_ref": "t"}"#, &JsonLimits::UNTRUSTED).unwrap_err();
        assert!(err.to_string().contains("table store"), "{err}");
    }

    #[test]
    fn fingerprints_pin_the_instance_and_ref_keys_track_the_call() {
        let call = RepairCall::parse(OFFICE, &JsonLimits::UNTRUSTED).unwrap();
        let fp = table_fingerprint(&call.table);
        assert_eq!(fp, table_fingerprint(&call.table), "pure function");
        let other =
            parse_table_doc(r#"{"attrs": ["A"], "rows": [[1]]}"#, &JsonLimits::UNTRUSTED).unwrap();
        assert_ne!(fp, table_fingerprint(&other));

        let schema = call.table.schema();
        let by_ref = RefCall {
            table_ref: "office".into(),
            fds: None,
            request: call.request,
            include_timings: false,
        };
        let key = by_ref.cache_key(fp, &call.fds, schema);
        assert_eq!(key, by_ref.cache_key(fp, &call.fds, schema));
        // The key must move with the fingerprint, the Δ, and the knobs.
        assert_ne!(key, by_ref.cache_key(fp ^ 1, &call.fds, schema));
        assert_ne!(key, by_ref.cache_key(fp, &FdSet::empty(), schema));
        let mut tuned = by_ref.clone();
        tuned.request = tuned.request.threads(8);
        assert_ne!(key, tuned.cache_key(fp, &call.fds, schema));
        // And the canonical form embeds the fingerprint, so a re-upload
        // under the same id can never verify against stale bytes.
        let canonical = by_ref.canonical(fp, &call.fds, schema);
        assert!(canonical.contains(&format!("fp:{fp:016x}")), "{canonical}");
        assert_ne!(canonical, by_ref.canonical(fp ^ 1, &call.fds, schema));
    }

    #[test]
    fn the_row_hash_reads_bit_patterns_and_every_word() {
        let digest = |weights: &[f64], syms: &[u32]| {
            let mut h = RowHash::new();
            h.u64s(weights, f64::to_bits);
            h.u32s(syms, |s| s);
            h.finish()
        };
        // Equal as floats, distinct as weights' bit patterns.
        assert_ne!(digest(&[0.0], &[]), digest(&[-0.0], &[]));
        // One word changed anywhere, in a full chunk or in the tail, in
        // either half of a packed pair, moves the digest.
        let syms: Vec<u32> = (0..21).collect();
        let base = digest(&[1.0, 2.0, 3.0, 4.0, 5.0], &syms);
        for i in 0..syms.len() {
            let mut edited = syms.clone();
            edited[i] ^= 1 << (i % 32);
            assert_ne!(base, digest(&[1.0, 2.0, 3.0, 4.0, 5.0], &edited), "sym {i}");
        }
        for i in 0..5 {
            let mut weights = [1.0f64, 2.0, 3.0, 4.0, 5.0];
            weights[i] = f64::from_bits(weights[i].to_bits() + 1);
            assert_ne!(base, digest(&weights, &syms), "weight {i}");
        }
    }

    #[test]
    fn every_call_shape_reports_its_first_bad_field_by_name() {
        let limits = &JsonLimits::UNTRUSTED;
        let inline = |doc: &str| RepairCall::parse(doc, limits).unwrap_err().message;
        let table = |doc: &str| parse_table_doc(doc, limits).unwrap_err().message;
        let call = |doc: &str| ParsedCall::parse(doc, limits).unwrap_err().message;
        let mutate = |doc: &str| MutateCall::parse(doc, limits).unwrap_err().message;
        // Keys are checked in sorted order: the first bad key reported
        // is the alphabetically first, misplaced or unknown.
        assert_eq!(
            inline(r#"{"zeta": 1, "table_ref": "t", "attrs": ["A"], "rows": []}"#),
            "\"table_ref\" needs a server-side table store; \
             this entry point only accepts inline tables"
        );
        assert_eq!(
            inline(r#"{"table_ref": "t", "bogus": 1}"#),
            "unknown field \"bogus\""
        );
        assert_eq!(
            table(r#"{"request": {}, "fds": "", "attrs": [], "rows": []}"#),
            "\"fds\" does not belong in a stored table; send it with each /repair call"
        );
        assert_eq!(table(r#"{"zz": 1, "extra": 1}"#), "unknown field \"extra\"");
        assert_eq!(
            call(r#"{"table_ref": "t", "rows": [], "attrs": []}"#),
            "\"attrs\" cannot be combined with \"table_ref\"; \
             the stored table already carries the instance"
        );
        assert_eq!(
            call(r#"{"table_ref": "t", "rows": [], "bogus": 1}"#),
            "unknown field \"bogus\""
        );
        assert_eq!(
            mutate(r#"{"table_ref": "t", "rows": [], "mutations": []}"#),
            "\"rows\" does not belong in a mutate call; the URL already names the stored table"
        );
        assert_eq!(
            mutate(r#"{"zz": 1, "fds": 5, "mutations": []}"#),
            "unknown field \"zz\""
        );
        // The `"fds"` member: one type error for every shape, and one
        // parse error whether Δ is resolved inline or against a store.
        let not_a_string = "\"fds\" must be a string like \"A -> B; B -> C\"";
        assert_eq!(
            inline(r#"{"attrs": ["A"], "rows": [], "fds": 5}"#),
            not_a_string
        );
        assert_eq!(call(r#"{"table_ref": "t", "fds": 5}"#), not_a_string);
        assert_eq!(mutate(r#"{"fds": 5, "mutations": []}"#), not_a_string);
        let bad_fds = inline(r#"{"attrs": ["A"], "rows": [], "fds": "A -> Z"}"#);
        assert!(bad_fds.starts_with("invalid \"fds\": "), "{bad_fds}");
        let schema = Schema::new("R", ["A"]).unwrap();
        let Ok(ParsedCall::ByRef(by_ref)) =
            ParsedCall::parse(r#"{"table_ref": "t", "fds": "A -> Z"}"#, limits)
        else {
            panic!("a by-ref call");
        };
        assert_eq!(by_ref.resolve_fds(&schema).unwrap_err().message, bad_fds);
        let muts = r#"{"fds": "A -> Z", "mutations": [{"op": "delete", "id": 0}]}"#;
        let muts = MutateCall::parse(muts, limits).unwrap();
        assert_eq!(muts.resolve_fds(&schema).unwrap_err().message, bad_fds);
        // Mutation ids and weights.
        assert_eq!(
            mutate(r#"{"mutations": [{"op": "delete"}]}"#),
            "\"delete\" needs an \"id\""
        );
        assert_eq!(
            mutate(r#"{"mutations": [{"op": "set", "attr": "A", "value": 1}]}"#),
            "\"set\" needs an \"id\""
        );
        assert_eq!(
            mutate(r#"{"mutations": [{"op": "insert", "values": [1], "weight": "x"}]}"#),
            "\"weight\" must be a number"
        );
        assert_eq!(
            table(r#"{"attrs": ["A"], "rows": [{"values": [1], "weight": "x"}]}"#),
            "row 0: \"weight\" must be a number"
        );
    }

    #[test]
    fn nondeterministic_calls_are_not_cacheable() {
        // OFFICE sets include_timings: false, so determinism hinges on
        // the notion/seed alone …
        let mut call = RepairCall::parse(OFFICE, &JsonLimits::UNTRUSTED).unwrap();
        call.request = RepairRequest::new(Notion::Sample);
        assert!(!call.cacheable(), "unseeded sampling varies per call");
        call.request = call.request.seed(3);
        assert!(call.cacheable());
        call.request = RepairRequest::subset();
        assert!(call.cacheable());
        // … while live timings make even a subset call vary per call.
        call.include_timings = true;
        assert!(!call.cacheable(), "real timings differ on every call");
    }
}
