//! The response side of the engine API: every notion returns the same
//! [`RepairReport`] — repaired data, cost, provenance, guarantees,
//! dichotomy classification, and timings — with machine-readable JSON
//! from one writer. The writer appends ids, changed cells and table rows
//! straight from the symbol columns into a byte buffer, with no `fmt`
//! layer in between. [`RepairReport::to_json_bytes`] writes the document
//! into the `Vec` it returns (what a server ships and caches);
//! [`RepairReport::write_json`] streams it into any [`std::io::Write`],
//! handing over about 64 KiB at a time at row boundaries (the CLI's
//! `--json`). [`RepairReport::to_json`] and
//! [`RepairReport::to_json_value`] are built on the former. The rows
//! array is a parameter of the writer: a delta session's spliced
//! subset document (`subset_document`) goes through the same header,
//! `deleted` and schema code, with rows it copies from its previous
//! document or renders one by one (`write_row`), and no repaired table.

use crate::json::{
    write_arr, write_escaped, write_int, write_num, write_tree, Json, ObjWriter, Out, CHUNK,
};
use crate::request::Notion;
use fd_core::{Dictionary, FdSet, Schema, Sym, SymRef, Table, TupleId, Value};
use fd_srepair::{classify_irreducible, simplification_trace, Outcome};
use fd_urepair::{ratio_kl, ratio_ours};
use std::io;

/// Where the FD set falls in the paper's complexity landscape, computed
/// once per call and attached to both plans and reports.
#[derive(Clone, Debug, PartialEq)]
pub struct DichotomyReport {
    /// Whether `Δ` is a chain (counting/sampling tractable).
    pub chain: bool,
    /// `OSRSucceeds(Δ)`: the tractable side of Theorem 3.4.
    pub osr_succeeds: bool,
    /// Figure-2 class (1–5) of the irreducible residue, hard side only.
    pub hard_class: Option<u8>,
    /// The Table-1 hard core the residue reduces from, hard side only.
    pub hard_core: Option<String>,
    /// The paper's U-repair approximation bound `2·mlc(Δ)` (§4.4).
    pub ratio_ours: f64,
    /// The Kolahi–Lakshmanan bound for comparison.
    pub ratio_kl: f64,
}

impl DichotomyReport {
    /// Classifies `fds` by running Algorithm 2 (and, on the hard side,
    /// the Figure-2 classifier). Polynomial in `Δ` alone.
    pub fn classify(fds: &FdSet) -> DichotomyReport {
        let trace = simplification_trace(fds);
        let (hard_class, hard_core) = match &trace.outcome {
            Outcome::Success => (None, None),
            Outcome::Stuck(stuck) => {
                let cls = classify_irreducible(stuck)
                    .expect("a stuck FD set is irreducible by construction");
                (Some(cls.class), Some(cls.core.name().to_string()))
            }
        };
        DichotomyReport {
            chain: fds.is_chain(),
            osr_succeeds: trace.succeeded(),
            hard_class,
            hard_core,
            ratio_ours: ratio_ours(fds),
            ratio_kl: ratio_kl(fds),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("chain", self.chain.into()),
            ("osr_succeeds", self.osr_succeeds.into()),
            (
                "hard_class",
                self.hard_class.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            (
                "hard_core",
                self.hard_core.as_deref().map_or(Json::Null, Json::str),
            ),
            ("ratio_ours", self.ratio_ours.into()),
            ("ratio_kl", self.ratio_kl.into()),
        ])
    }
}

/// Connected-component statistics of a sharded subset solve: how the
/// conflict graph decomposed and which method covered how many
/// components. Attached to subset reports produced by the sharded path;
/// `None` elsewhere.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentReport {
    /// Conflicting (≥ 2 row) components.
    pub count: usize,
    /// Rows of the largest component (0 when the input is consistent).
    pub largest: usize,
    /// Rows in singleton components: conflict-free, kept untouched.
    pub clean_rows: usize,
    /// Method name → number of components it solved, in execution
    /// order (`Dichotomy`, `ExactVertexCover`, `Approx2`).
    pub methods: Vec<(String, usize)>,
}

impl ComponentReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.into()),
            ("largest", self.largest.into()),
            ("clean_rows", self.clean_rows.into()),
            (
                "methods",
                Json::Obj(
                    self.methods
                        .iter()
                        .map(|(name, n)| (name.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Wall-clock timings of one engine call, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timings {
    /// Time spent planning (dichotomy + strategy selection).
    pub plan_ms: f64,
    /// Time spent solving.
    pub solve_ms: f64,
    /// Total, including report assembly.
    pub total_ms: f64,
}

impl Timings {
    fn to_json(self) -> Json {
        Json::obj([
            ("plan_ms", self.plan_ms.into()),
            ("solve_ms", self.solve_ms.into()),
            ("total_ms", self.total_ms.into()),
        ])
    }
}

/// One changed cell of an update repair, schema-free for serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct ChangedCell {
    /// Tuple identifier.
    pub tuple: TupleId,
    /// Attribute name.
    pub attr: String,
    /// Rendered old value.
    pub old: String,
    /// Rendered new value.
    pub new: String,
}

impl ChangedCell {
    /// Converts `Table::changed_cells` output, rendering values.
    pub fn from_cells(
        schema: &Schema,
        cells: &[(TupleId, fd_core::AttrId, Value, Value)],
    ) -> Vec<ChangedCell> {
        cells
            .iter()
            .map(|(id, attr, old, new)| ChangedCell {
                tuple: *id,
                attr: schema.attr_name(*attr).to_string(),
                old: old.to_string(),
                new: new.to_string(),
            })
            .collect()
    }

    fn write_json(&self, out: &mut Out<'_>) {
        let mut obj = ObjWriter::begin(out);
        write_int(obj.key("tuple"), self.tuple.0.into());
        write_escaped(obj.key("attr"), &self.attr);
        write_escaped(obj.key("old"), &self.old);
        write_escaped(obj.key("new"), &self.new);
        obj.end()
    }
}

/// The notion-specific payload of a [`RepairReport`].
#[derive(Clone, Debug)]
pub enum ReportBody {
    /// Subset repair: what was deleted and what remains.
    Subset {
        /// Deleted tuple identifiers, sorted.
        deleted: Vec<TupleId>,
        /// The repaired (consistent) table.
        repaired: Table,
    },
    /// Update repair: what changed and the updated table.
    Update {
        /// Changed cells.
        changed: Vec<ChangedCell>,
        /// The repaired (consistent) table.
        repaired: Table,
    },
    /// Mixed repair: deletions plus updates on the survivors.
    Mixed {
        /// Deleted tuple identifiers, sorted.
        deleted: Vec<TupleId>,
        /// Changed cells among the survivors.
        changed: Vec<ChangedCell>,
        /// The repaired (consistent) table.
        repaired: Table,
    },
    /// Most Probable Database: the chosen world.
    Mpd {
        /// Identifiers of the most probable consistent world, sorted.
        kept: Vec<TupleId>,
        /// Its probability.
        probability: f64,
        /// The world as a table.
        repaired: Table,
    },
    /// Counting: either count may be unavailable on hard instances.
    Count {
        /// Subset repairs (maximal consistent subsets); `None` when `Δ`
        /// is not a chain (#P-hard), with the reason in `notes`.
        subset_repairs: Option<u128>,
        /// Optimal subset repairs; `None` past a marriage or on the hard
        /// side, with the reason in `notes`.
        optimal_subset_repairs: Option<u128>,
        /// Human-readable availability notes.
        notes: Vec<String>,
    },
    /// Sampling: a uniformly random subset repair.
    Sample {
        /// Kept tuple identifiers, sorted.
        kept: Vec<TupleId>,
        /// The sampled repair as a table.
        repaired: Table,
    },
    /// Classification only: schema/FD analysis, no repair computed.
    Classify {
        /// Candidate keys, rendered.
        keys: Vec<String>,
        /// A BCNF-violating FD (rendered), or `None` when the schema is
        /// in BCNF under `Δ`.
        bcnf_violation: Option<String>,
        /// Whether `Δ` is satisfied by the input table already.
        consistent: bool,
        /// Number of conflicting tuple pairs in the input.
        conflicts: usize,
    },
}

/// Serializes a repair count exactly: counts grow as products over
/// conflict blocks, so they routinely exceed `f64`'s 2⁵³ integer range —
/// such counts become JSON strings rather than silently-rounded numbers.
fn count_to_json(n: u128) -> Json {
    const EXACT_F64_MAX: u128 = 1 << 53;
    if n <= EXACT_F64_MAX {
        Json::Num(n as f64)
    } else {
        Json::Str(n.to_string())
    }
}

impl ReportBody {
    /// The repaired table, for notions that produce one.
    pub fn repaired(&self) -> Option<&Table> {
        match self {
            ReportBody::Subset { repaired, .. }
            | ReportBody::Update { repaired, .. }
            | ReportBody::Mixed { repaired, .. }
            | ReportBody::Mpd { repaired, .. }
            | ReportBody::Sample { repaired, .. } => Some(repaired),
            ReportBody::Count { .. } | ReportBody::Classify { .. } => None,
        }
    }

    /// Writes the body object: ids, changed cells and every row of the
    /// repaired table go straight into the buffer, each followed by an
    /// element boundary; the few scalar fields go through small trees.
    fn write_json(&self, out: &mut Out<'_>) {
        fn cells(out: &mut Out<'_>, cells: &[ChangedCell]) {
            write_arr(out, cells, |out, cell| cell.write_json(out))
        }
        fn strs(out: &mut Out<'_>, strs: &[String]) {
            write_arr(out, strs, |out, s| write_escaped(out, s))
        }
        let mut obj = ObjWriter::begin(out);
        match self {
            ReportBody::Subset { deleted, repaired } => {
                subset_fields(&mut obj, deleted, repaired.schema(), |out| {
                    write_rows(out, repaired)
                });
            }
            ReportBody::Update { changed, repaired } => {
                cells(obj.key("changed"), changed);
                write_table(obj.key("repaired"), repaired);
            }
            ReportBody::Mixed {
                deleted,
                changed,
                repaired,
            } => {
                write_ids(obj.key("deleted"), deleted);
                cells(obj.key("changed"), changed);
                write_table(obj.key("repaired"), repaired);
            }
            ReportBody::Mpd {
                kept,
                probability,
                repaired,
            } => {
                write_ids(obj.key("kept"), kept);
                write_num(obj.key("probability"), *probability);
                write_table(obj.key("repaired"), repaired);
            }
            ReportBody::Count {
                subset_repairs,
                optimal_subset_repairs,
                notes,
            } => {
                obj.field(
                    "subset_repairs",
                    &subset_repairs.map_or(Json::Null, count_to_json),
                );
                obj.field(
                    "optimal_subset_repairs",
                    &optimal_subset_repairs.map_or(Json::Null, count_to_json),
                );
                strs(obj.key("notes"), notes);
            }
            ReportBody::Sample { kept, repaired } => {
                write_ids(obj.key("kept"), kept);
                write_table(obj.key("repaired"), repaired);
            }
            ReportBody::Classify {
                keys,
                bcnf_violation,
                consistent,
                conflicts,
            } => {
                strs(obj.key("keys"), keys);
                obj.field("bcnf", &bcnf_violation.is_none().into());
                obj.field(
                    "bcnf_violation",
                    &bcnf_violation.as_deref().map_or(Json::Null, Json::str),
                );
                obj.field("consistent", &(*consistent).into());
                obj.field("conflicts", &(*conflicts).into());
            }
        }
        obj.end()
    }
}

/// Encodes one cell value: integers become JSON numbers, everything
/// else its `Display` string. The single value→JSON rule shared by
/// reports, wire documents and mutation traces.
pub(crate) fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Num(*i as f64),
        other => Json::str(other.to_string()),
    }
}

/// Writes a list of tuple ids as an array of integers.
fn write_ids(out: &mut Out<'_>, ids: &[TupleId]) {
    write_arr(out, ids, |out, id| write_int(out, id.0.into()))
}

/// Writes a subset body's two fields into its open object: the deleted
/// ids, then the repaired table under `schema`, whose `rows` array the
/// row source `rows` writes.
fn subset_fields(
    obj: &mut ObjWriter<'_, '_>,
    deleted: &[TupleId],
    schema: &Schema,
    rows: impl FnOnce(&mut Out<'_>),
) {
    write_ids(obj.key("deleted"), deleted);
    write_table_with(obj.key("repaired"), schema, rows);
}

/// Writes a table: its schema, then every row (see [`write_rows`]).
fn write_table(out: &mut Out<'_>, table: &Table) {
    write_table_with(out, table.schema(), |out| write_rows(out, table))
}

/// Writes a table object under `schema` whose `rows` array, brackets
/// included, comes from the row source `rows`.
fn write_table_with(out: &mut Out<'_>, schema: &Schema, rows: impl FnOnce(&mut Out<'_>)) {
    let mut obj = ObjWriter::begin(out);
    write_escaped(obj.key("relation"), schema.relation());
    write_arr(obj.key("attrs"), schema.attr_names(), |out, a| {
        write_escaped(out, a)
    });
    rows(obj.key("rows"));
    obj.end()
}

/// Writes every row of `table` as one array, with an element boundary
/// after each row.
fn write_rows(out: &mut Out<'_>, table: &Table) {
    write_arr(out, 0..table.len(), |out, pos| write_row(out, table, pos))
}

/// Writes the row at `pos` of `table` as one object, appended straight
/// from the id, weight and symbol columns. Inline integers print as
/// integers and pooled strings are escaped from the dictionary's own
/// `str`, with no [`Value`] in between; every other symbol goes through
/// [`value_to_json`].
#[inline]
pub(crate) fn write_row(out: &mut Out<'_>, table: &Table, pos: usize) {
    let dict = table.dictionary();
    out.extend_from_slice(b"{\"id\":");
    write_int(out, table.id_at(pos).0.into());
    out.extend_from_slice(b",\"weight\":");
    write_num(out, table.weights()[pos]);
    out.extend_from_slice(b",\"values\":[");
    for (i, col) in table.sym_cols().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_cell(out, dict, col[pos]);
    }
    out.extend_from_slice(b"]}");
}

/// Writes one cell straight from its symbol: an inline integer as an
/// integer, a pooled string from the dictionary's own `str`, and every
/// other symbol through [`value_to_json`] — the bytes `value_to_json`
/// of the decoded value prints, with no [`Value`] built for the first
/// two.
pub(crate) fn write_cell(out: &mut Out<'_>, dict: &Dictionary, sym: Sym) {
    match dict.resolve(sym) {
        SymRef::Int(i) => write_int(out, i),
        SymRef::Str(s) => write_escaped(out, s),
        SymRef::Other(v) => write_tree(out, &value_to_json(&v)),
    }
}

/// A report document's fields ahead of its `result`, borrowed from a
/// [`RepairReport`] or, on a session's spliced path, from the delta
/// engine's state: the one header [`write_document`] writes.
pub(crate) struct Head<'a> {
    pub(crate) notion: Notion,
    pub(crate) cost: f64,
    pub(crate) optimal: bool,
    pub(crate) ratio: f64,
    pub(crate) methods: &'a [String],
    pub(crate) dichotomy: &'a DichotomyReport,
    pub(crate) components: Option<&'a ComponentReport>,
    pub(crate) timings: Timings,
}

/// Writes a document by `write` into `out` under the `engine/serialize`
/// span, which records `rows` (of the repaired table) and the bytes
/// written, and finishes it.
fn serialize(
    mut out: Out<'_>,
    rows: usize,
    write: impl FnOnce(&mut Out<'_>),
) -> io::Result<Vec<u8>> {
    // fdlint: allow(O001, "observation only: the span records the row count and the byte count of text already written; nothing from it reaches the output")
    let mut sp = fd_trace::span("engine/serialize");
    write(&mut out);
    sp.attr("rows", rows);
    sp.attr("bytes", out.written());
    out.finish()
}

/// The one report writer: the small header goes through tiny [`Json`]
/// values, then `result` writes the body, whose ids, changed cells and
/// rows are appended straight from the symbol columns.
fn write_document(out: &mut Out<'_>, head: &Head<'_>, result: impl FnOnce(&mut Out<'_>)) {
    let mut obj = ObjWriter::begin(out);
    write_escaped(obj.key("notion"), head.notion.name());
    write_num(obj.key("cost"), head.cost);
    obj.field("optimal", &head.optimal.into());
    write_num(obj.key("ratio"), head.ratio);
    write_arr(obj.key("methods"), head.methods, |out, m| {
        write_escaped(out, m)
    });
    obj.field("dichotomy", &head.dichotomy.to_json());
    obj.field(
        "components",
        &head.components.map_or(Json::Null, ComponentReport::to_json),
    );
    obj.field("timings", &head.timings.to_json());
    result(obj.key("result"));
    obj.end()
}

/// A subset report's document whose repaired table has `rows` rows,
/// written by `write_rows` instead of from a materialized table: the
/// header, the deleted ids and the table's schema come from the one
/// writer above. Written into `buf`, cleared first, under the
/// `engine/serialize` span. A session's spliced report is written here.
pub(crate) fn subset_document(
    mut buf: Vec<u8>,
    head: &Head<'_>,
    deleted: &[TupleId],
    schema: &Schema,
    rows: usize,
    write_rows: impl FnOnce(&mut Out<'_>),
) -> Vec<u8> {
    buf.clear();
    serialize(Out::buffer(buf), rows, |out| {
        write_document(out, head, |out| {
            let mut obj = ObjWriter::begin(out);
            subset_fields(&mut obj, deleted, schema, write_rows);
            obj.end()
        })
    })
    .expect("a buffer has no target to fail")
}

/// The unified result of one engine call: one shape for every notion.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The notion that was computed.
    pub notion: Notion,
    /// Method provenance, in application order (e.g. `"Dichotomy"`,
    /// `"ConsensusOnly"`, `"ExactSearch"`).
    pub methods: Vec<String>,
    /// Whether the result is guaranteed optimal.
    pub optimal: bool,
    /// The guaranteed approximation ratio (1 when optimal).
    pub ratio: f64,
    /// The cost of the repair under the notion's distance: `dist_sub`,
    /// `dist_upd`, the mixed cost, or `−ln p` for MPD. Zero for the
    /// count/classify services.
    pub cost: f64,
    /// Where `Δ` falls in the complexity landscape.
    pub dichotomy: DichotomyReport,
    /// Conflict-graph component statistics of the sharded subset path;
    /// `None` for other notions.
    pub components: Option<ComponentReport>,
    /// Wall-clock timings.
    pub timings: Timings,
    /// The notion-specific payload.
    pub body: ReportBody,
}

impl RepairReport {
    /// The repaired table, for notions that produce one.
    pub fn repaired(&self) -> Option<&Table> {
        self.body.repaired()
    }

    /// Structurally validates this report against the call that (should
    /// have) produced it: the claimed guarantees are coherent, the body
    /// matches the notion, every returned table satisfies `Δ`, is a
    /// genuine subset/update of the input, and the recorded cost equals
    /// the recomputed distance under the notion's semantics. Used by the
    /// differential fuzz harness and the serving tests; returns the
    /// first violated invariant as text.
    pub fn validate_against(
        &self,
        input: &Table,
        fds: &FdSet,
        request: &crate::request::RepairRequest,
    ) -> Result<(), String> {
        const EPS: f64 = 1e-6;
        if self.notion != request.notion {
            return Err(format!(
                "notion mismatch: report says {:?}, request says {:?}",
                self.notion, request.notion
            ));
        }
        if self.ratio < 1.0 || self.ratio.is_nan() {
            return Err(format!("guaranteed ratio {} is below 1", self.ratio));
        }
        if self.optimal && self.ratio != 1.0 {
            return Err(format!("optimal report carries ratio {}", self.ratio));
        }
        if let Some(repaired) = self.repaired() {
            if !repaired.satisfies(fds) {
                return Err(format!(
                    "returned table violates Δ: {:?}",
                    repaired.violating_pair(fds)
                ));
            }
        }
        match &self.body {
            ReportBody::Subset { deleted, repaired } => {
                let dist = input
                    .dist_sub(repaired)
                    .map_err(|e| format!("returned table is not a subset of the input: {e}"))?;
                if (dist - self.cost).abs() > EPS {
                    return Err(format!(
                        "subset cost {} disagrees with dist_sub {}",
                        self.cost, dist
                    ));
                }
                let mut expect: Vec<TupleId> = {
                    let kept: std::collections::HashSet<TupleId> = repaired.ids().collect();
                    input.ids().filter(|id| !kept.contains(id)).collect()
                };
                expect.sort_unstable();
                let mut got = deleted.clone();
                got.sort_unstable();
                if got != expect {
                    return Err(format!(
                        "deleted ids {got:?} disagree with the returned table ({expect:?})"
                    ));
                }
            }
            ReportBody::Update { changed, repaired } => {
                let dist = input
                    .dist_upd(repaired)
                    .map_err(|e| format!("returned table is not an update of the input: {e}"))?;
                if (dist - self.cost).abs() > EPS {
                    return Err(format!(
                        "update cost {} disagrees with dist_upd {}",
                        self.cost, dist
                    ));
                }
                let cells = input.changed_cells(repaired).expect("validated update");
                let expect = ChangedCell::from_cells(input.schema(), &cells);
                if expect != *changed {
                    return Err(format!(
                        "reported changed cells disagree with the table diff: \
                         reported {changed:?}, actual {expect:?}"
                    ));
                }
            }
            ReportBody::Mixed {
                deleted,
                changed,
                repaired,
            } => {
                let delete_set: std::collections::HashSet<TupleId> =
                    deleted.iter().copied().collect();
                let mut delete_weight = 0.0;
                for id in deleted {
                    let pos = input
                        .position_of(*id)
                        .ok_or_else(|| format!("deleted id {id} is not in the input"))?;
                    delete_weight += input.weights()[pos];
                }
                let survivors = input.without(&delete_set);
                let dist = survivors
                    .dist_upd(repaired)
                    .map_err(|e| format!("returned table does not update the survivors: {e}"))?;
                let cost =
                    request.mixed_costs.delete * delete_weight + request.mixed_costs.update * dist;
                if (cost - self.cost).abs() > EPS {
                    return Err(format!(
                        "mixed cost {} disagrees with recomputed {}",
                        self.cost, cost
                    ));
                }
                let cells = survivors.changed_cells(repaired).expect("validated update");
                let expect = ChangedCell::from_cells(input.schema(), &cells);
                if expect != *changed {
                    return Err(format!(
                        "reported changed cells disagree with the survivor diff: \
                         reported {changed:?}, actual {expect:?}"
                    ));
                }
            }
            ReportBody::Mpd {
                kept,
                probability,
                repaired,
            } => {
                let world: std::collections::HashSet<TupleId> = kept.iter().copied().collect();
                let mut p = 1.0;
                for (id, &w) in input.ids().zip(input.weights()) {
                    p *= if world.contains(&id) { w } else { 1.0 - w };
                }
                // Relative tolerance: world probabilities shrink
                // geometrically with the row count, so an absolute 1e-9
                // would be vacuous past a dozen rows.
                if (p - *probability).abs() > 1e-9 * p.abs().max(probability.abs()) {
                    return Err(format!(
                        "world probability {probability} disagrees with recomputed {p}"
                    ));
                }
                let mut world_ids: Vec<TupleId> = repaired.ids().collect();
                world_ids.sort_unstable();
                let mut kept_sorted = kept.clone();
                kept_sorted.sort_unstable();
                if world_ids != kept_sorted {
                    return Err(format!(
                        "returned world table ids {world_ids:?} disagree with kept {kept_sorted:?}"
                    ));
                }
                let cost = -probability.ln();
                if *probability > 0.0 && (cost - self.cost).abs() > EPS {
                    return Err(format!(
                        "MPD cost {} disagrees with −ln p = {cost}",
                        self.cost
                    ));
                }
            }
            ReportBody::Sample { kept, repaired } => {
                let dist = input
                    .dist_sub(repaired)
                    .map_err(|e| format!("sample is not a subset of the input: {e}"))?;
                if (dist - self.cost).abs() > EPS {
                    return Err(format!(
                        "sample cost {} disagrees with dist_sub {}",
                        self.cost, dist
                    ));
                }
                let mut sampled_ids: Vec<TupleId> = repaired.ids().collect();
                sampled_ids.sort_unstable();
                let mut kept_sorted = kept.clone();
                kept_sorted.sort_unstable();
                if sampled_ids != kept_sorted {
                    return Err(format!(
                        "kept ids {kept_sorted:?} disagree with the sampled table ({sampled_ids:?})"
                    ));
                }
            }
            ReportBody::Count { .. } | ReportBody::Classify { .. } => {}
        }
        Ok(())
    }

    /// Streams the report as one compact JSON document into `w`, in
    /// chunks of about 64 KiB that end on row boundaries: the CLI's
    /// `--json` output. The document is the one [`RepairReport::to_json_bytes`]
    /// returns.
    pub fn write_json<W: io::Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let mut target = |chunk: &[u8]| w.write_all(chunk);
        // Room past the chunk size for the row that crosses it.
        let capacity = self.json_size_hint().min(CHUNK + CHUNK / 16);
        self.serialize(Out::streaming(&mut target, capacity))
            .map(drop)
    }

    /// Writes the document into `out` under the `engine/serialize` span
    /// and finishes it.
    fn serialize(&self, out: Out<'_>) -> io::Result<Vec<u8>> {
        let rows = self.repaired().map_or(0, Table::len);
        serialize(out, rows, |out| {
            write_document(out, &self.head(), |out| self.body.write_json(out))
        })
    }

    /// The document's fields ahead of its `result`.
    fn head(&self) -> Head<'_> {
        Head {
            notion: self.notion,
            cost: self.cost,
            optimal: self.optimal,
            ratio: self.ratio,
            methods: &self.methods,
            dichotomy: &self.dichotomy,
            components: self.components.as_ref(),
            timings: self.timings,
        }
    }

    /// A capacity guess for the serialized report, in bytes: enough for
    /// the usual row of small cells, so that writing into a buffer of
    /// this size rarely reallocates.
    pub fn json_size_hint(&self) -> usize {
        let (rows, arity) = self
            .repaired()
            .map_or((0, 0), |t| (t.len(), t.schema().arity()));
        let ids = match &self.body {
            ReportBody::Subset { deleted, .. } | ReportBody::Mixed { deleted, .. } => deleted.len(),
            ReportBody::Mpd { kept, .. } | ReportBody::Sample { kept, .. } => kept.len(),
            _ => 0,
        };
        1024 + rows * (40 + 8 * arity) + ids * 8
    }

    /// The report as a compact JSON document.
    pub fn to_json(&self) -> String {
        String::from_utf8(self.to_json_bytes()).expect("the report writer emits UTF-8")
    }

    /// The same document as [`RepairReport::to_json`], as the bytes a
    /// server ships, without the UTF-8 check a `String` needs: written
    /// straight into the returned buffer, sized by
    /// [`RepairReport::json_size_hint`].
    pub fn to_json_bytes(&self) -> Vec<u8> {
        self.to_json_bytes_in(Vec::new())
    }

    /// [`RepairReport::to_json_bytes`] written into `buf`, which is
    /// cleared first: the returned buffer holds exactly the same bytes
    /// whatever `buf` held. A server that recycles a retired report's
    /// buffer this way writes into pages already mapped, instead of
    /// faulting a fresh allocation in for every large report.
    pub fn to_json_bytes_in(&self, mut buf: Vec<u8>) -> Vec<u8> {
        buf.clear();
        buf.reserve(self.json_size_hint());
        self.serialize(Out::buffer(buf))
            .expect("a buffer has no target to fail")
    }

    /// The report as a JSON value tree, parsed back from
    /// [`RepairReport::to_json`] so that the writer stays the only
    /// producer of report JSON. A non-finite number (an infinite cost,
    /// say) prints `null`, so it reads back as [`Json::Null`] rather than
    /// the [`Json::Num`] it started as.
    pub fn to_json_value(&self) -> Json {
        Json::parse(&self.to_json()).expect("the report writer emits valid JSON")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{schema_rabc, tup};

    #[test]
    fn dichotomy_report_both_sides() {
        let s = schema_rabc();
        let easy = DichotomyReport::classify(&FdSet::parse(&s, "A -> B C").unwrap());
        assert!(easy.osr_succeeds);
        assert_eq!(easy.hard_class, None);

        let hard = DichotomyReport::classify(&FdSet::parse(&s, "A -> B; B -> C").unwrap());
        assert!(!hard.osr_succeeds);
        // "chain" is lhs-nesting (§2.2): {A} and {B} are incomparable.
        assert!(!hard.chain);
        assert_eq!(hard.hard_class, Some(3));
        assert_eq!(hard.hard_core.as_deref(), Some("Δ_{A→B→C}"));
    }

    #[test]
    fn report_json_is_parseable_and_carries_cost() {
        let s = schema_rabc();
        let table = Table::build(s, vec![(tup![1, 1, "x"], 2.0)]).unwrap();
        let report = RepairReport {
            notion: Notion::Subset,
            methods: vec!["Dichotomy".to_string()],
            optimal: true,
            ratio: 1.0,
            cost: 2.0,
            dichotomy: DichotomyReport::classify(&FdSet::empty()),
            components: None,
            timings: Timings::default(),
            body: ReportBody::Subset {
                deleted: vec![TupleId(1)],
                repaired: table,
            },
        };
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("cost").unwrap().as_num(), Some(2.0));
        assert_eq!(parsed.get("notion").unwrap().as_str(), Some("s"));
        let repaired = parsed.get("result").unwrap().get("repaired").unwrap();
        assert_eq!(repaired.get("relation").unwrap().as_str(), Some("R"));
        let row = &repaired.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("weight").unwrap().as_num(), Some(2.0));
        // Int value serializes as a number, string as a string.
        let values = row.get("values").unwrap().as_arr().unwrap();
        assert_eq!(values[0].as_num(), Some(1.0));
        assert_eq!(values[2].as_str(), Some("x"));
    }

    /// A subset report whose document spans several [`CHUNK`]s: rows
    /// of escaped strings and integers, half of the ids deleted.
    fn large_report(rows: i64) -> RepairReport {
        let table = Table::build(
            schema_rabc(),
            (0..rows).map(|i| (tup![i, i * 7, Value::str(&format!("r\"{i}\" Δ"))], 1.5)),
        )
        .unwrap();
        RepairReport {
            notion: Notion::Subset,
            methods: vec!["Dichotomy".to_string()],
            optimal: true,
            ratio: 1.0,
            cost: 0.0,
            dichotomy: DichotomyReport::classify(&FdSet::empty()),
            components: None,
            timings: Timings::default(),
            body: ReportBody::Subset {
                deleted: (0..rows as u32 / 2).map(TupleId).collect(),
                repaired: table,
            },
        }
    }

    /// Accepts `left` bytes, then fails every write with a broken pipe.
    struct FailAfter {
        left: usize,
        got: Vec<u8>,
    }

    impl io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_target_that_fails_after_n_bytes_returns_its_error() {
        let report = large_report(5_000);
        let doc = report.to_json_bytes();
        assert!(doc.len() > 3 * CHUNK, "{} bytes", doc.len());
        for n in [0, 1, 1_000, CHUNK, CHUNK + 1, doc.len() - 1] {
            let mut w = FailAfter {
                left: n,
                got: Vec::new(),
            };
            let err = report.write_json(&mut w).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "after {n} bytes");
            assert_eq!(w.got, doc[..n], "after {n} bytes");
        }
        let mut w = FailAfter {
            left: doc.len(),
            got: Vec::new(),
        };
        report.write_json(&mut w).unwrap();
        assert_eq!(w.got, doc);
    }

    #[test]
    fn a_target_taking_one_byte_per_call_gets_the_whole_document() {
        struct OneByte(Vec<u8>);
        impl io::Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(&buf[..buf.len().min(1)]);
                Ok(buf.len().min(1))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let report = large_report(3_000);
        let mut w = OneByte(Vec::new());
        report.write_json(&mut w).unwrap();
        assert_eq!(w.0, report.to_json_bytes());
    }

    #[test]
    fn streamed_chunks_hold_at_most_a_chunk_plus_one_row() {
        struct Recording(Vec<Vec<u8>>);
        impl io::Write for Recording {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let report = large_report(5_000);
        let mut w = Recording(Vec::new());
        report.write_json(&mut w).unwrap();
        assert_eq!(w.0.concat(), report.to_json_bytes());
        assert!(w.0.len() > 3, "{} chunks", w.0.len());
        let value = report.to_json_value();
        let longest_row = value
            .get("result")
            .and_then(|r| r.get("repaired"))
            .and_then(|t| t.get("rows"))
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|row| row.to_string().len() + 1)
            .max()
            .unwrap();
        let (last, full) = w.0.split_last().unwrap();
        for chunk in full {
            assert!(chunk.len() >= CHUNK, "an early chunk of {}", chunk.len());
            assert!(
                chunk.len() < CHUNK + longest_row,
                "a chunk of {}",
                chunk.len()
            );
        }
        assert!(
            last.len() < CHUNK + longest_row,
            "a last chunk of {}",
            last.len()
        );
    }

    #[test]
    fn a_reused_buffer_holding_junk_writes_the_same_bytes() {
        use crate::{Planner, RepairEngine, RepairRequest};
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B").unwrap();
        let rows = (0..300i64).map(|i| (tup![i / 3, i % 2, i % 5], [0.5, 0.9][i as usize % 2]));
        let table = Table::build(s, rows).unwrap();
        for request in [
            RepairRequest::subset(),
            RepairRequest::update(),
            RepairRequest::mpd(),
        ] {
            let report = Planner.run(&table, &fds, &request).unwrap();
            let expected = report.to_json_bytes();
            // Junk longer and shorter than the document, and a buffer
            // with spare capacity past its junk.
            for junk in [vec![b'x'; expected.len() * 2], vec![b'{'; 7], {
                let mut v = Vec::with_capacity(expected.len() * 3);
                v.extend_from_slice(b"]]]");
                v
            }] {
                assert_eq!(report.to_json_bytes_in(junk), expected, "{request:?}");
            }
        }
    }

    #[test]
    fn the_serialize_span_counts_the_bytes_written() {
        let report = large_report(2_000);
        let collector = fd_trace::Collector::default();
        let mut streamed = Vec::new();
        let bytes = {
            let _guard = collector.install();
            report.write_json(&mut streamed).unwrap();
            report.to_json_bytes()
        };
        assert_eq!(streamed, bytes);
        let spans: Vec<_> = collector
            .events()
            .into_iter()
            .filter(|e| e.name == "engine/serialize")
            .collect();
        assert_eq!(spans.len(), 2);
        for span in spans {
            let attr = |key| span.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            assert_eq!(
                attr("bytes"),
                Some(&fd_trace::AttrValue::U64(bytes.len() as u64))
            );
            assert_eq!(attr("rows"), Some(&fd_trace::AttrValue::U64(2_000)));
        }
    }

    #[test]
    fn counts_beyond_f64_precision_serialize_as_exact_strings() {
        let report = RepairReport {
            notion: Notion::Count,
            methods: vec!["ChainCount".to_string()],
            optimal: true,
            ratio: 1.0,
            cost: 0.0,
            dichotomy: DichotomyReport::classify(&FdSet::empty()),
            components: None,
            timings: Timings::default(),
            body: ReportBody::Count {
                subset_repairs: Some((1u128 << 60) + 1),
                optimal_subset_repairs: Some(4),
                notes: Vec::new(),
            },
        };
        let parsed = Json::parse(&report.to_json()).unwrap();
        let result = parsed.get("result").unwrap();
        // 2^60 + 1 is not representable in f64 — exact decimal string.
        assert_eq!(
            result.get("subset_repairs").unwrap().as_str(),
            Some("1152921504606846977")
        );
        // Small counts stay plain numbers.
        assert_eq!(
            result.get("optimal_subset_repairs").unwrap().as_num(),
            Some(4.0)
        );
    }
}
