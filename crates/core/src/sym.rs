//! Dictionary-encoded symbols: the columnar storage currency of fd-core.
//!
//! Every attribute value stored in a [`Table`](crate::Table) is encoded as
//! a 32-bit [`Sym`]. The paper's repair notions only ever compare values
//! for *equality* (§2.2–2.3: FD satisfaction, Hamming distance, fresh
//! constants), so a dense symbol loses nothing — and it turns the scan
//! and hash hot paths from string traversals into word operations. The
//! design follows the classic RDF/column-store dictionary pattern
//! (encode each term once, compare machine words forever after).
//!
//! # Symbol layout
//!
//! A [`Sym`] is a tagged `u32` — the top two bits select the class, the
//! low 30 bits are the payload:
//!
//! | tag  | class        | payload                                        |
//! |------|--------------|------------------------------------------------|
//! | `00` | inline `Int`   | zig-zag of the integer (`-2²⁹ ≤ v < 2²⁹`)    |
//! | `01` | inline `Fresh` | the fresh tag (`< 2³⁰`)                      |
//! | `10` | `Str`          | index into the dictionary's string pool      |
//! | `11` | spilled        | index into the dictionary's value pool       |
//!
//! Small integers and young fresh constants never touch the dictionary
//! at all; strings, composites, and out-of-range values are interned
//! into per-dictionary pools. Within one dictionary the encoding is
//! **canonical**: `encode(v) == encode(w)` iff `v == w`, which is the
//! invariant every symbol-space scan relies on. Symbols from *different*
//! dictionaries are not comparable — cross-table operations go through
//! decoded [`Value`]s.
//!
//! The dictionary is append-only and insertion-ordered, so a table built
//! in a deterministic row order always produces the same symbols — the
//! property that keeps golden, shard-parity, and byte-replay suites
//! bit-identical under the columnar engine.

use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Tag for inline integers (zig-zag payload).
const TAG_INT: u32 = 0b00 << 30;
/// Tag for inline fresh constants.
const TAG_FRESH: u32 = 0b01 << 30;
/// Tag for interned strings.
const TAG_STR: u32 = 0b10 << 30;
/// Tag for spilled values (big ints, big fresh tags, composites).
const TAG_SPILL: u32 = 0b11 << 30;
const TAG_MASK: u32 = 0b11 << 30;
const PAYLOAD_MASK: u32 = !TAG_MASK;

/// A dictionary-encoded attribute value: a tagged 32-bit word.
///
/// Symbols are [`Copy`], compare/hash as plain integers, and are equal
/// iff the values they encode are equal — *within the dictionary that
/// produced them*.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Sym(u32);

impl Sym {
    /// The raw tagged word, e.g. for hashing symbol tuples.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Encodes an integer inline, if it fits the 30-bit zig-zag range.
    #[inline]
    fn from_int(v: i64) -> Option<Sym> {
        let zz = ((v << 1) ^ (v >> 63)) as u64;
        (zz < (1 << 30)).then_some(Sym(TAG_INT | zz as u32))
    }

    /// Encodes a fresh tag inline, if it fits 30 bits.
    #[inline]
    fn from_fresh(tag: u64) -> Option<Sym> {
        (tag < (1 << 30)).then_some(Sym(TAG_FRESH | tag as u32))
    }

    /// True iff this symbol encodes a fresh constant **inline**. Spilled
    /// values must be checked through [`Dictionary::sym_contains_fresh`].
    #[inline]
    pub fn is_inline_fresh(self) -> bool {
        self.0 & TAG_MASK == TAG_FRESH
    }
}

/// 64-bit FNV-1a — a fast, deterministic byte-wise hasher for symbol
/// keys (and, as `fd_engine::Fnv64`, for cache keys). Grouping code
/// always verifies true equality after a hash match, so collision
/// quality affects speed, never correctness.
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> FnvHasher {
        FnvHasher::default()
    }
}

impl Default for FnvHasher {
    #[inline]
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`]-keyed maps.
pub type FnvBuild = BuildHasherDefault<FnvHasher>;

/// The per-table value dictionary: interns strings, composites, and
/// out-of-range integers / fresh tags into dense symbol pools.
///
/// Tables share dictionaries copy-on-write (`Arc`): deriving a sub-table
/// (subset, partition block, component shard) costs one pointer clone;
/// only a push of a genuinely *new* value forces a pool copy.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    /// String pool, in first-intern order; `Sym` payload indexes here.
    strs: Vec<Arc<str>>,
    str_lookup: HashMap<Arc<str>, u32, FnvBuild>,
    /// Spilled values (big ints, big fresh, composites), first-intern order.
    spill: Vec<Value>,
    spill_lookup: HashMap<Value, u32, FnvBuild>,
    /// Whether any spilled value contains a fresh constant.
    spill_has_fresh: bool,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Number of pooled (non-inline) symbols: distinct strings plus
    /// distinct spilled values.
    pub fn len(&self) -> usize {
        self.strs.len() + self.spill.len()
    }

    /// True iff no value has been pooled (inline symbols never pool).
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty() && self.spill.is_empty()
    }

    /// Encodes `v` without mutating: `Some(sym)` when `v` is inline or
    /// already pooled, `None` when interning would have to grow a pool.
    pub fn lookup(&self, v: &Value) -> Option<Sym> {
        match v {
            Value::Int(i) => match Sym::from_int(*i) {
                Some(s) => Some(s),
                None => self.lookup_spill(v),
            },
            Value::Fresh(tag) => match Sym::from_fresh(*tag) {
                Some(s) => Some(s),
                None => self.lookup_spill(v),
            },
            Value::Str(s) => self.str_lookup.get(&**s).map(|&i| Sym(TAG_STR | i)),
            Value::Composite(_) => self.lookup_spill(v),
        }
    }

    fn lookup_spill(&self, v: &Value) -> Option<Sym> {
        self.spill_lookup.get(v).map(|&i| Sym(TAG_SPILL | i))
    }

    /// Interns `v`, growing the pools when it is new. Canonical: equal
    /// values always yield equal symbols.
    pub fn intern(&mut self, v: &Value) -> Sym {
        match v {
            Value::Int(i) => Sym::from_int(*i).unwrap_or_else(|| self.intern_spill(v)),
            Value::Fresh(tag) => Sym::from_fresh(*tag).unwrap_or_else(|| self.intern_spill(v)),
            Value::Str(s) => self.intern_arc_str(s),
            Value::Composite(_) => self.intern_spill(v),
        }
    }

    fn intern_arc_str(&mut self, s: &Arc<str>) -> Sym {
        if let Some(&i) = self.str_lookup.get(&**s) {
            return Sym(TAG_STR | i);
        }
        let i = self.strs.len() as u32;
        assert!(
            i <= PAYLOAD_MASK,
            "dictionary string pool exhausted (2^30 symbols)"
        );
        self.strs.push(Arc::clone(s));
        self.str_lookup.insert(Arc::clone(s), i);
        Sym(TAG_STR | i)
    }

    /// Interns a raw text field, the zero-copy CSV/`.fdr` entry point:
    /// text that parses as `i64` becomes an integer symbol, anything
    /// else a string symbol — allocating a pooled `Arc<str>` only the
    /// first time a distinct string appears.
    pub fn intern_text(&mut self, text: &str) -> Sym {
        match text.parse::<i64>() {
            Ok(i) => self.intern_int(i),
            Err(_) => self.intern_str(text),
        }
    }

    /// Interns an integer: inline when it fits, else into the spill
    /// pool. The same symbol as `intern(&Value::Int(i))`.
    #[inline]
    pub fn intern_int(&mut self, i: i64) -> Sym {
        Sym::from_int(i).unwrap_or_else(|| self.intern_spill(&Value::Int(i)))
    }

    /// Interns a string as a string, whatever it looks like, allocating
    /// a pooled `Arc<str>` only the first time a distinct string
    /// appears. The same symbol as `intern(&Value::str(text))`.
    pub fn intern_str(&mut self, text: &str) -> Sym {
        if let Some(&i) = self.str_lookup.get(text) {
            return Sym(TAG_STR | i);
        }
        let arc: Arc<str> = Arc::from(text);
        let i = self.strs.len() as u32;
        assert!(
            i <= PAYLOAD_MASK,
            "dictionary string pool exhausted (2^30 symbols)"
        );
        self.strs.push(Arc::clone(&arc));
        self.str_lookup.insert(arc, i);
        Sym(TAG_STR | i)
    }

    fn intern_spill(&mut self, v: &Value) -> Sym {
        if let Some(&i) = self.spill_lookup.get(v) {
            return Sym(TAG_SPILL | i);
        }
        let i = self.spill.len() as u32;
        assert!(
            i <= PAYLOAD_MASK,
            "dictionary spill pool exhausted (2^30 symbols)"
        );
        self.spill_has_fresh |= value_contains_fresh(v);
        self.spill.push(v.clone());
        self.spill_lookup.insert(v.clone(), i);
        Sym(TAG_SPILL | i)
    }

    /// Decodes a symbol back to a [`Value`]. Cheap: integers and fresh
    /// tags reconstruct arithmetically, pooled strings clone an `Arc`.
    ///
    /// # Panics
    ///
    /// On a pooled symbol from a different dictionary whose index is out
    /// of range (symbols are only meaningful with their own dictionary).
    pub fn decode(&self, sym: Sym) -> Value {
        match self.resolve(sym) {
            SymRef::Int(v) => Value::Int(v),
            SymRef::Str(s) => Value::Str(Arc::clone(s)),
            SymRef::Other(v) => v.into_owned(),
        }
    }

    /// Resolves a symbol to its value without building a [`Value`] where
    /// the encoding allows: inline integers come back as `i64` and pooled
    /// strings as the pool's own string. The decode-at-boundary hook for
    /// writers that stream a table out cell by cell.
    ///
    /// # Panics
    ///
    /// Like [`Dictionary::decode`], on a pooled symbol from another
    /// dictionary whose index is out of range.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> SymRef<'_> {
        let payload = sym.0 & PAYLOAD_MASK;
        match sym.0 & TAG_MASK {
            TAG_INT => {
                let zz = payload as u64;
                SymRef::Int(((zz >> 1) as i64) ^ -((zz & 1) as i64))
            }
            TAG_FRESH => SymRef::Other(Cow::Owned(Value::Fresh(payload as u64))),
            TAG_STR => SymRef::Str(&self.strs[payload as usize]),
            _ => SymRef::Other(Cow::Borrowed(&self.spill[payload as usize])),
        }
    }

    /// Feeds the pooled dictionary state into a hasher with length
    /// framing. Together with a table's raw symbol columns this
    /// determines every stored value, so cache keys can hash u32 words
    /// plus the (deduplicated, typically tiny) pools instead of decoding
    /// each row back to a [`Value`].
    pub fn hash_pools<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.strs.len());
        for s in &self.strs {
            h.write_usize(s.len());
            h.write(s.as_bytes());
        }
        h.write_usize(self.spill.len());
        for v in &self.spill {
            std::hash::Hash::hash(v, h);
        }
    }

    /// True iff `sym` encodes a value containing a fresh constant
    /// (inline fresh, a spilled big fresh, or a composite with a fresh
    /// component).
    pub fn sym_contains_fresh(&self, sym: Sym) -> bool {
        match sym.0 & TAG_MASK {
            TAG_FRESH => true,
            TAG_SPILL => {
                self.spill_has_fresh
                    && value_contains_fresh(&self.spill[(sym.0 & PAYLOAD_MASK) as usize])
            }
            _ => false,
        }
    }
}

/// "Not mapped yet" in a [`Remap`] slot. Pooled symbols only ever map to
/// pooled symbols, so the inline integer 0 can never be a real target.
const UNMAPPED: Sym = Sym(TAG_INT);

/// Translates the symbols of one dictionary into another: each pooled
/// symbol is interned into the target the first time it is met, through
/// a dense table indexed by its payload; inline symbols pass through.
/// Met in row-major order, pooled values land in the target in exactly
/// the order a sequential load would have interned them.
pub(crate) struct Remap<'a> {
    from: &'a Dictionary,
    strs: Vec<Sym>,
    spill: Vec<Sym>,
}

impl<'a> Remap<'a> {
    /// An empty translation out of `from`.
    pub(crate) fn new(from: &'a Dictionary) -> Remap<'a> {
        Remap {
            from,
            strs: vec![UNMAPPED; from.strs.len()],
            spill: vec![UNMAPPED; from.spill.len()],
        }
    }

    /// The symbol of `sym`'s value in `into`, interning it there if new.
    #[inline]
    pub(crate) fn map(&mut self, into: &mut Dictionary, sym: Sym) -> Sym {
        let payload = (sym.0 & PAYLOAD_MASK) as usize;
        match sym.0 & TAG_MASK {
            TAG_STR => {
                let slot = &mut self.strs[payload];
                if *slot == UNMAPPED {
                    *slot = into.intern_arc_str(&self.from.strs[payload]);
                }
                *slot
            }
            TAG_SPILL => {
                let slot = &mut self.spill[payload];
                if *slot == UNMAPPED {
                    *slot = into.intern_spill(&self.from.spill[payload]);
                }
                *slot
            }
            _ => sym,
        }
    }
}

/// A symbol's value as [`Dictionary::resolve`] returns it: borrowed
/// from the dictionary where it is pooled, never allocated.
#[derive(Clone, Debug, PartialEq)]
pub enum SymRef<'a> {
    /// An inline integer (`-2²⁹ ≤ v < 2²⁹`). Integers outside that range
    /// are spilled and come back as [`SymRef::Other`].
    Int(i64),
    /// A pooled string.
    Str(&'a Arc<str>),
    /// Any other value: an inline fresh constant, or a spilled big
    /// integer, big fresh constant or composite.
    Other(Cow<'a, Value>),
}

/// True iff the value is or contains a fresh constant.
pub(crate) fn value_contains_fresh(v: &Value) -> bool {
    match v {
        Value::Fresh(_) => true,
        Value::Composite(parts) => parts.iter().any(value_contains_fresh),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_ints_round_trip() {
        let d = Dictionary::new();
        for v in [0i64, 1, -1, 7, -7, (1 << 29) - 1, -(1 << 29)] {
            let sym = d.lookup(&Value::Int(v)).expect("inline");
            assert_eq!(d.decode(sym), Value::Int(v));
        }
        assert!(d.is_empty());
    }

    #[test]
    fn out_of_range_ints_spill_and_dedup() {
        let mut d = Dictionary::new();
        let big = Value::Int(1 << 40);
        let a = d.intern(&big);
        let b = d.intern(&big);
        assert_eq!(a, b);
        assert_eq!(d.decode(a), big);
        assert_eq!(d.len(), 1);
        assert_ne!(d.intern(&Value::Int(-(1 << 40))), a);
    }

    #[test]
    fn strings_intern_once() {
        let mut d = Dictionary::new();
        let a = d.intern(&Value::str("Paris"));
        let b = d.intern_text("Paris");
        let c = d.intern(&Value::str("Nice"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.len(), 2);
        assert_eq!(d.decode(a), Value::str("Paris"));
    }

    #[test]
    fn intern_text_parses_integers() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern_text("42"), d.intern(&Value::Int(42)));
        assert_eq!(d.intern_text("-3"), d.intern(&Value::Int(-3)));
        // Leading zeros still parse as i64 — same as the CSV loader.
        assert_eq!(d.intern_text("042"), d.intern(&Value::Int(42)));
        // Anything that doesn't parse is a string.
        let text = d.intern_text("4.2");
        assert_eq!(d.decode(text), Value::str("4.2"));
    }

    #[test]
    fn fresh_and_composites() {
        let mut d = Dictionary::new();
        let young = d.intern(&Value::Fresh(5));
        assert!(young.is_inline_fresh());
        assert!(d.sym_contains_fresh(young));
        let old = d.intern(&Value::Fresh(1 << 40));
        assert!(!old.is_inline_fresh());
        assert!(d.sym_contains_fresh(old));
        assert_eq!(d.decode(old), Value::Fresh(1 << 40));
        let comp = Value::pair(Value::Fresh(2), Value::str("x"));
        let c = d.intern(&comp);
        assert!(d.sym_contains_fresh(c));
        assert_eq!(d.decode(c), comp);
        let plain = d.intern(&Value::pair(1.into(), 2.into()));
        assert!(!d.sym_contains_fresh(plain));
    }

    #[test]
    fn scales_past_u16_distinct_symbols() {
        // The pool index is 30 bits; crossing the 16-bit boundary must
        // not recycle or corrupt symbols.
        let mut d = Dictionary::new();
        let n = (u16::MAX as usize) + 10;
        let syms: Vec<Sym> = (0..n).map(|i| d.intern_text(&format!("s{i}"))).collect();
        assert_eq!(d.len(), n);
        let distinct: std::collections::HashSet<u32> = syms.iter().map(|s| s.raw()).collect();
        assert_eq!(distinct.len(), n);
        for i in [0usize, 1, 65_534, 65_535, 65_536, n - 1] {
            assert_eq!(d.decode(syms[i]), Value::str(&format!("s{i}")));
        }
    }

    #[test]
    fn equality_is_canonical_across_classes() {
        let mut d = Dictionary::new();
        // The same logical value through different intern paths.
        assert_eq!(d.intern(&Value::Int(9)), d.intern_text("9"));
        // Distinct classes never collide: int 9 vs string "9" vs fresh 9.
        let int9 = d.intern(&Value::Int(9));
        let str9 = d.intern(&Value::str("9"));
        let fresh9 = d.intern(&Value::Fresh(9));
        assert_ne!(int9, str9);
        assert_ne!(int9, fresh9);
        assert_ne!(str9, fresh9);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary values across every class: inline and spilled ints,
    /// strings, inline and spilled fresh constants, nested composites.
    fn arb_value() -> impl Strategy<Value = Value> {
        (0..7u8, any::<i64>(), "[a-zA-Z0-9 _.-]{0,12}", any::<u64>()).prop_map(
            |(kind, int, text, tag)| match kind {
                0 => Value::Int(int),        // usually spilled
                1 => Value::Int(int % 1000), // inline zig-zag range
                2 => Value::str(&text),
                3 => Value::Fresh(tag),        // usually spilled
                4 => Value::Fresh(tag % 1000), // inline range
                5 => Value::pair(Value::Int(int), Value::str(&text)),
                _ => Value::pair(
                    Value::pair(Value::Fresh(tag), Value::Int(int % 1000)),
                    Value::str(&text),
                ),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// decode ∘ intern = id, interning is stable, and symbol
        /// equality coincides with value equality within a dictionary.
        #[test]
        fn decode_after_intern_is_identity(values in proptest::collection::vec(arb_value(), 0..32)) {
            let mut d = Dictionary::new();
            let syms: Vec<Sym> = values.iter().map(|v| d.intern(v)).collect();
            for (v, s) in values.iter().zip(&syms) {
                prop_assert_eq!(&d.decode(*s), v);
                prop_assert_eq!(d.lookup(v), Some(*s));
                prop_assert_eq!(d.sym_contains_fresh(*s), value_contains_fresh(v));
                // resolve agrees with decode, and only inline ints
                // resolve to `Int`.
                let resolved = match d.resolve(*s) {
                    SymRef::Int(i) => {
                        prop_assert!((-(1i64 << 29)..(1i64 << 29)).contains(&i));
                        Value::Int(i)
                    }
                    SymRef::Str(text) => Value::str(text),
                    SymRef::Other(other) => other.into_owned(),
                };
                prop_assert_eq!(&resolved, v);
            }
            for (i, (v, s)) in values.iter().zip(&syms).enumerate() {
                for (w, t) in values.iter().zip(&syms).skip(i) {
                    prop_assert_eq!(s == t, v == w);
                }
            }
        }
    }
}
