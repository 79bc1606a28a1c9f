use crate::{RawValue, SpaceError};

/// A stable mapping between symbolic attribute values and the natural
/// numbers the overlay routes on.
///
/// The paper's §3 assumes "attribute values can be uniquely mapped to
/// natural numbers (although they need not be represented as such)" and
/// gives queries like `CPU = IA32` and `OS ∈ {Linux 2.6.19-1.2895, …}`.
/// `ValueCatalog` is that mapping: symbols are assigned codes in
/// *registration order*, so consecutive registration of an ordered family
/// (e.g. kernel versions) makes symbolic ranges meaningful range queries.
///
/// ```
/// use attrspace::ValueCatalog;
///
/// let mut os = ValueCatalog::new();
/// os.register("linux-2.6.19")?;
/// os.register("linux-2.6.20")?;
/// os.register("linux-2.6.21")?;
///
/// let (lo, hi) = os.range("linux-2.6.19", "linux-2.6.21").unwrap();
/// assert!(lo < hi);
/// assert_eq!(os.symbol(os.code("linux-2.6.20").unwrap()), Some("linux-2.6.20"));
/// # Ok::<(), attrspace::SpaceError>(())
/// ```
/// Symbols are interned into one shared byte arena instead of one `String`
/// allocation apiece (plus a `HashMap<String, RawValue>` duplicating every
/// key): a catalog of *n* symbols is exactly one growing buffer, a span
/// table, and a sorted permutation for symbol→code lookup by binary
/// search. Per-instance cost matters because profiles can carry catalogs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueCatalog {
    /// Every symbol's bytes, concatenated in registration (= code) order.
    arena: String,
    /// `(offset, len)` span of each code's symbol in `arena`.
    spans: Vec<(u32, u32)>,
    /// Codes permuted so their symbols are lexicographically ascending —
    /// the "index" side of the old hash map, at 8 bytes per symbol.
    sorted: Vec<u32>,
}

impl ValueCatalog {
    fn symbol_at(&self, code: usize) -> &str {
        let (off, len) = self.spans[code];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Binary-searches the sorted permutation for `symbol`: `Ok` holds the
    /// position whose code resolves to `symbol`, `Err` the insertion point.
    fn lookup(&self, symbol: &str) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&code| self.symbol_at(code as usize).cmp(symbol))
    }
    /// Creates an empty catalog.
    pub fn new() -> Self {
        ValueCatalog::default()
    }

    /// Builds a catalog from an ordered list of symbols.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::DuplicateDimension`] (reused for duplicate
    /// symbols) if a symbol appears twice.
    pub fn from_symbols<I, S>(symbols: I) -> Result<Self, SpaceError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cat = ValueCatalog::new();
        for s in symbols {
            cat.register(s)?;
        }
        Ok(cat)
    }

    /// Registers a symbol, assigning it the next code. Returns the code.
    ///
    /// # Errors
    ///
    /// Returns an error if the symbol is already registered.
    pub fn register(&mut self, symbol: impl Into<String>) -> Result<RawValue, SpaceError> {
        let symbol = symbol.into();
        let slot = match self.lookup(&symbol) {
            Ok(_) => return Err(SpaceError::DuplicateDimension { name: symbol }),
            Err(slot) => slot,
        };
        let code = self.spans.len();
        let off = u32::try_from(self.arena.len()).expect("catalog arena under 4 GiB");
        let len = u32::try_from(symbol.len()).expect("symbol under 4 GiB");
        self.arena.push_str(&symbol);
        self.spans.push((off, len));
        self.sorted.insert(slot, code as u32);
        Ok(code as RawValue)
    }

    /// The code of a symbol, if registered.
    pub fn code(&self, symbol: &str) -> Option<RawValue> {
        self.lookup(symbol)
            .ok()
            .map(|pos| RawValue::from(self.sorted[pos]))
    }

    /// The symbol of a code, if assigned.
    pub fn symbol(&self, code: RawValue) -> Option<&str> {
        usize::try_from(code)
            .ok()
            .filter(|&i| i < self.spans.len())
            .map(|i| self.symbol_at(i))
    }

    /// The inclusive code range spanned by two symbols (in either order),
    /// for symbolic range queries over version-ordered families.
    pub fn range(&self, a: &str, b: &str) -> Option<(RawValue, RawValue)> {
        let ca = self.code(a)?;
        let cb = self.code(b)?;
        Some((ca.min(cb), ca.max(cb)))
    }

    /// Number of registered symbols.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no symbols are registered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over `(code, symbol)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (RawValue, &str)> {
        (0..self.spans.len()).map(|i| (i as RawValue, self.symbol_at(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_defines_codes() {
        let mut c = ValueCatalog::new();
        assert_eq!(c.register("ia32").unwrap(), 0);
        assert_eq!(c.register("x86_64").unwrap(), 1);
        assert_eq!(c.register("arm64").unwrap(), 2);
        assert_eq!(c.code("x86_64"), Some(1));
        assert_eq!(c.symbol(2), Some("arm64"));
        assert_eq!(c.symbol(9), None);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn duplicate_symbols_rejected() {
        let mut c = ValueCatalog::new();
        c.register("linux").unwrap();
        assert!(c.register("linux").is_err());
    }

    #[test]
    fn symbolic_ranges_span_versions() {
        let c = ValueCatalog::from_symbols(["2.6.19", "2.6.20", "2.6.21", "2.6.22"]).unwrap();
        assert_eq!(c.range("2.6.20", "2.6.22"), Some((1, 3)));
        assert_eq!(
            c.range("2.6.22", "2.6.20"),
            Some((1, 3)),
            "order-insensitive"
        );
        assert_eq!(c.range("2.6.20", "9.9"), None);
    }

    #[test]
    fn lookup_survives_non_lexicographic_registration() {
        // Codes follow registration order; the sorted permutation must
        // track lexicographic order independently for lookups to work.
        let mut c = ValueCatalog::new();
        for s in ["zeta", "alpha", "mu", "beta", "z", "a"] {
            c.register(s).unwrap();
        }
        assert_eq!(c.code("zeta"), Some(0));
        assert_eq!(c.code("a"), Some(5));
        assert_eq!(c.code("mu"), Some(2));
        assert_eq!(c.code("m"), None, "prefix of a symbol is not a symbol");
        assert_eq!(c.symbol(3), Some("beta"));
        for (code, sym) in c.iter() {
            assert_eq!(c.code(sym), Some(code), "iter and lookup agree");
        }
    }

    #[test]
    fn iter_in_code_order() {
        let c = ValueCatalog::from_symbols(["a", "b"]).unwrap();
        let got: Vec<(u64, &str)> = c.iter().collect();
        assert_eq!(got, vec![(0, "a"), (1, "b")]);
        assert!(!c.is_empty());
    }
}
