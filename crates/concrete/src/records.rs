//! Columnar execution-log records.
//!
//! The paper's monitor (Fjalar) logs a fixed set of variables at each
//! function entry and exit. A [`Site`] is one such instrumentation
//! point: its [`Location`] and the ordered variables a record there
//! logs. A log's [`Records`] are a `u32` site id per record plus one
//! flat column of values, each record contributing one value per
//! variable of its site. The column holds `i32`s while every value
//! converts to one exactly; the first value that does not (fractional,
//! out of range, `-0.0`, NaN or infinite) widens the whole column to
//! `f64`, once, so the column is exact for every `f64`. Names and
//! layouts live once, in a [`SiteTable`] behind an `Arc` that every log
//! of one corpus can share, so a record costs 4 bytes plus 4 bytes per
//! value while its log's column is narrow, and 8 once it is wide.

use crate::event::{Location, Measure, VarId, VarRole};
use minic::Type;
use sir::Module;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One instrumentation site: a location and the variables every record
/// logged there carries, in order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Site {
    /// The instrumentation point.
    pub loc: Location,
    /// The logged variables, in record order.
    pub vars: Vec<VarId>,
}

/// The sites a set of logs index into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteTable {
    sites: Vec<Site>,
}

impl SiteTable {
    /// The program monitor's sites for `module`, from SIR's static
    /// types: site `2i` is the entry of function `i` (its parameters,
    /// then every global) and site `2i + 1` its exit (the return value,
    /// then every global). `int` and `bool` are logged as values, `str`
    /// as lengths, and `buf` not at all — exactly the variables
    /// [`crate::Value::numeric_view`] logs in a well-typed run.
    pub fn of(module: &Module) -> Arc<SiteTable> {
        let var = |name: &Arc<str>, role: VarRole, ty: Type| {
            let measure = match ty {
                Type::Int | Type::Bool => Measure::Value,
                Type::Str => Measure::Length,
                Type::Buf(_) => return None,
            };
            Some(VarId::new(name.clone(), role, measure))
        };
        let globals: Vec<VarId> = module
            .globals
            .iter()
            .filter_map(|g| var(&g.name.as_str().into(), VarRole::Global, g.ty))
            .collect();
        let ret: Arc<str> = "ret".into();
        let mut sites = Vec::with_capacity(2 * module.funcs.len());
        for func in &module.funcs {
            let name: Arc<str> = func.name.as_str().into();
            let params = func
                .params
                .iter()
                .filter_map(|(p, ty)| var(&p.as_str().into(), VarRole::Param, *ty));
            sites.push(Site {
                loc: Location::enter(name.clone()),
                vars: params.chain(globals.iter().cloned()).collect(),
            });
            let ret = func.ret.and_then(|ty| var(&ret, VarRole::Return, ty));
            sites.push(Site {
                loc: Location::leave(name),
                vars: ret.into_iter().chain(globals.iter().cloned()).collect(),
            });
        }
        Arc::new(SiteTable { sites })
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if the table has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn site(&self, id: u32) -> &Site {
        &self.sites[id as usize]
    }

    /// The sites in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Site> {
        self.sites.iter()
    }
}

/// `value` as an `i32`, if it converts to one exactly: not fractional,
/// not out of range, and not `-0.0`, NaN or infinite.
#[inline]
fn narrow(value: f64) -> Option<i32> {
    let n = value as i32;
    (f64::from(n).to_bits() == value.to_bits()).then_some(n)
}

/// A log's value column: `i32` while every value pushed converts to one
/// exactly, `f64` from the first value that does not.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Narrow(Vec<i32>),
    Wide(Vec<f64>),
}

impl Default for Column {
    fn default() -> Column {
        Column::Narrow(Vec::new())
    }
}

impl Column {
    /// Appends `value`, widening the column if it is the first value
    /// that does not fit an `i32`.
    #[inline]
    pub(crate) fn push(&mut self, value: f64) {
        match self {
            Column::Narrow(ns) => match narrow(value) {
                Some(n) => ns.push(n),
                None => self.widen(value),
            },
            Column::Wide(vs) => vs.push(value),
        }
    }

    /// Converts a narrow column to `f64` and appends `value`.
    #[cold]
    fn widen(&mut self, value: f64) {
        if let Column::Narrow(ns) = self {
            *self = Column::Wide(ns.iter().map(|&n| f64::from(n)).collect());
        }
        self.push(value);
    }

    /// Gives back the growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        match self {
            Column::Narrow(ns) => ns.shrink_to_fit(),
            Column::Wide(vs) => vs.shrink_to_fit(),
        }
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.view().len()
    }

    /// The column as a borrowed view.
    pub(crate) fn view(&self) -> Values<'_> {
        match self {
            Column::Narrow(ns) => Values::Narrow(ns),
            Column::Wide(vs) => Values::Wide(vs),
        }
    }
}

impl Extend<f64> for Column {
    #[inline]
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for value in values {
            self.push(value);
        }
    }
}

/// A borrowed run of a value column, of either width. Each value reads
/// back as the `f64` that was logged, bit for bit.
#[derive(Clone, Copy)]
pub enum Values<'a> {
    /// Every value of the log converts to an `i32` exactly.
    Narrow(&'a [i32]),
    /// Some value of the log does not.
    Wide(&'a [f64]),
}

impl<'a> Values<'a> {
    /// Number of values.
    pub fn len(self) -> usize {
        match self {
            Values::Narrow(ns) => ns.len(),
            Values::Wide(vs) => vs.len(),
        }
    }

    /// True if there are no values.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value, or `None` if out of range.
    pub fn get(self, i: usize) -> Option<f64> {
        match self {
            Values::Narrow(ns) => ns.get(i).map(|&n| f64::from(n)),
            Values::Wide(vs) => vs.get(i).copied(),
        }
    }

    /// The values in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = f64> + 'a {
        (0..self.len()).map(move |i| match self {
            Values::Narrow(ns) => f64::from(ns[i]),
            Values::Wide(vs) => vs[i],
        })
    }

    /// The first `mid` values and the rest.
    ///
    /// # Panics
    ///
    /// Panics if `mid > self.len()`.
    fn split_at(self, mid: usize) -> (Values<'a>, Values<'a>) {
        match self {
            Values::Narrow(ns) => {
                let (a, b) = ns.split_at(mid);
                (Values::Narrow(a), Values::Narrow(b))
            }
            Values::Wide(vs) => {
                let (a, b) = vs.split_at(mid);
                (Values::Wide(a), Values::Wide(b))
            }
        }
    }
}

/// Values compare as `f64`s, whatever their widths.
impl PartialEq for Values<'_> {
    fn eq(&self, other: &Values<'_>) -> bool {
        match (*self, *other) {
            (Values::Narrow(a), Values::Narrow(b)) => a == b,
            (a, b) => a.len() == b.len() && a.iter().eq(b.iter()),
        }
    }
}

impl fmt::Debug for Values<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The sampled records of one log, stored by column: a site id per
/// record and every record's values back to back.
#[derive(Clone)]
pub struct Records {
    table: Arc<SiteTable>,
    sites: Vec<u32>,
    values: Column,
}

impl Records {
    /// Builds records with their own site table from rows of a location
    /// and its (variable, value) pairs, interning each distinct
    /// (location, variable list) once.
    ///
    /// # Example
    ///
    /// ```
    /// use concrete::{Location, Measure, Records, VarId, VarRole};
    ///
    /// let g = VarId::new("g", VarRole::Global, Measure::Value);
    /// let recs = Records::from_rows([
    ///     (Location::enter("main"), vec![(g.clone(), 1.0)]),
    ///     (Location::enter("main"), vec![(g, 2.0)]),
    /// ]);
    /// assert_eq!(recs.len(), 2);
    /// assert_eq!(recs.table().len(), 1);
    /// assert_eq!(recs.values().iter().collect::<Vec<_>>(), [1.0, 2.0]);
    /// ```
    pub fn from_rows<V>(rows: impl IntoIterator<Item = (Location, V)>) -> Records
    where
        V: IntoIterator<Item = (VarId, f64)>,
    {
        let mut builder = RecordsBuilder::default();
        for (loc, vars) in rows {
            builder.push(loc, vars);
        }
        builder.finish()
    }

    /// Records over `table`: record `i` sits at `table.site(sites[i])`
    /// and owns the next `vars.len()` entries of `values`.
    pub(crate) fn from_parts(table: Arc<SiteTable>, sites: Vec<u32>, values: Column) -> Records {
        debug_assert_eq!(
            values.len(),
            sites
                .iter()
                .map(|&s| table.site(s).vars.len())
                .sum::<usize>(),
            "one value per site variable"
        );
        Records {
            table,
            sites,
            values,
        }
    }

    /// The site table the site ids index into.
    pub fn table(&self) -> &Arc<SiteTable> {
        &self.table
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if there are no records.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Each record's site id, in execution order.
    pub fn site_ids(&self) -> &[u32] {
        &self.sites
    }

    /// Every record's values, back to back in execution order.
    pub fn values(&self) -> Values<'_> {
        self.values.view()
    }

    /// The records in execution order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            table: &self.table,
            sites: self.sites.iter(),
            values: self.values.view(),
        }
    }
}

/// Two record lists are equal when they log the same locations,
/// variables and values in the same order, whatever their tables.
impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        if Arc::ptr_eq(&self.table, &other.table) {
            return self.sites == other.sites && self.values() == other.values();
        }
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.site == b.site && a.values == b.values)
    }
}

impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = Record<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A borrowed view of one record.
#[derive(Clone, Copy)]
pub struct Record<'a> {
    /// The record's site id.
    pub id: u32,
    /// Its site: location and variable layout.
    pub site: &'a Site,
    /// One value per variable of the site.
    pub values: Values<'a>,
}

impl<'a> Record<'a> {
    /// The instrumentation point.
    pub fn loc(&self) -> &'a Location {
        &self.site.loc
    }

    /// The logged variables paired with their values.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = (&'a VarId, f64)> + 'a {
        self.site.vars.iter().zip(self.values.iter())
    }
}

impl fmt::Debug for Record<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.site.loc)?;
        f.debug_map().entries(self.vars()).finish()
    }
}

/// Iterator over [`Records`].
#[derive(Clone)]
pub struct Iter<'a> {
    table: &'a SiteTable,
    sites: std::slice::Iter<'a, u32>,
    values: Values<'a>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Record<'a>;

    fn next(&mut self) -> Option<Record<'a>> {
        let id = *self.sites.next()?;
        let site = self.table.site(id);
        let (values, rest) = self.values.split_at(site.vars.len());
        self.values = rest;
        Some(Record { id, site, values })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.sites.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Builds [`Records`] with their own site table one row at a time,
/// interning each distinct (location, variable list) as one site.
#[derive(Debug, Default)]
pub(crate) struct RecordsBuilder {
    table: SiteTable,
    ids: HashMap<Site, u32>,
    sites: Vec<u32>,
    values: Column,
}

impl RecordsBuilder {
    /// Appends a record at `loc` logging `vars`.
    pub(crate) fn push(&mut self, loc: Location, vars: impl IntoIterator<Item = (VarId, f64)>) {
        let mut layout = Vec::new();
        for (var, value) in vars {
            layout.push(var);
            self.values.push(value);
        }
        let site = Site { loc, vars: layout };
        let next = self.table.sites.len() as u32;
        let id = *self.ids.entry(site).or_insert_with_key(|site| {
            self.table.sites.push(site.clone());
            next
        });
        self.sites.push(id);
    }

    /// The finished records.
    pub(crate) fn finish(self) -> Records {
        Records::from_parts(Arc::new(self.table), self.sites, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn var(name: &str) -> VarId {
        VarId::new(name, VarRole::Global, Measure::Value)
    }

    #[test]
    fn rows_intern_one_site_per_location_and_layout() {
        let recs = Records::from_rows([
            (Location::enter("f"), vec![(var("a"), 1.0), (var("b"), 2.0)]),
            (Location::enter("f"), vec![(var("b"), 3.0)]),
            (Location::enter("f"), vec![(var("a"), 4.0), (var("b"), 5.0)]),
            (Location::leave("f"), vec![]),
        ]);
        assert_eq!(recs.table().len(), 3);
        assert_eq!(recs.site_ids(), &[0, 1, 0, 2]);
        assert_eq!(recs.values(), Values::Narrow(&[1, 2, 3, 4, 5]));
        let second = recs.iter().nth(1).unwrap();
        assert_eq!(second.loc(), &Location::enter("f"));
        assert_eq!(second.vars().collect::<Vec<_>>(), vec![(&var("b"), 3.0)]);
        assert!(recs.iter().last().unwrap().values.is_empty());
    }

    #[test]
    fn equality_ignores_table_identity_but_not_content() {
        let rows = || [(Location::enter("f"), vec![(var("a"), 1.0)])];
        let a = Records::from_rows(rows());
        let b = Records::from_rows(rows());
        assert!(!Arc::ptr_eq(a.table(), b.table()));
        assert_eq!(a, b);
        let shared = Records {
            table: a.table().clone(),
            sites: vec![0],
            values: Column::Narrow(vec![2]),
        };
        assert_ne!(a, shared);
        let other = Records::from_rows([(Location::enter("f"), vec![(var("z"), 1.0)])]);
        assert_ne!(a, other);
    }

    #[test]
    fn module_table_follows_static_types() {
        let p = minic::parse_program(
            r#"
            global hits: int = 0;
            global name: str = "x";
            fn take(b: buf, s: str, on: bool) -> str { return s; }
            fn main() { let b: buf[4]; print(take(b, "ab", true)); }
            "#,
        )
        .unwrap();
        let m = sir::lower(&p).unwrap();
        let table = SiteTable::of(&m);
        assert_eq!(table.len(), 2 * m.funcs.len());
        let take = m.func_id("take").unwrap().index();
        let render = |id: usize| -> Vec<String> {
            table
                .site(id as u32)
                .vars
                .iter()
                .map(ToString::to_string)
                .collect()
        };
        assert_eq!(table.site(2 * take as u32).loc, Location::enter("take"));
        assert_eq!(
            render(2 * take),
            [
                "len(s FUNCPARAM)",
                "on FUNCPARAM",
                "hits GLOBAL",
                "len(name GLOBAL)"
            ]
        );
        assert_eq!(
            render(2 * take + 1),
            ["len(ret RETURN)", "hits GLOBAL", "len(name GLOBAL)"]
        );
        // Every site of the module shares one name per global.
        let hits = |id: u32| {
            table
                .site(id)
                .vars
                .iter()
                .find(|v| &*v.name == "hits")
                .unwrap()
                .name
                .clone()
        };
        assert!(Arc::ptr_eq(&hits(0), &hits(3)));
    }

    /// True if `v` converts to an `i32` exactly: a finite integer in
    /// range, and not `-0.0`.
    fn fits(v: f64) -> bool {
        let range = f64::from(i32::MIN)..=f64::from(i32::MAX);
        v.fract() == 0.0 && range.contains(&v) && !(v == 0.0 && v.is_sign_negative())
    }

    /// A value that fits an `i32`: small, arbitrary, or at an edge.
    fn fitting() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-1000i32..1000).prop_map(f64::from),
            any::<i32>().prop_map(f64::from),
            prop_oneof![Just(i32::MIN), Just(i32::MAX), Just(0)].prop_map(f64::from),
        ]
    }

    /// A value that does not: just out of range, far out, fractional,
    /// `-0.0`, NaN or infinite.
    fn misfit() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop_oneof![
                Just(f64::from(i32::MAX) + 1.0),
                Just(f64::from(i32::MIN) - 1.0),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MIN_POSITIVE),
                Just(1e300),
            ],
            any::<i64>()
                .prop_map(|v| v as f64)
                .prop_map(|v| if fits(v) { v + 0.5 } else { v }),
            (-1000i64..1000).prop_map(|v| v as f64 + 0.25),
        ]
    }

    /// Values that fit, with up to two misfits at any positions.
    fn column() -> impl Strategy<Value = Vec<f64>> {
        let misfits = collection::vec((misfit(), any::<usize>()), 0..3);
        (collection::vec(fitting(), 0..40), misfits).prop_map(|(mut vs, misfits)| {
            for (v, at) in misfits {
                vs.insert(at % (vs.len() + 1), v);
            }
            vs
        })
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn column_reads_back_bit_exact_and_is_narrow_iff_every_value_fits(
            values in column(),
            widths in collection::vec(0..4usize, 40),
        ) {
            let mut col = Column::default();
            col.extend(values.iter().copied());
            let view = col.view();
            prop_assert_eq!(view.len(), values.len());
            prop_assert_eq!(bits(view.iter()), bits(values.iter().copied()));
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(view.get(i).map(f64::to_bits), Some(v.to_bits()));
            }
            prop_assert_eq!(view.get(values.len()), None);
            let narrow = matches!(view, Values::Narrow(_));
            prop_assert_eq!(narrow, values.iter().all(|&v| fits(v)), "{:?}", values);

            // The same values as records of changing widths read back
            // record by record.
            let g = |i: usize| VarId::new(["a", "b", "c"][i], VarRole::Global, Measure::Value);
            let mut rows = Vec::new();
            let mut rest = &values[..];
            for (i, &n) in widths.iter().cycle().enumerate() {
                // Empty records only in the first round, so every value
                // lands in a record.
                let n = if i < widths.len() { n } else { n.max(1) };
                let (row, tail) = rest.split_at(n.min(rest.len()));
                let vars: Vec<_> = row.iter().enumerate().map(|(i, &v)| (g(i), v)).collect();
                rows.push((Location::enter("f"), vars));
                rest = tail;
                if rest.is_empty() {
                    break;
                }
            }
            let recs = Records::from_rows(rows.clone());
            prop_assert_eq!(matches!(recs.values(), Values::Narrow(_)), narrow);
            for (rec, (_, row)) in recs.iter().zip(&rows) {
                prop_assert_eq!(bits(rec.vars().map(|(_, v)| v)), bits(row.iter().map(|&(_, v)| v)));
            }
        }
    }
}
