//! Columnar execution-log records.
//!
//! The paper's monitor (Fjalar) logs a fixed set of variables at each
//! function entry and exit. A [`Site`] is one such instrumentation
//! point: its [`Location`] and the ordered variables a record there
//! logs. A log's [`Records`] are a `u32` site id per record plus one
//! flat `f64` column of values, each record contributing one value per
//! variable of its site. Names and layouts live once, in a
//! [`SiteTable`] behind an `Arc` that every log of one corpus can share,
//! so a record costs 4 bytes plus 8 bytes per value.

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

/// The sampled records of one log, stored by column: a site id per
/// record and every record's values back to back.
#[derive(Clone)]
pub struct Records {
    table: Arc<SiteTable>,
    sites: Vec<u32>,
    values: Vec<f64>,
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
    /// assert_eq!(recs.values(), &[1.0, 2.0]);
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
    pub(crate) fn from_parts(table: Arc<SiteTable>, sites: Vec<u32>, values: Vec<f64>) -> Records {
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
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The records in execution order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            table: &self.table,
            sites: self.sites.iter(),
            values: &self.values,
        }
    }
}

/// Two record lists are equal when they log the same locations,
/// variables and values in the same order, whatever their tables.
impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        if Arc::ptr_eq(&self.table, &other.table) {
            return self.sites == other.sites && self.values == other.values;
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
    pub values: &'a [f64],
}

impl<'a> Record<'a> {
    /// The instrumentation point.
    pub fn loc(&self) -> &'a Location {
        &self.site.loc
    }

    /// The logged variables paired with their values.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = (&'a VarId, f64)> + 'a {
        self.site.vars.iter().zip(self.values.iter().copied())
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
    values: &'a [f64],
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
    values: Vec<f64>,
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
        assert_eq!(recs.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let second = recs.iter().nth(1).unwrap();
        assert_eq!(second.loc(), &Location::enter("f"));
        assert_eq!(second.vars().collect::<Vec<_>>(), vec![(&var("b"), 3.0)]);
        assert_eq!(recs.iter().last().unwrap().values, &[] as &[f64]);
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
            values: vec![2.0],
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
}
