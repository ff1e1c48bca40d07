//! The graph engine: property graph + Gremlin-lite.
//!
//! Storage follows the paper's unified relational model: vertices and edges
//! live in two relational tables ("graphs are represented through tables for
//! vertexes and edges; metadata … stored in relational tables"), and the
//! traversal engine operates over adjacency indexes built from them.
//!
//! The query surface is a Gremlin subset sufficient for the paper's
//! Example 1: `V`, `has`, `out`/`in`/`both`, `outE`/`inE`, `outV`/`inV`,
//! `values`, `count`, `dedup`, `limit`, and trailing numeric predicates
//! (`.gt(3)` after `count()`), with both a typed builder API and a string
//! parser for SQL-embedded traversals.

use hdm_common::{Datum, HdmError, Result, Row, Schema};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A property graph with relational backing.
#[derive(Debug, Default, Clone)]
pub struct PropertyGraph {
    vertices: BTreeMap<i64, HashMap<String, Datum>>,
    edges: Vec<Edge>,
    out_adj: HashMap<i64, Vec<usize>>,
    in_adj: HashMap<i64, Vec<usize>>,
}

#[derive(Debug, Clone)]
pub struct Edge {
    pub src: i64,
    pub dst: i64,
    pub label: String,
    pub props: HashMap<String, Datum>,
}

impl PropertyGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a vertex with properties.
    pub fn add_vertex(&mut self, id: i64, props: impl IntoIterator<Item = (String, Datum)>) {
        self.vertices.insert(id, props.into_iter().collect());
    }

    /// Add a directed edge. Endpoints must exist.
    pub fn add_edge(
        &mut self,
        src: i64,
        dst: i64,
        label: &str,
        props: impl IntoIterator<Item = (String, Datum)>,
    ) -> Result<()> {
        if !self.vertices.contains_key(&src) || !self.vertices.contains_key(&dst) {
            return Err(HdmError::Execution(format!(
                "edge {src}->{dst}: endpoint missing"
            )));
        }
        let idx = self.edges.len();
        self.edges.push(Edge {
            src,
            dst,
            label: label.to_string(),
            props: props.into_iter().collect(),
        });
        self.out_adj.entry(src).or_default().push(idx);
        self.in_adj.entry(dst).or_default().push(idx);
        Ok(())
    }

    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn vertex_prop(&self, id: i64, key: &str) -> Option<&Datum> {
        self.vertices.get(&id)?.get(key)
    }

    /// Relational projection: the vertex table `(id, key, value-as-text)` in
    /// EAV form (properties are heterogeneous) and the edge table
    /// `(src, dst, label)` — the paper's unified-storage mapping.
    pub fn to_tables(&self) -> ((Schema, Vec<Row>), (Schema, Vec<Row>)) {
        let vschema = Schema::from_pairs(&[
            ("id", hdm_common::DataType::Int),
            ("key", hdm_common::DataType::Text),
            ("value", hdm_common::DataType::Text),
        ]);
        let mut vrows = Vec::new();
        for (id, props) in &self.vertices {
            if props.is_empty() {
                vrows.push(Row::new(vec![Datum::Int(*id), Datum::Null, Datum::Null]));
            }
            let mut keys: Vec<&String> = props.keys().collect();
            keys.sort();
            for k in keys {
                vrows.push(Row::new(vec![
                    Datum::Int(*id),
                    Datum::Text(k.clone()),
                    Datum::Text(props[k].to_string()),
                ]));
            }
        }
        let eschema = Schema::from_pairs(&[
            ("src", hdm_common::DataType::Int),
            ("dst", hdm_common::DataType::Int),
            ("label", hdm_common::DataType::Text),
        ]);
        let erows = self
            .edges
            .iter()
            .map(|e| {
                Row::new(vec![
                    Datum::Int(e.src),
                    Datum::Int(e.dst),
                    Datum::Text(e.label.clone()),
                ])
            })
            .collect();
        ((vschema, vrows), (eschema, erows))
    }

    /// Run a Gremlin-lite traversal from its string form.
    pub fn run_gremlin(&self, text: &str) -> Result<GremlinResult> {
        let steps = parse_gremlin(text)?;
        self.run_steps(&steps)
    }

    /// Run parsed steps.
    pub fn run_steps(&self, steps: &[Step]) -> Result<GremlinResult> {
        let state = self.run_from(Traversers::Start, steps)?;
        self.finish(state)
    }

    fn run_from(&self, mut state: Traversers, steps: &[Step]) -> Result<Traversers> {
        for step in steps {
            state = self.apply(state, step)?;
        }
        Ok(state)
    }

    fn finish(&self, state: Traversers) -> Result<GremlinResult> {
        Ok(match state {
            Traversers::Start => GremlinResult::Vertices(vec![]),
            Traversers::Vertices(v) => GremlinResult::Vertices(v),
            Traversers::Edges(e) => {
                GremlinResult::Edges(e.into_iter().map(|i| self.edges[i].clone()).collect())
            }
            Traversers::Values(v) => GremlinResult::Values(v),
            Traversers::Bool(b) => GremlinResult::Bool(b),
        })
    }

    fn apply(&self, state: Traversers, step: &Step) -> Result<Traversers> {
        use Traversers::*;
        Ok(match (state, step) {
            (Start, Step::V(None)) => Vertices(self.vertices.keys().copied().collect()),
            (Start, Step::V(Some(id))) => Vertices(
                self.vertices
                    .contains_key(id)
                    .then_some(*id)
                    .into_iter()
                    .collect(),
            ),
            (Vertices(v), Step::Has(key, pred)) => Vertices(
                v.into_iter()
                    .filter(|id| {
                        self.vertex_prop(*id, key)
                            .map(|d| pred.test(d))
                            .unwrap_or(false)
                    })
                    .collect(),
            ),
            (Edges(e), Step::Has(key, pred)) => Edges(
                e.into_iter()
                    .filter(|i| {
                        self.edges[*i]
                            .props
                            .get(key)
                            .map(|d| pred.test(d))
                            .unwrap_or(false)
                    })
                    .collect(),
            ),
            (Vertices(v), Step::Out(label)) => {
                Vertices(self.hop(&v, label, true).map(|e| e.dst).collect())
            }
            (Vertices(v), Step::In(label)) => {
                Vertices(self.hop(&v, label, false).map(|e| e.src).collect())
            }
            (Vertices(v), Step::Both(label)) => {
                let mut out: Vec<i64> = self.hop(&v, label, true).map(|e| e.dst).collect();
                out.extend(self.hop(&v, label, false).map(|e| e.src));
                Vertices(out)
            }
            (Vertices(v), Step::OutE(label)) => Edges(self.hop_idx(&v, label, true)),
            (Vertices(v), Step::InE(label)) => Edges(self.hop_idx(&v, label, false)),
            (Edges(e), Step::OutV) => Vertices(e.into_iter().map(|i| self.edges[i].src).collect()),
            (Edges(e), Step::InV) => Vertices(e.into_iter().map(|i| self.edges[i].dst).collect()),
            (Vertices(v), Step::Values(key)) => Values(
                v.into_iter()
                    .filter_map(|id| self.vertex_prop(id, key).cloned())
                    .collect(),
            ),
            (Edges(e), Step::Values(key)) => Values(
                e.into_iter()
                    .filter_map(|i| self.edges[i].props.get(key).cloned())
                    .collect(),
            ),
            (Vertices(v), Step::Count) => Values(vec![Datum::Int(v.len() as i64)]),
            (Edges(e), Step::Count) => Values(vec![Datum::Int(e.len() as i64)]),
            (Values(v), Step::Count) => Values(vec![Datum::Int(v.len() as i64)]),
            (Vertices(v), Step::Dedup) => {
                let mut seen = HashSet::new();
                Vertices(v.into_iter().filter(|x| seen.insert(*x)).collect())
            }
            (Edges(e), Step::Dedup) => {
                let mut seen = HashSet::new();
                Edges(e.into_iter().filter(|x| seen.insert(*x)).collect())
            }
            (Vertices(v), Step::Limit(n)) => Vertices(v.into_iter().take(*n as usize).collect()),
            (Edges(e), Step::Limit(n)) => Edges(e.into_iter().take(*n as usize).collect()),
            (Values(v), Step::Limit(n)) => Values(v.into_iter().take(*n as usize).collect()),
            (Vertices(v), Step::Where(sub)) => {
                let mut keep = Vec::new();
                for id in v {
                    let out = self.run_from(Vertices(vec![id]), sub)?;
                    if truthy(&out) {
                        keep.push(id);
                    }
                }
                Vertices(keep)
            }
            (Values(v), Step::NumPred(pred)) => {
                // Trailing predicate: `count().gt(3)` — boolean over the
                // single value, or filter over many.
                if v.len() == 1 {
                    Bool(pred.test(&v[0]))
                } else {
                    Values(v.into_iter().filter(|d| pred.test(d)).collect())
                }
            }
            (s, step) => {
                return Err(HdmError::Execution(format!(
                    "gremlin: step {step:?} not applicable to {}",
                    s.kind()
                )))
            }
        })
    }

    fn hop<'a>(
        &'a self,
        from: &[i64],
        label: &'a Option<String>,
        out: bool,
    ) -> impl Iterator<Item = &'a Edge> + 'a {
        self.hop_idx(from, label, out)
            .into_iter()
            .map(|i| &self.edges[i])
    }

    fn hop_idx(&self, from: &[i64], label: &Option<String>, out: bool) -> Vec<usize> {
        let adj = if out { &self.out_adj } else { &self.in_adj };
        let mut result = Vec::new();
        for id in from {
            if let Some(list) = adj.get(id) {
                for &i in list {
                    if label
                        .as_ref()
                        .map(|l| self.edges[i].label == *l)
                        .unwrap_or(true)
                    {
                        result.push(i);
                    }
                }
            }
        }
        result
    }
}

/// Traverser state between steps.
enum Traversers {
    Start,
    Vertices(Vec<i64>),
    Edges(Vec<usize>),
    Values(Vec<Datum>),
    Bool(bool),
}

impl Traversers {
    fn kind(&self) -> &'static str {
        match self {
            Traversers::Start => "start",
            Traversers::Vertices(_) => "vertices",
            Traversers::Edges(_) => "edges",
            Traversers::Values(_) => "values",
            Traversers::Bool(_) => "bool",
        }
    }
}

/// Final traversal result.
#[derive(Debug, Clone, PartialEq)]
pub enum GremlinResult {
    Vertices(Vec<i64>),
    Edges(Vec<Edge>),
    Values(Vec<Datum>),
    Bool(bool),
}

impl PartialEq for Edge {
    fn eq(&self, other: &Self) -> bool {
        self.src == other.src && self.dst == other.dst && self.label == other.label
    }
}

/// One traversal step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    V(Option<i64>),
    Has(String, Pred),
    Out(Option<String>),
    In(Option<String>),
    Both(Option<String>),
    OutE(Option<String>),
    InE(Option<String>),
    OutV,
    InV,
    Values(String),
    Count,
    Dedup,
    Limit(u64),
    /// Trailing numeric predicate, e.g. `.gt(3)`.
    NumPred(Pred),
    /// Nested filter traversal: keep a vertex iff the sub-traversal started
    /// from it is truthy (`where(inE('call').count().gt(3))`).
    Where(Vec<Step>),
}

/// Truthiness of a sub-traversal result for `where(...)`.
fn truthy(t: &Traversers) -> bool {
    match t {
        Traversers::Start => false,
        Traversers::Vertices(v) => !v.is_empty(),
        Traversers::Edges(e) => !e.is_empty(),
        Traversers::Values(v) => !v.is_empty(),
        Traversers::Bool(b) => *b,
    }
}

/// A value predicate inside `has(...)` or trailing steps.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Eq(Datum),
    Gt(Datum),
    Lt(Datum),
    Ge(Datum),
    Le(Datum),
}

impl Pred {
    pub fn test(&self, d: &Datum) -> bool {
        let (v, ord_ok): (&Datum, fn(std::cmp::Ordering) -> bool) = match self {
            Pred::Eq(v) => (v, std::cmp::Ordering::is_eq),
            Pred::Gt(v) => (v, std::cmp::Ordering::is_gt),
            Pred::Lt(v) => (v, std::cmp::Ordering::is_lt),
            Pred::Ge(v) => (v, std::cmp::Ordering::is_ge),
            Pred::Le(v) => (v, std::cmp::Ordering::is_le),
        };
        d.sql_cmp(v).map(ord_ok).unwrap_or(false)
    }
}

/// Parse a Gremlin-lite chain: `g.V().has('cid',11111).inE('call').count()`.
pub fn parse_gremlin(text: &str) -> Result<Vec<Step>> {
    let text = text.trim();
    let rest = text
        .strip_prefix("g.")
        .ok_or_else(|| HdmError::Parse("gremlin must start with g.".into()))?;
    parse_chain(rest)
}

/// Parse a chain without the `g.` prefix (also used for nested `where`).
fn parse_chain(rest: &str) -> Result<Vec<Step>> {
    let calls = split_calls(rest)?;
    let mut steps = Vec::new();
    for (name, raw_args) in calls {
        if name == "where" {
            steps.push(Step::Where(parse_chain(raw_args.trim())?));
            continue;
        }
        let args = parse_args(&raw_args)?;
        let step = match (name.as_str(), args.as_slice()) {
            ("V", []) => Step::V(None),
            ("V", [GArg::Num(id)]) => Step::V(Some(*id)),
            ("has", [GArg::Str(k), a]) => Step::Has(k.clone(), arg_to_pred(a)?),
            ("out", []) => Step::Out(None),
            ("out", [GArg::Str(l)]) => Step::Out(Some(l.clone())),
            ("in", []) => Step::In(None),
            ("in", [GArg::Str(l)]) => Step::In(Some(l.clone())),
            ("both", []) => Step::Both(None),
            ("both", [GArg::Str(l)]) => Step::Both(Some(l.clone())),
            ("outE", []) => Step::OutE(None),
            ("outE", [GArg::Str(l)]) => Step::OutE(Some(l.clone())),
            ("inE", []) => Step::InE(None),
            ("inE", [GArg::Str(l)]) => Step::InE(Some(l.clone())),
            ("outV", []) => Step::OutV,
            ("inV", []) => Step::InV,
            ("values", [GArg::Str(k)]) => Step::Values(k.clone()),
            ("count", []) => Step::Count,
            ("dedup", []) => Step::Dedup,
            ("limit", [GArg::Num(n)]) if *n >= 0 => Step::Limit(*n as u64),
            ("gt", [a]) => Step::NumPred(arg_to_num_pred("gt", a)?),
            ("lt", [a]) => Step::NumPred(arg_to_num_pred("lt", a)?),
            ("gte", [a]) => Step::NumPred(arg_to_num_pred("gte", a)?),
            ("lte", [a]) => Step::NumPred(arg_to_num_pred("lte", a)?),
            (n, a) => {
                return Err(HdmError::Parse(format!(
                    "gremlin: unsupported step {n}/{}",
                    a.len()
                )))
            }
        };
        steps.push(step);
    }
    Ok(steps)
}

/// Parsed argument forms.
#[derive(Debug, Clone, PartialEq)]
enum GArg {
    Num(i64),
    Str(String),
    /// Nested predicate call: gt(5), lt(5), eq(5), gte, lte.
    Call(String, i64),
}

fn arg_to_pred(a: &GArg) -> Result<Pred> {
    Ok(match a {
        GArg::Num(v) => Pred::Eq(Datum::Int(*v)),
        GArg::Str(s) => Pred::Eq(Datum::Text(s.clone())),
        GArg::Call(f, v) => match f.as_str() {
            "gt" => Pred::Gt(Datum::Int(*v)),
            "lt" => Pred::Lt(Datum::Int(*v)),
            "gte" => Pred::Ge(Datum::Int(*v)),
            "lte" => Pred::Le(Datum::Int(*v)),
            "eq" => Pred::Eq(Datum::Int(*v)),
            other => {
                return Err(HdmError::Parse(format!(
                    "gremlin: unknown predicate {other}"
                )))
            }
        },
    })
}

fn arg_to_num_pred(op: &str, a: &GArg) -> Result<Pred> {
    let GArg::Num(v) = a else {
        return Err(HdmError::Parse(format!("gremlin: {op} needs a number")));
    };
    Ok(match op {
        "gt" => Pred::Gt(Datum::Int(*v)),
        "lt" => Pred::Lt(Datum::Int(*v)),
        "gte" => Pred::Ge(Datum::Int(*v)),
        "lte" => Pred::Le(Datum::Int(*v)),
        _ => unreachable!(),
    })
}

/// Split `V().has('cid',11111).inE('call')` into (name, raw-args) pairs.
fn split_calls(s: &str) -> Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Method name.
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = s[start..i].to_string();
        if name.is_empty() {
            return Err(HdmError::Parse(format!(
                "gremlin: expected method name at {i}"
            )));
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            return Err(HdmError::Parse(format!("gremlin: {name} missing (")));
        }
        // Find matching close paren (no nesting deeper than one call arg).
        let mut depth = 1;
        let arg_start = i + 1;
        i += 1;
        let mut in_str = false;
        while i < bytes.len() && depth > 0 {
            match bytes[i] {
                b'\'' => in_str = !in_str,
                b'(' if !in_str => depth += 1,
                b')' if !in_str => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        if depth != 0 {
            return Err(HdmError::Parse(format!("gremlin: {name} unbalanced ()")));
        }
        let args_text = &s[arg_start..i - 1];
        out.push((name, args_text.to_string()));
        // Expect `.` or end.
        if i < bytes.len() {
            if bytes[i] != b'.' {
                return Err(HdmError::Parse(format!("gremlin: expected . at byte {i}")));
            }
            i += 1;
        }
    }
    Ok(out)
}

fn parse_args(text: &str) -> Result<Vec<GArg>> {
    let text = text.trim();
    if text.is_empty() {
        return Ok(vec![]);
    }
    let mut args = Vec::new();
    // Split on top-level commas (strings may contain commas).
    let mut depth = 0;
    let mut in_str = false;
    let mut start = 0;
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' => in_str = !in_str,
            b'(' if !in_str => depth += 1,
            b')' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                parts.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(text[start..].trim());
    for p in parts {
        if let Some(stripped) = p.strip_prefix('\'') {
            let inner = stripped
                .strip_suffix('\'')
                .ok_or_else(|| HdmError::Parse(format!("gremlin: bad string {p}")))?;
            args.push(GArg::Str(inner.to_string()));
        } else if let Ok(n) = p.parse::<i64>() {
            args.push(GArg::Num(n));
        } else if let Some(open) = p.find('(') {
            let f = p[..open].trim().to_string();
            let inner = p[open + 1..]
                .strip_suffix(')')
                .ok_or_else(|| HdmError::Parse(format!("gremlin: bad call {p}")))?;
            let n: i64 = inner
                .trim()
                .parse()
                .map_err(|_| HdmError::Parse(format!("gremlin: bad number in {p}")))?;
            args.push(GArg::Call(f, n));
        } else {
            // Bare identifiers (paper writes has(cid, 11111)): treat as key
            // string for convenience.
            args.push(GArg::Str(p.to_string()));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little call graph: persons 1..=5; calls with timestamps.
    fn call_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for id in 1..=5i64 {
            g.add_vertex(id, [("cid".to_string(), Datum::Int(11110 + id))]);
        }
        // Vertex 1 (cid 11111) receives 4 calls after t=100, one before.
        for (src, t) in [(2i64, 150i64), (3, 160), (4, 170), (5, 180), (2, 50)] {
            g.add_edge(src, 1, "call", [("time".to_string(), Datum::Int(t))])
                .unwrap();
        }
        // An unrelated friendship edge.
        g.add_edge(2, 3, "knows", []).unwrap();
        g
    }

    #[test]
    fn vertex_and_edge_counts() {
        let g = call_graph();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn builder_traversal_filters_by_property() {
        let g = call_graph();
        let r = g
            .run_steps(&[
                Step::V(None),
                Step::Has("cid".into(), Pred::Eq(Datum::Int(11111))),
            ])
            .unwrap();
        assert_eq!(r, GremlinResult::Vertices(vec![1]));
    }

    /// The paper's Example 1 line 6 in spirit: "count incoming calls after a
    /// date for the person with cid 11111, is it more than 3?"
    #[test]
    fn example1_suspect_query() {
        let g = call_graph();
        let r = g
            .run_gremlin("g.V().has('cid',11111).inE('call').has('time', gt(100)).count()")
            .unwrap();
        assert_eq!(r, GremlinResult::Values(vec![Datum::Int(4)]));
        let r = g
            .run_gremlin("g.V().has('cid',11111).inE('call').has('time', gt(100)).count().gt(3)")
            .unwrap();
        assert_eq!(r, GremlinResult::Bool(true));
    }

    #[test]
    fn hops_in_both_directions() {
        let g = call_graph();
        let r = g.run_gremlin("g.V(1).in('call').dedup()").unwrap();
        assert_eq!(r, GremlinResult::Vertices(vec![2, 3, 4, 5]));
        let r = g.run_gremlin("g.V(2).out('knows')").unwrap();
        assert_eq!(r, GremlinResult::Vertices(vec![3]));
        let r = g.run_gremlin("g.V(3).both()").unwrap();
        // out: call->1 ; in: knows<-2.
        assert_eq!(r, GremlinResult::Vertices(vec![1, 2]));
    }

    #[test]
    fn edge_to_vertex_steps_and_values() {
        let g = call_graph();
        let r = g
            .run_gremlin("g.V(1).inE('call').has('time', gt(100)).outV().dedup().values('cid')")
            .unwrap();
        let GremlinResult::Values(v) = r else {
            panic!()
        };
        assert_eq!(v.len(), 4);
        assert!(v.contains(&Datum::Int(11112)));
    }

    #[test]
    fn limit_truncates() {
        let g = call_graph();
        let r = g.run_gremlin("g.V().limit(2)").unwrap();
        assert_eq!(r, GremlinResult::Vertices(vec![1, 2]));
    }

    #[test]
    fn relational_mapping_round_trip_counts() {
        let g = call_graph();
        let ((_, vrows), (_, erows)) = g.to_tables();
        assert_eq!(vrows.len(), 5, "one property per vertex");
        assert_eq!(erows.len(), 6);
    }

    #[test]
    fn edge_requires_endpoints() {
        let mut g = PropertyGraph::new();
        g.add_vertex(1, []);
        assert!(g.add_edge(1, 99, "x", []).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_gremlin("V().count()").is_err(), "must start with g.");
        assert!(parse_gremlin("g.V(").is_err());
        assert!(parse_gremlin("g.V().frobnicate()").is_err());
        assert!(parse_gremlin("g.V().has('k', between(1,2))").is_err());
    }

    #[test]
    fn bare_identifier_args_accepted() {
        // The paper writes has(cid,11111) without quotes.
        let g = call_graph();
        let r = g.run_gremlin("g.V().has(cid, 11111).count()").unwrap();
        assert_eq!(r, GremlinResult::Values(vec![Datum::Int(1)]));
    }
}
