//! The uniformed framework: one SQL surface over every engine.
//!
//! "Our MMDB works as a single database system with uniformed interface …
//! We integrate two languages in our SQL extensions: the Gremlin language
//! which is used in graph traversal and a continuous query language used in
//! streaming processing" (§II-B). Graph and time-series sub-queries are
//! "encapsulated using a table expression in SQL" (Example 1): here they are
//! the registered table functions
//!
//! * `gtimeseries('<series>', <window_us>)` → `(time, tag, value)` rows of
//!   the trailing window (the paper's `now() - time < 30 minutes`),
//! * `ggraph('<graph>', '<gremlin>')` → the traversal result as rows,
//! * `gbox('<grid>', x0, y0, x1, y1)` and `gknn('<grid>', x, y, k)` →
//!   spatial results as `(id, x, y)` rows.

use crate::graph::{GremlinResult, PropertyGraph};
use crate::spatial::{GridIndex, Point, Rect};
use crate::stream::{ContinuousQuery, StreamEngine, WindowEvent};
use crate::timeseries::TimeSeriesStore;
use crate::vision::{Detection, VisionStore};
use hdm_common::{DataType, Datum, HdmError, Result, Row, Schema};
use hdm_sql::{Database, QueryResult, TableFunction};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

type Graphs = Rc<RefCell<HashMap<String, PropertyGraph>>>;
type SeriesMap = Rc<RefCell<HashMap<String, TimeSeriesStore>>>;
type Grids = Rc<RefCell<HashMap<String, GridIndex>>>;
type Visions = Rc<RefCell<HashMap<String, VisionStore>>>;

/// The multi-model database: a relational core with graph, time-series,
/// spatial and vision engines reachable from SQL, plus standing continuous
/// queries over the ingestion streams.
pub struct MultiModelDb {
    db: Database,
    graphs: Graphs,
    series: SeriesMap,
    grids: Grids,
    visions: Visions,
    streams: StreamEngine,
}

impl Default for MultiModelDb {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiModelDb {
    pub fn new() -> Self {
        let mut db = Database::new();
        let graphs: Graphs = Rc::new(RefCell::new(HashMap::new()));
        let series: SeriesMap = Rc::new(RefCell::new(HashMap::new()));
        let grids: Grids = Rc::new(RefCell::new(HashMap::new()));
        db.register_table_function(
            "gtimeseries",
            Box::new(GTimeSeries {
                series: series.clone(),
            }),
        );
        db.register_table_function(
            "ggraph",
            Box::new(GGraph {
                graphs: graphs.clone(),
            }),
        );
        db.register_table_function(
            "gbox",
            Box::new(GBox {
                grids: grids.clone(),
            }),
        );
        db.register_table_function(
            "gknn",
            Box::new(GKnn {
                grids: grids.clone(),
            }),
        );
        let visions: Visions = Rc::new(RefCell::new(HashMap::new()));
        db.register_table_function(
            "gvision",
            Box::new(GVision {
                visions: visions.clone(),
            }),
        );
        Self {
            db,
            graphs,
            series,
            grids,
            visions,
            streams: StreamEngine::new(),
        }
    }

    /// Run SQL (the uniformed interface).
    pub fn sql(&mut self, text: &str) -> Result<QueryResult> {
        self.db.execute(text)
    }

    /// Direct access to the relational engine.
    pub fn relational(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Create (or replace) a named graph.
    pub fn create_graph(&self, name: &str) {
        self.graphs
            .borrow_mut()
            .insert(name.to_string(), PropertyGraph::new());
    }

    /// Mutate a named graph.
    pub fn with_graph_mut<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut PropertyGraph) -> T,
    ) -> Result<T> {
        let mut g = self.graphs.borrow_mut();
        let graph = g
            .get_mut(name)
            .ok_or_else(|| HdmError::Catalog(format!("no graph {name}")))?;
        Ok(f(graph))
    }

    /// Create (or replace) a named time series.
    pub fn create_series(&self, name: &str, segment_width_us: i64) {
        self.series.borrow_mut().insert(
            name.to_string(),
            TimeSeriesStore::new(name, segment_width_us),
        );
    }

    /// Ingest one time-series point; standing continuous queries see it.
    pub fn ingest(&mut self, series: &str, ts_us: i64, tag: &str, value: f64) -> Result<()> {
        {
            let mut s = self.series.borrow_mut();
            let store = s
                .get_mut(series)
                .ok_or_else(|| HdmError::Catalog(format!("no series {series}")))?;
            store.ingest(ts_us, tag, value)?;
        }
        self.streams.on_point(series, ts_us, tag, value);
        Ok(())
    }

    /// Register a standing continuous query over an ingestion stream.
    pub fn register_continuous(&mut self, q: ContinuousQuery) -> Result<()> {
        self.streams.register(q)
    }

    /// Drain window events emitted by continuous queries.
    pub fn take_stream_events(&mut self) -> Vec<WindowEvent> {
        self.streams.take_events()
    }

    /// Force-close open continuous-query windows.
    pub fn flush_streams(&mut self) {
        self.streams.flush()
    }

    /// Create (or replace) a named vision store.
    pub fn create_vision(&self, name: &str) {
        self.visions
            .borrow_mut()
            .insert(name.to_string(), VisionStore::new());
    }

    /// Ingest one detection into a named vision store.
    pub fn detect(&self, store: &str, d: Detection) -> Result<usize> {
        let mut v = self.visions.borrow_mut();
        let vs = v
            .get_mut(store)
            .ok_or_else(|| HdmError::Catalog(format!("no vision store {store}")))?;
        vs.ingest(d)
    }

    /// Embedding similarity search on a named vision store.
    pub fn vision_knn(&self, store: &str, query: &[f32], k: usize) -> Result<Vec<(usize, f64)>> {
        let v = self.visions.borrow();
        let vs = v
            .get(store)
            .ok_or_else(|| HdmError::Catalog(format!("no vision store {store}")))?;
        vs.knn_embedding(query, k)
    }

    /// Create (or replace) a named spatial grid.
    pub fn create_grid(&self, name: &str, cell_size: f64) {
        self.grids
            .borrow_mut()
            .insert(name.to_string(), GridIndex::new(cell_size));
    }

    /// Upsert an object position in a named grid.
    pub fn place(&self, grid: &str, id: i64, x: f64, y: f64) -> Result<()> {
        let mut g = self.grids.borrow_mut();
        let grid = g
            .get_mut(grid)
            .ok_or_else(|| HdmError::Catalog(format!("no grid {grid}")))?;
        grid.upsert(id, Point::new(x, y))
    }
}

struct GTimeSeries {
    series: SeriesMap,
}

impl TableFunction for GTimeSeries {
    fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)> {
        let [Datum::Text(name), window] = args else {
            return Err(HdmError::Execution(
                "gtimeseries(name, window_us) expects (text, int)".into(),
            ));
        };
        let window = window
            .as_int()
            .ok_or_else(|| HdmError::Execution("gtimeseries: window must be int".into()))?;
        let s = self.series.borrow();
        let store = s
            .get(name.as_str())
            .ok_or_else(|| HdmError::Catalog(format!("no series {name}")))?;
        Ok((TimeSeriesStore::schema(), store.window_rows(window)))
    }
}

struct GGraph {
    graphs: Graphs,
}

impl TableFunction for GGraph {
    fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)> {
        let [Datum::Text(name), Datum::Text(gremlin)] = args else {
            return Err(HdmError::Execution(
                "ggraph(name, traversal) expects (text, text)".into(),
            ));
        };
        let g = self.graphs.borrow();
        let graph = g
            .get(name.as_str())
            .ok_or_else(|| HdmError::Catalog(format!("no graph {name}")))?;
        let result = graph.run_gremlin(gremlin)?;
        Ok(match result {
            GremlinResult::Vertices(v) => (
                Schema::from_pairs(&[("v", DataType::Int)]),
                v.into_iter()
                    .map(|id| Row::new(vec![Datum::Int(id)]))
                    .collect(),
            ),
            GremlinResult::Edges(es) => (
                Schema::from_pairs(&[
                    ("src", DataType::Int),
                    ("dst", DataType::Int),
                    ("label", DataType::Text),
                ]),
                es.into_iter()
                    .map(|e| {
                        Row::new(vec![
                            Datum::Int(e.src),
                            Datum::Int(e.dst),
                            Datum::Text(e.label),
                        ])
                    })
                    .collect(),
            ),
            GremlinResult::Values(vals) => {
                let ty = vals
                    .iter()
                    .find_map(|d| d.data_type())
                    .unwrap_or(DataType::Int);
                (
                    Schema::from_pairs(&[("value", ty)]),
                    vals.into_iter().map(|d| Row::new(vec![d])).collect(),
                )
            }
            GremlinResult::Bool(b) => (
                Schema::from_pairs(&[("result", DataType::Bool)]),
                vec![Row::new(vec![Datum::Bool(b)])],
            ),
        })
    }
}

fn spatial_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int),
        ("x", DataType::Float),
        ("y", DataType::Float),
    ])
}

struct GBox {
    grids: Grids,
}

impl TableFunction for GBox {
    fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)> {
        let (Some(Datum::Text(name)), Some(x0), Some(y0), Some(x1), Some(y1)) = (
            args.first(),
            args.get(1).and_then(Datum::as_float),
            args.get(2).and_then(Datum::as_float),
            args.get(3).and_then(Datum::as_float),
            args.get(4).and_then(Datum::as_float),
        ) else {
            return Err(HdmError::Execution(
                "gbox(grid, x0, y0, x1, y1) expects (text, 4 numbers)".into(),
            ));
        };
        let g = self.grids.borrow();
        let grid = g
            .get(name.as_str())
            .ok_or_else(|| HdmError::Catalog(format!("no grid {name}")))?;
        let rows = grid
            .range(&Rect::new(x0, y0, x1, y1))
            .into_iter()
            .map(|(id, p)| Row::new(vec![Datum::Int(id), Datum::Float(p.x), Datum::Float(p.y)]))
            .collect();
        Ok((spatial_schema(), rows))
    }
}

/// `gvision('<store>', '<class>', min_conf, t0, t1)` →
/// `(frame, time, camera, class, conf)` rows — the vision engine's
/// relational projection (detections are metadata; raw frames stay out of
/// the database).
struct GVision {
    visions: Visions,
}

impl TableFunction for GVision {
    fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)> {
        let (Some(Datum::Text(store)), Some(Datum::Text(class)), Some(conf), Some(t0), Some(t1)) = (
            args.first(),
            args.get(1),
            args.get(2).and_then(Datum::as_float),
            args.get(3).and_then(Datum::as_int),
            args.get(4).and_then(Datum::as_int),
        ) else {
            return Err(HdmError::Execution(
                "gvision(store, class, min_conf, t0, t1) expects (text, text, number, int, int)"
                    .into(),
            ));
        };
        let v = self.visions.borrow();
        let vs = v
            .get(store.as_str())
            .ok_or_else(|| HdmError::Catalog(format!("no vision store {store}")))?;
        let schema = Schema::from_pairs(&[
            ("frame", DataType::Int),
            ("time", DataType::Timestamp),
            ("camera", DataType::Text),
            ("class", DataType::Text),
            ("conf", DataType::Float),
        ]);
        let rows = vs
            .query_class(class, conf, t0, t1)
            .into_iter()
            .map(|d| {
                Row::new(vec![
                    Datum::Int(d.frame_id),
                    Datum::Timestamp(d.ts),
                    Datum::Text(d.camera.clone()),
                    Datum::Text(d.class.clone()),
                    Datum::Float(d.confidence),
                ])
            })
            .collect();
        Ok((schema, rows))
    }
}

struct GKnn {
    grids: Grids,
}

impl TableFunction for GKnn {
    fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)> {
        let (Some(Datum::Text(name)), Some(x), Some(y), Some(k)) = (
            args.first(),
            args.get(1).and_then(Datum::as_float),
            args.get(2).and_then(Datum::as_float),
            args.get(3).and_then(Datum::as_int),
        ) else {
            return Err(HdmError::Execution(
                "gknn(grid, x, y, k) expects (text, number, number, int)".into(),
            ));
        };
        let g = self.grids.borrow();
        let grid = g
            .get(name.as_str())
            .ok_or_else(|| HdmError::Catalog(format!("no grid {name}")))?;
        let rows = grid
            .knn(&Point::new(x, y), k.max(0) as usize)
            .into_iter()
            .map(|(id, p)| Row::new(vec![Datum::Int(id), Datum::Float(p.x), Datum::Float(p.y)]))
            .collect();
        Ok((spatial_schema(), rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::row;

    /// Build the paper's Example-1 world: a call graph with one heavily
    /// called person, a high-speed-vehicle time series, and the relational
    /// `car2cid` mapping + person records.
    fn example1_world() -> MultiModelDb {
        let mut m = MultiModelDb::new();

        // Graph: person 1 (cid 11111) gets 4 calls after t=100.
        m.create_graph("calls");
        m.with_graph_mut("calls", |g| {
            for id in 1..=5i64 {
                g.add_vertex(id, [("cid".to_string(), Datum::Int(11110 + id))]);
            }
            for (src, t) in [(2i64, 150i64), (3, 160), (4, 170), (5, 180), (2, 50)] {
                g.add_edge(src, 1, "call", [("time".to_string(), Datum::Int(t))])
                    .unwrap();
            }
        })
        .unwrap();

        // Time series: car speeds; car-7 is speeding recently.
        m.create_series("high_speed", 60_000_000);
        for i in 0..60i64 {
            let tag = format!("car-{}", i % 10);
            let speed = if i % 10 == 7 { 150.0 } else { 80.0 };
            m.ingest("high_speed", i * 1_000_000, &tag, speed).unwrap();
        }

        // Relational: car ownership and person records.
        m.sql("create table car2cid (carid text, cid int)").unwrap();
        for c in 0..10 {
            m.sql(&format!(
                "insert into car2cid values ('car-{c}', {})",
                11104 + c // car-7 belongs to cid 11111
            ))
            .unwrap();
        }
        m.sql("create table persons (cid int, phone text)").unwrap();
        for p in 1..=5 {
            m.sql(&format!(
                "insert into persons values ({}, 'phone-{p}')",
                11110 + p
            ))
            .unwrap();
        }
        m
    }

    /// The paper's Example 1, reproduced end to end: join the graph-derived
    /// suspects with the time-series-derived speeding cars through the
    /// relational mapping.
    #[test]
    fn example1_unified_query() {
        let mut m = example1_world();
        let r = m
            .sql(
                "with cars as (select tag as carid from \
                     gtimeseries('high_speed', 120000000) hs where hs.value > 120), \
                 suspects as (select v from \
                     ggraph('calls', 'g.V().where(inE(''call'').has(''time'', gt(100)).count().gt(3)).dedup()') g) \
                 select p.cid, p.phone, c.carid \
                 from suspects s, persons p, car2cid cc, cars c \
                 where p.cid = 11110 + s.v and cc.cid = p.cid and cc.carid = c.carid",
            )
            .unwrap();
        // Suspect: vertex 1 → cid 11111 → owns car-7 → which is speeding.
        assert!(!r.rows.is_empty());
        let cids: Vec<i64> = r
            .rows
            .iter()
            .map(|row| row.get(0).unwrap().as_int().unwrap())
            .collect();
        assert!(cids.contains(&11111));
        assert!(r
            .rows
            .iter()
            .all(|row| { row.get(2).unwrap().as_text() == Some("car-7") }));
    }

    #[test]
    fn gtimeseries_window_filters_by_recency() {
        let mut m = example1_world();
        // Window of 5s from latest (t=59s): ts 55..=59.
        let rows = m
            .sql("select count(*) from gtimeseries('high_speed', 5000000) t")
            .unwrap();
        assert_eq!(rows.rows[0], row![5]);
    }

    #[test]
    fn ggraph_bool_and_count_results() {
        let mut m = example1_world();
        let r = m
            .sql("select * from ggraph('calls', 'g.V().has(''cid'', 11111).inE(''call'').count()') g")
            .unwrap();
        assert_eq!(r.rows[0], row![5]);
        let r = m
            .sql(
                "select * from ggraph('calls', \
                 'g.V().has(''cid'', 11111).inE(''call'').count().gt(3)') g",
            )
            .unwrap();
        assert_eq!(r.rows[0], row![true]);
    }

    #[test]
    fn spatial_functions_from_sql() {
        let mut m = MultiModelDb::new();
        m.create_grid("cars", 1.0);
        for i in 0..10 {
            m.place("cars", i, i as f64, 0.0).unwrap();
        }
        let r = m
            .sql("select id from gbox('cars', 2.5, -1.0, 6.5, 1.0) b order by id")
            .unwrap();
        assert_eq!(r.rows, vec![row![3], row![4], row![5], row![6]]);
        let r = m
            .sql("select id from gknn('cars', 7.2, 0.0, 2) k order by id")
            .unwrap();
        assert_eq!(r.rows, vec![row![7], row![8]]);
    }

    #[test]
    fn cross_model_join_graph_to_relational() {
        let mut m = example1_world();
        // All callers of 11111 with their phone records.
        let r = m
            .sql(
                "select p.phone from \
                 ggraph('calls', 'g.V(1).in(''call'').dedup()') callers, persons p \
                 where p.cid = 11110 + callers.v order by p.phone",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0], row!["phone-2"]);
    }

    #[test]
    fn gvision_from_sql_joins_relational() {
        use crate::vision::Detection;
        let mut m = MultiModelDb::new();
        m.create_vision("street");
        for (f, ts, class, conf) in [
            (1i64, 100i64, "car", 0.95),
            (2, 200, "car", 0.40),
            (3, 300, "person", 0.99),
            (4, 400, "car", 0.88),
        ] {
            m.detect(
                "street",
                Detection {
                    frame_id: f,
                    ts,
                    camera: "cam0".into(),
                    class: class.into(),
                    confidence: conf,
                    bbox: (0.0, 0.0, 1.0, 1.0),
                    embedding: vec![],
                },
            )
            .unwrap();
        }
        m.sql("create table frames (frame int, location text)")
            .unwrap();
        for f in 1..=4 {
            m.sql(&format!("insert into frames values ({f}, 'junction-{f}')"))
                .unwrap();
        }
        let r = m
            .sql(
                "select v.frame, fr.location from \
                 gvision('street', 'car', 0.5, 0, 1000) v, frames fr \
                 where fr.frame = v.frame order by v.frame",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], row![1, "junction-1"]);
        assert_eq!(r.rows[1], row![4, "junction-4"]);
    }

    #[test]
    fn continuous_query_fires_during_ingestion() {
        use crate::stream::{ContinuousQuery, Gate, StreamAgg};
        let mut m = MultiModelDb::new();
        m.create_series("speed", 60_000_000);
        m.register_continuous(ContinuousQuery {
            name: "speeding".into(),
            series: "speed".into(),
            window_us: 1_000_000,
            agg: StreamAgg::Max,
            tag_filter: None,
            gate: Gate::GreaterThan(120.0),
        })
        .unwrap();
        // 3 windows: quiet, speeding, quiet.
        for i in 0..30i64 {
            let speed = if (10..20).contains(&i) { 150.0 } else { 90.0 };
            m.ingest("speed", i * 100_000, "car-1", speed).unwrap();
        }
        m.flush_streams();
        let events = m.take_stream_events();
        assert_eq!(events.len(), 1, "only the speeding window alerts");
        assert_eq!(events[0].window_start, 1_000_000);
        assert_eq!(events[0].value, 150.0);
    }

    #[test]
    fn vision_similarity_search() {
        use crate::vision::Detection;
        let m = MultiModelDb::new();
        m.create_vision("v");
        for i in 0..10i64 {
            m.detect(
                "v",
                Detection {
                    frame_id: i,
                    ts: i,
                    camera: "c".into(),
                    class: "car".into(),
                    confidence: 0.9,
                    bbox: (0.0, 0.0, 1.0, 1.0),
                    embedding: vec![i as f32, 1.0, -1.0, 0.5],
                },
            )
            .unwrap();
        }
        let hits = m.vision_knn("v", &[9.0, 1.0, -1.0, 0.5], 3).unwrap();
        assert_eq!(hits[0].0, 9, "identical embedding is the top hit");
        assert!(hits[0].1 > 0.999);
    }

    #[test]
    fn unknown_stores_error_cleanly() {
        let mut m = MultiModelDb::new();
        assert!(m.sql("select * from gtimeseries('nope', 10) t").is_err());
        assert!(m.sql("select * from ggraph('nope', 'g.V()') g").is_err());
        assert!(m.sql("select * from gbox('nope', 0,0,1,1) b").is_err());
        assert!(m.ingest("nope", 0, "a", 1.0).is_err());
        assert!(m.place("nope", 1, 0.0, 0.0).is_err());
    }
}
