//! Spans recorded from outside the program: name, start, end, parent and the
//! operation they belong to. Kept in memory, written out at exit.

use crate::stats;
use crate::workload::{Class, Probe};
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub class: Class,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(spans),
            stack: Vec::with_capacity(8),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    #[inline]
    pub fn open(&mut self, class: Class) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(idx);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            class,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        idx
    }

    #[inline]
    pub fn close(&mut self, idx: u32) {
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans[idx as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span of `class`, nanoseconds.
    pub fn durations(&self, class: Class) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.class == class)
            .map(Span::dur_ns)
            .collect()
    }

    /// Median duration of every class in microseconds, indexed by
    /// `class as usize`; 0 for a class that never ran.
    pub fn p50_us_by_class(&self) -> Vec<f64> {
        let mut by_class = vec![Vec::new(); Class::ALL.len()];
        for s in &self.spans {
            by_class[s.class as usize].push(s.dur_ns());
        }
        by_class
            .iter_mut()
            .map(|d| match d.is_empty() {
                true => 0.0,
                false => stats::percentile(d, 0.50) as f64 / 1e3,
            })
            .collect()
    }

    /// Self time per class: a span's duration minus what its children cover.
    pub fn self_time_ns(&self) -> Vec<(Class, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut by_class = vec![(0u64, 0u64); Class::ALL.len()];
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let slot = &mut by_class[s.class as usize];
            slot.0 += s.dur_ns().saturating_sub(*c);
            slot.1 += 1;
        }
        Class::ALL
            .iter()
            .map(|&c| (c, by_class[c as usize].0, by_class[c as usize].1))
            .filter(|&(_, _, n)| n > 0)
            .collect()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.class.name(),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Probe for Tracer {
    #[inline]
    fn span<R>(&mut self, class: Class, f: impl FnOnce() -> R) -> R {
        let idx = self.open(class);
        let r = f();
        self.close(idx);
        r
    }
}
