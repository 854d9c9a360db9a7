//! Spans recorded from outside the program: a [`Tracer`] the benchmark owns
//! and a [`Traced`] decorator that wraps any [`GaussNewtonProblem`] and
//! records one span per callback. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::time::Instant;

use diffreg::optim::GaussNewtonProblem;
use diffreg_telemetry::Json;

/// One recorded interval. `parent` indexes into the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    /// Which traced solve of the run this span belongs to.
    pub solve_id: usize,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    solve_id: usize,
}

/// In-memory span recorder with a parent stack. A disabled tracer records
/// nothing, so the same driver code serves the untraced timing runs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let inner = enabled.then(|| {
            RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                solve_id: 0,
            })
        });
        Self {
            epoch: Instant::now(),
            inner,
        }
    }

    /// Spans opened from now on belong to solve `id`.
    pub fn set_solve(&self, id: usize) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().solve_id = id;
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else { return f() };
        let idx = {
            let mut t = inner.borrow_mut();
            let idx = t.spans.len();
            let span = Span {
                name,
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent: t.open.last().copied(),
                solve_id: t.solve_id,
            };
            t.spans.push(span);
            t.open.push(idx);
            idx
        };
        let r = f();
        let mut t = inner.borrow_mut();
        t.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        t.open.pop();
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// `(calls, total seconds)` of the spans named `name` within solve `id`;
/// with `under`, only those whose parent span has that name.
pub fn tally(spans: &[Span], id: usize, name: &str, under: Option<&str>) -> (usize, f64) {
    let mut calls = 0;
    let mut total = 0.0;
    for s in spans.iter().filter(|s| s.solve_id == id && s.name == name) {
        let parent = s.parent.map(|p| spans[p].name);
        if under.is_none() || parent == under {
            calls += 1;
            total += s.dur();
        }
    }
    (calls, total)
}

/// Self time of the spans named `name` in solve `id`: their duration minus
/// what their direct children cover.
pub fn self_time(spans: &[Span], id: usize, name: &str) -> f64 {
    let mut total = 0.0;
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.solve_id == id && s.name == name)
    {
        let children: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(Span::dur)
            .sum();
        total += s.dur() - children;
    }
    total
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj()
                    .set("id", i)
                    .set("name", s.name)
                    .set("start_s", s.start_s)
                    .set("end_s", s.end_s)
                    .set("parent", s.parent.map_or(Json::Null, Json::from))
                    .set("solve", s.solve_id)
            })
            .collect(),
    )
}

/// Decorator recording a span around every callback of the wrapped problem.
pub struct Traced<'t, P> {
    pub inner: P,
    tracer: &'t Tracer,
}

impl<'t, P> Traced<'t, P> {
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl<P: GaussNewtonProblem> GaussNewtonProblem for Traced<'_, P> {
    type Vec = P::Vec;
    type Ops = P::Ops;

    fn ops(&self) -> &Self::Ops {
        self.inner.ops()
    }

    fn objective(&mut self, v: &Self::Vec) -> f64 {
        self.tracer.span("objective", || self.inner.objective(v))
    }

    fn linearize(&mut self, v: &Self::Vec) -> (f64, Self::Vec) {
        self.tracer.span("linearize", || self.inner.linearize(v))
    }

    fn hessian_vec(&mut self, d: &Self::Vec) -> Self::Vec {
        self.tracer
            .span("hessian_vec", || self.inner.hessian_vec(d))
    }

    fn precondition(&mut self, r: &Self::Vec) -> Self::Vec {
        self.tracer
            .span("precondition", || self.inner.precondition(r))
    }
}
