//! Runtime values manipulated by the interpreter.

use std::fmt;
use std::sync::Arc;

use instencil_pattern::dataflow::ScheduleBundle;

use crate::buffer::BufferView;

/// A runtime value: one SSA value's payload during interpretation.
#[derive(Clone)]
pub enum RtVal {
    /// `f64` / `f32` scalar.
    F64(f64),
    /// `index` / `i64` scalar.
    Int(i64),
    /// `i1`.
    Bool(bool),
    /// `vector<Nxf64>`.
    Vec(Vec<f64>),
    /// A memref (buffer view).
    Buf(BufferView),
    /// A wavefront schedule handle: the run-time value of both
    /// `tensor<?xi64>` results of `cfd.get_parallel_blocks` (the level
    /// CSR and the dependence graph it was derived from).
    Schedule(Arc<ScheduleBundle>),
}

impl RtVal {
    /// Scalar float payload.
    ///
    /// # Panics
    /// Panics when the value is not a float.
    pub fn as_f64(&self) -> f64 {
        match self {
            RtVal::F64(v) => *v,
            other => panic!("expected f64, got {other:?}"),
        }
    }

    /// Integer payload.
    ///
    /// # Panics
    /// Panics when the value is not an integer.
    pub fn as_int(&self) -> i64 {
        match self {
            RtVal::Int(v) => *v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// Boolean payload.
    ///
    /// # Panics
    /// Panics when the value is not a boolean.
    pub fn as_bool(&self) -> bool {
        match self {
            RtVal::Bool(v) => *v,
            other => panic!("expected bool, got {other:?}"),
        }
    }

    /// Vector payload.
    ///
    /// # Panics
    /// Panics when the value is not a vector.
    pub fn as_vec(&self) -> &[f64] {
        match self {
            RtVal::Vec(v) => v,
            other => panic!("expected vector, got {other:?}"),
        }
    }

    /// Buffer payload.
    ///
    /// # Panics
    /// Panics when the value is not a buffer.
    pub fn as_buf(&self) -> &BufferView {
        match self {
            RtVal::Buf(b) => b,
            other => panic!("expected buffer, got {other:?}"),
        }
    }

    /// Schedule-handle payload.
    ///
    /// # Panics
    /// Panics when the value is not a schedule handle.
    pub fn as_schedule(&self) -> &Arc<ScheduleBundle> {
        match self {
            RtVal::Schedule(s) => s,
            other => panic!("expected schedule, got {other:?}"),
        }
    }
}

impl fmt::Debug for RtVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtVal::F64(v) => write!(f, "f64({v})"),
            RtVal::Int(v) => write!(f, "int({v})"),
            RtVal::Bool(v) => write!(f, "bool({v})"),
            RtVal::Vec(v) => write!(f, "vec{v:?}"),
            RtVal::Buf(b) => write!(f, "{b:?}"),
            RtVal::Schedule(s) => write!(f, "schedule(blocks={})", s.csr.num_blocks()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(RtVal::F64(2.5).as_f64(), 2.5);
        assert_eq!(RtVal::Int(-3).as_int(), -3);
        assert!(RtVal::Bool(true).as_bool());
        assert_eq!(RtVal::Vec(vec![1.0, 2.0]).as_vec(), &[1.0, 2.0]);
        let s = instencil_pattern::dataflow::schedule_bundle(&[2, 3], &[vec![-1, 0]]);
        assert!(Arc::ptr_eq(
            RtVal::Schedule(Arc::clone(&s)).as_schedule(),
            &s
        ));
    }

    #[test]
    fn values_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtVal>();
    }

    #[test]
    #[should_panic(expected = "expected f64")]
    fn wrong_kind_panics() {
        let _ = RtVal::Int(1).as_f64();
    }
}
