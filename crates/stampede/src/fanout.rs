//! Amortized fan-out: one frame to N output channels for the price of one.
//!
//! Tracker stages broadcast each result to 2–3 downstream channels. As
//! independent [`Output::put`]s that costs N deep clones of the payload,
//! N clock reads, and N feedback folds at N distinct times. [`FanOut`]
//! collapses the per-frame overhead:
//!
//! * the payload is boxed into **one `Arc`** shared by every channel (the
//!   channels' stores hold `Arc<T>` anyway — the deep clones were pure
//!   waste);
//! * the task reads the clock **once**; every backward feedback fold
//!   carries that shared time, and so does every channel's alloc event,
//!   raised to the channel's last record (a channel that blocks the
//!   producer on capacity stamps its alloc with the task's wake-up read —
//!   see `Channel::put_arc_blocking`);
//! * each channel still returns its own cached summary-STP (a field read,
//!   see the channel docs) and the producer folds each into its own slot —
//!   feedback semantics are unchanged, only the redundant clock reads and
//!   clones are gone.
//!
//! Error behaviour matches the loop of puts it replaces: the first
//! `Closed`/`Timeout` aborts the fan-out, earlier channels keep the item.

use crate::channel::Output;
use crate::error::StampedeError;
use crate::item::ItemData;
use crate::task::TaskCtx;
use std::sync::Arc;
use vtime::Timestamp;

/// A bundle of producer endpoints written together each iteration.
pub struct FanOut<T: ItemData> {
    outs: Vec<Output<T>>,
}

impl<T: ItemData> FanOut<T> {
    /// Bundle the given endpoints. Panics on an empty bundle — a fan-out
    /// to nowhere is a wiring bug, not a runtime condition.
    #[must_use]
    pub fn new(outs: Vec<Output<T>>) -> Self {
        assert!(!outs.is_empty(), "FanOut needs at least one output");
        FanOut { outs }
    }

    /// Number of output channels in the bundle.
    #[must_use]
    pub fn width(&self) -> usize {
        self.outs.len()
    }

    /// Put one item to every channel in the bundle: one `Arc`, one clock
    /// read, one feedback time. Blocks per channel while bounded channels
    /// are full, in bundle order.
    pub fn put(&self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        let t0 = ctx.op_sample();
        let bytes = value.size_bytes();
        let value = Arc::new(value);
        let now = ctx.read_clock();
        for out in &self.outs {
            let summary = out
                .ch
                .put_arc_blocking(ctx, true, ts, Arc::clone(&value), bytes)?;
            if let Some(stp) = summary {
                ctx.receive_feedback_from(out.thread_out_index, stp, now, out.ch.node());
            }
        }
        if let Some(t0) = t0 {
            ctx.record_put_ns(t0);
        }
        Ok(())
    }

    /// The underlying endpoints (monitoring / tests).
    #[must_use]
    pub fn outputs(&self) -> &[Output<T>] {
        &self.outs
    }
}
