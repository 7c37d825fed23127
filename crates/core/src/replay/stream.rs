//! Streaming bounded-memory replay: simulate and predict concurrently.
//!
//! The batch path materialises a whole [`vp_sim::Trace`] before the fused
//! replay kernel touches it, so peak RSS grows with trace length even
//! though the paper's Phase-2 pass is conceptually a stream (the tracer
//! feeds the predictor one retired instruction at a time). This module
//! removes that coupling: a **producer** thread runs the simulation with
//! a [`ValueBlockTracer`] that packs destination writes into
//! [`vp_sim::VALUE_BLOCK`]-event columnar blocks, and `shards`
//! **consumer** threads replay those blocks through the same fused pass
//! the batch source uses (`FusedPass::scan`, attribution
//! included). This module only supplies each shard's event iterator;
//! dedupe, merge and expansion are shared with the batch source in
//! [`super::ReplayRequest::run`].
//!
//! ## Bounded channel, fixed block pool
//!
//! Blocks travel through a hand-rolled broadcast channel backed by a
//! **fixed pool** of buffer pairs (`--block-pool=N`, default
//! [`DEFAULT_BLOCK_POOL`]): each submitted block is reference-counted out
//! to every attached consumer, and when the last consumer drops it the
//! buffers return to the free list for the producer to refill. When the
//! free list is empty the producer blocks inside [`Tracer::retire`] — the
//! simulation itself stalls until the slowest consumer catches up. There
//! is no unbounded queueing anywhere: live memory is `pool + 1` blocks
//! plus each consumer's [`MATRIX_BLOCK`]-event scratch, independent of
//! trace length.
//!
//! ## Bit-identical results
//!
//! Each consumer filters the broadcast stream down to its PC shard with
//! the same joint-modulus key the batch path uses, preserving per-shard
//! event order; the kernel re-accumulates its own
//! [`MATRIX_BLOCK`]-aligned chunks, so delivery block boundaries never
//! influence results. Streaming output is therefore bit-identical to
//! batch replay at any shard / block-pool combination — property-tested
//! here and in `tests/stream_replay.rs`, and fuzzed continuously by the
//! vp-verify oracle's streaming ≡ batch stage.
//!
//! ## Failure safety
//!
//! Producer and consumers guard each other with RAII: a consumer that
//! errors or panics detaches and drains its queue (so the producer can
//! never stall forever on a dead consumer), and the producer closes the
//! channel on exit — normal or panicked — so consumers always drain and
//! terminate.
//!
//! ## Observability
//!
//! Runs under a `"stream"` span and publishes `stream.blocks` (blocks
//! emitted), `stream.stalls` (submissions that found the pool empty) and
//! `stream.producer_wait_ms` (total time the simulation spent blocked on
//! backpressure), alongside the same `replay.*` counters the batch
//! source feeds.
//!
//! [`Tracer::retire`]: vp_sim::Tracer::retire
//! [`MATRIX_BLOCK`]: super::MATRIX_BLOCK

use std::collections::VecDeque;
use std::io;
use std::mem;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread;
use std::time::{Duration, Instant};

use vp_isa::{InstrAddr, Program};
use vp_sim::{RunLimits, ValueBlockSink, ValueBlockTracer};

use super::{FusedPass, SlotResult};

/// Default number of block-buffer pairs circulating between the producer
/// and the consumers. Eight blocks absorb ordinary consumer jitter
/// without letting the producer run far ahead.
pub const DEFAULT_BLOCK_POOL: usize = 8;

/// Smallest usable pool: one block in flight plus one being refilled.
/// Below this the producer and consumers would strictly alternate.
pub const MIN_BLOCK_POOL: usize = 2;

/// One filled block in flight. Holds a weak back-pointer to its channel
/// so that dropping the last reference returns the buffers to the pool.
struct BlockMsg {
    addrs: Vec<InstrAddr>,
    values: Vec<u64>,
    home: Weak<Channel>,
}

impl Drop for BlockMsg {
    fn drop(&mut self) {
        if let Some(channel) = self.home.upgrade() {
            let mut addrs = mem::take(&mut self.addrs);
            let mut values = mem::take(&mut self.values);
            addrs.clear();
            values.clear();
            {
                let mut state = channel.lock_state();
                state.free.push((addrs, values));
            }
            channel.space.notify_all();
        }
    }
}

struct ChannelState {
    /// Recycled empty buffer pairs the producer may refill.
    free: Vec<(Vec<InstrAddr>, Vec<u64>)>,
    /// Per-consumer queues of in-flight blocks (broadcast: every attached
    /// consumer sees every block).
    queues: Vec<VecDeque<Arc<BlockMsg>>>,
    /// Consumers that have detached (finished early, errored, panicked);
    /// the producer stops queueing to them.
    detached: Vec<bool>,
    /// Set once the producer is done (or died); consumers drain and stop.
    closed: bool,
}

/// The bounded broadcast channel between one producer and `consumers`
/// shard consumers, backed by a fixed pool of `pool` buffer pairs.
struct Channel {
    state: Mutex<ChannelState>,
    /// Signalled when a buffer pair returns to the free list.
    space: Condvar,
    /// Signalled when a block is queued or the channel closes.
    data: Condvar,
}

impl Channel {
    fn new(consumers: usize, pool: usize) -> Arc<Channel> {
        // The producer's tracer owns one pair from the start, so the free
        // list begins with `pool - 1`: total circulating pairs == pool.
        let free = (1..pool)
            .map(|_| {
                (
                    Vec::with_capacity(vp_sim::VALUE_BLOCK),
                    Vec::with_capacity(vp_sim::VALUE_BLOCK),
                )
            })
            .collect();
        Arc::new(Channel {
            state: Mutex::new(ChannelState {
                free,
                queues: (0..consumers).map(|_| VecDeque::new()).collect(),
                detached: vec![false; consumers],
                closed: false,
            }),
            space: Condvar::new(),
            data: Condvar::new(),
        })
    }

    /// Locks the state; a poisoned lock is impossible by construction (no
    /// code panics while holding it), but recover anyway so a consumer
    /// panic can never wedge the producer behind a poisoned mutex.
    fn lock_state(&self) -> MutexGuard<'_, ChannelState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until consumer `index` has a block or the channel closed.
    fn recv(&self, index: usize) -> Option<Arc<BlockMsg>> {
        let mut state = self.lock_state();
        loop {
            if let Some(msg) = state.queues[index].pop_front() {
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            state = self
                .data
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The producer half: a [`ValueBlockSink`] that broadcasts each full
/// block into the channel and blocks for a recycled pair when the pool
/// runs dry (the backpressure stall).
struct StreamSink {
    channel: Arc<Channel>,
    blocks: u64,
    stalls: u64,
    waited: Duration,
}

impl StreamSink {
    fn new(channel: Arc<Channel>) -> Self {
        StreamSink {
            channel,
            blocks: 0,
            stalls: 0,
            waited: Duration::ZERO,
        }
    }
}

impl ValueBlockSink for StreamSink {
    fn submit(&mut self, addrs: Vec<InstrAddr>, values: Vec<u64>) -> (Vec<InstrAddr>, Vec<u64>) {
        self.blocks += 1;
        let msg = Arc::new(BlockMsg {
            addrs,
            values,
            home: Arc::downgrade(&self.channel),
        });
        {
            let mut guard = self.channel.lock_state();
            let state = &mut *guard;
            for (queue, &detached) in state.queues.iter_mut().zip(&state.detached) {
                if !detached {
                    queue.push_back(Arc::clone(&msg));
                }
            }
        }
        self.channel.data.notify_all();
        // Drop our reference *outside* the lock: if every consumer is
        // already detached we are the last owner, and `BlockMsg::drop`
        // re-locks the channel to recycle the buffers.
        drop(msg);

        let mut state = self.channel.lock_state();
        if state.free.is_empty() {
            self.stalls += 1;
            let started = Instant::now();
            while state.free.is_empty() {
                state = self
                    .channel
                    .space
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            self.waited += started.elapsed();
        }
        state.free.pop().expect("free pair after wait")
    }
}

/// Detaches consumer `index` on drop — normal exit, error, or panic —
/// draining its queue so the producer can never stall on it again. The
/// queued messages are dropped *outside* the lock (their `Drop` re-locks
/// the channel to recycle buffers).
struct DetachGuard<'c> {
    channel: &'c Channel,
    index: usize,
}

impl Drop for DetachGuard<'_> {
    fn drop(&mut self) {
        let drained = {
            let mut state = self.channel.lock_state();
            state.detached[self.index] = true;
            mem::take(&mut state.queues[self.index])
        };
        drop(drained);
    }
}

/// Closes the channel on drop so consumers drain and terminate even if
/// the producer's simulation errored or panicked.
struct CloseGuard<'c> {
    channel: &'c Channel,
}

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.channel.lock_state().closed = true;
        self.channel.data.notify_all();
    }
}

/// Iterator over the value events belonging to one consumer's PC shard:
/// pulls broadcast blocks from the channel and filters them by the joint
/// shard key, preserving per-shard event order exactly as the batch
/// path's [`vp_sim::TraceColumns::shard_by_pc`] view does.
struct ShardEvents<'c> {
    channel: &'c Channel,
    index: usize,
    shards: u64,
    pass: &'c FusedPass<'c>,
    block: Option<(Arc<BlockMsg>, usize)>,
}

impl Iterator for ShardEvents<'_> {
    type Item = (InstrAddr, u64);

    fn next(&mut self) -> Option<(InstrAddr, u64)> {
        loop {
            if let Some((msg, pos)) = &mut self.block {
                while *pos < msg.addrs.len() {
                    let addr = msg.addrs[*pos];
                    let value = msg.values[*pos];
                    *pos += 1;
                    if self.pass.shard_key(addr) % self.shards == self.index as u64 {
                        return Some((addr, value));
                    }
                }
                // Exhausted: release the block (may recycle its buffers).
                self.block = None;
            }
            match self.channel.recv(self.index) {
                Some(msg) => self.block = Some((msg, 0)),
                None => return None,
            }
        }
    }
}

/// What the producer reports back besides success/failure.
struct ProducerStats {
    blocks: u64,
    stalls: u64,
    waited: Duration,
}

/// The stream source behind [`super::ReplayRequest::run`]: under a
/// `stream` span, spawns the producer (simulation) and `shards`
/// consumers, scans each consumer's filtered event stream with `pass`,
/// and returns the per-shard results in shard order. The trace is never
/// materialised.
pub(crate) fn stream_shards(
    program: &Program,
    limits: RunLimits,
    pass: &FusedPass<'_>,
    shards: usize,
    pool: usize,
) -> io::Result<Vec<Vec<SlotResult>>> {
    let _span = vp_obs::span("stream");
    let shards = shards.max(1);
    let pool = pool.max(MIN_BLOCK_POOL);
    let channel = Channel::new(shards, pool);
    let parent_span = vp_obs::span::current_path();

    let (producer, consumers) = thread::scope(|scope| {
        let channel = &channel;
        let consumer_handles: Vec<_> = (0..shards)
            .map(|index| {
                let parent_span = parent_span.clone();
                scope.spawn(move || {
                    crate::exec::mark_worker_thread();
                    let _adopted = vp_obs::span::adopt(parent_span);
                    let _worker = vp_obs::events::scope("worker");
                    let _detach = DetachGuard { channel, index };
                    pass.scan(ShardEvents {
                        channel,
                        index,
                        shards: shards as u64,
                        pass,
                        block: None,
                    })
                })
            })
            .collect();

        let producer_handle = scope.spawn(move || {
            let _adopted = vp_obs::span::adopt(parent_span.clone());
            let _worker = vp_obs::events::scope("producer");
            let _close = CloseGuard { channel };
            let mut tracer = ValueBlockTracer::new(StreamSink::new(Arc::clone(channel)));
            let outcome = vp_sim::run(program, &mut tracer, limits);
            let sink = tracer.finish();
            outcome.map(|_| ProducerStats {
                blocks: sink.blocks,
                stalls: sink.stalls,
                waited: sink.waited,
            })
        });

        let producer = match producer_handle.join() {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        let consumers: Vec<io::Result<_>> = consumer_handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(result) => result,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect();
        (producer, consumers)
    });

    let stats = producer.map_err(io::Error::other)?;
    vp_obs::counter("stream.blocks").add(stats.blocks);
    vp_obs::counter("stream.stalls").add(stats.stalls);
    vp_obs::counter("stream.producer_wait_ms").add(stats.waited.as_millis() as u64);
    vp_obs::counter("replay.shards").add(shards as u64);
    consumers.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayRequest;
    use vp_isa::asm::assemble;
    use vp_predictor::PredictorConfig;
    use vp_sim::Trace;

    fn sample() -> Program {
        assemble(
            "li r1, 0\nli r2, 3000\n\
             top: addi.st r1, r1, 1\nadd r3, r1, r1\nbne r1, r2, top\nhalt\n",
        )
        .unwrap()
    }

    #[test]
    fn streaming_matches_batch_across_pools_and_shards() {
        let p = sample();
        let limits = RunLimits::default();
        let trace = Trace::capture(&p, limits).unwrap();
        let cfg = PredictorConfig::spec_table_stride_fsm();
        let batch = ReplayRequest::batch(&trace)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        for shards in [1usize, 3, 4] {
            for pool in [MIN_BLOCK_POOL, DEFAULT_BLOCK_POOL] {
                let streamed = ReplayRequest::stream(&p, limits)
                    .single(&p, cfg)
                    .shards(shards)
                    .block_pool(pool)
                    .run()
                    .unwrap()
                    .into_single();
                assert_eq!(
                    streamed.outcome.stats, batch.outcome.stats,
                    "diverged at {shards} shards / pool {pool}"
                );
                assert_eq!(streamed.outcome.occupancy, batch.outcome.occupancy);
                assert_eq!(streamed.outcome.shards, shards);
            }
        }
    }

    /// A deliberately slow consumer must stall the producer (bounded
    /// pool, no unbounded queueing) and still observe every event in
    /// order — the starvation/backpressure stress test.
    #[test]
    fn slow_consumer_applies_backpressure_without_loss() {
        let channel = Channel::new(1, MIN_BLOCK_POOL);
        let blocks = 16usize;
        let per_block = 4usize;
        let (stats, seen) = thread::scope(|scope| {
            let consumer = {
                let channel = Arc::clone(&channel);
                scope.spawn(move || {
                    let _detach = DetachGuard {
                        channel: &channel,
                        index: 0,
                    };
                    let mut seen: Vec<(InstrAddr, u64)> = Vec::new();
                    while let Some(msg) = channel.recv(0) {
                        // Slow consumer: hold the block while the
                        // producer races ahead into the pool limit.
                        thread::sleep(Duration::from_millis(2));
                        seen.extend(msg.addrs.iter().copied().zip(msg.values.iter().copied()));
                    }
                    seen
                })
            };
            let producer = {
                let channel = Arc::clone(&channel);
                scope.spawn(move || {
                    let _close = CloseGuard { channel: &channel };
                    let mut sink = StreamSink::new(Arc::clone(&channel));
                    let (mut addrs, mut values) = (Vec::new(), Vec::new());
                    for b in 0..blocks {
                        addrs.clear();
                        values.clear();
                        for e in 0..per_block {
                            addrs.push(InstrAddr::new((b * per_block + e) as u32));
                            values.push((b * per_block + e) as u64);
                        }
                        (addrs, values) = sink.submit(addrs, values);
                    }
                    ProducerStats {
                        blocks: sink.blocks,
                        stalls: sink.stalls,
                        waited: sink.waited,
                    }
                })
            };
            (producer.join().unwrap(), consumer.join().unwrap())
        });
        assert_eq!(stats.blocks, blocks as u64);
        assert!(
            stats.stalls > 0,
            "a 2-block pool against a sleeping consumer must stall"
        );
        assert!(stats.waited > Duration::ZERO);
        let expected: Vec<(InstrAddr, u64)> = (0..blocks * per_block)
            .map(|i| (InstrAddr::new(i as u32), i as u64))
            .collect();
        assert_eq!(seen, expected, "every event delivered, in order");
    }

    /// A consumer that dies early must not wedge the producer: the
    /// detach guard drains its queue and hands the buffers back.
    #[test]
    fn detached_consumer_never_blocks_the_producer() {
        let channel = Channel::new(1, MIN_BLOCK_POOL);
        thread::scope(|scope| {
            {
                let channel = Arc::clone(&channel);
                scope.spawn(move || {
                    let _detach = DetachGuard {
                        channel: &channel,
                        index: 0,
                    };
                    // Take one block, then bail (simulates an error path).
                    let _ = channel.recv(0);
                });
            }
            let channel = Arc::clone(&channel);
            let producer = scope.spawn(move || {
                let _close = CloseGuard { channel: &channel };
                let mut sink = StreamSink::new(Arc::clone(&channel));
                let (mut addrs, mut values) = (Vec::new(), Vec::new());
                // Far more blocks than the pool holds: would deadlock if
                // the dead consumer's queue pinned buffers.
                for i in 0..64u32 {
                    addrs.clear();
                    values.clear();
                    addrs.push(InstrAddr::new(i));
                    values.push(u64::from(i));
                    (addrs, values) = sink.submit(addrs, values);
                }
                sink.blocks
            });
            assert_eq!(producer.join().unwrap(), 64);
        });
    }

    #[test]
    fn budget_exhausted_streams_match_batch() {
        // An endless loop truncated by the instruction budget: the
        // streamed event prefix must equal the captured one.
        let p = assemble("li r1, 0\ntop: addi r1, r1, 1\nbeq r0, r0, top\nhalt\n").unwrap();
        let limits = RunLimits::with_max(10_000);
        let cfg = PredictorConfig::spec_table_stride_fsm();
        let streamed = ReplayRequest::stream(&p, limits)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        let trace = Trace::capture(&p, limits).unwrap();
        let batch = ReplayRequest::batch(&trace)
            .single(&p, cfg)
            .run()
            .unwrap()
            .into_single();
        assert_eq!(streamed.outcome.stats, batch.outcome.stats);
    }

    #[test]
    fn foreign_program_errors_do_not_hang_the_stream() {
        // The plan's directive table comes from a one-instruction
        // program, but the simulated program touches more PCs: every
        // consumer errors on the first out-of-range event. The stream
        // must surface the error, not deadlock.
        let p = sample();
        let other = assemble("halt\n").unwrap();
        let err = ReplayRequest::stream(&p, RunLimits::default())
            .single(&other, PredictorConfig::spec_table_stride_fsm())
            .shards(2)
            .block_pool(MIN_BLOCK_POOL)
            .run()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
