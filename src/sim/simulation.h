// Discrete-event simulation engine.
//
// This is the substrate that replaces the paper's gem5 full-system simulation
// (docs/architecture.md, "Execution substrate"). Time is a 64-bit cycle
// counter; events are closures ordered by (time, insertion order) so that
// runs are fully deterministic.
//
// The engine is built for wall-clock throughput, because every benchmark
// sweep pays its cost on every event (see docs/benchmarks.md, "Wall-clock vs
// modeled cycles"). Events hold small-buffer-optimized callbacks (InlineFn —
// no allocation for typical captures) that live in a recycled slab; callers
// pass them by rvalue reference, so a closure is constructed once and moved
// once, into its slot. The queue itself holds only (when, slot) pairs, and
// which structure orders them depends on the engine:
//
//  * Serial engine (engine_ == nullptr): a monotone radix queue — a radix
//    heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) whose buckets are FIFOs
//    of 16-byte entries. Its pop order is exactly (when, insertion order),
//    with no per-event sequence number and no comparisons; see RadixQueue.
//  * Sharded engine (sim/engine.h): an indexed 4-ary min-heap of 40-byte
//    entries carrying the engine's serial-order key (see Entry). That key
//    reproduces the serial order across shards but is not FIFO-compatible,
//    so the shards keep the heap.
#ifndef SEMPEROS_SIM_SIMULATION_H_
#define SEMPEROS_SIM_SIMULATION_H_

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/inline_fn.h"

namespace semperos {

class ParallelEngine;
class Simulation;

// Which event queue the calling thread is currently draining. Null on the
// main thread and in all engine-exclusive phases (boot, barriers, driver
// events), where direct insertion into any queue is safe. Set by the
// parallel engine's workers around window execution (sim/engine.h).
struct ShardContext {
  static thread_local Simulation* current;
};

// The serial engine's event queue: a monotone radix queue of (when, slot)
// entries. It relies on the simulator's monotonicity — nothing is ever
// inserted before the last popped time `base_` — and keeps 65 FIFO buckets:
// an entry goes into bucket bit_width(when ^ base_), so bucket 0 holds
// exactly the events at base_, and bucket k (k >= 1) those whose highest bit
// differing from base_ is bit k-1. Pop takes the front of bucket 0; when
// bucket 0 is empty, it finds the lowest non-empty bucket, moves base_ to
// that bucket's minimum `when`, and re-buckets its entries in order — every
// one lands in a lower bucket, and entries with other times in higher
// buckets stay correctly placed, because the new base_ agrees with the old
// one on all bits above the refilled bucket's.
//
// Order. Entries with equal `when` always share a bucket. Pushes append,
// and a refill appends in order into buckets that are all empty (the
// refilled bucket was the lowest non-empty one), so by induction every
// bucket holds its equal-time entries in insertion order. Bucket 0 is
// popped front to back, so the pop order is exactly (when, insertion
// order), with no sequence number and no key comparison. Each entry is
// re-bucketed at most 64 times, since its bucket index strictly falls.
class RadixQueue {
 public:
  struct Item {
    Cycles when;
    uint32_t slot;
  };

  bool empty() const { return buckets_[0].empty() && occupied_ == 0; }

  void Push(Cycles when, uint32_t slot) {
    CHECK_GE(when, base_) << "event scheduled before the queue's last pop";
    unsigned b = static_cast<unsigned>(std::bit_width(when ^ base_));
    buckets_[b].push_back(Item{when, slot});
    occupied_ |= Bit(b);
  }

  // Earliest pending time, or UINT64_MAX when empty. Does not move base_.
  Cycles MinWhen() const {
    if (!buckets_[0].empty()) {
      return base_;
    }
    return occupied_ == 0 ? UINT64_MAX : BucketMin(buckets_[LowestOccupied()]);
  }

  // Pops the earliest entry into *item if its time is <= until; otherwise
  // leaves the queue — base_ included — untouched and returns false. A
  // bounded run (Simulation::RunUntil) must not move base_ past `until`:
  // a later insertion between `until` and the next event would then land
  // before base_.
  bool PopIfAtMost(Cycles until, Item* item) {
    if (buckets_[0].empty()) {
      if (occupied_ == 0) {
        return false;
      }
      unsigned b = LowestOccupied();
      Cycles min = BucketMin(buckets_[b]);
      if (min > until) {
        return false;
      }
      Refill(b, min);
    } else if (base_ > until) {
      return false;
    }
    *item = PopFront();
    return true;
  }

 private:
  static constexpr unsigned kBuckets = 65;  // bit_width of a 64-bit xor: 0..64

  // Occupancy bit of bucket b >= 1; bucket 0 is checked directly.
  static uint64_t Bit(unsigned b) { return b == 0 ? 0 : uint64_t{1} << (b - 1); }

  unsigned LowestOccupied() const {
    return static_cast<unsigned>(std::countr_zero(occupied_)) + 1;
  }

  static Cycles BucketMin(const std::vector<Item>& bucket) {
    Cycles min = UINT64_MAX;
    for (const Item& item : bucket) {
      min = item.when < min ? item.when : min;
    }
    return min;
  }

  // Moves base_ to `min` (bucket b's minimum) and re-buckets b in order.
  void Refill(unsigned b, Cycles min) {
    base_ = min;
    occupied_ &= ~Bit(b);
    std::vector<Item>& src = buckets_[b];
    for (const Item& item : src) {
      unsigned k = static_cast<unsigned>(std::bit_width(item.when ^ base_));
      buckets_[k].push_back(item);  // k < b: never src itself
      occupied_ |= Bit(k);
    }
    src.clear();
  }

  Item PopFront() {
    std::vector<Item>& b0 = buckets_[0];
    Item item = b0[head0_++];
    if (head0_ == b0.size()) {
      b0.clear();
      head0_ = 0;
    }
    return item;
  }

  Cycles base_ = 0;
  uint64_t occupied_ = 0;  // bit b-1 set iff bucket b (b >= 1) is non-empty
  size_t head0_ = 0;       // next entry to pop from bucket 0
  std::array<std::vector<Item>, kBuckets> buckets_;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time in cycles.
  Cycles Now() const { return now_; }

  // Schedules fn to run `delay` cycles from now. "Now" is the executing
  // shard's clock when another shard's queue is targeted mid-window — in
  // that case this queue's own clock must not even be *read* (its owner
  // thread is advancing it concurrently). The serial engine has
  // engine_ == nullptr and never takes that branch.
  void Schedule(Cycles delay, InlineFn&& fn) {
    if (engine_ != nullptr && ShardContext::current != nullptr &&
        ShardContext::current != this) {
      CrossScheduleAt(ShardContext::current->Now() + delay, std::move(fn));
      return;
    }
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Records that modeled work extends to `when` without scheduling an
  // event. Pure charge-time accounting (Executor::Occupy) uses this instead
  // of a do-nothing closure: RunUntilIdle still ends at the same Now() —
  // exactly where the trailing no-op event would have advanced it — but the
  // queue never sees the event. Roughly a third of all events in a figure
  // sweep were such no-ops.
  void NoteTime(Cycles when) {
    CHECK_GE(when, now_);
    horizon_ = when > horizon_ ? when : horizon_;
  }

  // Schedules fn at an absolute time (must not be in the past). When the
  // simulation is a shard of the parallel engine and the calling thread is
  // mid-window on a *different* shard, the insertion is deferred to the
  // shard's outbox and applied in deterministic merged order at the next
  // window barrier (sim/engine.h); the serial path pays one null check.
  void ScheduleAt(Cycles when, InlineFn&& fn) {
    if (engine_ != nullptr && ShardContext::current != nullptr &&
        ShardContext::current != this) {
      CrossScheduleAt(when, std::move(fn));
      return;
    }
    NoteTime(when);
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      Slot(slot) = std::move(fn);
    } else {
      slot = slot_count_++;
      if ((slot & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<InlineFn[]>(kChunkSlots));
      }
      Slot(slot) = std::move(fn);
    }
    if (engine_ != nullptr) {
      // Sharded queue: events carry the engine's serial-order key
      // (insertion cycle, chain depth, lineage anchor — see Entry).
      ParallelPush(when, slot);
      return;
    }
    queue_.Push(when, slot);
  }

  // Runs events until the queue is empty. Returns the number of events run.
  // `max_events` guards against runaway simulations.
  uint64_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs events with time <= `until`. Pending later events stay queued.
  // Advances Now() to `until` even if the queue drains earlier, unless
  // `max_events` stops the run before every event up to `until` has run.
  uint64_t RunUntil(Cycles until, uint64_t max_events = UINT64_MAX);

  // One of heap_ (sharded) and queue_ (serial) is always empty.
  bool Idle() const { return heap_.empty() && queue_.empty(); }
  uint64_t EventsRun() const { return events_run_; }

  // --- Parallel-engine support (sim/engine.h). The serial engine never
  // --- calls these; engine_ stays null and its hot paths never touch the
  // --- sharded heap.

  // Marks this queue as shard `index` of `engine`. Cross-shard ScheduleAt
  // calls are deferred to the engine's outboxes from then on.
  void BindEngine(ParallelEngine* engine, uint32_t index) {
    engine_ = engine;
    shard_index_ = index;
  }
  uint32_t shard_index() const { return shard_index_; }

  // Order key of the event currently executing on this queue (stamps
  // cross-shard records so the barrier merge replays serial send order).
  Cycles current_event_icycle() const { return current_icycle_; }
  uint64_t current_event_anchor() const { return current_anchor_; }
  uint32_t current_event_depth() const { return current_depth_; }

  // Runs every event with when < until (exclusive); Now() is left on the
  // last executed event, never advanced artificially. Window building block.
  uint64_t RunWindow(Cycles until);

  // Advances the clock without running anything (no-op if t <= Now()).
  // Used to quiesce shards at exact-time driver barriers and to land every
  // queue on the common final cycle.
  void AdvanceTo(Cycles t) {
    if (t > now_) {
      now_ = t;
    }
  }

  // Earliest pending event time, or UINT64_MAX when idle.
  Cycles NextEventWhen() const {
    if (engine_ == nullptr) {
      return queue_.MinWhen();
    }
    return heap_.empty() ? UINT64_MAX : heap_.front().when;
  }

  // Latest time any work (event or pure charge) reaches on this queue.
  Cycles WorkHorizon() const { return horizon_ > now_ ? horizon_ : now_; }

 private:
  // Out-of-line cross-shard deferral and sharded-key insertion (keep
  // engine.h out of this header).
  void CrossScheduleAt(Cycles when, InlineFn&& fn);
  void ParallelPush(Cycles when, uint32_t slot);

  // Sharded-heap entry.
  struct Entry {
    Cycles when;
    // Serial order key for same-`when` events: the serial engine runs such
    // ties in insertion order, and the sharded engine reproduces that order
    // with (icycle, depth, anchor, lseq):
    //  * icycle — the cycle the insertion happened at: serial insertion
    //    order is monotone in time, so an event inserted during an earlier
    //    cycle always comes first;
    //  * depth — same-cycle chains (an event at cycle c scheduling at c):
    //    the serial queue appends such events behind every event already
    //    pending at c, so competing chains run in generation waves, and the
    //    chain link count orders them;
    //  * anchor — the lineage id: engine-exclusive insertions (boot,
    //    driver events, barrier-merged records) mint one from the global
    //    counter in single-threaded order — exactly their serial insertion
    //    order — and every in-window insertion inherits the executing
    //    event's anchor, so competing same-cycle insertions on different
    //    shards order by their nearest exclusive ancestors, which the
    //    serial engine executed in exactly that order;
    //  * lseq — queue-local insertion counter: lineages never span shards
    //    (cross-shard effects re-anchor at the barrier), so any remaining
    //    tie is within one shard, where insertion order is serial order.
    Cycles icycle;
    uint64_t anchor;
    uint64_t lseq;
    uint32_t depth;
    uint32_t slot;  // index of the callback in slots_
  };

  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    if (a.icycle != b.icycle) {
      return a.icycle < b.icycle;
    }
    if (a.depth != b.depth) {
      return a.depth < b.depth;
    }
    if (a.anchor != b.anchor) {
      return a.anchor < b.anchor;
    }
    return a.lseq < b.lseq;
  }

  // 4-ary heap primitives. Children of node i are 4i+1..4i+4. Insertion and
  // removal move the hole, not the elements pairwise, so each level costs
  // one Entry move.
  void Push(Entry entry);
  Entry PopEntry();

  // Pops the sharded heap's top and runs it with its order key published
  // (the engine stamps cross-shard records with it).
  void RunEntry() {
    Entry top = PopEntry();
    now_ = top.when;
    current_icycle_ = top.icycle;
    current_anchor_ = top.anchor;
    current_depth_ = top.depth;
    RunSlot(top.slot);
  }

  // Runs the callback in slot `slot`, then recycles the slot. The callback
  // is invoked IN PLACE — slab chunks never move, so reentrant scheduling
  // never moves a closure that is currently executing — and the slot is
  // recycled only after the call returns.
  void RunSlot(uint32_t slot) {
    InlineFn& fn = Slot(slot);
    fn();
    fn = nullptr;
    free_slots_.push_back(slot);
  }

  ParallelEngine* engine_ = nullptr;  // null on the serial engine
  uint32_t shard_index_ = 0;
  Cycles current_icycle_ = 0;         // order key of the executing event...
  uint64_t current_anchor_ = 0;       // ...its lineage anchor...
  uint32_t current_depth_ = 0;        // ...and same-cycle chain depth
  uint64_t next_lseq_ = 0;            // per-queue insertion counter (tiebreak)
  Cycles now_ = 0;
  Cycles horizon_ = 0;  // latest time any work (event or charge) reaches
  uint64_t events_run_ = 0;
  RadixQueue queue_;                   // serial engine's queue
  std::vector<Entry> heap_;            // sharded engine's queue
  // Callback slab in fixed-size chunks: a slot never moves once allocated,
  // and finding it is a shift and a mask.
  static constexpr uint32_t kChunkBits = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSlots - 1;
  InlineFn& Slot(uint32_t slot) { return chunks_[slot >> kChunkBits][slot & kChunkMask]; }
  std::vector<std::unique_ptr<InlineFn[]>> chunks_;
  uint32_t slot_count_ = 0;
  std::vector<uint32_t> free_slots_;   // recycled slab indices
};

}  // namespace semperos

#endif  // SEMPEROS_SIM_SIMULATION_H_
