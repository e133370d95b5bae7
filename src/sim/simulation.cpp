#include "sim/simulation.h"

#include <utility>

#include "sim/engine.h"

namespace semperos {

thread_local Simulation* ShardContext::current = nullptr;

void Simulation::CrossScheduleAt(Cycles when, InlineFn&& fn) {
  engine_->RecordCrossSchedule(this, when, std::move(fn));
}

void Simulation::ParallelPush(Cycles when, uint32_t slot) {
  Entry entry;
  entry.when = when;
  entry.slot = slot;
  entry.lseq = next_lseq_++;
  if (ShardContext::current == this) {
    // In-window insertion into the executing shard's own queue (anything
    // cross-shard was deferred in ScheduleAt): inherit the executing
    // event's lineage anchor; count chain depth for same-cycle children.
    entry.icycle = now_;
    entry.anchor = current_anchor_;
    entry.depth = when == now_ ? current_depth_ + 1 : 0;
    CHECK_LT(entry.depth, UINT32_MAX);
  } else {
    // Engine-exclusive context (boot, driver events, barrier-merged
    // records): mint a fresh anchor from the global counter — these
    // insertions happen in single-threaded order, so the counter is
    // exactly their serial insertion order.
    entry.icycle = engine_->ExclusiveICycle();
    entry.anchor = engine_->AllocExclusiveVseq();
    entry.depth = 0;
  }
  Push(entry);
}

uint64_t Simulation::RunWindow(Cycles until) {
  uint64_t ran = 0;
  while (!heap_.empty() && heap_.front().when < until) {
    CHECK_GE(heap_.front().when, now_) << "event inserted into the shard's past";
    RunEntry();
    ++ran;
  }
  events_run_ += ran;
  return ran;
}

void Simulation::Push(Entry entry) {
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

Simulation::Entry Simulation::PopEntry() {
  Entry top = heap_.front();
  Entry last = heap_.back();
  heap_.pop_back();
  size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  // Sift the root hole down towards the smallest child, then drop `last` in.
  size_t i = 0;
  for (;;) {
    size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t end = first_child + 4 < n ? first_child + 4 : n;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

uint64_t Simulation::RunUntilIdle(uint64_t max_events) {
  uint64_t ran = 0;
  if (engine_ == nullptr) {
    RadixQueue::Item item;
    while (ran < max_events && queue_.PopIfAtMost(UINT64_MAX, &item)) {
      now_ = item.when;
      RunSlot(item.slot);
      ++ran;
    }
  } else {
    while (!heap_.empty() && ran < max_events) {
      CHECK_GE(heap_.front().when, now_);
      RunEntry();
      ++ran;
    }
  }
  if (Idle() && now_ < horizon_) {
    // Trailing charge-only work (NoteTime) extends past the last event;
    // idle time lands exactly where the old no-op events ended.
    now_ = horizon_;
  }
  events_run_ += ran;
  return ran;
}

uint64_t Simulation::RunUntil(Cycles until, uint64_t max_events) {
  uint64_t ran = 0;
  if (engine_ == nullptr) {
    RadixQueue::Item item;
    while (ran < max_events && queue_.PopIfAtMost(until, &item)) {
      now_ = item.when;
      RunSlot(item.slot);
      ++ran;
    }
  } else {
    while (ran < max_events && !heap_.empty() && heap_.front().when <= until) {
      RunEntry();
      ++ran;
    }
  }
  // Land on `until` only when nothing at or before it is left: a run cut
  // short by the event budget stays on its last event, so resuming never
  // moves the clock backwards.
  if (now_ < until && NextEventWhen() > until) {
    now_ = until;
  }
  events_run_ += ran;
  return ran;
}

}  // namespace semperos
