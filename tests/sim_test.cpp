#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "sim/executor.h"
#include "sim/simulation.h"

namespace semperos {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulation, TieBrokenByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(5, [&] { order.push_back(1); });
  sim.Schedule(5, [&] { order.push_back(2); });
  sim.Schedule(5, [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    sim.Schedule(1, [&] {
      sim.Schedule(1, [&] { fired++; });
      fired++;
    });
    fired++;
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), 3u);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(20, [&] { fired++; });
  sim.Schedule(30, [&] { fired++; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenQueueDrains) {
  Simulation sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000u);
}

TEST(Simulation, MaxEventsBudget) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(i, [&] { fired++; });
  }
  EXPECT_EQ(sim.RunUntilIdle(4), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(Simulation, CountsEventsRun) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(i, [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.EventsRun(), 7u);
}

// Randomized pop-order check of the serial queue against a reference model:
// pending events kept sorted by (when, insertion index), which is exactly
// what a stable sort of the insertion sequence by `when` yields. Every
// executed event must be the model's minimum. Events spawn children with
// delays from 0 (nested same-cycle chains) up to 2^40, and the run is cut
// into RunUntil chunks of random length, between which the test inserts
// from outside at times in [Now(), next event] — the monotone queue's
// look-ahead trap — as well as beyond it.
class QueueOrderModel {
 public:
  QueueOrderModel(Simulation* sim, uint64_t seed) : sim_(sim), rng_(seed) {}

  void Insert(Cycles when) {
    uint64_t index = inserted_++;
    pending_.emplace(when, index);
    sim_->ScheduleAt(when, [this, when, index] { Fire(when, index); });
  }

  Cycles RandomDelay() {
    switch (rng_.NextBelow(8)) {
      case 0:
      case 1:
        return 0;
      case 2:
      case 3:
        return rng_.NextBelow(8);
      case 4:
        return rng_.NextBelow(512);
      case 5:
        return rng_.NextBelow(1 << 16);
      case 6:
        return uint64_t{1} << rng_.NextBelow(41);  // powers of two to 2^40
      default:
        return rng_.NextBelow(uint64_t{1} << 40);
    }
  }

  Rng& rng() { return rng_; }
  uint64_t inserted() const { return inserted_; }
  uint64_t fired() const { return fired_; }
  size_t pending() const { return pending_.size(); }
  bool failed() const { return failed_; }
  Cycles next_when() const { return pending_.empty() ? UINT64_MAX : pending_.begin()->first; }

  uint64_t budget = 0;  // stop spawning children once this many inserted

 private:
  void Fire(Cycles when, uint64_t index) {
    ++fired_;
    if (pending_.empty() || *pending_.begin() != std::make_pair(when, index) ||
        sim_->Now() != when) {
      if (!failed_) {
        ADD_FAILURE() << "pop " << fired_ << ": ran (" << when << ", #" << index
                      << ") at Now()=" << sim_->Now() << ", model expected ("
                      << (pending_.empty() ? 0 : pending_.begin()->first) << ", #"
                      << (pending_.empty() ? 0 : pending_.begin()->second) << ")";
      }
      failed_ = true;
    }
    pending_.erase(std::make_pair(when, index));
    // Keep the population near a few hundred events, like the simulator.
    uint64_t children = pending_.size() < 64 ? 2 : rng_.NextBelow(3);
    for (uint64_t c = 0; c < children && inserted_ < budget; ++c) {
      Insert(sim_->Now() + RandomDelay());
    }
  }

  Simulation* sim_;
  Rng rng_;
  std::set<std::pair<Cycles, uint64_t>> pending_;
  uint64_t inserted_ = 0;
  uint64_t fired_ = 0;
  bool failed_ = false;
};

TEST(Simulation, RandomizedPopOrderMatchesStableSortedReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Simulation sim;
    QueueOrderModel model(&sim, seed);
    model.budget = 120000;
    for (int i = 0; i < 256; ++i) {
      model.Insert(model.RandomDelay());
    }
    while (!sim.Idle()) {
      // Either drain a random stretch with RunUntil or a random event count
      // with RunUntilIdle's budget, then insert from outside.
      if (model.rng().NextBelow(2) == 0) {
        sim.RunUntil(sim.Now() + model.RandomDelay(), 1 + model.rng().NextBelow(4096));
      } else {
        sim.RunUntilIdle(1 + model.rng().NextBelow(4096));
      }
      ASSERT_FALSE(model.failed()) << "seed " << seed;
      Cycles next = model.next_when();
      if (next != UINT64_MAX && next > sim.Now() && model.inserted() < model.budget) {
        // Strictly between Now() and the next pending event.
        model.Insert(sim.Now() + 1 + model.rng().NextBelow(next - sim.Now()));
      }
      if (model.inserted() < model.budget) {
        model.Insert(sim.Now() + model.RandomDelay());
      }
    }
    EXPECT_GE(model.inserted(), 100000u) << "seed " << seed;
    EXPECT_EQ(model.fired(), model.inserted()) << "seed " << seed;
    EXPECT_EQ(model.pending(), 0u) << "seed " << seed;
    EXPECT_EQ(sim.EventsRun(), model.fired()) << "seed " << seed;
  }
}

TEST(Simulation, SameCycleChainsRunInGenerationWaves) {
  // Two chains at cycle 5, each link scheduling the next at the same cycle:
  // every link goes behind everything already pending at 5.
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(5, [&] {
    order.push_back(1);
    sim.ScheduleAt(5, [&] { order.push_back(3); });
  });
  sim.ScheduleAt(5, [&] {
    order.push_back(2);
    sim.ScheduleAt(5, [&] {
      order.push_back(4);
      sim.ScheduleAt(5, [&] { order.push_back(5); });
    });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.Now(), 5u);
}

TEST(Simulation, RunUntilLookAheadDoesNotMoveTheQueueBase) {
  // RunUntil(t) must see that the next event lies beyond t without
  // advancing the queue to it: an insertion between t and that event must
  // still be accepted and run first.
  Simulation sim;
  std::vector<Cycles> ran;
  sim.ScheduleAt(1000, [&] { ran.push_back(sim.Now()); });
  EXPECT_EQ(sim.RunUntil(10), 0u);
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.NextEventWhen(), 1000u);
  sim.ScheduleAt(500, [&] { ran.push_back(sim.Now()); });
  sim.ScheduleAt(11, [&] { ran.push_back(sim.Now()); });
  EXPECT_EQ(sim.NextEventWhen(), 11u);
  EXPECT_EQ(sim.RunUntil(600), 2u);
  EXPECT_EQ(sim.Now(), 600u);
  sim.ScheduleAt(999, [&] { ran.push_back(sim.Now()); });
  sim.RunUntilIdle();
  EXPECT_EQ(ran, (std::vector<Cycles>{11, 500, 999, 1000}));
}

TEST(Simulation, MaxEventsBudgetStopsAndResumesInOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAt(100 + 10 * (i % 3), [&order, i] { order.push_back(i); });
  }
  sim.ScheduleAt(100, [&] {
    order.push_back(6);
    sim.ScheduleAt(100, [&] { order.push_back(7); });  // same-cycle child
  });
  // Stop mid-cycle, in the middle of cycle 100's events.
  EXPECT_EQ(sim.RunUntilIdle(2), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 3}));
  EXPECT_EQ(sim.Now(), 100u);
  EXPECT_FALSE(sim.Idle());
  // A bounded RunUntil stops on its budget too. Events at 110 are still
  // due, so the clock stays on the last event run instead of landing on
  // the bound, and an insertion at Now() runs before them.
  EXPECT_EQ(sim.RunUntil(110, 2), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 6, 7}));
  EXPECT_EQ(sim.Now(), 100u);
  sim.ScheduleAt(sim.Now(), [&] { order.push_back(8); });
  EXPECT_EQ(sim.RunUntilIdle(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 6, 7, 8, 1, 4, 2, 5}));
  EXPECT_EQ(sim.Now(), 120u);
  EXPECT_EQ(sim.EventsRun(), 9u);
}

TEST(Simulation, IdleLandsOnChargeHorizon) {
  Simulation sim;
  Executor exec(&sim);
  sim.ScheduleAt(100, [&] { exec.Occupy(400); });  // charge-only work to 500
  sim.RunUntilIdle();
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.Now(), 500u);
  EXPECT_EQ(sim.EventsRun(), 1u);
  // The queue keeps working from the landed clock, same cycle included.
  std::vector<Cycles> ran;
  sim.ScheduleAt(500, [&] { ran.push_back(sim.Now()); });
  sim.ScheduleAt(501, [&] { ran.push_back(sim.Now()); });
  sim.RunUntilIdle();
  EXPECT_EQ(ran, (std::vector<Cycles>{500, 501}));
  // A horizon behind the last event does not move the clock back.
  sim.NoteTime(600);
  sim.ScheduleAt(700, [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.Now(), 700u);
}

TEST(Executor, SerializesWork) {
  Simulation sim;
  Executor exec(&sim);
  std::vector<Cycles> finish_times;
  exec.Post(100, [&] { finish_times.push_back(sim.Now()); });
  exec.Post(50, [&] { finish_times.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(finish_times.size(), 2u);
  EXPECT_EQ(finish_times[0], 100u);  // first job finishes after its cost
  EXPECT_EQ(finish_times[1], 150u);  // second queues behind the first
}

TEST(Executor, IdleGapsAreNotCharged) {
  Simulation sim;
  Executor exec(&sim);
  Cycles t1 = 0;
  exec.Post(10, [&] { t1 = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(t1, 10u);
  // Nothing posted for a while; the core is idle.
  sim.Schedule(100, [] {});  // fires at t=110 (relative to now=10)
  sim.RunUntilIdle();
  Cycles t2 = 0;
  exec.Post(5, [&] { t2 = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(t2, 115u);  // starts at now=110, not at old busy_until=10
  EXPECT_EQ(exec.busy_cycles(), 15u);
}

TEST(Executor, TracksUtilization) {
  Simulation sim;
  Executor exec(&sim);
  exec.Occupy(40);
  exec.Occupy(60);
  sim.RunUntilIdle();
  EXPECT_EQ(exec.busy_cycles(), 100u);
  EXPECT_EQ(exec.busy_until(), 100u);
}

TEST(Executor, FifoOrderPreserved) {
  Simulation sim;
  Executor exec(&sim);
  std::vector<int> order;
  // Post from two different sim events; FIFO across posts must hold.
  sim.Schedule(0, [&] { exec.Post(100, [&] { order.push_back(1); }); });
  sim.Schedule(1, [&] { exec.Post(1, [&] { order.push_back(2); }); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace semperos
