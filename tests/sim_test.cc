// Unit tests for the discrete-event simulator and the Resource queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace dpdpu::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.Run();
  ASSERT_EQ(sim.now(), 10u);
  sim.RunFor(25);
  EXPECT_EQ(sim.now(), 35u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime when = 0;
  sim.ScheduleAt(123, [&] { when = sim.now(); });
  sim.Run();
  EXPECT_EQ(when, 123u);
}

TEST(SimulatorTest, EventCountTracksExecution) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = 0;
  bool monotonic = true;
  // Interleave scheduling from callbacks to stress the heap.
  for (int i = 0; i < 1000; ++i) {
    sim.Schedule((i * 7919) % 1000, [&, i] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
      if (i % 3 == 0) {
        sim.Schedule(13, [&] {
          if (sim.now() < last) monotonic = false;
          last = sim.now();
        });
      }
    });
  }
  sim.Run();
  EXPECT_TRUE(monotonic);
}

// --------------------------------------------------------------------------
// Event order against a naive reference scheduler
// --------------------------------------------------------------------------

// What an event does when it runs: schedule these children. A pure
// function of the event id, so Simulator and the reference build the
// same event tree whenever they run events in the same order.
enum class Capture : uint8_t { kInline, kBoxed, kShared };
struct Child {
  SimTime delay;
  Capture capture;
};
std::vector<Child> ChildrenOf(uint64_t id) {
  static constexpr SimTime kDelays[] = {0, 0, 1, 3, 10, 10, 100, 1000};
  uint64_t h = SplitMix64(id);
  size_t n = h % 4 == 0 ? 0 : (h % 4 == 3 ? 2 : 1);
  std::vector<Child> children;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = h >> (8 + 16 * i);
    children.push_back({kDelays[bits & 7], Capture((bits >> 3) % 3)});
  }
  return children;
}

constexpr uint64_t kMaxOrderEvents = 5000;

// Pending events in a list sorted by (time, tie key, seq); runs the front.
class ReferenceScheduler {
 public:
  ReferenceScheduler(TieBreak policy, uint64_t seed)
      : policy_(policy), seed_(seed) {}

  SimTime now() const { return now_; }
  size_t pending() const { return pending_.size(); }

  void Schedule(SimTime delay) {
    if (next_seq_ == kMaxOrderEvents) return;
    uint64_t seq = next_seq_++;
    Entry e{now_ + delay, TieKey(seq), seq};
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), e), e);
  }

  /// Runs every event at or before `limit` and appends its id to `order`.
  void RunUntil(SimTime limit, std::vector<uint64_t>* order) {
    while (!pending_.empty() && pending_.front().time <= limit) {
      Entry e = pending_.front();
      pending_.erase(pending_.begin());
      now_ = e.time;
      order->push_back(e.seq);
      for (const Child& c : ChildrenOf(e.seq)) Schedule(c.delay);
    }
    if (limit != kForever && limit > now_) now_ = limit;
  }

  static constexpr SimTime kForever = ~SimTime{0};

 private:
  struct Entry {
    SimTime time;
    uint64_t tie;
    uint64_t seq;
    bool operator<(const Entry& o) const {
      return std::tie(time, tie, seq) < std::tie(o.time, o.tie, o.seq);
    }
  };

  uint64_t TieKey(uint64_t seq) const {
    switch (policy_) {
      case TieBreak::kFifo:
        return seq;
      case TieBreak::kLifo:
        return ~seq;
      case TieBreak::kShuffle:
        return SplitMix64(seq ^ seed_);
    }
    return seq;
  }

  TieBreak policy_;
  uint64_t seed_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Entry> pending_;
};

// Runs Simulator through the same event tree. Event ids are scheduling
// order, which is Simulator's sequence number.
class SimulatorRunner {
 public:
  SimulatorRunner(TieBreak policy, uint64_t seed) {
    sim_.SetTieBreak(policy, seed);
  }

  Simulator& sim() { return sim_; }
  const std::vector<uint64_t>& order() const { return order_; }

  void Schedule(SimTime delay, Capture capture) {
    if (next_id_ == kMaxOrderEvents) return;
    uint64_t id = next_id_++;
    UniqueFunction fn;
    switch (capture) {
      case Capture::kInline:
        fn = [this, id] { Run(id); };
        EXPECT_TRUE(fn.is_inline());
        break;
      case Capture::kBoxed: {
        std::array<uint64_t, 16> pad{};
        pad.fill(id * 3 + 1);
        fn = [this, id, pad] {
          EXPECT_EQ(pad[15], id * 3 + 1);  // survived every relocation
          Run(id);
        };
        EXPECT_FALSE(fn.is_inline());
        break;
      }
      case Capture::kShared: {
        auto token = std::make_shared<uint64_t>(id);
        fn = [this, id, token] {
          EXPECT_EQ(*token, id);
          Run(id);
          last_token_ = token;
        };
        EXPECT_TRUE(fn.is_inline());
        break;
      }
    }
    sim_.Schedule(delay, std::move(fn));
  }

 private:
  void Run(uint64_t id) {
    // The previous event's closure, and the token it held, must be gone.
    EXPECT_TRUE(last_token_.expired()) << "before event " << id;
    order_.push_back(id);
    for (const Child& c : ChildrenOf(id)) Schedule(c.delay, c.capture);
  }

  Simulator sim_;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> order_;
  std::weak_ptr<uint64_t> last_token_;
};

TEST(SimulatorTest, EventOrderMatchesReferenceScheduler) {
  const TieBreak kPolicies[] = {TieBreak::kFifo, TieBreak::kLifo,
                                TieBreak::kShuffle};
  for (TieBreak policy : kPolicies) {
    SCOPED_TRACE(testing::Message() << "policy " << int(policy));
    SimulatorRunner runner(policy, /*seed=*/7);
    ReferenceScheduler ref(policy, /*seed=*/7);
    auto schedule_roots = [&](uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) {
        SimTime delay = (i * 7) % 23 % 11;  // many same-time ties
        runner.Schedule(delay, Capture(i % 3));
        ref.Schedule(delay);
      }
    };
    schedule_roots(64);
    std::vector<uint64_t> expected;
    for (SimTime boundary : {0, 5, 10, 10, 23, 100, 150, 1000, 5000}) {
      runner.sim().RunUntil(boundary);
      ref.RunUntil(boundary, &expected);
      ASSERT_EQ(runner.order(), expected) << "at RunUntil(" << boundary << ")";
      EXPECT_EQ(runner.sim().now(), ref.now());
      EXPECT_EQ(runner.sim().pending(), ref.pending());
      schedule_roots(4);  // from outside any event, tied with pending ones
    }
    runner.sim().Run();
    ref.RunUntil(ReferenceScheduler::kForever, &expected);
    EXPECT_EQ(runner.order(), expected);
    EXPECT_EQ(runner.sim().now(), ref.now());
    EXPECT_EQ(expected.size(), kMaxOrderEvents);
    EXPECT_TRUE(runner.sim().empty());
  }
}

// --------------------------------------------------------------------------
// Resource
// --------------------------------------------------------------------------

TEST(ResourceTest, SingleServerSerializesJobs) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    r.Submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
}

TEST(ResourceTest, MultiServerRunsConcurrently) {
  Simulator sim;
  Resource r(&sim, "cpu", 3);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    r.Submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 100, 100}));
}

TEST(ResourceTest, QueueDrainsFifo) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    r.Submit(10, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.jobs_completed(), 5u);
}

TEST(ResourceTest, BusyTimeAccumulatesServiceTime) {
  Simulator sim;
  Resource r(&sim, "cpu", 2);
  for (int i = 0; i < 4; ++i) r.Submit(50);
  sim.Run();
  EXPECT_EQ(r.busy_time(), 200u);
  // 4 jobs x 50ns over 100ns elapsed on 2 servers => 2.0 busy-server equiv.
  EXPECT_DOUBLE_EQ(r.BusyServerEquivalent(sim.now()), 2.0);
  EXPECT_DOUBLE_EQ(r.Utilization(sim.now()), 1.0);
}

TEST(ResourceTest, UtilizationBelowOneWhenIdle) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  r.Submit(100);
  sim.Run();
  sim.RunUntil(400);
  EXPECT_DOUBLE_EQ(r.Utilization(sim.now()), 0.25);
}

TEST(ResourceTest, WaitHistogramRecordsQueueing) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  r.Submit(100);
  r.Submit(100);  // waits 100
  r.Submit(100);  // waits 200
  sim.Run();
  EXPECT_EQ(r.wait_histogram().count(), 3u);
  EXPECT_EQ(r.wait_histogram().min(), 0u);
  // Log-bucket resolution ~4%.
  EXPECT_NEAR(double(r.wait_histogram().max()), 200.0, 1.0);
}

TEST(ResourceTest, SubmitFromCompletionCallback) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  int chain = 0;
  UniqueFunction step;
  r.Submit(10, [&] {
    ++chain;
    r.Submit(10, [&] { ++chain; });
  });
  sim.Run();
  EXPECT_EQ(chain, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(ResourceTest, ZeroServiceTimeJobs) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  int done = 0;
  for (int i = 0; i < 10; ++i) r.Submit(0, [&] { ++done; });
  sim.Run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(ResourceTest, QueueLengthVisibleMidRun) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  for (int i = 0; i < 5; ++i) r.Submit(100);
  EXPECT_EQ(r.busy(), 1u);
  EXPECT_EQ(r.queue_length(), 4u);
  sim.RunUntil(150);
  EXPECT_EQ(r.queue_length(), 3u);
  sim.Run();
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.busy(), 0u);
}

}  // namespace
}  // namespace dpdpu::sim
