// simex oracle: planted schedule bugs that the explorer must find within
// the smoke budget. Bugs A and B are ones the sampled tie-break
// policies (fifo, lifo, shuffle:7 — exactly what scripts/check_bench.py
// runs every sim bench under) provably miss. Standalone so CI can gate
// on it without gtest.
//
// Bug A (tie order): three same-timestamp handlers race on one shared
// slot; the invariant breaks only when they run in order 1,2,0. The
// sampled policies execute permutations 0,1,2 (fifo), 2,1,0 (lifo) and
// 2,0,1 (shuffle:7) — none is the buggy one — so the bench gate stays green
// while one of the six legal schedules loses an acked write. DPOR
// reaches 1,2,0 in two race reversals from the reference.
//
// Bug B (fault timing): a write is acked at t=100us but WAL-flushed at
// t=300us; a component choice point offers {no fault, crash after
// flush, crash before flush}. The sampled policies only permute ties —
// they never take a non-default fault pick — so alternative 2 (the
// acked-but-lost window) is invisible to them by construction.
//
// Bug C (hot object): see HotObjectScenario.
//
// Exit 0 iff every sampled policy misses bugs A and B AND the explorer
// finds all three (a clean self-check means the seed rotted).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/simex.h"
#include "sim/simrace.h"
#include "sim/simulator.h"

using namespace dpdpu::sim;  // NOLINT: oracle brevity

namespace {

// --- Bug A: tie-order bug ------------------------------------------

ScenarioResult TieScenario(Simulator& sim) {
  // Each handler pair conflicts on its own object: prepare/commit share
  // the lock, commit/ack the log, prepare/ack the client-visible state.
  // The order log is what the invariant judges.
  auto lock = std::make_shared<Racy<int>>("oracle.lock");
  auto log = std::make_shared<Racy<int>>("oracle.log");
  auto visible = std::make_shared<Racy<int>>("oracle.visible");
  auto order = std::make_shared<std::vector<int>>();
  sim.Schedule(100, [lock, visible, order] {  // 0: prepare
    lock->write() = 0;
    visible->write() = 0;
    order->push_back(0);
  });
  sim.Schedule(100, [lock, log, order] {  // 1: commit
    lock->write() = 1;
    log->write() = 1;
    order->push_back(1);
  });
  sim.Schedule(100, [log, visible, order] {  // 2: ack
    log->write() = 2;
    visible->write() = 2;
    order->push_back(2);
  });
  sim.Run();
  ScenarioResult r;
  if (*order == std::vector<int>{1, 2, 0}) {
    r.ok = false;
    r.failure = "acked write lost: commit ran before prepare (order 1,2,0)";
  }
  // Deliberately order-independent: the bug must surface as an
  // invariant violation, not as metric divergence.
  r.metrics = "handlers=3\n";
  return r;
}

// --- Bug B: failover-timing bug ------------------------------------

ScenarioResult FaultScenario(Simulator& sim) {
  auto acked = std::make_shared<bool>(false);
  auto flushed = std::make_shared<bool>(false);
  auto crashed = std::make_shared<bool>(false);
  auto lost = std::make_shared<bool>(false);
  // 0 = no fault, 1 = crash after the flush, 2 = crash inside the
  // ack-to-flush window.
  uint32_t pick = sim.Choose("oracle.fail_time", 0, 3);
  sim.Schedule(100 * kMicrosecond, [acked, crashed] {
    if (!*crashed) *acked = true;  // client sees the write acknowledged
  });
  sim.Schedule(300 * kMicrosecond, [flushed, crashed] {
    if (!*crashed) *flushed = true;  // WAL reaches the device
  });
  if (pick != 0) {
    SimTime crash_at = (pick == 2 ? 200 : 400) * kMicrosecond;
    sim.Schedule(crash_at, [acked, flushed, crashed, lost] {
      *crashed = true;
      if (*acked && !*flushed) *lost = true;
    });
  }
  sim.Run();
  ScenarioResult r;
  if (*lost) {
    r.ok = false;
    r.failure = "acked write lost: node failed before WAL flush";
  }
  r.metrics = std::string("flushed=") + (*flushed ? "1" : "0") + "\n";
  return r;
}

// --- Bug C: hot-object bug -----------------------------------------
// Three same-timestamp handlers all conflict on ONE shared object; the
// invariant breaks only on the full reversal 2,1,0, which takes two
// composed reversals. simrace reports every conflicting causally-
// unordered pair, deduped on (object, event-pair), so one run feeds DPOR
// the full persistent set. A checker that reported only the first pair
// per (object, key) would hand DPOR one branch per run, flip that pair
// back and forth, and dead-end without reaching 2,1,0.

ScenarioResult HotObjectScenario(Simulator& sim) {
  auto slot = std::make_shared<Racy<int>>("oracle.hot");
  auto order = std::make_shared<std::vector<int>>();
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(100, [slot, order, i] {
      slot->write() = i;
      order->push_back(i);
    });
  }
  sim.Run();
  ScenarioResult r;
  if (*order == std::vector<int>{2, 1, 0}) {
    r.ok = false;
    r.failure = "torn update: hot object written in full reversal 2,1,0";
  }
  r.metrics = "handlers=3\n";
  return r;
}

// --- Harness -------------------------------------------------------

struct Policy {
  const char* name;
  TieBreak policy;
  uint64_t seed;
};

constexpr Policy kSampledPolicies[] = {
    {"fifo", TieBreak::kFifo, 1},
    {"lifo", TieBreak::kLifo, 1},
    {"shuffle:7", TieBreak::kShuffle, 7},
};

// Self-check half: every sampled policy must leave the planted bug
// hidden, or the seed no longer plants what this oracle claims.
bool HiddenFromSampledPolicies(const char* label, const Scenario& scenario) {
  bool all_hidden = true;
  for (const Policy& p : kSampledPolicies) {
    Simulator sim;
    sim.DisableRaceCheck();  // the planted races would abort under env/Debug
    sim.SetTieBreak(p.policy, p.seed);
    ScenarioResult r = scenario(sim);
    std::printf("  %-10s %-9s : %s\n", label, p.name,
                r.ok ? "bug hidden (as planted)" : r.failure.c_str());
    all_hidden = all_hidden && r.ok;
  }
  return all_hidden;
}

// Exploration half: `budget` schedules (the smoke budget is 64,
// matching the CI job) must surface the planted invariant violation.
bool FoundByExplorer(const char* label, Scenario scenario,
                     const std::string& expect_detail,
                     const std::string& expect_token, uint64_t budget) {
  ExploreOptions options;
  options.max_schedules = budget;
  // Races are the DPOR branch source here, not the planted defect.
  options.race_is_failure = false;
  Explorer ex(std::move(scenario), options);
  bool clean = ex.Explore();
  const ExploreFailure* hit = nullptr;
  for (const ExploreFailure& f : ex.failures()) {
    if (f.kind == "invariant" &&
        f.detail.find(expect_detail) != std::string::npos) {
      hit = &f;
      break;
    }
  }
  if (clean || hit == nullptr) {
    std::printf("  %-10s explorer  : MISSED the planted bug "
                "(%llu schedules)\n",
                label, (unsigned long long)ex.stats().schedules_run);
    return false;
  }
  ExploreFailure minimized = *hit;
  ex.Minimize(&minimized);
  std::printf("  %-10s explorer  : found in %llu schedules, replay %s\n",
              label, (unsigned long long)ex.stats().schedules_run,
              minimized.token.c_str());
  std::printf("%s", ex.FormatTrace(minimized).c_str());
  if (!expect_token.empty() && minimized.token != expect_token) {
    std::printf("  %-10s explorer  : minimized token %s, expected %s\n",
                label, minimized.token.c_str(), expect_token.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main() {
  std::printf("simex oracle: planted bugs the sampled policies miss\n");

  std::printf("[A] tie-order bug (breaks only on permutation 1,2,0)\n");
  bool a_hidden = HiddenFromSampledPolicies("tie-order", TieScenario);
  bool a_found = FoundByExplorer("tie-order", TieScenario,
                                 "commit ran before prepare",
                                 /*expect_token=*/"", /*budget=*/64);

  std::printf("[B] failover-timing bug (crash in the ack-to-flush window)\n");
  bool b_hidden = HiddenFromSampledPolicies("failover", FaultScenario);
  bool b_found = FoundByExplorer("failover", FaultScenario,
                                 "failed before WAL flush", "simex:1:0=2",
                                 /*budget=*/64);

  std::printf("[C] hot-object bug (breaks only on full reversal 2,1,0)\n");
  bool c_found = FoundByExplorer("hot-object", HotObjectScenario,
                                 "full reversal", /*expect_token=*/"",
                                 /*budget=*/32);

  bool ok = a_hidden && a_found && b_hidden && b_found && c_found;
  std::printf("simex oracle: %s\n",
              ok ? "planted bugs hidden from sampling, found by exploration"
                 : "FAILED");
  return ok ? 0 : 1;
}
