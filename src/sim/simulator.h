// The DPDPU discrete-event simulator. All hardware timing in this
// repository — CPU cycles, ASIC jobs, NIC serialization, PCIe DMA, SSD
// accesses — is expressed as events on this single virtual clock.
//
// Determinism contract: events are totally ordered by (time, tie-break
// key, insertion sequence), so two runs with the same seed and the same
// tie-break policy produce identical traces. The default policy (FIFO
// among equal timestamps) reduces to the historical (time, sequence)
// order; LIFO and seeded-shuffle policies perturb only the order of
// same-timestamp ties, which a correct model must be insensitive to —
// simrace (simrace.h) detects the cases that are not.

#ifndef DPDPU_SIM_SIMULATOR_H_
#define DPDPU_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/function.h"
#include "common/logging.h"
#include "sim/simrace.h"

namespace dpdpu::sim {

/// Virtual time in nanoseconds since simulation start.
using SimTime = uint64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000;
constexpr SimTime kMillisecond = 1000 * 1000;
constexpr SimTime kSecond = 1000ull * 1000 * 1000;

inline double ToSeconds(SimTime t) { return double(t) / double(kSecond); }

/// How the scheduler orders events that share a timestamp. Every policy
/// is deterministic; they differ only in which legal total order of the
/// ties they pick, which is exactly the freedom simrace's perturbation
/// oracle exercises.
enum class TieBreak : uint8_t {
  kFifo = 0,     // insertion order (the historical contract)
  kLifo = 1,     // reverse insertion order
  kShuffle = 2,  // seed-keyed pseudo-random order
};

/// SplitMix64 finalizer: cheap, high-quality mix for shuffle tie keys.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A systematic-exploration hook generalizing TieBreak: when installed
/// (Simulator::SetChooser), every scheduling decision with more than one
/// legal outcome is routed through it instead of the tie-key order, and
/// components expose their own nondeterminism (fault timing, drop
/// placement) as explicit choice points via Simulator::Choose. simex
/// (simex.h) drives this to enumerate schedules; a recorded sequence of
/// picks is a replay token that reproduces a run exactly.
class ScheduleChooser {
 public:
  virtual ~ScheduleChooser() = default;

  /// Picks which of `n` same-timestamp events runs next. `candidates`
  /// holds the events' sequence ids in the order the active tie-break
  /// policy would run them (index 0 = the policy's default pick), so
  /// returning 0 everywhere reproduces the unexplored schedule.
  virtual uint32_t ChooseTie(SimTime time, const uint64_t* candidates,
                             uint32_t n) = 0;

  /// Picks one of `n` alternatives at a component choice point. `domain`
  /// names the choice family (e.g. "fault.fail_slot"); `id`
  /// disambiguates instances within the family. Index 0 must be the
  /// component's default (no-fault) alternative.
  virtual uint32_t Choose(const char* domain, uint64_t id, uint32_t n) = 0;
};

/// Single-threaded event-driven simulator.
class Simulator {
 public:
  // Pre-size the event heap and the closure arena: fleet-scale runs push
  // thousands of events immediately, and growing the arena mid-run
  // move-relocates every pending closure.
  Simulator() {
    heap_.reserve(1024);
    slots_.reserve(1024);
    const EnvConfig& env = EnvConfig::Get();
    tie_policy_ = static_cast<TieBreak>(env.tie_policy);
    shuffle_seed_ = env.shuffle_seed;
    if (env.race_check) EnableRaceCheck(env.race_options);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator() { FinishRaceCheck(); }

  SimTime now() const { return now_; }
  uint64_t events_executed() const { return executed_; }

  /// Process-wide event count across all Simulator instances (bench
  /// binaries create one per scenario); feeds the events/sec wall-clock
  /// metric every bench emits. Simulators are single-threaded by design,
  /// so a plain counter suffices.
  static uint64_t TotalEventsExecuted() { return total_executed_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

  /// Schedules `fn` to run `delay` ns from now.
  void Schedule(SimTime delay, UniqueFunction fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t`; t must be >= now().
  void ScheduleAt(SimTime t, UniqueFunction fn) {
    DPDPU_CHECK(t >= now_);
    uint64_t seq = next_seq_++;
    if (race_) race_->OnSchedule(seq, t, current_event_);
    uint32_t slot = static_cast<uint32_t>(slots_.size());
    if (free_.empty()) {
      slots_.push_back(Slot{std::move(fn), current_event_});
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].fn = std::move(fn);
      slots_[slot].parent = current_event_;
    }
    heap_.push_back(Key{t, TieKey(seq), seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Key::Later);
  }

  /// Executes the next event, if any. Returns false when idle.
  bool Step() {
    if (heap_.empty()) return false;
    Key key = chooser_ ? PopChosen() : PopNext();
    DPDPU_CHECK(key.time >= now_);
    // Move the closure out and free its slot before running it, so the
    // event can schedule into that slot; the closure (and its captures)
    // dies when Step returns, after the event and before the next one.
    Slot& slot = slots_[key.slot];
    UniqueFunction fn = std::move(slot.fn);
    uint64_t parent = slot.parent;
    free_.push_back(key.slot);
    now_ = key.time;
    ++executed_;
    ++total_executed_;
    current_event_ = key.seq;
    if (race_) race_->BeginEvent(key.seq, key.time, parent);
    fn();
    if (race_) race_->EndEvent();
    current_event_ = kNoEvent;
    return true;
  }

  /// Runs until the event queue is empty. Returns events executed.
  uint64_t Run() {
    uint64_t n = 0;
    while (Step()) ++n;
    return n;
  }

  /// Runs events with time <= t, then advances the clock to exactly t.
  uint64_t RunUntil(SimTime t) {
    uint64_t n = 0;
    while (!heap_.empty() && heap_.front().time <= t) {
      Step();
      ++n;
    }
    if (t > now_) now_ = t;
    return n;
  }

  /// Runs for `d` ns of virtual time from now.
  uint64_t RunFor(SimTime d) { return RunUntil(now_ + d); }

  /// Selects the tie-break policy for subsequently scheduled events (the
  /// tie key is computed at scheduling time). `seed` keys kShuffle.
  void SetTieBreak(TieBreak policy, uint64_t seed = 1) {
    tie_policy_ = policy;
    shuffle_seed_ = seed;
  }
  TieBreak tie_break() const { return tie_policy_; }

  /// Installs (or clears, with nullptr) the exploration hook. While set,
  /// every Step() with two or more events tied at the minimum timestamp
  /// asks the chooser which one runs, and component choice points route
  /// through Choose(). Exploration runs only — the chosen-step path
  /// rebuilds the heap per step, which the hot path must never pay.
  void SetChooser(ScheduleChooser* chooser) { chooser_ = chooser; }
  ScheduleChooser* chooser() const { return chooser_; }

  /// Component choice point: returns the chooser's pick in [0, n), or 0
  /// (the default alternative) when no chooser is installed. Components
  /// must make alternative 0 the do-nothing/no-fault branch so normal
  /// runs are unperturbed.
  uint32_t Choose(const char* domain, uint64_t id, uint32_t n) {
    DPDPU_CHECK(n > 0);
    if (chooser_ == nullptr || n == 1) return 0;
    uint32_t pick = chooser_->Choose(domain, id, n);
    DPDPU_CHECK(pick < n);
    return pick;
  }

  /// Attaches a happens-before race checker (replacing any current one).
  /// Also enabled automatically in Debug builds and via
  /// DPDPU_SIM_RACECHECK=1; an explicit call overrides the environment.
  RaceChecker& EnableRaceCheck(RaceChecker::Options options = {}) {
    race_ = std::make_unique<RaceChecker>(options);
    return *race_;
  }
  void DisableRaceCheck() { race_.reset(); }
  RaceChecker* race_checker() { return race_.get(); }

  /// Flushes the checker's final timestamp bucket and prints reports
  /// (aborting on fatal races). Runs from the destructor; call earlier
  /// to read race_checker()->race_count() before the simulator dies.
  void FinishRaceCheck() {
    if (race_) race_->Finalize();
  }

 private:
  // The heap sifts plain 32-byte keys; each pending closure and its
  // parent event id stay put in an arena slot (recycled through free_)
  // until Step moves the closure out to run it.
  struct Key {
    SimTime time;
    uint64_t tie;
    uint64_t seq;
    uint32_t slot;

    // Min-heap on (time, tie, seq) via std::push_heap's max-heap
    // comparator; seq last keeps the order total for every policy.
    static bool Later(const Key& a, const Key& b) {
      if (a.time != b.time) return a.time > b.time;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  static_assert(sizeof(Key) == 32);

  struct Slot {
    UniqueFunction fn;
    uint64_t parent;  // event executing when this one was scheduled
  };

  /// Fast path: pop the heap minimum under the tie-break policy.
  Key PopNext() {
    std::pop_heap(heap_.begin(), heap_.end(), Key::Later);
    Key key = heap_.back();
    heap_.pop_back();
    return key;
  }

  /// Exploration path: collect every event tied at the minimum
  /// timestamp (in policy order, so pick 0 reproduces PopNext), ask the
  /// chooser, and remove the chosen event from the middle of the heap.
  Key PopChosen() {
    SimTime t = heap_.front().time;
    std::vector<size_t> ties;
    for (size_t i = 0; i < heap_.size(); ++i) {
      if (heap_[i].time == t) ties.push_back(i);
    }
    size_t idx = ties[0];
    if (ties.size() > 1) {
      std::sort(ties.begin(), ties.end(), [this](size_t a, size_t b) {
        return Key::Later(heap_[b], heap_[a]);
      });
      std::vector<uint64_t> seqs(ties.size());
      for (size_t i = 0; i < ties.size(); ++i) seqs[i] = heap_[ties[i]].seq;
      uint32_t pick = chooser_->ChooseTie(t, seqs.data(),
                                          static_cast<uint32_t>(seqs.size()));
      DPDPU_CHECK(pick < ties.size());
      idx = ties[pick];
    }
    Key key = heap_[idx];
    if (idx != heap_.size() - 1) heap_[idx] = heap_.back();
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), Key::Later);
    return key;
  }

  uint64_t TieKey(uint64_t seq) const {
    switch (tie_policy_) {
      case TieBreak::kFifo:
        return seq;
      case TieBreak::kLifo:
        return ~seq;
      case TieBreak::kShuffle:
        return SplitMix64(seq ^ shuffle_seed_);
    }
    return seq;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t current_event_ = kNoEvent;
  TieBreak tie_policy_ = TieBreak::kFifo;
  uint64_t shuffle_seed_ = 1;
  ScheduleChooser* chooser_ = nullptr;
  static inline uint64_t total_executed_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::unique_ptr<RaceChecker> race_;
};

}  // namespace dpdpu::sim

#endif  // DPDPU_SIM_SIMULATOR_H_
