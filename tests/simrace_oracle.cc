// simrace oracle self-test: an intentionally order-dependent handler.
//
// Two causally-unordered events at the same virtual nanosecond both
// write `winner`; whichever the tie-break policy runs last wins. This
// binary exists to prove both halves of simrace end to end:
//
//  * the happens-before detector reports the write/write race (with
//    provenance chains) on stderr, and
//  * the bench gate (`scripts/check_bench.py`, driven on a copy of this
//    binary by scripts/test_check_bench.py) sees the emitted metric
//    DIFFER between DPDPU_SIM_TIEBREAK=fifo and =lifo — the divergence
//    the detector predicts.
//
// Deliberately NOT installed under build/bench: every binary there must
// be schedule-insensitive, which this one exists to violate.

#include <cstdio>

#include "sim/simrace.h"
#include "sim/simulator.h"

int main() {
  using namespace dpdpu::sim;  // NOLINT(google-build-using-namespace)
  Simulator sim;
  // Explicit non-fatal checker: the race must be reported, not abort the
  // process (the oracle's exit code should reflect the metric, and
  // scripts/test_check_bench.py asserts on the stderr report instead).
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> winner("oracle.winner");
  sim.Schedule(1000, [&] { winner.write() = 1; });
  sim.Schedule(1000, [&] { winner.write() = 2; });
  sim.Run();
  sim.FinishRaceCheck();
  // Same shape as rt::EmitJsonMetric (sim-domain unit => exact-checked),
  // emitted directly to keep this binary's dependencies to sim only.
  std::printf(
      "{\"bench\":\"simrace_oracle\",\"metric\":\"last_writer\","
      "\"value\":%d,\"unit\":\"id\",\"seed\":1}\n",
      winner.read());
  return rc.race_count() > 0 ? 0 : 1;  // a clean run means the seed broke
}
