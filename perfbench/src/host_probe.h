// The benchmark's gauge of host speed.  On a shared machine the speed of
// hmn moves by up to half in phases lasting seconds to tens of minutes,
// while nothing in the program changes.  HostProbe times a fixed piece of
// work that uses no hmn code: Dijkstra over a fixed sparse graph,
// insertions and erasures in an ordered map, and sorts, the kinds of work
// the placement code does.  The benchmark times the probe between passes
// and scales a run's timings to a host on which the probe takes
// kReferenceSeconds.  A slow phase of the host slows the probe and hmn
// alike and mostly cancels; a change to hmn moves hmn only.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// The probe's time on the reference host.  Any fixed value would do:
  /// it only sets the scale.  NOTES.md gives the probe times seen on the
  /// baseline machine.
  static constexpr double kReferenceSeconds = 0.05;

  HostProbe();  // builds the fixed inputs; not timed

  /// Runs the fixed work once and returns its wall time in seconds.
  double seconds();

 private:
  std::vector<std::uint32_t> offsets_;  // CSR graph
  std::vector<std::uint32_t> targets_;
  std::vector<double> weights_;
  std::vector<std::uint32_t> keys_;     // map operations
  std::vector<double> values_;          // sort input
  double sink_ = 0.0;                   // keeps the work observable
};

}  // namespace perfbench
