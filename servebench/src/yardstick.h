// The yardstick: a fixed amount of benchmark-owned work that uses none of
// the engine, timed between the slices of the measured window.
//
// On a shared host the speed of the whole machine drifts by tens of percent
// over minutes (neighbour load), and a slice of served queries slows down
// with it. The yardstick does the same kinds of work the served path does:
// round trips over a loopback TCP connection to a second thread (syscalls,
// wake-ups, the network stack) and hash-table build and probe over a
// working set under a megabyte (allocator, caches). Its duration therefore
// moves with the host, and not with any change to the engine or the
// server: wall-clock and CPU metrics are reported at the yardstick's
// nominal speed (README, "Host-speed correction").
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace servebench {

class Yardstick {
 public:
  ~Yardstick();
  Yardstick(const Yardstick&) = delete;
  Yardstick& operator=(const Yardstick&) = delete;

  /// Opens one loopback connection, with its echo thread, per CPU the
  /// process may use. Returns null and sets `error` on failure.
  static std::unique_ptr<Yardstick> Start(std::string* error);

  /// Runs the fixed work once on each of those CPUs in turn, with the
  /// calling thread and the echo thread both pinned to it. Returns the mean
  /// wall time per CPU in seconds, or a negative value when a loopback
  /// connection failed. A workload on two CPUs thus sees a slowdown of
  /// either.
  double Measure();

  /// Typical wall time of one CPU's share of Measure() on the machine the
  /// baseline was measured on (baseline.json). Corrected values are scaled
  /// by kNominalSeconds / measured, so they still read in the metric's unit.
  static constexpr double kNominalSeconds = 0.022;

 private:
  struct Lane;
  Yardstick();
  static double MeasureHash();

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace servebench
