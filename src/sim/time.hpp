// Simulated time: signed 64-bit nanoseconds.
//
// Nanosecond resolution covers sub-microsecond network hops while still
// representing ~292 years, enough for multi-month purge-policy simulations.
#pragma once

#include <cstdint>

namespace spider::sim {

/// Nanoseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;
inline constexpr SimTime kMinute = 60 * kSecond;
inline constexpr SimTime kHour = 60 * kMinute;
inline constexpr SimTime kDay = 24 * kHour;

/// Convert (possibly fractional) seconds to SimTime.
inline constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}

/// True when from_seconds(s) is defined: s is finite and s seconds fit in
/// SimTime (|s| below ~292 years). Check external input with it first.
inline constexpr bool fits_sim_time(double s) {
  const double ns = s * static_cast<double>(kSecond);
  return ns > -0x1p63 && ns < 0x1p63;
}

/// Convert a delay in seconds to SimTime, rounding up to the next whole
/// nanosecond and never below 1 ns: an event scheduled this far ahead fires
/// no earlier than s seconds (and at most 1 ns later) and always moves the
/// clock forward. Requires fits_sim_time(s).
inline constexpr SimTime from_seconds_ceil(double s) {
  const double ns = s * static_cast<double>(kSecond);
  SimTime t = static_cast<SimTime>(ns);
  if (static_cast<double>(t) < ns) ++t;
  return t < 1 ? 1 : t;
}

/// Convert SimTime to fractional seconds.
// spiderlint: units-ok — this IS the unit boundary: SimTime -> raw seconds
inline constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Convert SimTime to fractional hours.
inline constexpr double to_hours(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kHour);
}

/// Convert SimTime to fractional days.
inline constexpr double to_days(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kDay);
}

}  // namespace spider::sim
