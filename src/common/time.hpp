// Discrete time with +/- infinity sentinels and saturating arithmetic.
//
// The waveform-narrowing domain (Kassab et al., DATE'98) manipulates
// last-transition-time bounds of the form  -inf <= lmin <= max <= +inf.
// Bounds are integers (the paper works in discrete time, Def. 1); we add
// infinities so that the top domain (0|-inf..+inf, 1|-inf..+inf) and the
// "never transitions" value (lmin = -inf) are first-class.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace waveck {

/// A point in discrete time, or +/- infinity.
///
/// Arithmetic saturates at the infinities: `t + d` is +inf whenever either
/// operand is +inf, and -inf whenever either is -inf. Adding +inf to -inf is
/// a logic error (asserted); no narrowing rule ever needs it.
class Time {
 public:
  constexpr Time() = default;
  constexpr Time(std::int64_t v) : v_(v) {  // NOLINT(google-explicit-constructor)
    assert(v > kNegInf && v < kPosInf && "finite Time out of range");
  }

  [[nodiscard]] static constexpr Time neg_inf() { return Time(kNegInf, Raw{}); }
  [[nodiscard]] static constexpr Time pos_inf() { return Time(kPosInf, Raw{}); }

  [[nodiscard]] constexpr bool is_neg_inf() const { return v_ == kNegInf; }
  [[nodiscard]] constexpr bool is_pos_inf() const { return v_ == kPosInf; }
  [[nodiscard]] constexpr bool is_finite() const {
    return v_ != kNegInf && v_ != kPosInf;
  }

  /// Finite value accessor; caller must ensure `is_finite()`.
  [[nodiscard]] constexpr std::int64_t value() const {
    assert(is_finite());
    return v_;
  }

  friend constexpr auto operator<=>(Time a, Time b) = default;

  /// Saturating addition of a finite offset (gate delay, -delay, +/-1 ...).
  [[nodiscard]] constexpr Time plus(std::int64_t delta) const {
    if (!is_finite()) return *this;
    return Time(v_ + delta);
  }

  friend constexpr Time operator+(Time a, std::int64_t d) { return a.plus(d); }
  friend constexpr Time operator-(Time a, std::int64_t d) { return a.plus(-d); }

  [[nodiscard]] static constexpr Time min(Time a, Time b) { return a < b ? a : b; }
  [[nodiscard]] static constexpr Time max(Time a, Time b) { return a > b ? a : b; }

  /// Largest finite value. Analysis inputs (a netlist's longest delay path,
  /// a check's delta) are range-checked against it before any arithmetic,
  /// so finite bounds never reach the sentinels.
  static constexpr std::int64_t kMaxFinite = INT64_MAX / 4 - 1;

  [[nodiscard]] std::string str() const;

 private:
  struct Raw {};
  constexpr Time(std::int64_t v, Raw) : v_(v) {}

  // Leave headroom so saturating adds of delay sums can never wrap.
  static constexpr std::int64_t kNegInf = INT64_MIN / 4;
  static constexpr std::int64_t kPosInf = kMaxFinite + 1;

  std::int64_t v_ = 0;
};

std::ostream& operator<<(std::ostream& os, Time t);

}  // namespace waveck
