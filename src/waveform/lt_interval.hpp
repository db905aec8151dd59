// Last-transition-time intervals.
//
// An abstract waveform  v|lmin..max  (paper Def. 1) is the set of binary
// waveforms that eventually stabilise at value v and whose *last time
// different from v*, lambda(f), lies in [lmin, max] (lambda of the constant-v
// waveform is -inf). The interval [lmin, max] is the whole algebraic content
// of an abstract waveform; the class bit v is carried separately by
// AbstractSignal (one interval per class). This header implements the
// interval algebra: emptiness, intersection, hull-union (the paper's AW
// union), narrowness, and delay shifts.
#pragma once

#include <iosfwd>
#include <string>

#include "common/time.hpp"

namespace waveck {

/// Closed interval [lmin, max] of last-transition times. Empty iff lmin > max.
///
/// All empty intervals compare equal (the paper treats the empty abstract
/// waveform as a single value, phi); `normalized()` maps them to a canonical
/// representation.
struct LtInterval {
  Time lmin = Time::neg_inf();
  Time max = Time::pos_inf();

  constexpr LtInterval() = default;
  constexpr LtInterval(Time lo, Time hi) : lmin(lo), max(hi) {}

  /// The full interval (-inf, +inf): every stabilising waveform of the class.
  [[nodiscard]] static constexpr LtInterval top() { return {}; }
  /// Canonical empty interval (phi).
  [[nodiscard]] static constexpr LtInterval empty() {
    return {Time::pos_inf(), Time::neg_inf()};
  }
  /// Waveforms whose last transition is at or after `t` (the timing-check
  /// restriction  v|t..+inf  of Section 3.3 / Corollary 1).
  [[nodiscard]] static constexpr LtInterval at_or_after(Time t) {
    return {t, Time::pos_inf()};
  }
  /// Waveforms stable at/before `t`:  v|-inf..t  (floating-mode inputs use
  /// t = 0).
  [[nodiscard]] static constexpr LtInterval stable_after(Time t) {
    return {Time::neg_inf(), t};
  }

  [[nodiscard]] constexpr bool is_empty() const { return lmin > max; }
  [[nodiscard]] constexpr bool is_top() const {
    return lmin.is_neg_inf() && max.is_pos_inf();
  }

  [[nodiscard]] constexpr LtInterval normalized() const {
    return is_empty() ? empty() : *this;
  }

  friend constexpr bool operator==(const LtInterval& a, const LtInterval& b) {
    if (a.is_empty() || b.is_empty()) return a.is_empty() && b.is_empty();
    return a.lmin == b.lmin && a.max == b.max;
  }

  /// Set intersection (exact on intervals).
  [[nodiscard]] constexpr LtInterval intersect(const LtInterval& o) const {
    if (is_empty() || o.is_empty()) return empty();
    return LtInterval{Time::max(lmin, o.lmin), Time::min(max, o.max)}
        .normalized();
  }

  /// The paper's AW union: the narrowest interval containing both operands
  /// (convex hull). May strictly over-approximate set union (Lemma 1 gives
  /// the exactness condition, see `union_is_exact`).
  [[nodiscard]] constexpr LtInterval hull(const LtInterval& o) const {
    if (is_empty()) return o.normalized();
    if (o.is_empty()) return normalized();
    return {Time::min(lmin, o.lmin), Time::max(max, o.max)};
  }

  /// Lemma 1: the hull equals the true set union iff the operand intervals
  /// are adjacent or overlapping (no integer gap between them).
  [[nodiscard]] constexpr bool union_is_exact(const LtInterval& o) const {
    if (is_empty() || o.is_empty()) return true;
    return o.max + 1 >= lmin && max + 1 >= o.lmin;
  }

  [[nodiscard]] constexpr bool contains(Time t) const {
    return lmin <= t && t <= max;
  }
  /// Subset test (exact on intervals).
  [[nodiscard]] constexpr bool contains(const LtInterval& o) const {
    if (o.is_empty()) return true;
    if (is_empty()) return false;
    return lmin <= o.lmin && o.max <= max;
  }
  [[nodiscard]] constexpr bool intersects(const LtInterval& o) const {
    return !intersect(o).is_empty();
  }

  /// Strict narrowness  w1 < w2  (paper Section 3.1.1): proper subset with at
  /// least one bound strictly tightened. Empty is narrower than any
  /// non-empty interval.
  [[nodiscard]] constexpr bool narrower_than(const LtInterval& o) const {
    if (is_empty()) return !o.is_empty();
    if (o.is_empty()) return false;
    return (max <= o.max && lmin > o.lmin) || (max < o.max && lmin >= o.lmin);
  }

  /// Forward shift through a delay interval [dmin, dmax]: a transition at
  /// time t on the input appears on the output in [t + dmin, t + dmax].
  [[nodiscard]] constexpr LtInterval shift_forward(std::int64_t dmin,
                                                   std::int64_t dmax) const {
    if (is_empty()) return empty();
    return {lmin + dmin, max + dmax};
  }
  /// Backward shift (inverse image through the delay interval).
  [[nodiscard]] constexpr LtInterval shift_backward(std::int64_t dmin,
                                                    std::int64_t dmax) const {
    if (is_empty()) return empty();
    return {lmin - dmax, max - dmin};
  }

  [[nodiscard]] std::string str() const;
};

std::ostream& operator<<(std::ostream& os, const LtInterval& i);

}  // namespace waveck
