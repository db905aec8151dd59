// Abstract signals (paper Def. 2): one last-transition interval per final
// value. An abstract waveform v|lmin..max (Def. 1) is a class bit plus an
// LtInterval, so it has no type of its own: it is `cls(v)` of a signal.
#pragma once

#include <array>
#include <cassert>
#include <iosfwd>
#include <string>

#include "waveform/lt_interval.hpp"

namespace waveck {

/// An abstract signal: a pair of abstract waveforms, one per final value
/// (paper Def. 2). `cls(0)` holds the last-transition interval of the
/// finally-0 waveforms, `cls(1)` of the finally-1 ones. This is the domain of
/// every constraint variable (one per circuit net).
struct AbstractSignal {
  std::array<LtInterval, 2> w = {LtInterval::top(), LtInterval::top()};

  constexpr AbstractSignal() = default;
  constexpr AbstractSignal(LtInterval w0, LtInterval w1) : w{w0, w1} {}

  /// Top: contains every stabilising binary waveform.
  [[nodiscard]] static constexpr AbstractSignal top() { return {}; }
  /// Both classes empty: no waveform possible (inconsistency witness,
  /// Theorem 2).
  [[nodiscard]] static constexpr AbstractSignal bottom() {
    return {LtInterval::empty(), LtInterval::empty()};
  }
  /// Floating-mode primary input: stable at/ after time t (paper uses t=0).
  [[nodiscard]] static constexpr AbstractSignal floating_input(Time t = 0) {
    return {LtInterval::stable_after(t), LtInterval::stable_after(t)};
  }
  /// Timing-check output restriction: transitions at or after delta.
  [[nodiscard]] static constexpr AbstractSignal violating(Time delta) {
    return {LtInterval::at_or_after(delta), LtInterval::at_or_after(delta)};
  }
  /// Restriction of a net to one final class (case-analysis decision).
  [[nodiscard]] static constexpr AbstractSignal class_only(bool v) {
    AbstractSignal s;
    s.w[v ? 0 : 1] = LtInterval::empty();
    return s;
  }

  [[nodiscard]] constexpr LtInterval& cls(bool v) { return w[v ? 1 : 0]; }
  [[nodiscard]] constexpr const LtInterval& cls(bool v) const {
    return w[v ? 1 : 0];
  }

  [[nodiscard]] constexpr bool is_bottom() const {
    return w[0].is_empty() && w[1].is_empty();
  }
  [[nodiscard]] constexpr bool is_top() const {
    return w[0].is_top() && w[1].is_top();
  }
  /// True iff exactly one class is non-empty (final value decided).
  [[nodiscard]] constexpr bool single_class() const {
    return w[0].is_empty() != w[1].is_empty();
  }
  /// The decided final value; caller must ensure `single_class()`.
  [[nodiscard]] constexpr bool the_class() const {
    assert(single_class());
    return w[0].is_empty();
  }

  friend constexpr bool operator==(const AbstractSignal& a,
                                   const AbstractSignal& b) {
    return a.w[0] == b.w[0] && a.w[1] == b.w[1];
  }

  [[nodiscard]] constexpr AbstractSignal intersect(
      const AbstractSignal& o) const {
    return {w[0].intersect(o.w[0]), w[1].intersect(o.w[1])};
  }
  [[nodiscard]] constexpr AbstractSignal unite(const AbstractSignal& o) const {
    return {w[0].hull(o.w[0]), w[1].hull(o.w[1])};
  }
  [[nodiscard]] constexpr bool contains(const AbstractSignal& o) const {
    return w[0].contains(o.w[0]) && w[1].contains(o.w[1]);
  }
  /// Paper narrowness on AS: componentwise <=, strict in at least one class.
  [[nodiscard]] constexpr bool narrower_than(const AbstractSignal& o) const {
    const bool le0 = o.w[0].contains(w[0]);
    const bool le1 = o.w[1].contains(w[1]);
    return le0 && le1 && !(*this == o);
  }

  /// Latest possible last-transition time over both classes (used by the
  /// dynamic-carrier test and the "blocks the way" decision of Section 4).
  [[nodiscard]] constexpr Time latest() const {
    if (is_bottom()) return Time::neg_inf();
    if (w[0].is_empty()) return w[1].max;
    if (w[1].is_empty()) return w[0].max;
    return Time::max(w[0].max, w[1].max);
  }
  /// Earliest guaranteed last-transition lower bound over both classes.
  [[nodiscard]] constexpr Time earliest_lmin() const {
    if (is_bottom()) return Time::pos_inf();
    if (w[0].is_empty()) return w[1].lmin;
    if (w[1].is_empty()) return w[0].lmin;
    return Time::min(w[0].lmin, w[1].lmin);
  }

  /// True iff some waveform in the signal has a transition at/after `t`
  /// (the Def. 7 dynamic-carrier condition).
  [[nodiscard]] constexpr bool has_transition_at_or_after(Time t) const {
    return latest() >= t && !is_bottom();
  }

  [[nodiscard]] std::string str() const;
};

std::ostream& operator<<(std::ostream& os, const AbstractSignal& s);

}  // namespace waveck
