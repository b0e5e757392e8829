// gp::health::EventCounts — the serve stack's one event vocabulary
// (DESIGN.md §8.3). Every frame or segment fate the server tallies is one
// entry of GP_SERVE_EVENTS: its EventCounts member, its health-window JSON
// key (nullptr: not a window column) and its gp.serve.* counter name. The
// shard and batcher tallies, the health tick cells and window sums, and the
// exported counters are all EventCounts, so an event is added in one line.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gp::health {

// X(member, window_key, counter)
#define GP_SERVE_EVENTS(X)                                              \
  X(frames_admitted, "frames_admitted", "gp.serve.frames")              \
  X(frames_rejected, "frames_rejected", "gp.serve.rejected.queue_full") \
  X(fault_drops, "fault_drops", "gp.serve.fault_drops")                 \
  X(segments, "results", "gp.serve.segments")                           \
  X(abstained, "abstained", "gp.serve.abstained")                       \
  X(quality_rejected, "quality_rejected", "gp.serve.rejected.quality")  \
  X(no_model, "no_model", "gp.serve.no_model")                          \
  X(batches, "batches", "gp.serve.batches")                             \
  X(novelty_rejected, nullptr, "gp.serve.rejected.novelty")

/// Monotonic tallies (or a delta of two), one field per event. Admission
/// counts are frames; segments is every flushed segment (each yields exactly
/// one result); abstained includes every refusal kind.
struct EventCounts {
#define GP_EVENT_MEMBER(member, window_key, counter) std::uint64_t member = 0;
  GP_SERVE_EVENTS(GP_EVENT_MEMBER)
#undef GP_EVENT_MEMBER

  EventCounts& operator+=(const EventCounts& other);
  EventCounts& operator-=(const EventCounts& other);
  friend EventCounts operator+(EventCounts a, const EventCounts& b) { return a += b; }
  friend EventCounts operator-(EventCounts a, const EventCounts& b) { return a -= b; }
};

struct EventInfo {
  std::uint64_t EventCounts::*member;
  const char* name;        ///< the member's name
  const char* window_key;  ///< health window JSON key; nullptr = not a column
  const char* counter;     ///< gp.serve.* counter name
};

inline constexpr EventInfo kEvents[] = {
#define GP_EVENT_INFO(member, window_key, counter) \
  {&EventCounts::member, #member, window_key, counter},
    GP_SERVE_EVENTS(GP_EVENT_INFO)
#undef GP_EVENT_INFO
};
inline constexpr std::size_t kEventCount = sizeof(kEvents) / sizeof(kEvents[0]);

#undef GP_SERVE_EVENTS

inline EventCounts& EventCounts::operator+=(const EventCounts& other) {
  for (const EventInfo& e : kEvents) this->*e.member += other.*e.member;
  return *this;
}

inline EventCounts& EventCounts::operator-=(const EventCounts& other) {
  for (const EventInfo& e : kEvents) this->*e.member -= other.*e.member;
  return *this;
}

}  // namespace gp::health
