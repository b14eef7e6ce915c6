// Event-log implementation: a mutex-guarded ring of rendered records (see
// telemetry.h for the cursor protocol).
#include "panorama/obs/telemetry.h"

#include <chrono>
#include <cstdio>

#include "panorama/support/json.h"

namespace panorama::obs {

namespace {

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* eventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::ConnOpen: return "conn_open";
    case EventKind::ConnClose: return "conn_close";
    case EventKind::SubmitBegin: return "submit_begin";
    case EventKind::SubmitEnd: return "submit_end";
    case EventKind::Error: return "error";
    case EventKind::SlowRequest: return "slow_request";
    case EventKind::Snapshot: return "snapshot";
  }
  return "unknown";
}

EventFields& EventFields::num(std::string_view key, std::uint64_t value) {
  text_ += ",\"";
  text_ += key;
  text_ += "\":";
  text_ += std::to_string(value);
  return *this;
}

EventFields& EventFields::num(std::string_view key, std::int64_t value) {
  text_ += ",\"";
  text_ += key;
  text_ += "\":";
  text_ += std::to_string(value);
  return *this;
}

EventFields& EventFields::real(std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%.*s\":%.3f", static_cast<int>(key.size()), key.data(),
                value);
  text_ += buf;
  return *this;
}

EventFields& EventFields::str(std::string_view key, std::string_view value) {
  text_ += ",\"";
  text_ += key;
  text_ += "\":\"";
  support::appendJsonEscaped(text_, value);
  text_ += '"';
  return *this;
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(roundUpPow2(capacity)),
      mask_(capacity_ - 1),
      epochNs_(steadyNowNs()),
      ring_(capacity_) {}

double EventLog::uptimeMs() const {
  return static_cast<double>(steadyNowNs() - epochNs_) / 1e6;
}

std::uint64_t EventLog::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return head_;
}

std::uint64_t EventLog::append(EventKind kind, std::string fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = head_++;
  char head[96];
  std::snprintf(head, sizeof(head), "{\"seq\":%llu,\"ts_ms\":%.3f,\"kind\":\"%s\"",
                static_cast<unsigned long long>(seq), uptimeMs(), eventKindName(kind));
  std::string& rec = ring_[seq & mask_];  // reuses the overwritten record's buffer
  rec = head;
  rec += fields;
  rec += '}';
  return seq;
}

EventLog::Tail EventLog::tail(std::uint64_t cursor, std::size_t maxEvents) const {
  Tail t;
  std::lock_guard<std::mutex> lock(mutex_);
  // Records older than one full ring lap are gone.
  const std::uint64_t oldest = head_ > capacity_ ? head_ - capacity_ : 0;
  if (cursor < oldest) {
    t.dropped = oldest - cursor;
    cursor = oldest;
  }
  for (; cursor < head_ && t.events.size() < maxEvents; ++cursor)
    t.events.push_back(ring_[cursor & mask_]);
  t.nextCursor = cursor;
  return t;
}

}  // namespace panorama::obs
