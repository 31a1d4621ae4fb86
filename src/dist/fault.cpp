#include "dist/fault.hpp"

#include <bit>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/check.hpp"

namespace sa::dist {

namespace {

/// SplitMix64 finalizer: the one-shot mixer all seed-derived decisions go
/// through, so every choice is a pure function of (seed, event).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

FaultKind parse_kind(const std::string& token) {
  if (token == "delay") return FaultKind::kDelay;
  if (token == "stall") return FaultKind::kStall;
  if (token == "corrupt") return FaultKind::kCorrupt;
  if (token == "drop") return FaultKind::kDropBroadcast;
  if (token == "lost") return FaultKind::kRankLost;
  throw PreconditionError(
      "FaultPlan: unknown fault kind '" + token +
      "' (expected delay|stall|corrupt|drop|lost)");
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  SA_CHECK(!token.empty() &&
               token.find_first_not_of("0123456789") == std::string::npos,
           std::string("FaultPlan: ") + what + " '" + token +
               "' is not a non-negative integer");
  return std::stoull(token);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kDropBroadcast:
      return "drop";
    case FaultKind::kRankLost:
      return "lost";
  }
  return "unknown";
}

FaultPlan FaultPlan::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  SA_CHECK(colon != std::string::npos,
           "FaultPlan: expected '<seed>:<kind>@<index>[/<rank>],...' — "
           "missing ':' in '" +
               text + "'");
  FaultPlan plan;
  plan.seed = parse_u64(text.substr(0, colon), "seed");
  std::stringstream events(text.substr(colon + 1));
  std::string item;
  while (std::getline(events, item, ',')) {
    const std::size_t at = item.find('@');
    SA_CHECK(at != std::string::npos,
             "FaultPlan: event '" + item + "' is missing '@<index>'");
    FaultEvent event;
    event.kind = parse_kind(item.substr(0, at));
    std::string where = item.substr(at + 1);
    const std::size_t slash = where.find('/');
    if (slash != std::string::npos) {
      event.rank = static_cast<int>(
          parse_u64(where.substr(slash + 1), "rank"));
      where = where.substr(0, slash);
    }
    event.index = parse_u64(where, "index");
    plan.events.push_back(event);
  }
  SA_CHECK(!plan.events.empty(),
           "FaultPlan: no events in '" + text + "'");
  return plan;
}

std::string FaultPlan::format() const {
  std::ostringstream os;
  os << seed << ':';
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ',';
    os << to_string(events[i].kind) << '@' << events[i].index;
    if (events[i].rank >= 0) os << '/' << events[i].rank;
  }
  return os.str();
}

FaultyComm::FaultyComm(Communicator& inner, FaultPlan plan)
    : inner_(inner),
      plan_(std::move(plan)),
      consumed_(plan_.events.size(), false) {}

std::size_t FaultyComm::find_event(FaultKind kind, std::size_t index) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    if (!consumed_[i] && plan_.events[i].kind == kind &&
        plan_.events[i].index == index) {
      return i;
    }
  }
  return plan_.events.size();
}

void FaultyComm::consume(std::size_t event) {
  consumed_[event] = true;
  ++injected_;
}

std::uint64_t FaultyComm::event_hash(std::size_t event) const {
  return mix64(plan_.seed ^ mix64(plan_.events[event].index * 2654435761ull +
                                  static_cast<std::uint64_t>(
                                      plan_.events[event].kind)));
}

int FaultyComm::culprit(std::size_t event) const {
  if (plan_.events[event].rank >= 0) return plan_.events[event].rank;
  return static_cast<int>(event_hash(event) % static_cast<std::uint64_t>(
                                                  size()));
}

void FaultyComm::do_allreduce_sum(std::span<double> data) {
  inner_.allreduce_sum(data);
  std::size_t round = 0;
  // Untagged collectives are instrumentation traffic — never round-faulted.
  if (tagged_round(&round)) {
    inject_round_faults(round, data);
  } else if (drop_armed_ && ++bcast_allreduces_ >= 2) {
    // The first collective inside broadcast_bytes is the header; the
    // second is the first payload chunk — that is the one to lose.  Every
    // rank zeroes its reduced copy identically, so the ranks reassemble
    // the same wrong payload and fail the broadcast's digest check
    // together.
    for (double& word : data) word = 0.0;
    drop_armed_ = false;
  }
}

// sa-lint: allow(alloc): chaos plane — allocates only to describe faults
void FaultyComm::inject_round_faults(std::size_t round,
                                     std::span<double> data) {
  std::size_t e = find_event(FaultKind::kDelay, round);
  if (e < plan_.events.size()) {
    consume(e);
    if (culprit(e) == rank()) {
      // Recoverable jitter: 1–20 ms, seed-derived.  The collective is
      // already complete, so the sleep skews only this rank's wall clock.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 + event_hash(e) % 20));
    }
  }

  e = find_event(FaultKind::kStall, round);
  if (e < plan_.events.size()) {
    consume(e);
    if (round_deadline() > 0.0) {
      std::ostringstream os;
      os << "allreduce_sum: round " << round << " missed its "
         << round_deadline() << "s deadline (rank " << culprit(e)
         << " stalled)";
      throw CommFailure(FailureKind::kTimeout, os.str());
    }
    // No deadline armed: nothing can detect the stall, so it degrades to
    // a delay on the culprit — exactly the failure mode round_deadline
    // exists to catch.
    if (culprit(e) == rank()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 + event_hash(e) % 20));
    }
  }

  e = find_event(FaultKind::kRankLost, round);
  if (e < plan_.events.size()) {
    consume(e);
    std::ostringstream os;
    os << "allreduce_sum: rank " << culprit(e) << " lost during round "
       << round << " (peer unreachable)";
    throw CommFailure(FailureKind::kRankLost, os.str());
  }

  e = find_event(FaultKind::kCorrupt, round);
  if (e < plan_.events.size() && !data.empty()) {
    consume(e);
    // Flip one mantissa bit of one seed-chosen word, identically on every
    // rank's delivered copy.  Detection is NOT here: the engine's digest
    // check (RoundMessage::reduce) has to catch this, which is what
    // the chaos suite asserts.
    const std::uint64_t h = event_hash(e);
    const std::size_t word = h % data.size();
    const int bit = static_cast<int>((h >> 32) % 52);
    data[word] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(
                                           data[word]) ^
                                       (1ull << bit));
  }
}

void FaultyComm::broadcast_bytes(std::vector<std::uint8_t>& bytes,
                                 int root) {
  const std::size_t index = broadcasts_++;
  const std::size_t e = find_event(FaultKind::kDropBroadcast, index);
  if (e < plan_.events.size() && size() > 1) {
    consume(e);
    drop_armed_ = true;
    bcast_allreduces_ = 0;
  }
  try {
    Communicator::broadcast_bytes(bytes, root);
  } catch (...) {
    drop_armed_ = false;
    throw;
  }
  drop_armed_ = false;
}

}  // namespace sa::dist
